// Push-plane wire framing: length-prefix round trips, incremental
// decoding across arbitrary stream fragmentation, corruption handling,
// and the SUBSCRIBE / SUBSCRIBE_ACK body codecs.
#include "push/framing.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dnscup::push {
namespace {

std::vector<uint8_t> bytes(std::initializer_list<uint8_t> list) {
  return std::vector<uint8_t>(list);
}

TEST(PushFraming, RoundTripsOneFrame) {
  std::vector<uint8_t> stream;
  const auto body = bytes({0xDE, 0xAD, 0xBE, 0xEF});
  ASSERT_TRUE(encode_frame(FrameKind::kPush, body, stream));
  // 2-byte length covers kind + body.
  ASSERT_EQ(stream.size(), 2 + 1 + body.size());
  EXPECT_EQ(stream[0], 0);
  EXPECT_EQ(stream[1], 5);

  FrameReader reader;
  reader.append(stream);
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.kind, FrameKind::kPush);
  EXPECT_EQ(frame.body, body);
  EXPECT_FALSE(reader.next(frame));
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_FALSE(reader.corrupt());
}

TEST(PushFraming, DecodesByteAtATime) {
  std::vector<uint8_t> stream;
  ASSERT_TRUE(encode_frame(FrameKind::kPing, {}, stream));
  ASSERT_TRUE(encode_frame(FrameKind::kPushAck, bytes({1, 2}), stream));

  FrameReader reader;
  std::vector<Frame> seen;
  for (uint8_t byte : stream) {
    reader.append(std::span(&byte, 1));
    Frame frame;
    while (reader.next(frame)) seen.push_back(frame);
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].kind, FrameKind::kPing);
  EXPECT_TRUE(seen[0].body.empty());
  EXPECT_EQ(seen[1].kind, FrameKind::kPushAck);
  EXPECT_EQ(seen[1].body, bytes({1, 2}));
}

TEST(PushFraming, ManyFramesInOneAppend) {
  std::vector<uint8_t> stream;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(encode_frame(FrameKind::kPush,
                             bytes({static_cast<uint8_t>(i)}), stream));
  }
  FrameReader reader;
  reader.append(stream);
  Frame frame;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(reader.next(frame)) << "frame " << i;
    EXPECT_EQ(frame.body, bytes({static_cast<uint8_t>(i)}));
  }
  EXPECT_FALSE(reader.next(frame));
}

TEST(PushFraming, ZeroLengthFramePoisonsTheStream) {
  // Length 0 cannot even hold the kind byte: framing violation.
  FrameReader reader;
  reader.append(bytes({0, 0, 0, 3, 1}));
  Frame frame;
  EXPECT_FALSE(reader.next(frame));
  EXPECT_TRUE(reader.corrupt());
  // Poisoned for good — the later well-formed bytes never decode.
  EXPECT_FALSE(reader.next(frame));
}

TEST(PushFraming, RejectsOversizedBody) {
  std::vector<uint8_t> stream;
  const std::vector<uint8_t> body(kMaxFrameBody + 1, 0xAB);
  EXPECT_FALSE(encode_frame(FrameKind::kPush, body, stream));
  EXPECT_TRUE(stream.empty());

  // The maximal body round-trips: length prefix 65535 = kind + 65534.
  const std::vector<uint8_t> max_body(kMaxFrameBody, 0xAB);
  EXPECT_TRUE(encode_frame(FrameKind::kPush, max_body, stream));
  FrameReader reader;
  reader.append(stream);
  Frame frame;
  ASSERT_TRUE(reader.next(frame));
  EXPECT_EQ(frame.body.size(), kMaxFrameBody);
}

TEST(PushFraming, SubscribeRoundTrip) {
  const net::Endpoint identity{net::make_ip(10, 1, 2, 3), 5353};
  const auto body = encode_subscribe(identity);
  const auto parsed = parse_subscribe(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, kPushProtocolVersion);
  EXPECT_EQ(parsed->identity, identity);
  EXPECT_TRUE(parsed->survivors.empty());
}

TEST(PushFraming, SubscribeWithoutSurvivorsStaysOnV1Wire) {
  // An empty survivor inventory must encode byte-identically to the v1
  // form, so warm-capable caches interoperate with v1 authorities.
  const net::Endpoint identity{net::make_ip(10, 1, 2, 3), 5353};
  SubscribeInfo info;
  info.identity = identity;
  EXPECT_EQ(encode_subscribe(info), encode_subscribe(identity));
}

TEST(PushFraming, SubscribeV2RoundTripsSurvivors) {
  SubscribeInfo info;
  info.identity = net::Endpoint{net::make_ip(192, 168, 0, 9), 4242};
  info.survivors.push_back(LeaseSurvivor{
      dns::Name::parse("www.example.com").value(), dns::RRType::kA,
      90'000'000});
  info.survivors.push_back(LeaseSurvivor{
      dns::Name::parse("mail.other.org").value(), dns::RRType::kAAAA,
      1'500'000});

  const auto body = encode_subscribe(info);
  EXPECT_EQ(body[0], kPushProtocolVersionReadopt);
  const auto parsed = parse_subscribe(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->version, kPushProtocolVersionReadopt);
  EXPECT_EQ(parsed->identity, info.identity);
  ASSERT_EQ(parsed->survivors.size(), 2u);
  EXPECT_EQ(parsed->survivors[0].name, info.survivors[0].name);
  EXPECT_EQ(parsed->survivors[0].type, dns::RRType::kA);
  EXPECT_EQ(parsed->survivors[0].remaining_us, 90'000'000u);
  EXPECT_EQ(parsed->survivors[1].name, info.survivors[1].name);
  EXPECT_EQ(parsed->survivors[1].type, dns::RRType::kAAAA);
  EXPECT_EQ(parsed->survivors[1].remaining_us, 1'500'000u);
}

// A warm restart can reload more leases than one SUBSCRIBE frame holds;
// survivors_per_subscribe is the longest prefix that still frames.
TEST(PushFraming, SurvivorsPerSubscribeFillsExactlyOneFrame) {
  std::vector<LeaseSurvivor> survivors;
  for (int i = 0; i < 5000; ++i) {
    survivors.push_back(LeaseSurvivor{
        dns::Name::parse("h" + std::to_string(i) + ".example.com").value(),
        dns::RRType::kA, 3'600'000'000});
  }
  EXPECT_EQ(survivors_per_subscribe({survivors.data(), 10}), 10u);
  const std::size_t fit = survivors_per_subscribe(survivors);
  ASSERT_GT(fit, 1000u);
  ASSERT_LT(fit, survivors.size());

  SubscribeInfo info;
  info.identity = net::Endpoint{net::make_ip(127, 0, 0, 1), 4242};
  info.survivors.assign(survivors.begin(),
                        survivors.begin() + static_cast<std::ptrdiff_t>(fit));
  std::vector<uint8_t> stream;
  EXPECT_TRUE(
      encode_frame(FrameKind::kSubscribe, encode_subscribe(info), stream));
  info.survivors.push_back(survivors[fit]);
  stream.clear();
  EXPECT_FALSE(
      encode_frame(FrameKind::kSubscribe, encode_subscribe(info), stream));
}

TEST(PushFraming, SubscribeRejectsMalformedBodies) {
  const net::Endpoint identity{net::make_ip(10, 1, 2, 3), 5353};
  auto body = encode_subscribe(identity);

  auto wrong_version = body;
  wrong_version[0] = kPushProtocolVersionReadopt + 1;
  EXPECT_FALSE(parse_subscribe(wrong_version).has_value());

  auto truncated = body;
  truncated.pop_back();
  EXPECT_FALSE(parse_subscribe(truncated).has_value());

  auto trailing = body;
  trailing.push_back(0);
  EXPECT_FALSE(parse_subscribe(trailing).has_value());

  auto port_zero = body;
  port_zero[5] = 0;
  port_zero[6] = 0;
  EXPECT_FALSE(parse_subscribe(port_zero).has_value());

  EXPECT_FALSE(parse_subscribe({}).has_value());
}

TEST(PushFraming, SubscribeV2RejectsTruncation) {
  SubscribeInfo info;
  info.identity = net::Endpoint{net::make_ip(10, 1, 2, 3), 5353};
  info.survivors.push_back(LeaseSurvivor{
      dns::Name::parse("www.example.com").value(), dns::RRType::kA, 1000});
  const auto body = encode_subscribe(info);
  for (std::size_t cut = 1; cut < body.size() - 7; ++cut) {
    const std::span<const uint8_t> prefix(body.data(), body.size() - cut);
    EXPECT_FALSE(parse_subscribe(prefix).has_value())
        << "accepted a v2 body truncated by " << cut << " bytes";
  }
}

TEST(PushFraming, SubscribeAckRoundTrip) {
  std::vector<ZoneSerial> zones;
  zones.push_back({dns::Name::parse("example.com").value(), 42});
  zones.push_back({dns::Name::parse("other.org").value(), 7});

  const auto body = encode_subscribe_ack(zones);
  const auto parsed = parse_subscribe_ack(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->has_readoption);
  ASSERT_EQ(parsed->zones.size(), 2u);
  EXPECT_EQ(parsed->zones[0].zone, zones[0].zone);
  EXPECT_EQ(parsed->zones[0].serial, 42u);
  EXPECT_EQ(parsed->zones[1].zone, zones[1].zone);
  EXPECT_EQ(parsed->zones[1].serial, 7u);
}

TEST(PushFraming, SubscribeAckEmptyInventory) {
  const auto body = encode_subscribe_ack({});
  const auto parsed = parse_subscribe_ack(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->zones.empty());
  EXPECT_FALSE(parsed->has_readoption);
}

TEST(PushFraming, SubscribeAckV2RoundTripsVerdicts) {
  std::vector<ZoneSerial> zones;
  zones.push_back({dns::Name::parse("example.com").value(), 42});
  // 10 verdicts so the bitmask spans two bytes.
  std::vector<bool> bits = {true, false, true,  true, false,
                            true, true,  false, true, true};

  const auto body = encode_subscribe_ack(zones, bits);
  const auto parsed = parse_subscribe_ack(body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->zones.size(), 1u);
  EXPECT_EQ(parsed->zones[0].serial, 42u);
  ASSERT_TRUE(parsed->has_readoption);
  EXPECT_EQ(parsed->resumed, 7u);
  EXPECT_EQ(parsed->rejected, 3u);
  ASSERT_EQ(parsed->resumed_bits.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(parsed->resumed_bits[i], bits[i]) << "verdict " << i;
  }
}

TEST(PushFraming, SubscribeAckV2AllRejected) {
  const auto body =
      encode_subscribe_ack({}, std::vector<bool>(5, false));
  const auto parsed = parse_subscribe_ack(body);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->has_readoption);
  EXPECT_EQ(parsed->resumed, 0u);
  EXPECT_EQ(parsed->rejected, 5u);
  ASSERT_EQ(parsed->resumed_bits.size(), 5u);
}

TEST(PushFraming, SubscribeAckRejectsTruncation) {
  std::vector<ZoneSerial> zones;
  zones.push_back({dns::Name::parse("example.com").value(), 42});
  auto body = encode_subscribe_ack(zones);
  for (std::size_t cut = 1; cut < body.size(); ++cut) {
    const std::span<const uint8_t> prefix(body.data(), body.size() - cut);
    EXPECT_FALSE(parse_subscribe_ack(prefix).has_value())
        << "accepted a body truncated by " << cut << " bytes";
  }
}

TEST(PushFraming, SubscribeAckV2RejectsTruncation) {
  std::vector<ZoneSerial> zones;
  zones.push_back({dns::Name::parse("example.com").value(), 42});
  auto body = encode_subscribe_ack(zones, {true, false, true});
  for (std::size_t cut = 1; cut < body.size(); ++cut) {
    const std::span<const uint8_t> prefix(body.data(), body.size() - cut);
    EXPECT_FALSE(parse_subscribe_ack(prefix).has_value())
        << "accepted a v2 ack truncated by " << cut << " bytes";
  }
}

}  // namespace
}  // namespace dnscup::push
