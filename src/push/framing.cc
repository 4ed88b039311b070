#include "push/framing.h"

#include <cstring>

namespace dnscup::push {

namespace {

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  put_u16(out, static_cast<uint16_t>(v >> 16));
  put_u16(out, static_cast<uint16_t>(v & 0xFFFF));
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  put_u32(out, static_cast<uint32_t>(v >> 32));
  put_u32(out, static_cast<uint32_t>(v & 0xFFFFFFFF));
}

void put_name(std::vector<uint8_t>& out, const dns::Name& name) {
  const std::string text = name.to_string();
  put_u16(out, static_cast<uint16_t>(text.size()));
  out.insert(out.end(), text.begin(), text.end());
}

class BodyReader {
 public:
  explicit BodyReader(std::span<const uint8_t> body) : body_(body) {}

  std::optional<uint8_t> u8() {
    if (pos_ + 1 > body_.size()) return std::nullopt;
    return body_[pos_++];
  }
  std::optional<uint16_t> u16() {
    if (pos_ + 2 > body_.size()) return std::nullopt;
    const uint16_t v = static_cast<uint16_t>(
        (static_cast<uint16_t>(body_[pos_]) << 8) | body_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::optional<uint32_t> u32() {
    const auto hi = u16();
    if (!hi.has_value()) return std::nullopt;
    const auto lo = u16();
    if (!lo.has_value()) return std::nullopt;
    return (static_cast<uint32_t>(*hi) << 16) | *lo;
  }
  std::optional<std::span<const uint8_t>> bytes(std::size_t n) {
    if (pos_ + n > body_.size()) return std::nullopt;
    auto view = body_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  std::optional<uint64_t> u64() {
    const auto hi = u32();
    if (!hi.has_value()) return std::nullopt;
    const auto lo = u32();
    if (!lo.has_value()) return std::nullopt;
    return (static_cast<uint64_t>(*hi) << 32) | *lo;
  }
  std::optional<dns::Name> name() {
    const auto len = u16();
    if (!len.has_value()) return std::nullopt;
    const auto text_bytes = bytes(*len);
    if (!text_bytes.has_value()) return std::nullopt;
    const std::string text(reinterpret_cast<const char*>(text_bytes->data()),
                           text_bytes->size());
    auto parsed = dns::Name::parse(text);
    if (!parsed.ok()) return std::nullopt;
    return std::move(parsed).value();
  }
  bool exhausted() const { return pos_ == body_.size(); }

 private:
  std::span<const uint8_t> body_;
  std::size_t pos_ = 0;
};

}  // namespace

bool encode_frame(FrameKind kind, std::span<const uint8_t> body,
                  std::vector<uint8_t>& out) {
  if (body.size() > kMaxFrameBody) return false;
  const uint16_t length = static_cast<uint16_t>(body.size() + 1);
  out.reserve(out.size() + 2 + length);
  put_u16(out, length);
  out.push_back(static_cast<uint8_t>(kind));
  out.insert(out.end(), body.begin(), body.end());
  return true;
}

void FrameReader::append(std::span<const uint8_t> data) {
  if (corrupt_) return;
  // Compact lazily: drop consumed prefix once it dominates the buffer so
  // a long-lived connection does not grow its read buffer forever.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

bool FrameReader::next(Frame& frame) {
  if (corrupt_) return false;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 2) return false;
  const uint16_t length = static_cast<uint16_t>(
      (static_cast<uint16_t>(buffer_[consumed_]) << 8) |
      buffer_[consumed_ + 1]);
  if (length == 0) {
    // Cannot even hold the kind byte: the stream is not speaking our
    // protocol.
    corrupt_ = true;
    return false;
  }
  if (available < 2u + length) return false;
  frame.kind = static_cast<FrameKind>(buffer_[consumed_ + 2]);
  frame.body.assign(
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 3),
      buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 2 + length));
  consumed_ += 2u + length;
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return true;
}

std::vector<uint8_t> encode_subscribe(const net::Endpoint& identity) {
  std::vector<uint8_t> body;
  body.push_back(kPushProtocolVersion);
  put_u32(body, identity.ip);
  put_u16(body, identity.port);
  return body;
}

std::vector<uint8_t> encode_subscribe(const SubscribeInfo& info) {
  // A connect with nothing to re-adopt stays on the v1 wire form so old
  // authorities keep accepting it unchanged.
  if (info.survivors.empty()) return encode_subscribe(info.identity);
  std::vector<uint8_t> body;
  body.push_back(kPushProtocolVersionReadopt);
  put_u32(body, info.identity.ip);
  put_u16(body, info.identity.port);
  put_u16(body, static_cast<uint16_t>(info.survivors.size()));
  for (const LeaseSurvivor& s : info.survivors) {
    put_name(body, s.name);
    put_u16(body, static_cast<uint16_t>(s.type));
    put_u64(body, s.remaining_us);
  }
  return body;
}

std::size_t survivors_per_subscribe(
    std::span<const LeaseSurvivor> survivors) {
  // encode_subscribe's layout: version, identity and count, then per
  // survivor a length-prefixed name, the type and the remaining term.
  std::size_t bytes = 1 + 4 + 2 + 2;
  std::size_t fit = 0;
  for (; fit < survivors.size(); ++fit) {
    bytes += 2 + survivors[fit].name.to_string().size() + 2 + 8;
    if (bytes > kMaxFrameBody) break;
  }
  return fit;
}

std::optional<SubscribeInfo> parse_subscribe(std::span<const uint8_t> body) {
  BodyReader reader(body);
  const auto version = reader.u8();
  if (!version.has_value() || (*version != kPushProtocolVersion &&
                               *version != kPushProtocolVersionReadopt)) {
    return std::nullopt;
  }
  SubscribeInfo info;
  info.version = *version;
  const auto ip = reader.u32();
  const auto port = reader.u16();
  if (!ip.has_value() || !port.has_value()) return std::nullopt;
  if (*port == 0) return std::nullopt;  // not a usable lease identity
  info.identity = net::Endpoint{*ip, *port};
  if (*version == kPushProtocolVersionReadopt) {
    const auto count = reader.u16();
    if (!count.has_value()) return std::nullopt;
    info.survivors.reserve(*count);
    for (uint16_t i = 0; i < *count; ++i) {
      LeaseSurvivor s;
      auto name = reader.name();
      if (!name.has_value()) return std::nullopt;
      s.name = std::move(*name);
      const auto type = reader.u16();
      const auto remaining = reader.u64();
      if (!type.has_value() || !remaining.has_value()) return std::nullopt;
      s.type = static_cast<dns::RRType>(*type);
      s.remaining_us = *remaining;
      info.survivors.push_back(std::move(s));
    }
  }
  if (!reader.exhausted()) return std::nullopt;
  return info;
}

namespace {

void encode_zone_list(std::vector<uint8_t>& body,
                      const std::vector<ZoneSerial>& zones) {
  put_u16(body, static_cast<uint16_t>(zones.size()));
  for (const ZoneSerial& z : zones) {
    put_u32(body, z.serial);
    put_name(body, z.zone);
  }
}

}  // namespace

std::vector<uint8_t> encode_subscribe_ack(
    const std::vector<ZoneSerial>& zones) {
  std::vector<uint8_t> body;
  body.push_back(kPushProtocolVersion);
  encode_zone_list(body, zones);
  return body;
}

std::vector<uint8_t> encode_subscribe_ack(
    const std::vector<ZoneSerial>& zones,
    const std::vector<bool>& resumed_bits) {
  std::vector<uint8_t> body;
  body.push_back(kPushProtocolVersionReadopt);
  encode_zone_list(body, zones);
  uint32_t resumed = 0;
  for (const bool bit : resumed_bits) resumed += bit ? 1 : 0;
  put_u32(body, resumed);
  put_u32(body, static_cast<uint32_t>(resumed_bits.size()) - resumed);
  put_u16(body, static_cast<uint16_t>(resumed_bits.size()));
  uint8_t acc = 0;
  for (std::size_t i = 0; i < resumed_bits.size(); ++i) {
    if (resumed_bits[i]) acc |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7 || i + 1 == resumed_bits.size()) {
      body.push_back(acc);
      acc = 0;
    }
  }
  return body;
}

std::optional<SubscribeAck> parse_subscribe_ack(
    std::span<const uint8_t> body) {
  BodyReader reader(body);
  const auto version = reader.u8();
  if (!version.has_value() || (*version != kPushProtocolVersion &&
                               *version != kPushProtocolVersionReadopt)) {
    return std::nullopt;
  }
  const auto count = reader.u16();
  if (!count.has_value()) return std::nullopt;
  SubscribeAck ack;
  ack.zones.reserve(*count);
  for (uint16_t i = 0; i < *count; ++i) {
    const auto serial = reader.u32();
    if (!serial.has_value()) return std::nullopt;
    auto name = reader.name();
    if (!name.has_value()) return std::nullopt;
    ack.zones.push_back(ZoneSerial{std::move(*name), *serial});
  }
  if (*version == kPushProtocolVersionReadopt) {
    ack.has_readoption = true;
    const auto resumed = reader.u32();
    const auto rejected = reader.u32();
    const auto survivors = reader.u16();
    if (!resumed.has_value() || !rejected.has_value() ||
        !survivors.has_value()) {
      return std::nullopt;
    }
    ack.resumed = *resumed;
    ack.rejected = *rejected;
    const auto bits = reader.bytes((*survivors + 7) / 8);
    if (!bits.has_value()) return std::nullopt;
    ack.resumed_bits.resize(*survivors);
    for (uint16_t i = 0; i < *survivors; ++i) {
      ack.resumed_bits[i] = ((*bits)[i / 8] >> (i % 8)) & 1;
    }
  }
  if (!reader.exhausted()) return std::nullopt;
  return ack;
}

}  // namespace dnscup::push
