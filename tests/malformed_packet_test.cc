// Malformed-packet robustness: Message::decode (and the MessageView parse
// underneath it) must reject hostile wire data with an error — never
// crash, loop or read past the buffer.  The same holds for the cache's
// serve path, whose fast hit parser (CachingResolver::try_fast_hit) reads
// client datagrams in place: a seeded mutation loop drives mangled
// queries through it.  Run under the DNSCUP_SANITIZE build, where ASan
// turns any over-read into a hard failure.
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/lease_client.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/wire.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/resolver.h"
#include "util/rng.h"

namespace dnscup::dns {
namespace {

std::vector<uint8_t> header(uint16_t qd, uint16_t an = 0, uint16_t ns = 0,
                            uint16_t ar = 0) {
  ByteWriter w;
  w.u16(0x1234);  // id
  w.u16(0x0100);  // flags: rd
  w.u16(qd);
  w.u16(an);
  w.u16(ns);
  w.u16(ar);
  return w.take();
}

void append(std::vector<uint8_t>& wire, std::initializer_list<uint8_t> bytes) {
  wire.insert(wire.end(), bytes.begin(), bytes.end());
}

TEST(MalformedPacket, TruncatedHeader) {
  const std::vector<uint8_t> full = header(0);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const auto r = Message::decode(std::span(full.data(), len));
    EXPECT_FALSE(r.ok()) << "header truncated to " << len << " bytes";
  }
  EXPECT_TRUE(Message::decode(full).ok());
}

TEST(MalformedPacket, QuestionCountWithoutQuestionBytes) {
  const std::vector<uint8_t> wire = header(1);
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, CompressionPointerLoop) {
  std::vector<uint8_t> wire = header(1);
  // qname at offset 12 is a pointer to itself.
  append(wire, {0xC0, 0x0C});
  append(wire, {0x00, 0x01, 0x00, 0x01});  // qtype, qclass
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, MutualPointerLoop) {
  std::vector<uint8_t> wire = header(1);
  // Two pointers referencing each other: 12 -> 14 -> 12 -> ...
  append(wire, {0xC0, 0x0E, 0xC0, 0x0C});
  append(wire, {0x00, 0x01, 0x00, 0x01});
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, PointerPastEnd) {
  std::vector<uint8_t> wire = header(1);
  append(wire, {0xC0, 0xFF});  // target offset 255, way past the buffer
  append(wire, {0x00, 0x01, 0x00, 0x01});
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, TruncatedPointer) {
  std::vector<uint8_t> wire = header(1);
  append(wire, {0xC0});  // first pointer byte only
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, LabelRunsPastEnd) {
  std::vector<uint8_t> wire = header(1);
  append(wire, {0x3F, 'a', 'b'});  // label claims 63 bytes, has 2
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, ReservedLabelType) {
  std::vector<uint8_t> wire = header(1);
  append(wire, {0x80, 0x00});  // 10xxxxxx is reserved
  append(wire, {0x00, 0x01, 0x00, 0x01});
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, NameOver255Octets) {
  std::vector<uint8_t> wire = header(1);
  // 8 labels of 37 bytes = 8*38 + 1 = 305 wire octets > 255.
  for (int l = 0; l < 8; ++l) {
    wire.push_back(37);
    for (int i = 0; i < 37; ++i) wire.push_back('a');
  }
  wire.push_back(0);
  append(wire, {0x00, 0x01, 0x00, 0x01});
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, RdlengthOverrun) {
  std::vector<uint8_t> wire = header(0, 1);
  // Answer: root name, type A, class IN, TTL 0, RDLENGTH 200, 4 bytes.
  append(wire, {0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00});
  append(wire, {0x00, 0xC8, 0x0A, 0x00, 0x00, 0x01});
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, RdlengthTruncatedMidField) {
  std::vector<uint8_t> wire = header(0, 1);
  append(wire, {0x00, 0x00, 0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00});
  append(wire, {0x00});  // RDLENGTH cut to one byte
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, TrailingBytesRejected) {
  Message m;
  m.id = 7;
  m.questions.push_back(Question{Name::parse("example.com").value(),
                                 RRType::kA, RRClass::kIN, 0});
  std::vector<uint8_t> wire = m.encode();
  ASSERT_TRUE(Message::decode(wire).ok());
  wire.push_back(0x00);
  EXPECT_FALSE(Message::decode(wire).ok());
}

TEST(MalformedPacket, EveryTruncationOfValidMessageErrors) {
  Message m;
  m.id = 9;
  m.flags.qr = true;
  m.flags.aa = true;
  m.questions.push_back(Question{Name::parse("www.example.com").value(),
                                 RRType::kA, RRClass::kIN, 0});
  m.answers.push_back(
      ResourceRecord{Name::parse("www.example.com").value(), RRClass::kIN,
                     300, ARdata{Ipv4{.addr = 0x0A000001}}});
  const std::vector<uint8_t> wire = m.encode();
  // Every strict prefix must decode to an error (never a crash, never a
  // partial success: the section counts promise more bytes than exist).
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const auto r = Message::decode(std::span(wire.data(), len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
  EXPECT_TRUE(Message::decode(wire).ok());
}

TEST(MalformedPacket, ByteFlipFuzzNeverCrashes) {
  Message m;
  m.id = 11;
  m.flags.qr = true;
  m.questions.push_back(Question{Name::parse("a.b.example.com").value(),
                                 RRType::kAAAA, RRClass::kIN, 0});
  m.answers.push_back(
      ResourceRecord{Name::parse("a.b.example.com").value(), RRClass::kIN,
                     60, CNAMERdata{Name::parse("c.example.com").value()}});
  const std::vector<uint8_t> base = m.encode();
  // Deterministic LCG; flips every byte through several values.  decode
  // may succeed or fail — it must simply never misbehave under ASan.
  uint32_t state = 0x2545F491;
  for (std::size_t pos = 0; pos < base.size(); ++pos) {
    for (int round = 0; round < 8; ++round) {
      state = state * 1664525u + 1013904223u;
      std::vector<uint8_t> wire = base;
      wire[pos] ^= static_cast<uint8_t>(state >> 24);
      const auto r = Message::decode(wire);
      (void)r;
    }
  }
}

TEST(MalformedPacket, ViewMaterializesIdenticalToDecode) {
  Message m;
  m.id = 21;
  m.flags.qr = true;
  m.flags.aa = true;
  m.questions.push_back(Question{Name::parse("www.example.com").value(),
                                 RRType::kA, RRClass::kIN, 0});
  for (uint32_t i = 0; i < 3; ++i) {
    m.answers.push_back(
        ResourceRecord{Name::parse("www.example.com").value(), RRClass::kIN,
                       300, ARdata{Ipv4{.addr = 0x0A000000 + i}}});
  }
  m.authority.push_back(ResourceRecord{
      Name::parse("example.com").value(), RRClass::kIN, 300,
      NSRdata{Name::parse("ns1.example.com").value()}});
  const std::vector<uint8_t> wire = m.encode();

  auto view = MessageView::parse(wire);
  ASSERT_TRUE(view.ok());
  auto materialized = view.value().materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized.value(), m);

  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), materialized.value());
}

}  // namespace
}  // namespace dnscup::dns

namespace dnscup::server {
namespace {

using dns::Message;
using dns::Name;
using dns::RRType;

/// Keeps every datagram sent, for parsing afterwards.
class KeepingTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint&, std::span<const uint8_t> data) override {
    sent.emplace_back(data.begin(), data.end());
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }

  std::vector<std::vector<uint8_t>> sent;

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 1), 53};
  ReceiveHandler handler_;
};

Name mk(const char* text) { return Name::parse(text).value(); }

std::vector<uint8_t> client_query(const char* qname, RRType qtype, bool rd,
                                  bool ext) {
  Message m;
  m.id = 0x5151;
  m.flags.rd = rd;
  m.flags.ext = ext;
  m.questions.push_back(dns::Question{mk(qname), qtype, dns::RRClass::kIN,
                                      static_cast<uint16_t>(ext ? 40 : 0)});
  return m.encode();
}

/// Offsets of the label-length octets of the name starting at `at`
/// (stops at the root octet, a pointer or the end of the buffer).
std::vector<std::size_t> label_offsets(const std::vector<uint8_t>& wire,
                                       std::size_t at) {
  std::vector<std::size_t> out;
  while (at < wire.size()) {
    out.push_back(at);
    const uint8_t len = wire[at];
    if (len == 0 || (len & 0xC0) != 0) break;
    at += 1 + len;
  }
  return out;
}

TEST(MalformedClientQuery, SeededMutationsThroughResolverNeverMisbehave) {
  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  KeepingTransport transport;
  const net::Endpoint authority{net::make_ip(10, 0, 0, 53), 53};
  const net::Endpoint client{net::make_ip(10, 0, 0, 99), 4000};
  CachingResolver::Config rc;
  rc.metrics = &registry;
  CachingResolver resolver(transport, loop, {authority}, rc);
  core::LeaseClient::Config lc;
  lc.metrics = &registry;
  core::LeaseClient lease(resolver, lc);

  // Warm entries the mutated names may still hit: positive, leased and
  // negative, fresh for the whole run.
  for (const char* name : {"www.example.com", "a.b.example.com", "x.org"}) {
    dns::RRset set{mk(name), RRType::kA, dns::RRClass::kIN, 86400, {}};
    set.add(dns::ARdata{dns::Ipv4{.addr = 0x0A000001}});
    set.add(dns::ARdata{dns::Ipv4{.addr = 0x0A000002}});
    resolver.cache().put(set, 0);
  }
  resolver.cache().set_lease(mk("x.org"), RRType::kA,
                             LeaseState{net::hours(48), authority});
  resolver.cache().put_negative(mk("nx.example.com"), RRType::kA,
                                dns::Rcode::kNXDomain, 86400, 0);
  resolver.cache().put_negative(mk("www.example.com"), RRType::kAAAA,
                                dns::Rcode::kNoError, 86400, 0);

  const std::vector<std::vector<uint8_t>> corpus = {
      client_query("www.example.com", RRType::kA, true, false),
      client_query("a.b.example.com", RRType::kA, false, false),
      client_query("x.org", RRType::kA, true, false),
      client_query("nx.example.com", RRType::kA, true, false),
      client_query("www.example.com", RRType::kAAAA, true, false),
      client_query("www.example.com", RRType::kA, true, true),
      client_query("miss.example.net", RRType::kMX, true, false),
  };

  util::Rng rng(0xD15C0);
  constexpr int kIterations = 20000;
  std::size_t checked = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    std::vector<uint8_t> wire =
        corpus[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int64_t>(corpus.size()) - 1))];
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int64_t>(n) - 1));
      };
      const auto labels = label_offsets(wire, 12);
      switch (rng.uniform_int(0, 3)) {
        case 0:  // bit flip
          wire[pick(wire.size())] ^=
              static_cast<uint8_t>(1u << rng.uniform_int(0, 7));
          break;
        case 1:  // truncation
          wire.resize(pick(wire.size()));
          break;
        case 2:  // corrupted label length
          if (!labels.empty()) {
            wire[labels[pick(labels.size())]] =
                static_cast<uint8_t>(rng.uniform_int(0, 255));
          }
          break;
        default:  // a compression pointer where a label starts
          if (!labels.empty() && labels.back() + 1 < wire.size()) {
            const std::size_t at = labels[pick(labels.size())];
            wire[at] = static_cast<uint8_t>(0xC0 | rng.uniform_int(0, 0x3F));
            wire[at + 1] = static_cast<uint8_t>(rng.uniform_int(0, 255));
          }
          break;
      }
    }
    // An exactly sized heap copy: ASan flags any read past the datagram.
    const std::size_t n = wire.size();
    auto exact = std::make_unique<uint8_t[]>(n == 0 ? 1 : n);
    if (n > 0) std::memcpy(exact.get(), wire.data(), n);
    transport.deliver(client, std::span<const uint8_t>(exact.get(), n));

    for (; checked < transport.sent.size(); ++checked) {
      EXPECT_TRUE(Message::decode(transport.sent[checked]).ok())
          << "iteration " << iter << " sent an unparsable datagram";
    }
    // Let pending upstream tasks time out so the query-id space never
    // fills up.
    if (iter % 256 == 255) loop.run_for(net::seconds(30));
  }
  // The mutations leave plenty of plain hits (ID and RD flips): the fast
  // parser was exercised, not just bypassed.
  EXPECT_GT(resolver.stats().fast_hits, 0u);
  EXPECT_GT(resolver.stats().client_queries, resolver.stats().fast_hits);
}

}  // namespace
}  // namespace dnscup::server
