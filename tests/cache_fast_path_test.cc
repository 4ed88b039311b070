// Parity and no-side-effect tests for the cache-side fast path,
// CachingResolver::try_fast_hit.
//
// Two identical resolver stacks hold the same cache.  Stack `fast`
// receives every client datagram through the transport (on_datagram,
// which tries the fast path first); stack `slow` takes the owning path
// alone: Message::decode, then handle_client_query.  For every query
// shape the fast path accepts, both must send the same bytes and end with
// the same counters, LRU order and per-entry client-rate estimates.  For
// every shape it declines, try_fast_hit must return false having changed
// nothing — checked by calling it an extra time on `fast` before the
// datagram, and then requiring `fast` to still end exactly like `slow`.
//
// Each case runs on the heap store and on MmapCacheStore.
#include <unistd.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cachestore/mmap_store.h"
#include "core/lease_client.h"
#include "dns/message.h"
#include "dns/name.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/cache_store.h"
#include "server/resolver.h"

namespace dnscup::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Question;
using dns::RRClass;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }

const net::Endpoint kAuthority{net::make_ip(10, 0, 0, 53), 53};
const net::Endpoint kClient{net::make_ip(10, 0, 0, 99), 4000};

struct Sent {
  net::Endpoint to;
  std::vector<uint8_t> bytes;
  bool operator==(const Sent&) const = default;
};

/// Records every datagram sent; delivers synchronously on request.
class RecordingTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint& to, std::span<const uint8_t> data) override {
    sent.push_back(Sent{to, {data.begin(), data.end()}});
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }

  std::vector<Sent> sent;

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 1), 53};
  ReceiveHandler handler_;
};

enum class Backend { kHeap, kMmap };

/// One resolver (+ LeaseClient) over its own registry, loop, transport
/// and store.
class Stack {
 public:
  Stack(Backend backend, const std::string& file) : file_(file) {
    CachingResolver::Config rc;
    rc.metrics = &registry_;
    if (backend == Backend::kMmap) {
      ::unlink(file_.c_str());
      cachestore::MmapCacheStore::Options so;
      so.path = file_;
      so.file_bytes = 4u << 20;
      so.metrics = &registry_;
      so.wall_now_us = 1'700'000'000'000'000;
      auto opened = cachestore::MmapCacheStore::open(std::move(so));
      EXPECT_TRUE(opened.ok());
      auto holder = std::make_shared<std::unique_ptr<CacheStoreBackend>>(
          std::move(opened).value());
      rc.cache_store = [holder] { return std::move(*holder); };
    }
    resolver_ = std::make_unique<CachingResolver>(
        transport_, loop_, std::vector<net::Endpoint>{kAuthority}, rc);
    core::LeaseClient::Config lc;
    lc.metrics = &registry_;
    lease_ = std::make_unique<core::LeaseClient>(*resolver_, lc);
  }
  ~Stack() {
    lease_.reset();
    resolver_.reset();
    if (!file_.empty()) ::unlink(file_.c_str());
  }

  CachingResolver& resolver() { return *resolver_; }
  ResolverCache& cache() { return resolver_->cache(); }
  core::LeaseClient& lease() { return *lease_; }
  net::EventLoop& loop() { return loop_; }
  RecordingTransport& transport() { return transport_; }

 private:
  std::string file_;
  metrics::MetricsRegistry registry_;
  net::EventLoop loop_{&registry_};
  RecordingTransport transport_;
  std::unique_ptr<CachingResolver> resolver_;
  std::unique_ptr<core::LeaseClient> lease_;
};

dns::RRset a_set(const char* name, uint32_t ttl, uint32_t count) {
  dns::RRset set{mk(name), RRType::kA, RRClass::kIN, ttl, {}};
  for (uint32_t i = 0; i < count; ++i) {
    set.add(dns::ARdata{dns::Ipv4{.addr = 0xC0000200u + i}});
  }
  return set;
}

std::vector<uint8_t> query_wire(const char* qname, RRType qtype,
                                bool rd = true, uint16_t id = 0x4242) {
  Message m;
  m.id = id;
  m.flags.rd = rd;
  m.questions.push_back(Question{mk(qname), qtype, RRClass::kIN, 0});
  return m.encode();
}

/// Every entry's client-rate estimate, most recently used first.
std::vector<std::tuple<std::string, RRType, ClientRate>> rate_estimates(
    const ResolverCache& cache) {
  std::vector<std::tuple<std::string, RRType, ClientRate>> estimates;
  cache.for_each([&estimates](const CacheKey& key, const CacheEntry& entry) {
    estimates.emplace_back(key.name.to_string(), key.type, entry.client_rate);
  });
  return estimates;
}

/// The LRU order, least recent first, read destructively: eviction
/// candidates until one entry (the MRU, never a candidate) is left.
/// Leased entries come after unleased ones, as eviction takes them.
std::vector<std::pair<std::string, RRType>> drain_lru(ResolverCache& cache,
                                                      net::SimTime now) {
  std::vector<std::pair<std::string, RRType>> order;
  CacheStoreBackend& store = cache.store();
  while (auto victim = store.evict_candidate(now)) {
    order.emplace_back(victim->key.name.to_string(), victim->key.type);
    store.erase(victim->key);
  }
  store.for_each([&order](const CacheKey& key, const CacheEntry&) {
    order.emplace_back(key.name.to_string(), key.type);
  });
  return order;
}

class CacheFastPathTest : public ::testing::TestWithParam<Backend> {
 protected:
  CacheFastPathTest()
      : fast_(GetParam(), file("fast")), slow_(GetParam(), file("slow")) {
    for (Stack* s : {&fast_, &slow_}) {
      ResolverCache& c = s->cache();
      c.put(a_set("one.example.com", 300, 1), 0);
      c.put(a_set("four.example.com", 300, 4), 0);
      c.put(a_set("big.example.com", 300, 40), 0);  // > 512 B answer
      c.put(a_set("short.example.com", 30, 1), 0);
      c.put(a_set("leased.example.com", 60, 2), 0);
      c.set_lease(mk("leased.example.com"), RRType::kA,
                  LeaseState{net::seconds(3600), kAuthority});
      c.put_negative(mk("nx.example.com"), RRType::kA, dns::Rcode::kNXDomain,
                     600, 0);
      c.put_negative(mk("one.example.com"), RRType::kAAAA,
                     dns::Rcode::kNoError, 600, 0);
      dns::RRset cname{mk("alias.example.com"), RRType::kCNAME, RRClass::kIN,
                       300, {}};
      cname.add(dns::CNAMERdata{mk("one.example.com")});
      c.put(cname, 0);
    }
  }

  static std::string file(const char* side) {
    return std::string("cache_fast_path_test_") + side + "_" +
           std::to_string(::getpid()) + ".img";
  }

  void advance(net::Duration by) {
    fast_.loop().run_for(by);
    slow_.loop().run_for(by);
  }

  /// The owning path alone, as on_datagram ran it before the fast path.
  void serve_slow(std::span<const uint8_t> wire) {
    auto decoded = Message::decode(wire);
    if (!decoded.ok()) return;  // on_datagram drops it
    const Message& msg = decoded.value();
    if (slow_.lease().on_unsolicited(kClient, msg)) return;
    if (msg.flags.qr) return;  // no task awaits it: dropped either way
    if (msg.flags.opcode == dns::Opcode::kQuery) {
      slow_.resolver().handle_client_query(kClient, msg);
      return;
    }
    Message resp = dns::make_response(msg);
    resp.flags.rcode = dns::Rcode::kNotImp;
    slow_.transport().send(kClient, resp.encode());
  }

  /// Serves `wire` on both stacks; returns whether the fast path took it.
  bool serve_both(std::span<const uint8_t> wire) {
    const uint64_t fast_before = fast_.resolver().stats().fast_hits;
    fast_.transport().deliver(kClient, wire);
    serve_slow(wire);
    return fast_.resolver().stats().fast_hits == fast_before + 1;
  }

  void expect_same_state() {
    EXPECT_EQ(fast_.transport().sent, slow_.transport().sent);
    const auto fs = fast_.resolver().stats();
    const auto ss = slow_.resolver().stats();
    EXPECT_EQ(fs.client_queries, ss.client_queries);
    EXPECT_EQ(fs.upstream_queries, ss.upstream_queries);
    const auto fc = fast_.cache().stats();
    const auto sc = slow_.cache().stats();
    EXPECT_EQ(fc.hits, sc.hits);
    EXPECT_EQ(fc.misses, sc.misses);
    EXPECT_EQ(fc.expired, sc.expired);
    const net::SimTime now = fast_.loop().now();
    EXPECT_EQ(rate_estimates(fast_.cache()), rate_estimates(slow_.cache()));
    EXPECT_EQ(fast_.lease().stats().renegotiations,
              slow_.lease().stats().renegotiations);
    EXPECT_EQ(drain_lru(fast_.cache(), now), drain_lru(slow_.cache(), now));
  }

  /// An accepted shape: the fast path answers it, with the slow path's
  /// bytes and side effects.
  void expect_fast_parity(const std::vector<uint8_t>& wire) {
    EXPECT_TRUE(serve_both(wire)) << "fast path declined";
    ASSERT_EQ(fast_.transport().sent.size(), 1u);
    EXPECT_EQ(fast_.transport().sent, slow_.transport().sent);
    ASSERT_TRUE(Message::decode(fast_.transport().sent[0].bytes).ok());
  }

  /// A declined shape: try_fast_hit refuses it without a trace, and
  /// on_datagram then ends exactly where the slow path alone does.
  void expect_declined(const std::vector<uint8_t>& wire) {
    EXPECT_FALSE(fast_.resolver().try_fast_hit(kClient, wire));
    EXPECT_FALSE(fast_.resolver().try_fast_hit(kClient, wire));
    EXPECT_FALSE(serve_both(wire)) << "fast path answered";
  }

  Stack fast_;
  Stack slow_;
};

std::string backend_name(const ::testing::TestParamInfo<Backend>& info) {
  return info.param == Backend::kHeap ? "Heap" : "Mmap";
}

INSTANTIATE_TEST_SUITE_P(Backends, CacheFastPathTest,
                         ::testing::Values(Backend::kHeap, Backend::kMmap),
                         backend_name);

// -- accepted shapes ---------------------------------------------------------

TEST_P(CacheFastPathTest, SingleRecordRRset) {
  expect_fast_parity(query_wire("one.example.com", RRType::kA));
  expect_same_state();
}

TEST_P(CacheFastPathTest, MultiRecordRRset) {
  expect_fast_parity(query_wire("four.example.com", RRType::kA));
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  EXPECT_EQ(answer.value().answers.size(), 4u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, RRsetOver512Bytes) {
  expect_fast_parity(query_wire("big.example.com", RRType::kA));
  EXPECT_GT(fast_.transport().sent[0].bytes.size(), 512u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, RemainingTtlCountsDown) {
  const auto wire = query_wire("one.example.com", RRType::kA);
  for (const net::Duration step :
       {net::seconds(100), net::milliseconds(150'500),
        net::milliseconds(49'000)}) {
    advance(step);
    fast_.transport().sent.clear();
    slow_.transport().sent.clear();
    expect_fast_parity(wire);
  }
  // 299.5 s in: still fresh, remaining TTL rounds down to 0.
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  EXPECT_EQ(answer.value().answers[0].ttl, 0u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, LeasedEntryPastItsTtl) {
  advance(net::seconds(120));  // TTL 60 long gone, lease runs to 3600 s
  expect_fast_parity(query_wire("leased.example.com", RRType::kA));
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  ASSERT_EQ(answer.value().answers.size(), 2u);
  EXPECT_EQ(answer.value().answers[0].ttl, 0u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, NxDomainNegative) {
  expect_fast_parity(query_wire("nx.example.com", RRType::kA));
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  EXPECT_EQ(answer.value().flags.rcode, dns::Rcode::kNXDomain);
  expect_same_state();
}

TEST_P(CacheFastPathTest, NoDataNegative) {
  expect_fast_parity(query_wire("one.example.com", RRType::kAAAA));
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  EXPECT_EQ(answer.value().flags.rcode, dns::Rcode::kNoError);
  EXPECT_TRUE(answer.value().answers.empty());
  expect_same_state();
}

TEST_P(CacheFastPathTest, RecursionDesiredIsMirrored) {
  expect_fast_parity(query_wire("one.example.com", RRType::kA, false));
  EXPECT_FALSE(
      Message::decode(fast_.transport().sent[0].bytes).value().flags.rd);
  fast_.transport().sent.clear();
  slow_.transport().sent.clear();
  expect_fast_parity(query_wire("one.example.com", RRType::kA, true));
  EXPECT_TRUE(
      Message::decode(fast_.transport().sent[0].bytes).value().flags.rd);
  expect_same_state();
}

TEST_P(CacheFastPathTest, MixedCaseQnameAgainstLowerCaseOwner) {
  expect_fast_parity(query_wire("FoUr.Example.COM", RRType::kA));
  // The question echoes the client's case; owners compress onto it.
  auto answer = Message::decode(fast_.transport().sent[0].bytes);
  EXPECT_EQ(answer.value().questions[0].qname.label(0), "FoUr");
  expect_same_state();
}

// -- declined shapes ---------------------------------------------------------

TEST_P(CacheFastPathTest, MissIsDeclined) {
  expect_declined(query_wire("absent.example.com", RRType::kA));
  expect_same_state();
}

TEST_P(CacheFastPathTest, ExpiredEntryIsDeclined) {
  advance(net::seconds(31));  // short.example.com had TTL 30
  expect_declined(query_wire("short.example.com", RRType::kA));
  EXPECT_EQ(fast_.cache().stats().expired, 1u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, CachedCnameOnlyIsDeclined) {
  // The slow path chases alias -> one.example.com from the cache.
  expect_declined(query_wire("alias.example.com", RRType::kA));
  ASSERT_EQ(slow_.transport().sent.size(), 1u);
  EXPECT_EQ(
      Message::decode(slow_.transport().sent[0].bytes).value().answers.size(),
      2u);
  expect_same_state();
}

TEST_P(CacheFastPathTest, ExtQueryIsDeclined) {
  Message m;
  m.id = 7;
  m.flags.ext = true;
  m.questions.push_back(
      Question{mk("one.example.com"), RRType::kA, RRClass::kIN, 12});
  expect_declined(m.encode());
  expect_same_state();
}

TEST_P(CacheFastPathTest, ResponseIsDeclined) {
  auto wire = query_wire("one.example.com", RRType::kA);
  wire[2] |= 0x80;  // QR
  expect_declined(wire);
  expect_same_state();
}

TEST_P(CacheFastPathTest, CacheUpdateOpcodeIsDeclined) {
  auto wire = query_wire("one.example.com", RRType::kA);
  wire[2] = static_cast<uint8_t>((wire[2] & 0x87) |
                                 (uint8_t{6} << 3));  // CACHE-UPDATE
  expect_declined(wire);
  expect_same_state();
}

TEST_P(CacheFastPathTest, QuestionCountOtherThanOneIsDeclined) {
  const auto one = query_wire("one.example.com", RRType::kA);
  std::vector<uint8_t> none(one.begin(), one.begin() + 12);
  none[5] = 0;
  expect_declined(none);
  std::vector<uint8_t> two = one;
  two[5] = 2;
  two.insert(two.end(), one.begin() + 12, one.end());
  expect_declined(two);
  expect_same_state();
}

TEST_P(CacheFastPathTest, NonEmptyOtherSectionsAreDeclined) {
  for (const int section : {0, 1, 2}) {
    Message m;
    m.id = 9;
    m.questions.push_back(
        Question{mk("one.example.com"), RRType::kA, RRClass::kIN, 0});
    const dns::ResourceRecord rr{mk("one.example.com"), RRClass::kIN, 60,
                                 dns::ARdata{dns::Ipv4{.addr = 1}}};
    (section == 0 ? m.answers : section == 1 ? m.authority : m.additional)
        .push_back(rr);
    expect_declined(m.encode());
  }
  expect_same_state();
}

TEST_P(CacheFastPathTest, CompressedQnameIsDeclined) {
  const auto plain = query_wire("one.example.com", RRType::kA);
  std::vector<uint8_t> pointered(plain.begin(), plain.begin() + 12);
  pointered.insert(pointered.end(), {3, 'o', 'n', 'e', 0xC0, 12});
  pointered.insert(pointered.end(), {0x00, 0x01, 0x00, 0x01});
  expect_declined(pointered);
  expect_same_state();
}

TEST_P(CacheFastPathTest, TrailingBytesAreDeclined) {
  auto wire = query_wire("one.example.com", RRType::kA);
  wire.push_back(0);
  expect_declined(wire);
  expect_same_state();
}

TEST_P(CacheFastPathTest, TruncatedBytesAreDeclined) {
  const auto wire = query_wire("one.example.com", RRType::kA);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    expect_declined(std::vector<uint8_t>(wire.begin(), wire.begin() + len));
  }
  expect_same_state();
}

// -- re-negotiation ----------------------------------------------------------

TEST_P(CacheFastPathTest, RateDriftRenegotiatesIdenticallyOnBothPaths) {
  // A cached delegation whose glue is the authority: each refresh's
  // server selection touches these entries, so the final LRU order shows
  // whether the hook ran before the answered entry's touch, as it does
  // on the owning path.
  for (Stack* s : {&fast_, &slow_}) {
    dns::RRset ns{mk("example.com"), RRType::kNS, RRClass::kIN, 3600, {}};
    ns.add(dns::NSRdata{mk("ns1.example.com")});
    s->cache().put(ns, 0);
    dns::RRset glue{mk("ns1.example.com"), RRType::kA, RRClass::kIN, 3600,
                    {}};
    glue.add(dns::ARdata{dns::Ipv4{.addr = kAuthority.ip}});
    s->cache().put(glue, 0);
  }
  // Miss -> EXT query upstream -> leased answer, on both stacks.
  const auto wire = query_wire("drift.example.com", RRType::kA);
  expect_declined(wire);
  ASSERT_EQ(fast_.transport().sent.size(), 1u);
  ASSERT_EQ(fast_.transport().sent, slow_.transport().sent);
  auto upstream = Message::decode(fast_.transport().sent[0].bytes).value();
  ASSERT_TRUE(upstream.flags.ext);
  Message response = dns::make_response(upstream);
  response.flags.aa = true;
  response.llt = dns::llt_from_seconds(3600);
  response.answers = a_set("drift.example.com", 300, 1).to_records();
  const auto response_wire = response.encode();
  fast_.transport().deliver(kAuthority, response_wire);
  slow_.transport().deliver(kAuthority, response_wire);
  ASSERT_EQ(fast_.lease().stats().leases_registered, 1u);
  ASSERT_EQ(slow_.lease().stats().leases_registered, 1u);

  // Past the re-negotiation cooldown, a hit stream every 2 s — far above
  // the one query per hour reported at grant: the re-negotiation fires
  // on the same hit on both paths.  Stop right there, so the LRU order
  // below still shows where that hit's refresh touched.
  advance(core::LeaseClient::kRenegotiateMinInterval);
  for (int i = 0; i < 8 && fast_.lease().stats().renegotiations == 0; ++i) {
    advance(net::seconds(2));
    EXPECT_TRUE(serve_both(wire)) << "hit " << i;
  }
  ASSERT_EQ(fast_.lease().stats().renegotiations, 1u);
  // The refresh went upstream (before the hit's answer) as an EXT query
  // reporting the drifted rate; expect_same_state compares every datagram.
  const auto& sent = fast_.transport().sent;
  ASSERT_GE(sent.size(), 2u);
  const Sent& refresh = sent[sent.size() - 2];
  EXPECT_EQ(refresh.to, kAuthority);
  auto q = Message::decode(refresh.bytes).value();
  EXPECT_TRUE(q.flags.ext);
  EXPECT_GT(q.questions[0].rrc, upstream.questions[0].rrc);
  expect_same_state();
}

}  // namespace
}  // namespace dnscup::server
