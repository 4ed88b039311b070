// The RRC a DNScup cache reports upstream (paper §5.2): the query rate of
// one record's local clients, read off the wire of the cache's EXT
// queries.
//
// One CachingResolver + LeaseClient against a scripted authority.  By
// default the authority answers every upstream query at TTL 0 and
// without a lease, so every client question for a record goes upstream
// right after it was measured, and its RRC is the estimate at that
// question.
//
//  * RrcAccuracy: steady and seeded Poisson streams report λ·3600
//    queries per hour (saturating at 65535), an idle record decays, and
//    a question without a cache entry reports 1.
//  * ClientRateLifecycle: what keeps a record's estimate (a refresh, a
//    pushed update, another spelling of the name) and what forgets it
//    (invalidation, LRU eviction, a warm restart).
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cachestore/mmap_store.h"
#include "core/cache_update.h"
#include "core/lease_client.h"
#include "dns/message.h"
#include "dns/name.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/cache_store.h"
#include "server/resolver.h"
#include "util/rng.h"

namespace dnscup::core {
namespace {

using dns::Message;
using dns::Name;
using dns::RRClass;
using dns::RRType;

Name mk(const std::string& text) { return Name::parse(text).value(); }

const net::Endpoint kAuthority{net::make_ip(10, 0, 0, 53), 53};
const net::Endpoint kClient{net::make_ip(10, 0, 0, 99), 4000};
constexpr const char* kWww = "www.example.com";

/// Records every datagram sent; delivers synchronously on request.
class RecordingTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint& to, std::span<const uint8_t> data) override {
    if (to == kAuthority) upstream.emplace_back(data.begin(), data.end());
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }

  std::vector<std::vector<uint8_t>> upstream;  ///< queries to kAuthority

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 1), 53};
  ReceiveHandler handler_;
};

/// A DNScup cache (resolver + LeaseClient) on its own clock, registry and
/// store, in front of the scripted authority.
class Cache {
 public:
  struct Options {
    std::size_t capacity = 0;  ///< LRU bound; 0 = unbounded
    std::string image;         ///< MmapCacheStore path; empty = heap
    int64_t wall_now_us = 1'700'000'000'000'000;
  };

  explicit Cache(const Options& options) {
    server::CachingResolver::Config rc;
    rc.metrics = &registry_;
    rc.cache_capacity = options.capacity;
    if (!options.image.empty()) {
      cachestore::MmapCacheStore::Options so;
      so.path = options.image;
      so.file_bytes = 4u << 20;
      so.metrics = &registry_;
      so.wall_now_us = options.wall_now_us;
      auto opened = cachestore::MmapCacheStore::open(std::move(so));
      EXPECT_TRUE(opened.ok());
      auto holder =
          std::make_shared<std::unique_ptr<server::CacheStoreBackend>>(
              std::move(opened).value());
      rc.cache_store = [holder] { return std::move(*holder); };
    }
    resolver_ = std::make_unique<server::CachingResolver>(
        transport_, loop_, std::vector<net::Endpoint>{kAuthority}, rc);
    LeaseClient::Config lc;
    lc.metrics = &registry_;
    lease_ = std::make_unique<LeaseClient>(*resolver_, lc);
  }

  /// TTL of the authority's answers (0: every question goes upstream).
  uint32_t answer_ttl = 0;

  server::ResolverCache& cache() { return resolver_->cache(); }
  net::SimTime now() const { return loop_.now(); }

  /// Delivers one plain client query for `name` at `at`; true when the
  /// cache sent an upstream query for it (left unanswered).
  bool ask(net::SimTime at, const std::string& name) {
    loop_.run_until(at);
    Message q;
    q.id = 7;
    q.flags.rd = true;
    q.questions.push_back(dns::Question{mk(name), RRType::kA, RRClass::kIN});
    const std::size_t before = transport_.upstream.size();
    transport_.deliver(kClient, q.encode());
    return transport_.upstream.size() > before;
  }

  /// ask(), with the authority answering the upstream query; returns
  /// that query's RRC, or nullopt when the cache answered the client.
  std::optional<uint16_t> query(net::SimTime at, const std::string& name) {
    if (!ask(at, name)) return std::nullopt;
    return answer_upstream();
  }

  /// Forces an upstream read of `name` at `at`, as a re-negotiation or a
  /// resync refetch does, and returns its RRC.
  uint16_t refresh(net::SimTime at, const std::string& name) {
    loop_.run_until(at);
    const std::size_t before = transport_.upstream.size();
    resolver_->refresh(mk(name), RRType::kA,
                       [](const server::CachingResolver::Outcome&) {});
    EXPECT_EQ(transport_.upstream.size(), before + 1);
    return answer_upstream();
  }

  /// The latest upstream query, decoded.
  Message last_upstream() const {
    return Message::decode(transport_.upstream.back()).value();
  }

  /// Delivers `response` from the authority.
  void respond(const Message& response) {
    transport_.deliver(kAuthority, response.encode());
  }

  /// The authority pushes new data for `name` (a CACHE-UPDATE).
  void push_update(const std::string& name, uint32_t serial) {
    dns::RRsetChange change{mk(name), RRType::kA, std::nullopt,
                            answer_set(name)};
    respond(encode_cache_update(0x5151, mk("example.com"), serial, {change}));
  }

 private:
  dns::RRset answer_set(const std::string& name) const {
    dns::RRset set{mk(name), RRType::kA, RRClass::kIN, answer_ttl, {}};
    set.add(dns::ARdata{dns::Ipv4{.addr = 0xC0000201u}});
    return set;
  }

  /// Answers the latest upstream query (an A record, no lease) and
  /// returns its RRC.
  uint16_t answer_upstream() {
    const Message query = last_upstream();
    EXPECT_TRUE(query.flags.ext);
    Message response = dns::make_response(query);
    response.flags.aa = true;
    response.answers =
        answer_set(query.questions[0].qname.to_string()).to_records();
    respond(response);
    return query.questions[0].rrc;
  }

  metrics::MetricsRegistry registry_;
  net::EventLoop loop_{&registry_};
  RecordingTransport transport_;
  std::unique_ptr<server::CachingResolver> resolver_;
  std::unique_ptr<LeaseClient> lease_;
};

/// Queries `name` every `gap` for `count` queries from `start`; returns
/// the RRC of the last query that went upstream (0 when none did).
uint16_t steady_stream(Cache& cache, const std::string& name,
                       net::SimTime start, net::Duration gap, int count) {
  uint16_t rrc = 0;
  for (int i = 0; i < count; ++i) {
    if (auto reported = cache.query(start + i * gap, name)) rrc = *reported;
  }
  return rrc;
}

// -- accuracy ----------------------------------------------------------------

TEST(RrcAccuracy, FirstQuestionReportsOne) {
  Cache cache({});
  EXPECT_EQ(cache.query(net::seconds(1), kWww), 1);
}

TEST(RrcAccuracy, SteadyTenPerSecond) {
  Cache cache({});
  const uint16_t rrc =
      steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50);
  EXPECT_NEAR(rrc, 36000, 0.02 * 36000);
}

TEST(RrcAccuracy, PoissonStreamsReportTheirRate) {
  for (const double lambda : {0.1, 1.0, 10.0}) {
    Cache cache({});
    util::Rng rng(20261017);
    net::SimTime t = net::seconds(1);
    std::vector<uint16_t> reads;
    for (int i = 0; i < 220; ++i) {
      t += net::from_seconds(rng.exponential(lambda));
      const auto rrc = cache.query(t, kWww);
      ASSERT_TRUE(rrc.has_value());
      if (i >= 20) reads.push_back(*rrc);  // past warm-up
    }
    std::sort(reads.begin(), reads.end());
    const double median = reads[reads.size() / 2];
    EXPECT_NEAR(median, lambda * 3600, 0.15 * lambda * 3600)
        << "at " << lambda << " q/s";
  }
}

TEST(RrcAccuracy, HundredPerSecondSaturates) {
  Cache cache({});
  EXPECT_EQ(
      steady_stream(cache, kWww, net::seconds(1), net::milliseconds(10), 50),
      65535);
}

TEST(RrcAccuracy, IdleRecordDecays) {
  // Refreshes are not client questions: they read the estimate, the
  // rate of 1 / (time since the last question) once that exceeds the
  // mean gap.
  Cache cache({});
  steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50);
  const net::SimTime last = cache.now();
  EXPECT_EQ(cache.refresh(last + net::minutes(30), kWww), 2);
  EXPECT_EQ(cache.refresh(last + net::hours(1), kWww), 1);
}

TEST(RrcAccuracy, SharedMicrosecondStaysFinite) {
  // Zero gaps: the rate is floored at one query per SimTime tick, so
  // rrc_from_rate gets a finite 1e6 q/s, not inf or NaN, and saturates.
  Cache cache({});
  EXPECT_EQ(steady_stream(cache, kWww, net::seconds(1), 0, 10), 65535);
}

TEST(RrcAccuracy, CnameTargetReportsOne) {
  // The target of a dangling CNAME is resolved without a client question
  // and without a cache entry: it reports the unseeded rate, not 0 ("no
  // demand", which a planner-enabled authority never leases).
  Cache cache({});
  ASSERT_TRUE(cache.ask(net::seconds(1), "alias.example.com"));
  Message response = dns::make_response(cache.last_upstream());
  response.flags.aa = true;
  dns::RRset cname{mk("alias.example.com"), RRType::kCNAME, RRClass::kIN,
                   300, {}};
  cname.add(dns::CNAMERdata{mk("target.example.com")});
  response.answers = cname.to_records();
  cache.respond(response);
  const Message target = cache.last_upstream();
  ASSERT_EQ(target.questions[0].qname, mk("target.example.com"));
  EXPECT_EQ(target.questions[0].rrc, 1);
}

// -- lifecycle ---------------------------------------------------------------

TEST(ClientRateLifecycle, RefreshAndPushedUpdateKeepTheEstimate) {
  Cache cache({});
  // Every TTL-0 answer is a refresh put of the same entry.
  EXPECT_NEAR(
      steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50),
      36000, 0.02 * 36000);
  cache.push_update(kWww, 2);
  EXPECT_NEAR(cache.refresh(cache.now(), kWww), 36000, 0.02 * 36000);
}

TEST(ClientRateLifecycle, InvalidationForgetsTheEstimate) {
  Cache cache({});
  steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50);
  ASSERT_TRUE(cache.cache().invalidate(mk(kWww), RRType::kA));
  EXPECT_EQ(cache.query(cache.now() + net::milliseconds(100), kWww), 1);
}

TEST(ClientRateLifecycle, EvictionForgetsTheEstimate) {
  Cache::Options bounded;
  bounded.capacity = 2;
  Cache cache(bounded);
  cache.answer_ttl = 300;
  // One miss, then hits answered from the cache.
  EXPECT_EQ(
      steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50),
      1);
  EXPECT_NEAR(cache.refresh(cache.now(), kWww), 36000, 0.02 * 36000);
  cache.query(cache.now() + net::seconds(1), "a.example.com");
  cache.query(cache.now() + net::seconds(1), "b.example.com");
  ASSERT_EQ(cache.cache().peek(mk(kWww), RRType::kA), nullptr);
  EXPECT_EQ(cache.query(cache.now() + net::seconds(1), kWww), 1);
}

TEST(ClientRateLifecycle, WarmRestartStartsUnseeded) {
  const std::string image =
      "client_rate_test_" + std::to_string(::getpid()) + ".img";
  ::unlink(image.c_str());
  Cache::Options persistent;
  persistent.image = image;
  {
    Cache cache(persistent);
    cache.answer_ttl = 300;
    steady_stream(cache, kWww, net::seconds(1), net::milliseconds(100), 50);
    EXPECT_NEAR(cache.refresh(cache.now(), kWww), 36000, 0.02 * 36000);
  }
  persistent.wall_now_us += net::seconds(10);  // 10 s of downtime
  Cache reopened(persistent);
  reopened.answer_ttl = 300;
  ASSERT_NE(reopened.cache().peek(mk(kWww), RRType::kA), nullptr);
  EXPECT_EQ(reopened.refresh(reopened.now(), kWww), 1);
  // Hits on the warm entry, none going upstream, measure afresh.
  EXPECT_EQ(steady_stream(reopened, kWww, net::seconds(1),
                          net::milliseconds(100), 50),
            0);
  EXPECT_NEAR(reopened.refresh(reopened.now(), kWww), 36000, 0.02 * 36000);
  ::unlink(image.c_str());
}

TEST(ClientRateLifecycle, SpellingsOfOneNameShareOneEstimate) {
  Cache cache({});
  uint16_t rrc = 0;
  for (int i = 0; i < 50; ++i) {
    const char* spelling = i % 2 == 0 ? "WWW.X.COM" : "www.x.com";
    rrc = cache.query(net::seconds(1) + i * net::milliseconds(100), spelling)
              .value();
  }
  EXPECT_NEAR(rrc, 36000, 0.02 * 36000);
}

}  // namespace
}  // namespace dnscup::core
