// Two-daemon conformance tests over real loopback sockets: a DNScup
// authority (ServingRuntime — what dnscupd runs) and a DNScup cache
// (CacheRuntime — what dnscached runs), wired together exactly like the
// deployed pair.  These assert the paper's end-to-end claim: a zone
// change at the authority becomes visible at the cache through the
// CACHE-UPDATE push long before the record's TTL would have expired —
// and that without leases the cache is stale for the full TTL.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "cachert/cache_runtime.h"
#include "dns/zone_text.h"
#include "net/udp_transport.h"
#include "runtime/runtime.h"

namespace dnscup {
namespace {

dns::Zone zone_with(const char* address, uint32_t serial, uint32_t ttl) {
  char text[512];
  std::snprintf(text, sizeof text,
                "$ORIGIN example.com.\n"
                "@ IN SOA ns1.example.com. admin.example.com. %u 7200 900 "
                "604800 300\n"
                "@ %u IN NS ns1.example.com.\n"
                "ns1 %u IN A 10.0.0.1\n"
                "www %u IN A %s\n",
                serial, ttl, ttl, ttl, address);
  auto zone =
      dns::parse_zone_text(text, dns::Name::parse("example.com").value());
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().to_string());
  return std::move(zone).value();
}

std::vector<uint8_t> encode_query(uint16_t id, const char* name) {
  dns::Message query;
  query.id = id;
  query.flags.opcode = dns::Opcode::kQuery;
  query.flags.rd = true;
  query.questions.push_back(dns::Question{dns::Name::parse(name).value(),
                                          dns::RRType::kA, dns::RRClass::kIN,
                                          0});
  return query.encode();
}

/// A stub client on its own socket; queries a server and blocks for the
/// matching response.
class Client {
 public:
  Client() {
    auto bound = net::UdpTransport::bind(0);
    EXPECT_TRUE(bound.ok());
    udp_ = std::move(bound).value();
    udp_->set_receive_handler(
        [this](const net::Endpoint&, std::span<const uint8_t> data) {
          auto message = dns::Message::decode(data);
          if (!message.ok()) return;
          std::lock_guard lock(mutex_);
          responses_.push_back(std::move(message).value());
          cv_.notify_all();
        });
  }

  dns::Message query(const net::Endpoint& server, const char* name) {
    const uint16_t id = next_id_++;
    udp_->send(server, encode_query(id, name));
    dns::Message response;
    std::unique_lock lock(mutex_);
    const bool got =
        cv_.wait_for(lock, std::chrono::seconds(5), [&] {
          for (const dns::Message& m : responses_) {
            if (m.flags.qr && m.id == id) {
              response = m;
              return true;
            }
          }
          return false;
        });
    EXPECT_TRUE(got) << "no response for " << name;
    return response;
  }

  /// Sends `count` queries for `name` as one send batch, without waiting:
  /// the whole burst is queued on the server's socket before its worker
  /// has served one receive batch of it.
  void send_burst(const net::Endpoint& server, const char* name,
                  std::size_t count) {
    std::vector<std::vector<uint8_t>> wires;
    for (std::size_t i = 0; i < count; ++i) {
      wires.push_back(encode_query(next_id_++, name));
    }
    std::vector<net::TxPacket> packets;
    for (const auto& wire : wires) packets.push_back({server, wire});
    udp_->send_batch(packets);
  }

  /// Waits (5 s at most) until `count` responses have arrived in all.
  bool wait_responses(std::size_t count) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return responses_.size() >= count; });
  }

  std::size_t responses() {
    std::lock_guard lock(mutex_);
    return responses_.size();
  }

  /// The A address in the response's answer section, or "" on none.
  static std::string answer_a(const dns::Message& response) {
    for (const auto& rr : response.answers) {
      if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
        return a->address.to_string();
      }
    }
    return "";
  }

 private:
  std::unique_ptr<net::UdpTransport> udp_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<dns::Message> responses_;
  uint16_t next_id_ = 1;
};

struct Pair {
  std::unique_ptr<runtime::ServingRuntime> authority;
  std::unique_ptr<cachert::CacheRuntime> cache;
};

Pair start_pair(uint32_t ttl, bool cache_dnscup, int cache_workers = 1,
                bool cache_reuseport = true) {
  runtime::Config auth_config;
  auth_config.port = 0;
  auth_config.workers = 1;
  auto authority = runtime::ServingRuntime::start(
      auth_config, {zone_with("10.1.0.10", 1, ttl)});
  EXPECT_TRUE(authority.ok());

  cachert::Config cache_config;
  cache_config.port = 0;
  cache_config.workers = cache_workers;
  cache_config.reuseport = cache_reuseport;
  cache_config.upstreams = {authority.value()->endpoints()[0]};
  cache_config.dnscup = cache_dnscup;
  auto cache = cachert::CacheRuntime::start(cache_config);
  EXPECT_TRUE(cache.ok());
  return Pair{std::move(authority).value(), std::move(cache).value()};
}

/// Floods `server` with one query from two sockets, as fast as they send,
/// and calls `runtime.stop()` in the middle of it; returns how long the
/// stop took.  The flood ends once stop() returns, or after 10 s.
template <typename Runtime>
std::chrono::steady_clock::duration stop_under_flood(
    Runtime& runtime, const net::Endpoint& server) {
  const std::vector<uint8_t> query = encode_query(1, "www.example.com");
  // Bound here: binding registers instruments in the shared default
  // registry, which only sending may touch from several threads.
  std::vector<std::unique_ptr<net::UdpTransport>> sockets;
  for (int i = 0; i < 2; ++i) {
    auto bound = net::UdpTransport::bind(0);
    EXPECT_TRUE(bound.ok());
    if (bound.ok()) sockets.push_back(std::move(bound).value());
  }
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (const auto& socket : sockets) {
    senders.emplace_back([&done, &server, &query, udp = socket.get()] {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!done.load() && std::chrono::steady_clock::now() < deadline) {
        udp->send(server, query);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const auto start = std::chrono::steady_clock::now();
  runtime.stop();
  const auto took = std::chrono::steady_clock::now() - start;
  done.store(true);
  for (std::thread& sender : senders) sender.join();
  return took;
}

/// Polls the cache until `name` resolves to `address`; returns the time
/// it took, or `deadline` when it never did.
std::chrono::milliseconds poll_until_address(
    Client& client, const net::Endpoint& cache, const char* name,
    const std::string& address, std::chrono::milliseconds deadline) {
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto response = client.query(cache, name);
    if (Client::answer_a(response) == address) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
    }
    if (std::chrono::steady_clock::now() - start >= deadline) {
      return deadline;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// The tentpole conformance claim: with DNScup on, a zone change at the
// authority reaches the cache by push — visible within milliseconds, not
// after the 300-second TTL.
TEST(E2eDaemons, ZoneChangeVisibleWithoutTtlWait) {
  constexpr uint32_t kTtl = 300;  // seconds — far beyond the test budget
  Pair pair = start_pair(kTtl, /*cache_dnscup=*/true);
  Client client;
  const net::Endpoint cache = pair.cache->endpoints()[0];

  const auto warm = client.query(cache, "www.example.com");
  EXPECT_EQ(Client::answer_a(warm), "10.1.0.10");

  // The EXT handshake registered a lease on both sides, held by the
  // cache worker's upstream socket (its lease identity).
  EXPECT_EQ(pair.cache->live_leases(), 1u);
  EXPECT_EQ(pair.authority->live_leases(), 1u);
  const auto leases = pair.authority->collect_leases();
  ASSERT_EQ(leases.size(), 1u);
  EXPECT_EQ(leases[0].holder, pair.cache->upstream_endpoints()[0]);

  pair.authority->reload_zone(zone_with("10.9.9.9", 2, kTtl));

  const auto took =
      poll_until_address(client, cache, "www.example.com", "10.9.9.9",
                         std::chrono::milliseconds(5000));
  EXPECT_LT(took.count(), 5000) << "push never reached the cache";
  // Strong consistency bound: visible in a push round-trip, not a TTL.
  EXPECT_LT(took.count(), static_cast<int64_t>(kTtl) * 1000 / 10);

  // The push was applied and acknowledged, not re-resolved: the entry
  // still carries its lease.
  EXPECT_EQ(pair.cache->live_leases(), 1u);

  pair.cache->stop();
  pair.authority->stop();
}

// The baseline the paper improves on: leases off, the cache serves the
// stale record for the full TTL — the stale window is real and nonzero.
TEST(E2eDaemons, TtlOnlyCacheHasNonzeroStaleWindow) {
  constexpr uint32_t kTtl = 2;  // seconds — short so the test converges
  Pair pair = start_pair(kTtl, /*cache_dnscup=*/false);
  Client client;
  const net::Endpoint cache = pair.cache->endpoints()[0];

  const auto warm = client.query(cache, "www.example.com");
  EXPECT_EQ(Client::answer_a(warm), "10.1.0.10");
  EXPECT_EQ(pair.cache->live_leases(), 0u);   // plain TTL mode
  EXPECT_EQ(pair.authority->live_leases(), 0u);

  pair.authority->reload_zone(zone_with("10.9.9.9", 2, kTtl));

  // Immediately after the change the cache still answers from the TTL
  // entry: the stale window is open.
  const auto stale = client.query(cache, "www.example.com");
  EXPECT_EQ(Client::answer_a(stale), "10.1.0.10");

  // It converges only via TTL expiry and re-resolution.
  const auto took =
      poll_until_address(client, cache, "www.example.com", "10.9.9.9",
                         std::chrono::milliseconds(10000));
  EXPECT_LT(took.count(), 10000) << "cache never converged after TTL";

  pair.cache->stop();
  pair.authority->stop();
}

// Multi-worker cache: every worker keeps its own upstream socket, so
// pushes land on the worker that owns the lease regardless of how the
// kernel spreads client flows across the REUSEPORT group.
TEST(E2eDaemons, MultiWorkerCachePropagatesPushes) {
  constexpr uint32_t kTtl = 300;
  Pair pair = start_pair(kTtl, /*cache_dnscup=*/true, /*cache_workers=*/2);
  ASSERT_EQ(pair.cache->upstream_endpoints().size(), 2u);
  Client client;
  const net::Endpoint cache = pair.cache->endpoints()[0];

  const auto warm = client.query(cache, "www.example.com");
  EXPECT_EQ(Client::answer_a(warm), "10.1.0.10");
  EXPECT_EQ(pair.cache->live_leases(), 1u);

  pair.authority->reload_zone(zone_with("10.9.9.9", 2, kTtl));

  const auto took =
      poll_until_address(client, cache, "www.example.com", "10.9.9.9",
                         std::chrono::milliseconds(5000));
  EXPECT_LT(took.count(), 5000) << "push never reached the owning worker";

  pair.cache->stop();
  pair.authority->stop();
}

// Graceful drain: stop() leaves both runtimes answering consistent
// control-plane queries and is idempotent.
TEST(E2eDaemons, StopIsIdempotentAndStatsSurvive) {
  Pair pair = start_pair(300, /*cache_dnscup=*/true);
  Client client;
  client.query(pair.cache->endpoints()[0], "www.example.com");

  pair.cache->stop();
  pair.cache->stop();
  EXPECT_EQ(pair.cache->cache_entries(), 1u);
  EXPECT_EQ(pair.cache->live_leases(), 1u);
  const auto snapshot = pair.cache->metrics();
  EXPECT_FALSE(snapshot.entries.empty());

  pair.authority->stop();
  pair.authority->stop();
}

// The cache workers' drain: every query already queued on the client
// socket when stop() is called is answered (these are cache hits; only
// upstream tasks in flight are abandoned).
TEST(E2eDaemons, CacheStopAnswersEveryQueuedQuery) {
  Pair pair = start_pair(300, /*cache_dnscup=*/true);
  Client client;
  const net::Endpoint cache = pair.cache->endpoints()[0];
  client.query(cache, "www.example.com");  // warm: the burst is all hits

  // Several receive batches, yet small enough for the socket buffers at
  // both ends.
  constexpr std::size_t kBurst = 128;
  client.send_burst(cache, "www.example.com", kBurst);
  pair.cache->stop();
  EXPECT_TRUE(client.wait_responses(1 + kBurst))
      << client.responses() - 1 << " of " << kBurst << " answered";
  pair.authority->stop();
}

// The drain is bounded on both daemons: stop() returns promptly even
// while a flood keeps the worker's socket queue from ever running empty.
TEST(E2eDaemons, StopReturnsUnderFlood) {
  Pair pair = start_pair(300, /*cache_dnscup=*/true);
  Client client;
  client.query(pair.cache->endpoints()[0], "www.example.com");
  EXPECT_LT(stop_under_flood(*pair.cache, pair.cache->endpoints()[0]),
            std::chrono::seconds(5));
  EXPECT_LT(stop_under_flood(*pair.authority, pair.authority->endpoints()[0]),
            std::chrono::seconds(5));
}

// Without SO_REUSEPORT every cache worker serves its own port, and each
// answers.
TEST(E2eDaemons, CachePerWorkerPortFallbackServesOnEveryPort) {
  Pair pair = start_pair(300, /*cache_dnscup=*/true, /*cache_workers=*/2,
                         /*cache_reuseport=*/false);
  EXPECT_FALSE(pair.cache->reuseport_active());
  ASSERT_EQ(pair.cache->endpoints().size(), 2u);
  EXPECT_NE(pair.cache->endpoints()[0].port, pair.cache->endpoints()[1].port);
  Client client;
  for (const net::Endpoint& endpoint : pair.cache->endpoints()) {
    EXPECT_EQ(Client::answer_a(client.query(endpoint, "www.example.com")),
              "10.1.0.10");
  }
  pair.cache->stop();
  pair.authority->stop();
}

}  // namespace
}  // namespace dnscup
