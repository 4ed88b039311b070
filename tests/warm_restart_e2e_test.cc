// Warm restart end-to-end over real loopback sockets: a dnscup authority
// with the push plane up, and a cache runtime persisting its shards to
// disk.  Kill the cache runtime, start a fresh one on the same
// directory, and assert the PR's tentpole claims: the cache comes back
// warm (client served with zero upstream queries), the surviving lease
// is announced over the v2 SUBSCRIBE and re-adopted by the authority
// without a refetch, pushes resume on the re-adopted lease — and when
// the zone moved while the cache was down, the client detects the serial
// gap and refetches instead of serving stale data.  More surviving leases
// than one SUBSCRIBE frame holds: the overflow is demoted before the
// restarted cache serves, and only announced leases stay leased.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cachert/cache_runtime.h"
#include "dns/zone_text.h"
#include "net/udp_transport.h"
#include "runtime/runtime.h"

namespace dnscup {
namespace {

/// The test zone; `hosts` adds A records h0 .. h<hosts-1>.
dns::Zone zone_with(const char* address, uint32_t serial, uint32_t ttl,
                    int hosts = 0) {
  char head[512];
  std::snprintf(head, sizeof head,
                "$ORIGIN example.com.\n"
                "@ IN SOA ns1.example.com. admin.example.com. %u 7200 900 "
                "604800 300\n"
                "@ %u IN NS ns1.example.com.\n"
                "ns1 %u IN A 10.0.0.1\n"
                "www %u IN A %s\n",
                serial, ttl, ttl, ttl, address);
  std::string text = head;
  for (int i = 0; i < hosts; ++i) {
    text += "h" + std::to_string(i) + " " + std::to_string(ttl) +
            " IN A 10.2." + std::to_string(i / 256) + "." +
            std::to_string(i % 256) + "\n";
  }
  auto zone =
      dns::parse_zone_text(text, dns::Name::parse("example.com").value());
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().to_string());
  return std::move(zone).value();
}

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
    dns::Message query;
    query.id = next_id_++;
    query.flags.opcode = dns::Opcode::kQuery;
    query.flags.rd = true;
    query.questions.push_back(dns::Question{dns::Name::parse(name).value(),
                                            dns::RRType::kA,
                                            dns::RRClass::kIN, 0});
    udp_->send(server, query.encode());
    dns::Message response;
    std::unique_lock lock(mutex_);
    const bool got = cv_.wait_for(lock, std::chrono::seconds(5), [&] {
      for (const dns::Message& m : responses_) {
        if (m.flags.qr && m.id == query.id) {
          response = m;
          return true;
        }
      }
      return false;
    });
    EXPECT_TRUE(got) << "no response for " << name;
    return response;
  }

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

uint64_t counter_sum(const metrics::Snapshot& snapshot, const char* name,
                     const char* key = nullptr,
                     const char* value = nullptr) {
  uint64_t total = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.kind != metrics::InstrumentKind::kCounter) continue;
    if (entry.name != name) continue;
    if (key != nullptr) {
      bool match = false;
      for (const auto& [k, v] : entry.labels) {
        if (k == key && v == value) {
          match = true;
          break;
        }
      }
      if (!match) continue;
    }
    total += entry.counter_value;
  }
  return total;
}

template <class Pred>
bool spin_until(Pred pred,
                std::chrono::milliseconds deadline =
                    std::chrono::milliseconds(5000)) {
  const auto start = std::chrono::steady_clock::now();
  while (!pred()) {
    if (std::chrono::steady_clock::now() - start >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return true;
}

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

class WarmRestartE2e : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("warm_restart_e2e_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + std::to_string(::getpid());
    ::unlink((dir_ + "/cache-shard-0").c_str());
    ::rmdir(dir_.c_str());

    runtime::Config auth_config;
    auth_config.port = 0;
    auth_config.workers = 1;
    auth_config.push_plane = true;
    auth_config.push_port = 0;
    auto started = runtime::ServingRuntime::start(
        auth_config, {zone_with("10.1.0.10", 1, 300)});
    ASSERT_TRUE(started.ok());
    authority_ = std::move(started).value();
  }

  void TearDown() override {
    if (cache_ != nullptr) cache_->stop();
    cache_.reset();
    authority_->stop();
    authority_.reset();
    ::unlink((dir_ + "/cache-shard-0").c_str());
    ::rmdir(dir_.c_str());
  }

  /// (Re)starts the cache runtime against dir_; stops any previous one.
  void start_cache() {
    if (cache_ != nullptr) cache_->stop();
    cache_.reset();  // destructors msync the shard files
    cachert::Config config;
    config.port = 0;
    config.workers = 1;
    config.upstreams = {authority_->endpoints()[0]};
    config.push_plane = true;
    config.push_authority = authority_->push_endpoint();
    config.push.reconnect_min = net::milliseconds(50);
    config.push.reconnect_max = net::milliseconds(200);
    config.cache_dir = dir_;
    config.cache_file_bytes = cache_file_bytes_;
    auto started = cachert::CacheRuntime::start(std::move(config));
    ASSERT_TRUE(started.ok()) << started.error().to_string();
    cache_ = std::move(started).value();
    ASSERT_TRUE(spin_until([&] { return cache_->push_connected() == 1; }))
        << "push channel never connected";
  }

  /// First generation: query once so the cache holds a leased entry.
  void populate() {
    start_cache();
    Client client;
    const auto warm = client.query(cache_->endpoints()[0], "www.example.com");
    ASSERT_EQ(Client::answer_a(warm), "10.1.0.10");
    ASSERT_TRUE(spin_until([&] { return authority_->live_leases() == 1; }));
    ASSERT_EQ(cache_->cache_entries(), 1u);
  }

  std::string dir_;
  std::size_t cache_file_bytes_ = 1ull << 20;
  std::unique_ptr<runtime::ServingRuntime> authority_;
  std::unique_ptr<cachert::CacheRuntime> cache_;
};

// Tentpole: restart on the same directory serves warm with zero upstream
// queries, the surviving lease is re-adopted (authority and client agree,
// counted on both ends), no refetch happens, and the very next zone
// change still arrives as a push on the re-adopted lease.
TEST_F(WarmRestartE2e, RestartServesWarmAndReadoptsLease) {
  populate();

  start_cache();  // second generation, same directory
  EXPECT_EQ(cache_->warm_entries(), 1u);
  const auto reports = cache_->cache_load_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].cold);
  EXPECT_EQ(reports[0].warm_entries, 1u);
  EXPECT_EQ(reports[0].leases_demoted, 0u);

  // The v2 SUBSCRIBE announced the survivor; the authority re-granted it
  // and the client resumed it — no serial gap, nothing rejected.
  ASSERT_TRUE(spin_until([&] {
    return counter_sum(cache_->metrics(), "lease_readoption_total", "result",
                       "resumed") >= 1;
  })) << "lease never re-adopted";
  EXPECT_EQ(counter_sum(cache_->metrics(), "lease_readoption_total", "result",
                        "serial_gap"),
            0u);
  EXPECT_EQ(counter_sum(cache_->metrics(), "lease_readoption_total", "result",
                        "rejected"),
            0u);
  EXPECT_GE(counter_sum(authority_->metrics(), "authority_lease_readoptions",
                        "result", "resumed"),
            1u);
  EXPECT_EQ(counter_sum(cache_->metrics(), "lease_client_resync_refetches"),
            0u);

  // Warm serve: the answer comes from the reloaded entry, not upstream.
  Client client;
  const auto warm = client.query(cache_->endpoints()[0], "www.example.com");
  EXPECT_EQ(Client::answer_a(warm), "10.1.0.10");
  EXPECT_EQ(counter_sum(cache_->metrics(), "resolver_queries", "side",
                        "upstream"),
            0u);

  // The re-adopted lease is live: the next change travels as a push.
  authority_->reload_zone(zone_with("10.9.9.9", 2, 300));
  ASSERT_LT(poll_until_address(client, cache_->endpoints()[0],
                               "www.example.com", "10.9.9.9",
                               std::chrono::milliseconds(5000))
                .count(),
            5000)
      << "push never reached the re-adopted lease";
}

// The zone moved while the cache was down: re-adoption must detect the
// serial gap from the SUBSCRIBE_ACK inventory and refetch — stale data
// is never trusted just because a lease survived on disk.
TEST_F(WarmRestartE2e, SerialGapWhileDownTriggersRefetch) {
  populate();
  cache_->stop();
  cache_.reset();

  authority_->reload_zone(zone_with("10.9.9.9", 2, 300));

  start_cache();
  EXPECT_EQ(cache_->warm_entries(), 1u);
  ASSERT_TRUE(spin_until([&] {
    return counter_sum(cache_->metrics(), "lease_readoption_total", "result",
                       "serial_gap") >= 1;
  })) << "serial gap never detected";

  // Convergence to the post-downtime data, via the resync refetch.
  Client client;
  ASSERT_LT(poll_until_address(client, cache_->endpoints()[0],
                               "www.example.com", "10.9.9.9",
                               std::chrono::milliseconds(5000))
                .count(),
            5000);
}

// Without the push plane there is nothing to re-adopt leases against:
// the warm reload must demote them to plain TTL entries (no stale
// serves), while still serving the TTL-fresh data warm.
TEST_F(WarmRestartE2e, RestartWithoutPushPlaneDemotesLeases) {
  populate();
  cache_->stop();
  cache_.reset();

  cachert::Config config;
  config.port = 0;
  config.workers = 1;
  config.upstreams = {authority_->endpoints()[0]};
  config.cache_dir = dir_;
  config.cache_file_bytes = 1ull << 20;
  auto started = cachert::CacheRuntime::start(std::move(config));
  ASSERT_TRUE(started.ok());
  cache_ = std::move(started).value();

  const auto reports = cache_->cache_load_reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].cold);
  EXPECT_EQ(reports[0].warm_entries, 1u);
  EXPECT_EQ(reports[0].leases_demoted, 1u);

  Client client;
  const auto warm = client.query(cache_->endpoints()[0], "www.example.com");
  EXPECT_EQ(Client::answer_a(warm), "10.1.0.10");
  EXPECT_EQ(counter_sum(cache_->metrics(), "resolver_queries", "side",
                        "upstream"),
            0u);
}

// More survivors than one v2 SUBSCRIBE frame holds (~2200 of these
// names).  The announcement must still be sent with as many as fit, and
// every survivor past them must be demoted before the restarted cache
// serves: no entry may keep a lease the authority was never asked to
// re-adopt.
TEST_F(WarmRestartE2e, SurvivorsBeyondOneFrameAreDemotedNotHonoured) {
  constexpr int kHosts = 3000;
  cache_file_bytes_ = 8ull << 20;  // 4096 slots
  authority_->reload_zone(zone_with("10.1.0.10", 2, 300, kHosts));
  start_cache();
  {
    Client client;
    for (int i = 0; i < kHosts; ++i) {
      const std::string name = "h" + std::to_string(i) + ".example.com";
      ASSERT_FALSE(
          Client::answer_a(client.query(cache_->endpoints()[0], name.c_str()))
              .empty())
          << name;
    }
  }
  ASSERT_TRUE(spin_until([&] {
    return cache_->live_leases() == static_cast<std::size_t>(kHosts);
  }));

  start_cache();  // second generation, same directory
  EXPECT_EQ(cache_->warm_entries(), static_cast<uint64_t>(kHosts));
  ASSERT_TRUE(spin_until([&] {
    return counter_sum(cache_->metrics(), "lease_readoption_total", "result",
                       "resumed") >= 1;
  })) << "no lease re-adopted: the SUBSCRIBE never reached the authority";

  const auto metrics = cache_->metrics();
  const uint64_t resumed =
      counter_sum(metrics, "lease_readoption_total", "result", "resumed") +
      counter_sum(metrics, "lease_readoption_total", "result", "serial_gap");
  const uint64_t rejected =
      counter_sum(metrics, "lease_readoption_total", "result", "rejected");
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(resumed + rejected, static_cast<uint64_t>(kHosts));
  EXPECT_EQ(counter_sum(authority_->metrics(), "authority_lease_readoptions",
                        "result", "resumed"),
            resumed);
  // The leases still honoured are exactly the re-adopted ones.
  EXPECT_EQ(cache_->live_leases(), resumed);

  // A demoted entry is still served warm, as a plain TTL entry.
  Client client;
  for (const char* name : {"h0.example.com", "h2999.example.com"}) {
    EXPECT_FALSE(
        Client::answer_a(client.query(cache_->endpoints()[0], name)).empty());
  }
  EXPECT_EQ(counter_sum(cache_->metrics(), "resolver_queries", "side",
                        "upstream"),
            0u);
}

}  // namespace
}  // namespace dnscup
