// End-to-end tests of the sharded multi-worker serving runtime: real
// sockets, N worker threads, lease grants over the wire, CACHE-UPDATE
// fan-out on zone reload, cross-shard metrics aggregation, durable
// journaling through the single-writer store, and the worker pool's
// drain on stop().  These are also the tests
// the ThreadSanitizer leg of tools/check.sh runs.
#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_update.h"
#include "net/udp_transport.h"
#include "dns/zone_text.h"
#include "store/lease_store.h"

namespace dnscup::runtime {
namespace {

constexpr const char* kZoneText = R"($ORIGIN example.com.
@ IN SOA ns1.example.com. admin.example.com. 1 7200 900 604800 300
@ 300 IN NS ns1.example.com.
ns1 300 IN A 10.0.0.1
w0 300 IN A 10.1.0.10
w1 300 IN A 10.1.0.11
w2 300 IN A 10.1.0.12
w3 300 IN A 10.1.0.13
w4 300 IN A 10.1.0.14
w5 300 IN A 10.1.0.15
w6 300 IN A 10.1.0.16
w7 300 IN A 10.1.0.17
)";

dns::Zone test_zone(const char* text = kZoneText) {
  auto zone =
      dns::parse_zone_text(text, dns::Name::parse("example.com").value());
  EXPECT_TRUE(zone.ok()) << (zone.ok() ? "" : zone.error().to_string());
  return std::move(zone).value();
}

Config test_config(int workers) {
  Config config;
  config.port = 0;  // ephemeral — tests must not collide on a fixed port
  config.workers = workers;
  return config;
}

std::vector<uint8_t> encode_query(uint16_t id, const std::string& name,
                                  bool ext) {
  dns::Message query;
  query.id = id;
  query.flags.opcode = dns::Opcode::kQuery;
  query.flags.rd = true;
  query.flags.ext = ext;
  query.questions.push_back(dns::Question{
      dns::Name::parse(name).value(), dns::RRType::kA, dns::RRClass::kIN,
      ext ? dns::rrc_from_rate(5.0) : static_cast<uint16_t>(0)});
  return query.encode();
}

/// A client socket that decodes every inbound message, optionally acks
/// CACHE-UPDATE pushes, and lets tests wait on predicates.
class Client {
 public:
  explicit Client(bool ack_updates = false) {
    auto bound = net::UdpTransport::bind(0);
    EXPECT_TRUE(bound.ok());
    udp_ = std::move(bound).value();
    udp_->set_receive_handler([this, ack_updates](
                                  const net::Endpoint& from,
                                  std::span<const uint8_t> data) {
      auto message = dns::Message::decode(data);
      if (!message.ok()) return;
      if (ack_updates &&
          message.value().flags.opcode == dns::Opcode::kCacheUpdate &&
          !message.value().flags.qr) {
        // Ack from inside the receive callback, like a real cache.
        udp_->send(from, core::make_cache_update_ack(message.value())
                             .encode());
      }
      std::lock_guard lock(mutex_);
      messages_.push_back(std::move(message).value());
      cv_.notify_all();
    });
  }

  const net::Endpoint& endpoint() const { return udp_->local_endpoint(); }

  /// Sends one query and blocks for the matching response.
  dns::Message query(const net::Endpoint& server, const std::string& name,
                     bool ext) {
    const uint16_t id = next_id_++;
    udp_->send(server, encode_query(id, name, ext));
    dns::Message response;
    const bool got = wait_for([&](const std::vector<dns::Message>& all) {
      for (const dns::Message& m : all) {
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

  /// Sends `count` plain queries for `name` as one send batch, without
  /// waiting: the whole burst is queued on the server's socket before
  /// its worker has served one receive batch of it.
  void send_burst(const net::Endpoint& server, const std::string& name,
                  std::size_t count) {
    std::vector<std::vector<uint8_t>> wires;
    for (std::size_t i = 0; i < count; ++i) {
      wires.push_back(encode_query(next_id_++, name, false));
    }
    std::vector<net::TxPacket> packets;
    for (const auto& wire : wires) packets.push_back({server, wire});
    udp_->send_batch(packets);
  }

  /// Waits until `pred(messages)` holds (5s cap).
  template <typename Pred>
  bool wait_for(Pred pred) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [&] { return pred(messages_); });
  }

  std::vector<dns::Message> messages() {
    std::lock_guard lock(mutex_);
    return messages_;
  }

 private:
  std::unique_ptr<net::UdpTransport> udp_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<dns::Message> messages_;
  uint16_t next_id_ = 100;
};

uint64_t counter_sum(const metrics::Snapshot& snapshot, const char* name) {
  return snapshot.counter_total(name);
}

std::string temp_dir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("dnscup_runtime_test_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ServingRuntime, ServesAcrossWorkersAndAggregatesMetrics) {
  auto started = ServingRuntime::start(test_config(4), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  ASSERT_FALSE(rt.endpoints().empty());
  const net::Endpoint server = rt.endpoints()[0];

  // Several client sockets: under SO_REUSEPORT each flow hashes to some
  // worker; with per-worker-port fallback they all hit worker 0 — either
  // way every query must be answered and every EXT query leased.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 6; ++i) clients.push_back(std::make_unique<Client>());
  int queries = 0;
  for (int round = 0; round < 4; ++round) {
    for (auto& client : clients) {
      const std::string name = "w" + std::to_string(round * 2) +
                               ".example.com";
      const auto response = client->query(server, name, /*ext=*/true);
      EXPECT_EQ(response.flags.rcode, dns::Rcode::kNoError);
      EXPECT_TRUE(response.flags.ext);
      EXPECT_GT(response.llt, 0) << "EXT query must be leased";
      ++queries;
    }
  }

  // Each (client, name) pair is one lease tuple.
  EXPECT_EQ(rt.live_leases(), clients.size() * 4);

  // The merged snapshot sees every worker's counters.
  const auto snapshot = rt.metrics();
  EXPECT_EQ(counter_sum(snapshot, "auth_server_requests"),
            static_cast<uint64_t>(queries));
  EXPECT_EQ(counter_sum(snapshot, "listener_lease_decisions"),
            static_cast<uint64_t>(queries));

  rt.stop();
}

TEST(ServingRuntime, PerWorkerPortFallbackServesOnEveryPort) {
  Config config = test_config(3);
  config.reuseport = false;  // force the fallback path
  auto started = ServingRuntime::start(config, {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  EXPECT_FALSE(rt.reuseport_active());
  ASSERT_EQ(rt.endpoints().size(), 3u);

  Client client;
  for (const net::Endpoint& endpoint : rt.endpoints()) {
    const auto response = client.query(endpoint, "w1.example.com", false);
    EXPECT_EQ(response.flags.rcode, dns::Rcode::kNoError);
    ASSERT_EQ(response.answers.size(), 1u);
  }
  rt.stop();
}

TEST(ServingRuntime, ReloadZonePushesCacheUpdateToLeaseholder) {
  auto started = ServingRuntime::start(test_config(4), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();
  const net::Endpoint server = rt.endpoints()[0];

  Client cache(/*ack_updates=*/true);
  const auto response = cache.query(server, "w0.example.com", /*ext=*/true);
  ASSERT_GT(response.llt, 0);

  // Operator edit: w0 changes address.  Every worker diffs the same
  // snapshot; the one owning the lease pushes CACHE-UPDATE.
  auto edited = test_zone(R"($ORIGIN example.com.
@ IN SOA ns1.example.com. admin.example.com. 2 7200 900 604800 300
@ 300 IN NS ns1.example.com.
ns1 300 IN A 10.0.0.1
w0 300 IN A 10.9.9.9
w1 300 IN A 10.1.0.11
w2 300 IN A 10.1.0.12
w3 300 IN A 10.1.0.13
w4 300 IN A 10.1.0.14
w5 300 IN A 10.1.0.15
w6 300 IN A 10.1.0.16
w7 300 IN A 10.1.0.17
)");
  const std::size_t changes = rt.reload_zone(std::move(edited));
  EXPECT_EQ(changes, 1u) << "exactly the w0 RRset changed";

  ASSERT_TRUE(cache.wait_for([](const std::vector<dns::Message>& all) {
    for (const dns::Message& m : all) {
      if (m.flags.opcode == dns::Opcode::kCacheUpdate && !m.flags.qr) {
        return true;
      }
    }
    return false;
  })) << "leaseholder never received the CACHE-UPDATE push";

  // The ack sent from inside the cache's receive callback must reach the
  // pushing worker and settle the retransmission state.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  uint64_t acked = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto snapshot = rt.metrics();
    acked = 0;
    for (const auto& entry : snapshot.entries) {
      if (entry.name != "cache_update_messages") continue;
      for (const auto& [k, v] : entry.labels) {
        if (k == "result" && v == "acked") acked += entry.counter_value;
      }
    }
    if (acked > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(acked, 1u);
  rt.stop();
}

TEST(ServingRuntime, ShardedJournalingSurvivesRestart) {
  const std::string dir = temp_dir("journal");
  Config config = test_config(4);
  config.state_dir = dir;
  config.fsync = store::FsyncPolicy::kNever;  // speed; equivalence only

  std::string before;
  std::size_t leases = 0;
  {
    auto started = ServingRuntime::start(config, {test_zone()});
    ASSERT_TRUE(started.ok()) << started.error().to_string();
    ServingRuntime& rt = *started.value();
    ASSERT_TRUE(rt.durable());
    const net::Endpoint server = rt.endpoints()[0];

    std::vector<std::unique_ptr<Client>> clients;
    for (int i = 0; i < 5; ++i) clients.push_back(std::make_unique<Client>());
    for (int n = 0; n < 8; ++n) {
      for (auto& client : clients) {
        const auto response = client->query(
            server, "w" + std::to_string(n) + ".example.com", true);
        ASSERT_GT(response.llt, 0);
      }
    }
    leases = rt.live_leases();
    EXPECT_EQ(leases, 40u);
    before = rt.serialize_track_files();
    rt.stop();  // drains every shard's ops into the WAL + final snapshot
  }

  // Restart from the same state dir: the recovered lease set must be
  // exactly what the sharded run journaled, repartitioned across shards.
  {
    auto started = ServingRuntime::start(config, {test_zone()});
    ASSERT_TRUE(started.ok()) << started.error().to_string();
    ServingRuntime& rt = *started.value();
    EXPECT_EQ(rt.recovery().leases_restored, leases);
    EXPECT_EQ(rt.recovery().leases_expired, 0u);
    EXPECT_EQ(rt.serialize_track_files(), before)
        << "restart must reproduce the pre-crash track file byte for byte";
    rt.stop();
  }

  // Single-writer equivalence: a plain (unsharded) LeaseStore open on the
  // same directory recovers the same lease set.
  {
    store::PosixStorage storage;
    store::LeaseStore::Config store_config;
    store_config.dir = dir;
    metrics::MetricsRegistry registry;
    store_config.metrics = &registry;
    core::RecoveredState recovered;
    auto opened = store::LeaseStore::open(&storage, store_config, &recovered);
    ASSERT_TRUE(opened.ok()) << opened.error().to_string();
    EXPECT_EQ(recovered.leases.size(), leases);
  }
  std::filesystem::remove_all(dir);
}

// The workers' drain: every query already queued on the socket when
// stop() is called is answered before the worker exits.
TEST(ServingRuntime, StopAnswersEveryQueuedQuery) {
  auto started = ServingRuntime::start(test_config(2), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();

  // Several receive batches, yet small enough for the socket buffers at
  // both ends.
  constexpr std::size_t kBurst = 128;
  Client client;
  client.send_burst(rt.endpoints()[0], "w1.example.com", kBurst);
  rt.stop();
  EXPECT_TRUE(client.wait_for([](const std::vector<dns::Message>& all) {
    return all.size() == kBurst;
  })) << client.messages().size() << " of " << kBurst << " answered";
}

// The same drain on a bare pool, deterministically: the burst is queued
// while the worker is held inside a command, and stop() is under way
// before it resumes.
TEST(WorkerPool, StopServesEveryQueuedDatagram) {
  PoolConfig config;
  config.port = 0;
  WorkerPool pool(config);
  ASSERT_TRUE(pool.bind(/*private_sockets=*/false).ok());
  WorkerPool::Worker& worker = pool.worker(0);
  worker.shim.set_receive_handler(
      [&worker](const net::Endpoint& from, std::span<const uint8_t> data) {
        worker.shim.send(from, data);  // echo
      });
  pool.start();

  std::promise<void> held;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  worker.commands.push([&held, released] {
    held.set_value();
    released.wait();
  });
  held.get_future().wait();
  constexpr std::size_t kBurst = 128;
  Client client;
  client.send_burst(pool.endpoints()[0], "w1.example.com", kBurst);
  std::thread stopper([&pool] { pool.stop(); });
  while (!worker.stop.load()) std::this_thread::yield();
  release.set_value();
  stopper.join();
  EXPECT_TRUE(client.wait_for([](const std::vector<dns::Message>& all) {
    return all.size() == kBurst;
  })) << client.messages().size() << " of " << kBurst << " echoed";
}

TEST(ServingRuntime, GracefulStopIsIdempotentAndPostStopInspectable) {
  auto started = ServingRuntime::start(test_config(2), {test_zone()});
  ASSERT_TRUE(started.ok()) << started.error().to_string();
  ServingRuntime& rt = *started.value();

  Client client;
  client.query(rt.endpoints()[0], "w3.example.com", true);

  rt.stop();
  rt.stop();  // idempotent

  // Post-stop, control-plane reads run inline on the caller.
  EXPECT_EQ(rt.live_leases(), 1u);
  EXPECT_FALSE(rt.serialize_track_files().empty());
  EXPECT_GT(rt.metrics().entries.size(), 0u);
}

}  // namespace
}  // namespace dnscup::runtime
