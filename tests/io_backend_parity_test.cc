// I/O-backend conformance: the portable (recvmmsg/sendmmsg) and io_uring
// backends must be byte-for-byte interchangeable.  A backend is pure
// plumbing — the DNS bytes on the wire, the CACHE-UPDATE push flow and
// the ack bookkeeping may not depend on which one carries them.
//
// Every uring case skips (with a visible message) when the kernel lacks
// the io_uring features the backend needs, so the suite stays green on
// old kernels while exercising both backends where it can.
#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "cachert/cache_runtime.h"
#include "dns/zone_text.h"
#include "net/io_backend.h"
#include "net/udp_transport.h"
#include "runtime/mpsc_queue.h"
#include "runtime/runtime.h"

namespace dnscup {
namespace {

bool uring_available() {
  return net::uring_compiled() && net::uring_runtime_probe().ok();
}

#define SKIP_WITHOUT_URING()                                              \
  do {                                                                    \
    if (!uring_available()) {                                             \
      GTEST_SKIP() << "io_uring backend unavailable on this kernel — "    \
                      "parity checked against portable only";             \
    }                                                                     \
  } while (0)

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

/// A raw-bytes stub client (always on the portable backend, so the
/// variable under test is only the *server's* backend).  Sends pre-built
/// wire images and records each response verbatim.
class RawClient {
 public:
  RawClient() {
    auto bound = net::UdpTransport::bind(0);
    EXPECT_TRUE(bound.ok());
    udp_ = std::move(bound).value();
    udp_->set_receive_handler(
        [this](const net::Endpoint&, std::span<const uint8_t> data) {
          std::lock_guard lock(mutex_);
          responses_.emplace_back(data.begin(), data.end());
          cv_.notify_all();
        });
  }
  ~RawClient() { udp_->stop_receiving(); }

  /// Sends `wire` and blocks for the response whose id matches its first
  /// two bytes.  Returns the raw response bytes (empty on timeout).
  std::vector<uint8_t> exchange(const net::Endpoint& server,
                                std::span<const uint8_t> wire) {
    udp_->send(server, wire);
    std::vector<uint8_t> response;
    std::unique_lock lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(5), [&] {
      for (const auto& bytes : responses_) {
        if (bytes.size() >= 2 && bytes[0] == wire[0] && bytes[1] == wire[1]) {
          response = bytes;
          return true;
        }
      }
      return false;
    });
    return response;
  }

 private:
  std::unique_ptr<net::UdpTransport> udp_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<uint8_t>> responses_;
};

std::vector<uint8_t> encode_query(uint16_t id, const char* name, bool ext) {
  dns::Message query;
  query.id = id;
  query.flags.opcode = dns::Opcode::kQuery;
  query.flags.rd = true;
  query.flags.ext = ext;
  query.questions.push_back(
      dns::Question{dns::Name::parse(name).value(), dns::RRType::kA,
                    dns::RRClass::kIN,
                    ext ? dns::rrc_from_rate(10.0) : static_cast<uint16_t>(0)});
  return query.encode();
}

// ---------------------------------------------------------------------
// Backend basics, run against each backend in turn.

void roundtrip_scenario(net::IoBackendKind kind) {
  net::IoBackend::Options options;
  options.port = 0;
  options.reuseport = false;
  auto server = net::bind_io_backend(kind, options);
  ASSERT_TRUE(server.ok()) << server.error().to_string();
  auto client = net::bind_io_backend(kind, options);
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  // The server pulls on its own thread, as a serving worker does, and
  // echoes each datagram back with the first byte flipped through the
  // batched tx path.
  net::IoBackend* server_io = server.value().get();
  std::atomic<bool> serving{true};
  std::thread server_thread([server_io, &serving] {
    std::vector<std::vector<uint8_t>> copies;
    std::vector<net::TxPacket> replies;
    const net::IoBackend::BatchReceiveHandler echo =
        [&](std::span<const net::RxPacket> batch) {
          copies.clear();
          copies.reserve(batch.size());  // spans into copies stay valid
          replies.clear();
          for (const auto& packet : batch) {
            std::vector<uint8_t> bytes(packet.data.begin(),
                                       packet.data.end());
            bytes[0] ^= 0xFF;
            copies.push_back(std::move(bytes));
            replies.push_back(net::TxPacket{packet.from, copies.back()});
          }
          server_io->send_batch(replies);
        };
    const net::IoBackend::Wait wait{-1, -1, net::milliseconds(5)};
    while (serving.load()) {
      server_io->receive(server_io->batch_slots(), echo, &wait);
    }
  });

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::vector<uint8_t>> echoed;
  client.value()->set_receive_handler(
      [&](const net::Endpoint&, std::span<const uint8_t> data) {
        std::lock_guard lock(mutex);
        echoed.emplace_back(data.begin(), data.end());
        cv.notify_all();
      });

  constexpr int kPackets = 100;
  const net::Endpoint server_ep = server_io->local_endpoint();
  for (int i = 0; i < kPackets; ++i) {
    std::vector<uint8_t> payload(64, static_cast<uint8_t>(i));
    client.value()->send(server_ep, payload);
  }
  std::unique_lock lock(mutex);
  const bool all = cv.wait_for(lock, std::chrono::seconds(5), [&] {
    return echoed.size() >= kPackets;
  });
  EXPECT_TRUE(all) << "echoed " << echoed.size() << "/" << kPackets;
  for (const auto& bytes : echoed) {
    ASSERT_EQ(bytes.size(), 64u);
    EXPECT_EQ(bytes[0], static_cast<uint8_t>(bytes[1] ^ 0xFF));
  }
  lock.unlock();
  client.value()->stop_receiving();
  serving.store(false);
  server_thread.join();
}

TEST(IoBackendBasics, PortableRoundtrip) {
  roundtrip_scenario(net::IoBackendKind::kPortable);
}

TEST(IoBackendBasics, UringRoundtrip) {
  SKIP_WITHOUT_URING();
  roundtrip_scenario(net::IoBackendKind::kUring);
}

// The pull contract: receive() hands at most `max` datagrams per call
// and keeps the rest queued; with nothing ready it sleeps until the wake
// fd fires, long before its timeout.
void pull_contract_scenario(net::IoBackendKind kind) {
  net::IoBackend::Options options;
  auto io = net::bind_io_backend(kind, options);
  ASSERT_TRUE(io.ok()) << io.error().to_string();
  auto sender = net::UdpTransport::bind(0);
  ASSERT_TRUE(sender.ok());
  const std::vector<uint8_t> payload(32, 0xCD);
  constexpr std::size_t kSent = 10;
  for (std::size_t i = 0; i < kSent; ++i) {
    sender.value()->send(io.value()->local_endpoint(), payload);
  }

  std::size_t largest = 0;
  std::size_t received = 0;
  const net::IoBackend::BatchReceiveHandler count =
      [&](std::span<const net::RxPacket> batch) {
        largest = std::max(largest, batch.size());
        for (const auto& packet : batch) {
          EXPECT_EQ(packet.data.size(), payload.size());
          ++received;
        }
      };
  const net::IoBackend::Wait wait{-1, -1, net::milliseconds(100)};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received < kSent && std::chrono::steady_clock::now() < deadline) {
    EXPECT_LE(io.value()->receive(3, count, &wait), 3u);
  }
  EXPECT_EQ(received, kSent);
  EXPECT_LE(largest, 3u);

  // Nothing queued: the wait lasts its timeout (recycling the buffers
  // just served must not end it) ...
  const net::IoBackend::Wait idle{-1, -1, net::milliseconds(50)};
  const auto idle_start = std::chrono::steady_clock::now();
  EXPECT_EQ(io.value()->receive(8, count, &idle), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - idle_start,
            std::chrono::milliseconds(40));

  // ... unless a wake from another thread ends it early.
  runtime::WakeSignal wake;
  const net::IoBackend::Wait long_wait{wake.fd(), -1, net::seconds(10)};
  const auto start = std::chrono::steady_clock::now();
  std::thread waker([&wake] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    wake.wake();
  });
  EXPECT_EQ(io.value()->receive(8, count, &long_wait), 0u);
  waker.join();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(IoBackendBasics, PortablePullReceiveHonoursMaxAndWake) {
  pull_contract_scenario(net::IoBackendKind::kPortable);
}

TEST(IoBackendBasics, UringPullReceiveHonoursMaxAndWake) {
  SKIP_WITHOUT_URING();
  pull_contract_scenario(net::IoBackendKind::kUring);
}

// Repeated bind / serve / stop / destroy cycles: no slot, ring or fd
// leaks across restarts (the ASan leg turns any leak into a failure).
void stop_restart_scenario(net::IoBackendKind kind) {
  for (int cycle = 0; cycle < 5; ++cycle) {
    net::IoBackend::Options options;
    options.port = 0;
    options.reuseport = false;
    auto io = net::bind_io_backend(kind, options);
    ASSERT_TRUE(io.ok()) << "cycle " << cycle;
    std::atomic<int> received{0};
    io.value()->set_receive_handler(
        [&](const net::Endpoint&, std::span<const uint8_t>) {
          received.fetch_add(1);
        });
    auto sender = net::UdpTransport::bind(0);
    ASSERT_TRUE(sender.ok());
    const std::vector<uint8_t> payload(32, 0xAB);
    for (int i = 0; i < 10; ++i) {
      sender.value()->send(io.value()->local_endpoint(), payload);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (received.load() < 10 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(received.load(), 10) << "cycle " << cycle;
    io.value()->stop_receiving();
    // Destructors run here; the next cycle starts from scratch.
  }
}

TEST(IoBackendBasics, PortableStopRestartNoLeaks) {
  stop_restart_scenario(net::IoBackendKind::kPortable);
}

TEST(IoBackendBasics, UringStopRestartNoLeaks) {
  SKIP_WITHOUT_URING();
  stop_restart_scenario(net::IoBackendKind::kUring);
}

// ---------------------------------------------------------------------
// Byte parity: the authority must produce identical response bytes under
// both backends for an identical query stream.

struct AuthorityTrace {
  std::vector<std::vector<uint8_t>> responses;
};

AuthorityTrace authority_scenario(net::IoBackendKind kind) {
  AuthorityTrace trace;
  runtime::Config config;
  config.port = 0;
  config.workers = 1;
  config.io_backend = kind;
  auto authority = runtime::ServingRuntime::start(
      config, {zone_with("10.1.0.10", 1, 300)});
  EXPECT_TRUE(authority.ok());
  if (!authority.ok()) return trace;

  RawClient client;
  const net::Endpoint server = authority.value()->endpoints()[0];
  // Fixed, fully deterministic query stream: hits, a miss (NXDOMAIN),
  // repeats, then the same again after a zone reload.
  uint16_t id = 1;
  const char* kNames[] = {"www.example.com", "ns1.example.com",
                          "nonexistent.example.com", "www.example.com"};
  for (const char* name : kNames) {
    trace.responses.push_back(
        client.exchange(server, encode_query(id++, name, false)));
  }
  authority.value()->reload_zone(zone_with("10.9.9.9", 2, 300));
  for (const char* name : kNames) {
    trace.responses.push_back(
        client.exchange(server, encode_query(id++, name, false)));
  }
  authority.value()->stop();
  return trace;
}

TEST(IoBackendParity, AuthorityResponseBytesIdentical) {
  SKIP_WITHOUT_URING();
  const AuthorityTrace portable =
      authority_scenario(net::IoBackendKind::kPortable);
  const AuthorityTrace uring = authority_scenario(net::IoBackendKind::kUring);
  ASSERT_EQ(portable.responses.size(), uring.responses.size());
  for (std::size_t i = 0; i < portable.responses.size(); ++i) {
    ASSERT_FALSE(portable.responses[i].empty()) << "query " << i;
    EXPECT_EQ(portable.responses[i], uring.responses[i])
        << "response bytes diverge at query " << i;
  }
}

// ---------------------------------------------------------------------
// CACHE-UPDATE / ack parity: the full push flow — lease grant, push on
// zone change, apply, ack — must produce the same counters and the same
// converged answer under both backends.

struct PushTrace {
  std::string converged_address;
  uint64_t auth_pushes_sent = 0;
  uint64_t auth_pushes_acked = 0;
  uint64_t cache_updates_applied = 0;
  uint64_t cache_acks_sent = 0;
  std::size_t cache_live_leases = 0;
  std::string backend;
};

PushTrace push_scenario(net::IoBackendKind kind) {
  PushTrace trace;
  runtime::Config auth_config;
  auth_config.port = 0;
  auth_config.workers = 1;
  auth_config.io_backend = kind;
  auto authority = runtime::ServingRuntime::start(
      auth_config, {zone_with("10.1.0.10", 1, 300)});
  EXPECT_TRUE(authority.ok());
  if (!authority.ok()) return trace;

  cachert::Config cache_config;
  cache_config.port = 0;
  cache_config.workers = 1;
  cache_config.io_backend = kind;
  cache_config.upstreams = {authority.value()->endpoints()[0]};
  auto cache = cachert::CacheRuntime::start(cache_config);
  EXPECT_TRUE(cache.ok());
  if (!cache.ok()) return trace;
  trace.backend = std::string(cache.value()->io_backend_name());

  RawClient client;
  const net::Endpoint cache_ep = cache.value()->endpoints()[0];
  // Warm with an EXT query so a lease is granted on both sides.
  auto warm = client.exchange(cache_ep, encode_query(1, "www.example.com",
                                                     /*ext=*/true));
  EXPECT_FALSE(warm.empty());

  authority.value()->reload_zone(zone_with("10.9.9.9", 2, 300));

  // Poll until the push lands and the cache serves the new address.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  uint16_t id = 2;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto bytes =
        client.exchange(cache_ep, encode_query(id++, "www.example.com",
                                               /*ext=*/false));
    auto message = dns::Message::decode(bytes);
    if (message.ok()) {
      for (const auto& rr : message.value().answers) {
        if (const auto* a = std::get_if<dns::ARdata>(&rr.rdata)) {
          trace.converged_address = a->address.to_string();
        }
      }
    }
    if (trace.converged_address == "10.9.9.9") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Ack is fire-and-forget after apply; give it a moment to register.
  const auto ack_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (std::chrono::steady_clock::now() < ack_deadline) {
    if (counter_sum(authority.value()->metrics(), "cache_update_messages",
                    "result", "acked") > 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  trace.cache_live_leases = cache.value()->live_leases();
  const auto auth_metrics = authority.value()->metrics();
  const auto cache_metrics = cache.value()->metrics();
  trace.auth_pushes_sent =
      counter_sum(auth_metrics, "cache_update_messages", "result", "sent");
  trace.auth_pushes_acked =
      counter_sum(auth_metrics, "cache_update_messages", "result", "acked");
  trace.cache_updates_applied =
      counter_sum(cache_metrics, "lease_client_updates", "result", "applied");
  trace.cache_acks_sent =
      counter_sum(cache_metrics, "lease_client_acks_sent");
  cache.value()->stop();
  authority.value()->stop();
  return trace;
}

TEST(IoBackendParity, CacheUpdateAndAckBehaviorIdentical) {
  SKIP_WITHOUT_URING();
  const PushTrace portable = push_scenario(net::IoBackendKind::kPortable);
  const PushTrace uring = push_scenario(net::IoBackendKind::kUring);
  EXPECT_EQ(portable.backend, "portable");
  EXPECT_EQ(uring.backend, "uring");
  EXPECT_EQ(portable.converged_address, "10.9.9.9");
  EXPECT_EQ(uring.converged_address, "10.9.9.9");
  EXPECT_EQ(portable.auth_pushes_sent, uring.auth_pushes_sent);
  EXPECT_EQ(portable.auth_pushes_acked, uring.auth_pushes_acked);
  EXPECT_EQ(portable.cache_updates_applied, uring.cache_updates_applied);
  EXPECT_EQ(portable.cache_acks_sent, uring.cache_acks_sent);
  EXPECT_EQ(portable.cache_live_leases, uring.cache_live_leases);
}

// The portable scenario must pass standalone on every kernel — it is the
// baseline the uring comparisons anchor to.
TEST(IoBackendParity, PortablePushFlowBaseline) {
  const PushTrace trace = push_scenario(net::IoBackendKind::kPortable);
  EXPECT_EQ(trace.backend, "portable");
  EXPECT_EQ(trace.converged_address, "10.9.9.9");
  EXPECT_GE(trace.auth_pushes_sent, 1u);
  EXPECT_GE(trace.cache_updates_applied, 1u);
  EXPECT_GE(trace.cache_acks_sent, 1u);
  EXPECT_EQ(trace.cache_live_leases, 1u);
}

// ---------------------------------------------------------------------
// Run-to-completion workers: the kernel runs a ring's receive work on the
// thread that armed the receive, so every datagram's work must land on a
// serving worker — never on the thread that started the runtimes — and
// the runtimes start no thread besides their workers.

/// voluntary_ctxt_switches of thread `tid` of this process.
uint64_t voluntary_switches(long tid) {
  std::ifstream status("/proc/self/task/" + std::to_string(tid) + "/status");
  const std::string key = "voluntary_ctxt_switches:";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  }
  ADD_FAILURE() << "no " << key << " for thread " << tid;
  return 0;
}

/// Threads of this process, not counting the kernel's io_uring workers
/// (comm "iou-..."), which serve the rings rather than run our code.
std::size_t thread_count() {
  std::size_t count = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    std::getline(comm, name);
    if (name.rfind("iou-", 0) != 0) ++count;
  }
  return count;
}

TEST(RunToCompletion, UringReceiveWorkStaysOnWorkerThreads) {
  SKIP_WITHOUT_URING();
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  long helper_tid = 0;
  std::size_t threads_before = 0;
  std::size_t threads_after = 0;
  std::unique_ptr<runtime::ServingRuntime> authority;
  std::unique_ptr<cachert::CacheRuntime> cache;

  // The helper binds and starts both runtimes, then parks for the rest
  // of the test, as a daemon's main thread does.
  std::thread helper([&] {
    const std::size_t before = thread_count();
    runtime::Config auth_config;
    auth_config.port = 0;
    auth_config.workers = 1;
    auth_config.io_backend = net::IoBackendKind::kUring;
    auto auth = runtime::ServingRuntime::start(
        auth_config, {zone_with("10.1.0.10", 1, 300)});
    std::unique_ptr<cachert::CacheRuntime> started_cache;
    if (auth.ok()) {
      cachert::Config cache_config;
      cache_config.port = 0;
      cache_config.workers = 1;
      cache_config.io_backend = net::IoBackendKind::kUring;
      cache_config.upstreams = {auth.value()->endpoints()[0]};
      auto c = cachert::CacheRuntime::start(cache_config);
      if (c.ok()) started_cache = std::move(c).value();
    }
    const std::size_t after = thread_count();
    std::unique_lock lock(mutex);
    if (auth.ok()) authority = std::move(auth).value();
    cache = std::move(started_cache);
    threads_before = before;
    threads_after = after;
    helper_tid = ::syscall(SYS_gettid);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  auto finish = [&] {
    {
      std::lock_guard lock(mutex);
      release = true;
    }
    cv.notify_all();
    helper.join();
  };
  if (authority == nullptr || cache == nullptr) {
    finish();
    FAIL() << "runtimes failed to start";
  }
  EXPECT_EQ(authority->io_backend_name(), "uring");
  EXPECT_EQ(cache->io_backend_name(), "uring");
  // One authority worker and one cache worker; no receiver threads.
  EXPECT_EQ(threads_after - threads_before, 2u);

  RawClient client;
  const net::Endpoint auth_ep = authority->endpoints()[0];
  const net::Endpoint cache_ep = cache->endpoints()[0];
  const uint64_t switches_before = voluntary_switches(helper_tid);
  constexpr int kQueries = 2000;
  int answered = 0;
  for (int i = 0; i < kQueries; ++i) {
    // Alternate the authority and the cache; every cache query names a
    // fresh (nonexistent) name, so it also goes upstream.
    const std::string name = "q" + std::to_string(i) + ".example.com";
    const auto id = static_cast<uint16_t>(i + 1);
    const auto response =
        client.exchange(i % 2 == 0 ? auth_ep : cache_ep,
                        encode_query(id, name.c_str(), false));
    if (!response.empty()) ++answered;
  }
  const uint64_t switches_after = voluntary_switches(helper_tid);
  EXPECT_EQ(answered, kQueries);
  EXPECT_LT(switches_after - switches_before, 50u)
      << "the starting thread was woken for datagram receive work";

  finish();
  cache->stop();
  authority->stop();
}

}  // namespace
}  // namespace dnscup
