#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "net/udp_transport.h"

namespace dnscup::net {
namespace {

// Real-socket smoke tests: two loopback sockets exchanging datagrams.
// Everything protocol-level runs on SimNetwork; these only prove the
// Transport abstraction holds on real UDP (the prototype path).

struct Waiter {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::vector<uint8_t>> received;
  Endpoint last_from;

  bool wait_for_messages(std::size_t n) {
    std::unique_lock lock(mutex);
    return cv.wait_for(lock, std::chrono::seconds(5),
                       [&] { return received.size() >= n; });
  }
};

TEST(UdpTransport, BindEphemeralPort) {
  auto t = UdpTransport::bind(0);
  ASSERT_TRUE(t.ok()) << t.error().to_string();
  EXPECT_NE(t.value()->local_endpoint().port, 0);
  EXPECT_EQ(t.value()->local_endpoint().ip, 0x7F000001u);
}

TEST(UdpTransport, SendAndReceive) {
  auto a = UdpTransport::bind(0);
  auto b = UdpTransport::bind(0);
  ASSERT_TRUE(a.ok() && b.ok());

  Waiter waiter;
  b.value()->set_receive_handler(
      [&](const Endpoint& from, std::span<const uint8_t> data) {
        std::lock_guard lock(waiter.mutex);
        waiter.received.emplace_back(data.begin(), data.end());
        waiter.last_from = from;
        waiter.cv.notify_all();
      });

  const std::vector<uint8_t> msg{1, 2, 3, 4, 5};
  a.value()->send(b.value()->local_endpoint(), msg);
  ASSERT_TRUE(waiter.wait_for_messages(1));
  EXPECT_EQ(waiter.received[0], msg);
  EXPECT_EQ(waiter.last_from, a.value()->local_endpoint());
}

TEST(UdpTransport, RoundTripBothDirections) {
  auto a = UdpTransport::bind(0);
  auto b = UdpTransport::bind(0);
  ASSERT_TRUE(a.ok() && b.ok());

  Waiter wa, wb;
  a.value()->set_receive_handler(
      [&](const Endpoint&, std::span<const uint8_t> data) {
        std::lock_guard lock(wa.mutex);
        wa.received.emplace_back(data.begin(), data.end());
        wa.cv.notify_all();
      });
  b.value()->set_receive_handler(
      [&](const Endpoint& from, std::span<const uint8_t> data) {
        std::lock_guard lock(wb.mutex);
        wb.received.emplace_back(data.begin(), data.end());
        wb.cv.notify_all();
        // Echo back.
        b.value()->send(from, data);
      });

  const std::vector<uint8_t> msg{9, 8, 7};
  a.value()->send(b.value()->local_endpoint(), msg);
  ASSERT_TRUE(wb.wait_for_messages(1));
  ASSERT_TRUE(wa.wait_for_messages(1));
  EXPECT_EQ(wa.received[0], msg);
}

TEST(UdpTransport, StatsCount) {
  auto a = UdpTransport::bind(0);
  auto b = UdpTransport::bind(0);
  ASSERT_TRUE(a.ok() && b.ok());
  Waiter waiter;
  b.value()->set_receive_handler(
      [&](const Endpoint&, std::span<const uint8_t> data) {
        std::lock_guard lock(waiter.mutex);
        waiter.received.emplace_back(data.begin(), data.end());
        waiter.cv.notify_all();
      });
  const std::vector<uint8_t> msg(100, 0xAB);
  a.value()->send(b.value()->local_endpoint(), msg);
  a.value()->send(b.value()->local_endpoint(), msg);
  ASSERT_TRUE(waiter.wait_for_messages(2));
  EXPECT_EQ(a.value()->stats().packets_sent, 2u);
  EXPECT_EQ(a.value()->stats().bytes_sent, 200u);
  EXPECT_EQ(a.value()->stats().max_packet_bytes, 100u);
  EXPECT_EQ(b.value()->stats().packets_received, 2u);
}

TEST(UdpTransport, CleanShutdownWithoutTraffic) {
  // Destroying an idle transport (no receive-handler thread) is prompt.
  auto t = UdpTransport::bind(0);
  ASSERT_TRUE(t.ok());
  t.value().reset();
  SUCCEED();
}

TEST(UdpTransport, SendFromInsideReceiveHandlerWithConcurrentStatsReads) {
  // Regression: send() once shared a mutex with the receive-handler
  // handoff, so sending from inside the handler — the authority's answer
  // path — serialized against stats() readers and could deadlock with a
  // lock-holding scraper.  Now the counters are atomics: the echo chain
  // below must complete while another thread hammers stats() on both
  // transports the whole time.
  auto a = UdpTransport::bind(0);
  auto b = UdpTransport::bind(0);
  ASSERT_TRUE(a.ok() && b.ok());

  constexpr int kChain = 200;
  Waiter done;
  b.value()->set_receive_handler(
      [&](const Endpoint& from, std::span<const uint8_t> data) {
        // Echo from inside the callback — the hot path under test.
        b.value()->send(from, data);
      });
  a.value()->set_receive_handler(
      [&](const Endpoint& from, std::span<const uint8_t> data) {
        {
          std::lock_guard lock(done.mutex);
          done.received.emplace_back(data.begin(), data.end());
          done.cv.notify_all();
        }
        if (done.received.size() < kChain) a.value()->send(from, data);
      });

  std::atomic<bool> scraping{true};
  std::thread scraper([&] {
    uint64_t sink = 0;
    while (scraping.load()) {
      sink += a.value()->stats().packets_sent;
      sink += b.value()->stats().packets_received;
    }
    (void)sink;
  });

  const std::vector<uint8_t> msg{0xDA, 0x7A};
  a.value()->send(b.value()->local_endpoint(), msg);
  const bool finished = done.wait_for_messages(kChain);
  scraping.store(false);
  scraper.join();
  ASSERT_TRUE(finished) << "echo chain stalled — send path blocked";
  EXPECT_GE(a.value()->stats().packets_sent, static_cast<uint64_t>(kChain));
}

TEST(UdpTransport, OptionsConfigureSocketBuffers) {
  UdpTransport::Options options;
  options.rcvbuf_bytes = 1 << 18;
  options.sndbuf_bytes = 1 << 18;
  auto t = UdpTransport::bind(options);
  ASSERT_TRUE(t.ok()) << t.error().to_string();
  EXPECT_NE(t.value()->local_endpoint().port, 0);
  EXPECT_EQ(t.value()->rx_overflow(), 0u);
}

TEST(UdpTransport, ReuseportGroupSharesOnePort) {
  UdpTransport::Options options;
  options.reuseport = true;
  auto a = UdpTransport::bind(options);
  if (!a.ok()) {
    GTEST_SKIP() << "SO_REUSEPORT unavailable: " << a.error().to_string();
  }
  options.port = a.value()->local_endpoint().port;
  auto b = UdpTransport::bind(options);
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  EXPECT_EQ(a.value()->local_endpoint().port,
            b.value()->local_endpoint().port);

  // Without SO_REUSEPORT on the second socket, the same port must refuse.
  UdpTransport::Options plain;
  plain.port = options.port;
  auto c = UdpTransport::bind(plain);
  EXPECT_FALSE(c.ok());
}

TEST(UdpTransport, StopReceivingKeepsSocketSendable) {
  auto a = UdpTransport::bind(0);
  auto b = UdpTransport::bind(0);
  ASSERT_TRUE(a.ok() && b.ok());
  Waiter waiter;
  b.value()->set_receive_handler(
      [&](const Endpoint&, std::span<const uint8_t> data) {
        std::lock_guard lock(waiter.mutex);
        waiter.received.emplace_back(data.begin(), data.end());
        waiter.cv.notify_all();
      });

  a.value()->stop_receiving();
  a.value()->stop_receiving();  // idempotent
  const std::vector<uint8_t> msg{1, 2, 3};
  a.value()->send(b.value()->local_endpoint(), msg);
  ASSERT_TRUE(waiter.wait_for_messages(1));
  EXPECT_EQ(waiter.received[0], msg);
  EXPECT_EQ(a.value()->stats().packets_sent, 1u);
}

TEST(UdpTransport, RxOverflowCountsKernelQueueDrops) {
#ifndef SO_RXQ_OVFL
  GTEST_SKIP() << "SO_RXQ_OVFL not available on this platform";
#else
  // A deliberately tiny receive buffer plus a handler that stalls: the
  // kernel queue fills, later datagrams drop, and the SO_RXQ_OVFL
  // ancillary counter must surface them as rx_overflow().
  UdpTransport::Options options;
  options.rcvbuf_bytes = 2048;  // kernel clamps to its minimum
  auto slow = UdpTransport::bind(options);
  ASSERT_TRUE(slow.ok()) << slow.error().to_string();
  auto sender = UdpTransport::bind(0);
  ASSERT_TRUE(sender.ok());

  std::atomic<int> seen{0};
  slow.value()->set_receive_handler(
      [&](const Endpoint&, std::span<const uint8_t>) {
        ++seen;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });

  const std::vector<uint8_t> payload(1200, 0x55);
  for (int i = 0; i < 600; ++i) {
    sender.value()->send(slow.value()->local_endpoint(), payload);
  }
  // The kernel reports the cumulative drop count as ancillary data on
  // the *next delivered* datagram, so keep trickling packets until one
  // gets through and carries the overflow tally with it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t overflow = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    overflow = slow.value()->rx_overflow();
    if (overflow > 0) break;
    sender.value()->send(slow.value()->local_endpoint(), payload);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(overflow, 0u)
      << "600 x 1200B at a 2KB buffer with a 2ms/datagram handler must "
         "overflow; seen=" << seen.load();
#endif
}

}  // namespace
}  // namespace dnscup::net
