// Portable datagram I/O backend (the "portable" IoBackend): receive()
// reads whole bursts with recvmmsg(MSG_DONTWAIT) on the calling thread
// and, when the socket is empty, waits in one ppoll over the socket and
// the caller's wake and watched fds; sends leave via sendto/sendmmsg.
// Works on every kernel and is the fallback every other backend degrades
// to.
//
// Traffic counters are registry-backed atomics, so send() is lock-free —
// protocol code may send from inside a receive callback (the DNScup
// authority answers queries exactly there) without serializing against
// stats reads.
//
// The sharded runtimes (src/runtime, src/cachert) bind one backend per
// worker with SO_REUSEPORT so the kernel spreads query flows across
// workers; everything deterministic still runs on SimNetwork.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <vector>

#include "net/io_backend.h"
#include "util/result.h"

namespace dnscup::net {

class UdpTransport final : public IoBackend {
 public:
  using Options = IoBackend::Options;

  /// Binds a UDP socket on 127.0.0.1 with the given options.
  static util::Result<std::unique_ptr<UdpTransport>> bind(
      const Options& options);

  /// Binds a UDP socket on 127.0.0.1.  Port 0 lets the OS pick; the chosen
  /// port is reflected in local_endpoint().  Traffic counters register in
  /// `metrics` (default_registry() when null) labeled with the endpoint.
  static util::Result<std::unique_ptr<UdpTransport>> bind(
      uint16_t port, metrics::MetricsRegistry* metrics = nullptr);

  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // Aliases kept from before the IoBackend extraction; the packet types
  // now live at net:: scope, shared by every backend.
  using TxPacket = net::TxPacket;
  using RxPacket = net::RxPacket;

  const Endpoint& local_endpoint() const override { return local_; }
  std::string_view backend_name() const override { return "portable"; }
  std::size_t batch_slots() const override;

  /// Single-datagram send with explicit failure handling: EAGAIN waits
  /// (bounded) for POLLOUT and retries, short writes and hard errors are
  /// counted (udp_tx_short_writes / udp_tx_errors) and the datagram is
  /// dropped — UDP semantics, but observable ones.
  void send(const Endpoint& to, std::span<const uint8_t> data) override;

  /// Sends the whole batch with as few syscalls as the platform allows
  /// (sendmmsg on Linux in chunks of 64, a sendto loop elsewhere).
  /// Returns the number of datagrams handed to the kernel; the shortfall
  /// is counted in udp_tx_errors.  Batch size and flush latency feed the
  /// udp_tx_batch_size / udp_tx_flush_us histograms.
  std::size_t send_batch(std::span<const TxPacket> packets) override;

  /// One recvmmsg(MSG_DONTWAIT) of up to `max` datagrams (at most
  /// kBatchSlots); when the socket is empty and `wait` is given, one
  /// ppoll first.  Burst sizes feed udp_rx_batch_size.
  std::size_t receive(std::size_t max, const BatchReceiveHandler& handler,
                      const Wait* wait = nullptr) override;
  int ready_fd() const override { return fd_; }

  /// Value snapshot of the traffic counters (atomics — no lock taken).
  TrafficStats stats() const override;

  /// Datagrams the kernel dropped because the socket's receive queue was
  /// full (SO_RXQ_OVFL ancillary data; stays 0 where unsupported).
  uint64_t rx_overflow() const { return rx_overflow_.value(); }

  /// Sends that hit EAGAIN and waited for POLLOUT.
  uint64_t tx_eagain_waits() const { return tx_eagain_.value(); }
  /// Sends where the kernel accepted fewer bytes than the datagram.
  uint64_t tx_short_writes() const { return tx_short_.value(); }
  /// Datagrams dropped on a hard send error (or an exhausted EAGAIN
  /// retry budget).
  uint64_t tx_errors() const { return tx_errors_.value(); }
  /// Inbound datagrams larger than a receive slot, dropped.
  uint64_t rx_truncated() const { return rx_truncated_.value(); }

 private:
  /// Datagrams per sendmmsg/recvmmsg syscall.
  static constexpr std::size_t kBatchSlots = 64;
  /// Bytes per receive slot — generous for this protocol, whose
  /// datagrams never exceed kMaxUdpPayload; larger inbound datagrams are
  /// dropped and counted in udp_rx_truncated.
  static constexpr std::size_t kRxSlotBytes = 4096;

  struct RxSlot {
    std::array<uint8_t, kRxSlotBytes> buf;
    sockaddr_in from;
    alignas(cmsghdr) std::array<uint8_t, 64> control;
  };

  UdpTransport(int fd, Endpoint local, const Options& options);
  /// One non-blocking recvmmsg; hands what it read to `handler`.
  std::size_t receive_ready(std::size_t max,
                            const BatchReceiveHandler& handler);
  /// Blocks (bounded) until the socket is writable after EAGAIN.
  void wait_writable();
  void count_sent(std::size_t requested, std::size_t accepted);

  int fd_;
  Endpoint local_;
  // Receive state, touched only by the thread calling receive().
  std::vector<RxSlot> rx_slots_;
  std::array<mmsghdr, kBatchSlots> rx_msgs_{};
  std::array<iovec, kBatchSlots> rx_iovs_{};
  std::vector<RxPacket> rx_batch_;
  TrafficInstruments stats_;
  metrics::Counter rx_overflow_;
  metrics::Counter rx_truncated_;
  metrics::Counter tx_eagain_;
  metrics::Counter tx_short_;
  metrics::Counter tx_errors_;
  metrics::HistogramMetric rx_batch_size_;
  metrics::HistogramMetric tx_batch_size_;
  metrics::HistogramMetric tx_flush_us_;
  uint32_t last_overflow_ = 0;  ///< receive()-side cumulative mark
};

}  // namespace dnscup::net
