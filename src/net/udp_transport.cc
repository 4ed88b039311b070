#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "util/assert.h"

namespace dnscup::net {

namespace {
/// EAGAIN retry budget per datagram before it is dropped as a tx error.
constexpr int kMaxEagainRetries = 8;
constexpr int kPollOutTimeoutMs = 10;

sockaddr_in make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.ip);
  addr.sin_port = htons(ep.port);
  return addr;
}
}  // namespace

util::Result<std::unique_ptr<UdpTransport>> UdpTransport::bind(
    const Options& options) {
  Endpoint local{};
  auto fd = detail::open_udp_socket(options, &local);
  if (!fd.ok()) return fd.error();
  return std::unique_ptr<UdpTransport>(
      new UdpTransport(fd.value(), local, options));
}

std::size_t UdpTransport::batch_slots() const { return kBatchSlots; }

util::Result<std::unique_ptr<UdpTransport>> UdpTransport::bind(
    uint16_t port, metrics::MetricsRegistry* metrics) {
  Options options;
  options.port = port;
  options.metrics = metrics;
  return bind(options);
}

UdpTransport::UdpTransport(int fd, Endpoint local, const Options& options)
    : fd_(fd), local_(local), rx_slots_(kBatchSlots) {
  rx_batch_.reserve(kBatchSlots);
  auto& registry = metrics::resolve(options.metrics);
  stats_.register_in(registry, local_.to_string(), "portable", kBatchSlots);
  const metrics::Labels ep{{"endpoint", local_.to_string()}};
  rx_overflow_ = registry.counter("udp_rx_overflow", ep);
  rx_truncated_ = registry.counter("udp_rx_truncated", ep);
  tx_eagain_ = registry.counter("udp_tx_eagain_waits", ep);
  tx_short_ = registry.counter("udp_tx_short_writes", ep);
  tx_errors_ = registry.counter("udp_tx_errors", ep);
  rx_batch_size_ = registry.histogram("udp_rx_batch_size", ep);
  tx_batch_size_ = registry.histogram("udp_tx_batch_size", ep);
  tx_flush_us_ = registry.histogram("udp_tx_flush_us", ep);
}

TrafficStats UdpTransport::stats() const { return stats_.snapshot(); }

UdpTransport::~UdpTransport() {
  stop_receiving();
  ::close(fd_);
}

void UdpTransport::wait_writable() {
  pollfd p{};
  p.fd = fd_;
  p.events = POLLOUT;
  ::poll(&p, 1, kPollOutTimeoutMs);  // bounded; timeout just retries
}

void UdpTransport::count_sent(std::size_t requested, std::size_t accepted) {
  ++stats_.packets_sent;
  stats_.bytes_sent += static_cast<uint64_t>(accepted);
  stats_.max_packet_bytes.set_max(static_cast<double>(requested));
  if (accepted != requested) ++tx_short_;
}

void UdpTransport::send(const Endpoint& to, std::span<const uint8_t> data) {
  const sockaddr_in addr = make_addr(to);
  for (int attempt = 0; attempt <= kMaxEagainRetries; ++attempt) {
    const ssize_t n =
        ::sendto(fd_, data.data(), data.size(), 0,
                 reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
    if (n >= 0) {
      count_sent(data.size(), static_cast<std::size_t>(n));
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Kernel send buffer full: wait (bounded) for room, then retry.
      ++tx_eagain_;
      wait_writable();
      continue;
    }
    ++tx_errors_;  // hard error: drop the datagram, keep serving
    return;
  }
  ++tx_errors_;  // retry budget exhausted while the buffer stayed full
}

std::size_t UdpTransport::send_batch(std::span<const TxPacket> packets) {
  if (packets.empty()) return 0;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
#ifdef __linux__
  std::array<mmsghdr, kBatchSlots> msgs;
  std::array<iovec, kBatchSlots> iovs;
  std::array<sockaddr_in, kBatchSlots> addrs;
  std::size_t cursor = 0;
  int eagain_budget = kMaxEagainRetries;
  while (cursor < packets.size()) {
    const std::size_t n = std::min(kBatchSlots, packets.size() - cursor);
    for (std::size_t i = 0; i < n; ++i) {
      const TxPacket& p = packets[cursor + i];
      addrs[i] = make_addr(p.to);
      iovs[i] = {const_cast<uint8_t*>(p.data.data()), p.data.size()};
      msgs[i] = {};
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const int r = ::sendmmsg(fd_, msgs.data(), static_cast<unsigned>(n), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if ((errno == EAGAIN || errno == EWOULDBLOCK) && eagain_budget-- > 0) {
        ++tx_eagain_;
        wait_writable();
        continue;
      }
      tx_errors_ += packets.size() - cursor;  // drop the rest of the batch
      break;
    }
    for (int i = 0; i < r; ++i) {
      count_sent(packets[cursor + i].data.size(), msgs[i].msg_len);
    }
    sent += static_cast<std::size_t>(r);
    cursor += static_cast<std::size_t>(r);
    // Partial acceptance (r < n) means the buffer filled mid-batch; the
    // loop re-offers the remainder, guarded by the same EAGAIN budget.
  }
#else
  for (const TxPacket& p : packets) {
    send(p.to, p.data);
    ++sent;
  }
#endif
  tx_batch_size_.add(static_cast<double>(packets.size()));
  tx_flush_us_.add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return sent;
}

std::size_t UdpTransport::receive(std::size_t max,
                                  const BatchReceiveHandler& handler,
                                  const Wait* wait) {
  const std::size_t got = receive_ready(max, handler);
  if (got > 0 || wait == nullptr) return got;
  std::array<pollfd, 3> fds{};
  nfds_t count = 0;
  fds[count++] = {fd_, POLLIN, 0};
  for (const int fd : {wait->wake_fd, wait->also_fd}) {
    if (fd >= 0) fds[count++] = {fd, POLLIN, 0};
  }
  const timespec ts{static_cast<time_t>(wait->timeout / 1000000),
                    static_cast<long>(wait->timeout % 1000000) * 1000};
  if (::ppoll(fds.data(), count, &ts, nullptr) <= 0 ||
      (fds[0].revents & POLLIN) == 0) {
    return 0;  // timeout, a wake, or the other fd: the caller re-checks
  }
  return receive_ready(max, handler);
}

std::size_t UdpTransport::receive_ready(std::size_t max,
                                        const BatchReceiveHandler& handler) {
  const std::size_t slots = std::min(max, kBatchSlots);
  for (std::size_t i = 0; i < slots; ++i) {
    rx_iovs_[i] = {rx_slots_[i].buf.data(), rx_slots_[i].buf.size()};
    rx_msgs_[i] = {};
    msghdr& hdr = rx_msgs_[i].msg_hdr;
    hdr.msg_name = &rx_slots_[i].from;
    hdr.msg_namelen = sizeof rx_slots_[i].from;
    hdr.msg_iov = &rx_iovs_[i];
    hdr.msg_iovlen = 1;
    hdr.msg_control = rx_slots_[i].control.data();
    hdr.msg_controllen = rx_slots_[i].control.size();
  }
  const int r = ::recvmmsg(fd_, rx_msgs_.data(), static_cast<unsigned>(slots),
                           MSG_DONTWAIT, nullptr);
  if (r <= 0) return 0;  // EAGAIN (empty), EINTR, or a closed socket
  rx_batch_.clear();
  for (int i = 0; i < r; ++i) {
    const msghdr& hdr = rx_msgs_[i].msg_hdr;
#ifdef SO_RXQ_OVFL
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&hdr); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(const_cast<msghdr*>(&hdr), cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
        // The kernel reports the cumulative drop count; publish the delta.
        uint32_t dropped = 0;
        std::memcpy(&dropped, CMSG_DATA(cmsg), sizeof dropped);
        if (dropped > last_overflow_) rx_overflow_ += dropped - last_overflow_;
        last_overflow_ = dropped;
      }
    }
#endif
    if ((hdr.msg_flags & MSG_TRUNC) != 0) {
      ++rx_truncated_;  // larger than a slot: not a valid DNS datagram
      continue;
    }
    const RxSlot& slot = rx_slots_[static_cast<std::size_t>(i)];
    ++stats_.packets_received;
    stats_.bytes_received += rx_msgs_[i].msg_len;
    rx_batch_.push_back(RxPacket{
        Endpoint{ntohl(slot.from.sin_addr.s_addr), ntohs(slot.from.sin_port)},
        std::span<const uint8_t>(slot.buf.data(), rx_msgs_[i].msg_len)});
  }
  if (rx_batch_.empty()) return 0;
  rx_batch_size_.add(static_cast<double>(rx_batch_.size()));
  handler(std::span<const RxPacket>(rx_batch_));
  return rx_batch_.size();
}

}  // namespace dnscup::net
