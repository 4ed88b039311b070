#include "net/uring_backend.h"

#ifdef DNSCUP_HAVE_IO_URING

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::net {

namespace {

constexpr unsigned kBufGroup = 0;
// rx-ring completion tags.
constexpr uint64_t kRecvUserData = ~0ULL;
constexpr uint64_t kProvideUserData = ~0ULL - 1;
constexpr uint64_t kWakeUserData = ~0ULL - 2;
constexpr uint64_t kAlsoUserData = ~0ULL - 3;
constexpr uint64_t kProbeUserData = ~0ULL - 4;
constexpr uint64_t kCancelUserData = ~0ULL - 5;
constexpr int kMaxEagainRetries = 8;
constexpr int kPollOutTimeoutMs = 10;
/// Bound on the bind-time probe's wait for its cancelled receive.
constexpr long kProbeWaitNs = 100 * 1000 * 1000;

int sys_io_uring_setup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

sockaddr_in make_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ep.ip);
  addr.sin_port = htons(ep.port);
  return addr;
}

util::Error unsupported(const char* what, int err) {
  return util::make_error(
      util::ErrorCode::kUnsupported,
      std::string(what) + ": " + std::strerror(err));
}

}  // namespace

// ---------------------------------------------------------------------
// Ring: minimal single-mmap io_uring wrapper (no liburing in the image).

util::Status UringBackend::Ring::init(unsigned sq_entries,
                                      unsigned cq_entries) {
  io_uring_params p{};
  p.flags = IORING_SETUP_CQSIZE | IORING_SETUP_CLAMP;
  p.cq_entries = cq_entries;
  fd = sys_io_uring_setup(sq_entries, &p);
  if (fd < 0) return unsupported("io_uring_setup", errno);

  // Single-mmap layout + EXT_ARG timed waits + lossless CQ: all present
  // since 5.11, and this backend leans on each of them.
  constexpr unsigned kNeeded = IORING_FEAT_SINGLE_MMAP |
                               IORING_FEAT_NODROP | IORING_FEAT_EXT_ARG;
  if ((p.features & kNeeded) != kNeeded) {
    close_ring();
    return util::make_error(util::ErrorCode::kUnsupported,
                            "io_uring lacks SINGLE_MMAP/NODROP/EXT_ARG "
                            "(kernel too old)");
  }

  const std::size_t sq_bytes =
      p.sq_off.array + p.sq_entries * sizeof(unsigned);
  const std::size_t cq_bytes =
      p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  ring_bytes = std::max(sq_bytes, cq_bytes);
  ring_mmap = ::mmap(nullptr, ring_bytes, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQ_RING);
  if (ring_mmap == MAP_FAILED) {
    ring_mmap = nullptr;
    close_ring();
    return unsupported("io_uring ring mmap", errno);
  }
  sqe_bytes = p.sq_entries * sizeof(io_uring_sqe);
  sqes = static_cast<io_uring_sqe*>(
      ::mmap(nullptr, sqe_bytes, PROT_READ | PROT_WRITE,
             MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES));
  if (sqes == MAP_FAILED) {
    sqes = nullptr;
    close_ring();
    return unsupported("io_uring sqe mmap", errno);
  }

  auto* base = static_cast<uint8_t*>(ring_mmap);
  sq_head = reinterpret_cast<unsigned*>(base + p.sq_off.head);
  sq_tail = reinterpret_cast<unsigned*>(base + p.sq_off.tail);
  sq_mask = *reinterpret_cast<unsigned*>(base + p.sq_off.ring_mask);
  sq_array = reinterpret_cast<unsigned*>(base + p.sq_off.array);
  cq_head = reinterpret_cast<unsigned*>(base + p.cq_off.head);
  cq_tail = reinterpret_cast<unsigned*>(base + p.cq_off.tail);
  cq_mask = *reinterpret_cast<unsigned*>(base + p.cq_off.ring_mask);
  cqes = reinterpret_cast<io_uring_cqe*>(base + p.cq_off.cqes);
  return util::Status::ok_status();
}

void UringBackend::Ring::close_ring() {
  if (sqes != nullptr) ::munmap(sqes, sqe_bytes);
  if (ring_mmap != nullptr) ::munmap(ring_mmap, ring_bytes);
  if (fd >= 0) ::close(fd);
  sqes = nullptr;
  ring_mmap = nullptr;
  fd = -1;
}

io_uring_sqe* UringBackend::Ring::get_sqe() {
  // Single producer per ring (the receive() caller on rx, the tx_mutex_
  // holder on tx); only the kernel-consumed head needs an acquire.
  const unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = *sq_tail;
  if (tail - head > sq_mask) return nullptr;  // ring full
  io_uring_sqe* sqe = &sqes[tail & sq_mask];
  std::memset(sqe, 0, sizeof *sqe);
  sq_array[tail & sq_mask] = tail & sq_mask;
  __atomic_store_n(sq_tail, tail + 1, __ATOMIC_RELEASE);
  return sqe;
}

unsigned UringBackend::Ring::unsubmitted() const {
  return *sq_tail - __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
}

int UringBackend::Ring::enter(unsigned to_submit, unsigned min_complete,
                              unsigned flags, const void* arg,
                              std::size_t argsz) {
  const long r = ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete,
                           flags, arg, argsz);
  return r < 0 ? -errno : static_cast<int>(r);
}

// ---------------------------------------------------------------------
// Bind / setup / teardown.

util::Result<std::unique_ptr<UringBackend>> UringBackend::bind(
    const Options& options) {
  Endpoint local{};
  auto fd = detail::open_udp_socket(options, &local);
  if (!fd.ok()) return fd.error();
  std::unique_ptr<UringBackend> backend(
      new UringBackend(fd.value(), local, options));
  if (auto status = backend->setup(); !status.ok()) {
    return status.error();  // backend dtor tears down what came up
  }
  return backend;
}

UringBackend::UringBackend(int fd, Endpoint local, const Options& options)
    : fd_(fd), local_(local) {
  auto& registry = metrics::resolve(options.metrics);
  stats_.register_in(registry, local_.to_string(), "uring", kTxSlots);
  // Same instrument names as the portable backend: the `backend` label
  // distinguishes them, and cross-backend sums stay meaningful.
  const metrics::Labels ep{{"backend", "uring"},
                           {"endpoint", local_.to_string()}};
  rx_overflow_ = registry.counter("udp_rx_overflow", ep);
  rx_truncated_ = registry.counter("udp_rx_truncated", ep);
  tx_eagain_ = registry.counter("udp_tx_eagain_waits", ep);
  tx_errors_ = registry.counter("udp_tx_errors", ep);
  rx_batch_size_ = registry.histogram("udp_rx_batch_size", ep);
  tx_batch_size_ = registry.histogram("udp_tx_batch_size", ep);
  tx_flush_us_ = registry.histogram("udp_tx_flush_us", ep);
  recycle_bids_.reserve(kRxBufCount);
  rx_batch_.reserve(kRxBufCount);
  tx_addrs_.resize(kTxSlots);
  tx_iovs_.resize(kTxSlots);
  tx_msgs_.resize(kTxSlots);
  tx_pending_.reserve(kTxSlots);
  tx_retry_.reserve(kTxSlots);
}

util::Status UringBackend::setup() {
  // rx ring: the armed receive, buffer re-provides and the wait's polls
  // need a few SQEs, but CQ bursts of one CQE per datagram; tx ring: one
  // SQE per datagram in a batch.
  DNSCUP_TRY(rx_ring_.init(8, 2 * kRxBufCount));
  DNSCUP_TRY(tx_ring_.init(kTxSlots, 2 * kTxSlots));

  // Provided-buffer group: one PROVIDE_BUFFERS op hands the kernel the
  // whole slab (contiguous slots, bid == slot index); its inline
  // completion tells us right here whether the kernel supports buffer
  // groups at all.
  rx_slab_.resize(kRxBufCount * kRxSlotBytes);
  io_uring_sqe* sqe = rx_ring_.get_sqe();
  DNSCUP_ASSERT(sqe != nullptr);  // fresh ring, SQ is empty
  fill_provide_sqe(sqe, 0, kRxBufCount);
  int r;
  while ((r = rx_ring_.enter(1, 1, IORING_ENTER_GETEVENTS, nullptr, 0)) ==
         -EINTR) {
  }
  if (r < 0) return unsupported("PROVIDE_BUFFERS submit", -r);
  const unsigned head = *rx_ring_.cq_head;
  const unsigned tail = __atomic_load_n(rx_ring_.cq_tail, __ATOMIC_ACQUIRE);
  for (unsigned i = head; i != tail; ++i) {
    const io_uring_cqe& cqe = rx_ring_.cqes[i & rx_ring_.cq_mask];
    if (cqe.user_data == kProvideUserData && cqe.res < 0) {
      __atomic_store_n(rx_ring_.cq_head, tail, __ATOMIC_RELEASE);
      return unsupported("IORING_OP_PROVIDE_BUFFERS", -cqe.res);
    }
  }
  __atomic_store_n(rx_ring_.cq_head, tail, __ATOMIC_RELEASE);
  return probe_multishot();
}

util::Status UringBackend::probe_multishot() {
  const int probe = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  if (probe < 0) return unsupported("probe socket", errno);
  msghdr probe_msghdr{};
  probe_msghdr.msg_namelen = kRxNameSpace;
  probe_msghdr.msg_controllen = kRxControlSpace;
  io_uring_sqe* sqe = rx_ring_.get_sqe();
  DNSCUP_ASSERT(sqe != nullptr);
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = probe;
  sqe->addr = reinterpret_cast<uint64_t>(&probe_msghdr);
  sqe->len = 1;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = kBufGroup;
  sqe->user_data = kProbeUserData;
  sqe = rx_ring_.get_sqe();
  DNSCUP_ASSERT(sqe != nullptr);
  sqe->opcode = IORING_OP_ASYNC_CANCEL;
  sqe->fd = -1;
  sqe->addr = kProbeUserData;
  sqe->user_data = kCancelUserData;

  // An unsupported combination (pre-6.0 kernel) fails the receive with
  // an error CQE; a supported one ends with -ECANCELED.  Either way the
  // receive's last CQE (no F_MORE) comes back on this thread.
  util::Status status = util::Status::ok_status();
  bool ended = false;
  for (int round = 0; round < 10 && !ended; ++round) {
    __kernel_timespec ts{};
    ts.tv_nsec = kProbeWaitNs;
    io_uring_getevents_arg arg{};
    arg.ts = reinterpret_cast<uint64_t>(&ts);
    rx_ring_.enter(rx_ring_.unsubmitted(), 1,
                   IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
                   sizeof arg);
    unsigned head = *rx_ring_.cq_head;
    const unsigned tail =
        __atomic_load_n(rx_ring_.cq_tail, __ATOMIC_ACQUIRE);
    for (; head != tail; ++head) {
      const io_uring_cqe& cqe = rx_ring_.cqes[head & rx_ring_.cq_mask];
      if (cqe.user_data != kProbeUserData) continue;
      if ((cqe.flags & IORING_CQE_F_BUFFER) != 0) {
        recycle_bids_.push_back(cqe.flags >> IORING_CQE_BUFFER_SHIFT);
      }
      if ((cqe.flags & IORING_CQE_F_MORE) == 0) {
        ended = true;
        if (cqe.res < 0 && cqe.res != -ECANCELED) {
          status = unsupported("multishot recvmsg", -cqe.res);
        }
      }
    }
    __atomic_store_n(rx_ring_.cq_head, head, __ATOMIC_RELEASE);
  }
  ::close(probe);
  if (!ended) {
    return util::make_error(util::ErrorCode::kUnsupported,
                            "multishot recvmsg probe never completed");
  }
  publish_rx_buffers();  // a stray datagram on the probe took a buffer
  submit_rx();
  return status;
}

void UringBackend::teardown() {
  // The provided-buffer group dies with the ring fd; nothing to
  // unregister separately.
  rx_ring_.close_ring();
  tx_ring_.close_ring();
}

UringBackend::~UringBackend() {
  stop_receiving();
  teardown();
  ::close(fd_);
}

TrafficStats UringBackend::stats() const { return stats_.snapshot(); }

// ---------------------------------------------------------------------
// Receive path (only the thread that calls receive() touches it).

io_uring_sqe* UringBackend::rx_sqe() {
  io_uring_sqe* sqe = rx_ring_.get_sqe();
  if (sqe == nullptr) {
    submit_rx();  // SQ full (it only holds 8): flush, then retry
    sqe = rx_ring_.get_sqe();
    DNSCUP_ASSERT(sqe != nullptr);
  }
  return sqe;
}

void UringBackend::submit_rx() {
  while (rx_ring_.unsubmitted() > 0 &&
         rx_ring_.enter(rx_ring_.unsubmitted(), 0, 0, nullptr, 0) == -EINTR) {
  }
}

void UringBackend::arm_multishot() {
  rx_msghdr_ = msghdr{};
  // No iovec: the kernel picks a provided buffer per datagram and lays
  // out recvmsg_out header + name + control + payload inside it.
  rx_msghdr_.msg_namelen = kRxNameSpace;
  rx_msghdr_.msg_controllen = kRxControlSpace;
  io_uring_sqe* sqe = rx_sqe();
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = fd_;
  sqe->addr = reinterpret_cast<uint64_t>(&rx_msghdr_);
  sqe->len = 1;
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = kBufGroup;
  sqe->user_data = kRecvUserData;
  recv_armed_ = true;
}

void UringBackend::arm_poll(int fd, uint64_t user_data) {
  io_uring_sqe* sqe = rx_sqe();
  sqe->opcode = IORING_OP_POLL_ADD;
  sqe->fd = fd;
  sqe->poll32_events = POLLIN;
  sqe->user_data = user_data;
}

void UringBackend::fill_provide_sqe(io_uring_sqe* sqe, unsigned first_bid,
                                    unsigned count) {
  sqe->opcode = IORING_OP_PROVIDE_BUFFERS;
  sqe->fd = static_cast<int>(count);
  sqe->addr = reinterpret_cast<uint64_t>(
      rx_slab_.data() + std::size_t{first_bid} * kRxSlotBytes);
  sqe->len = kRxSlotBytes;
  sqe->off = first_bid;  // bids assigned sequentially from here
  sqe->buf_group = kBufGroup;
  sqe->user_data = kProvideUserData;
}

void UringBackend::publish_rx_buffers() {
  if (recycle_bids_.empty()) return;
  // Multishot hands buffers out in provide order, so a drained burst is
  // mostly consecutive bids: sort and collapse each run into one SQE.
  std::sort(recycle_bids_.begin(), recycle_bids_.end());
  std::size_t i = 0;
  while (i < recycle_bids_.size()) {
    const unsigned first = recycle_bids_[i];
    unsigned count = 1;
    while (i + count < recycle_bids_.size() &&
           recycle_bids_[i + count] == first + count) {
      ++count;
    }
    i += count;
    io_uring_sqe* sqe = rx_sqe();
    fill_provide_sqe(sqe, first, count);
    // Only a failure posts a CQE: a success CQE would end the next idle
    // wait at once.  Every kernel that passed the multishot probe (6.0+)
    // supports the flag (5.17+).
    sqe->flags = IOSQE_CQE_SKIP_SUCCESS;
  }
  recycle_bids_.clear();
}

std::size_t UringBackend::receive(std::size_t max,
                                  const BatchReceiveHandler& handler,
                                  const Wait* wait) {
  if (!recv_armed_) arm_multishot();
  const bool ready = *rx_ring_.cq_head !=
                     __atomic_load_n(rx_ring_.cq_tail, __ATOMIC_ACQUIRE);
  if (!ready && wait != nullptr) {
    // The wait's io_uring_enter also submits what the last call queued
    // (its buffer re-provides), so an idle socket costs one syscall.
    wait_for_completion(*wait);
  } else {
    submit_rx();
  }
  return reap(max, handler);
}

void UringBackend::wait_for_completion(const Wait& wait) {
  if (wait.wake_fd >= 0 && !wake_armed_) {
    arm_poll(wait.wake_fd, kWakeUserData);
    wake_armed_ = true;
  }
  if (wait.also_fd >= 0 && !also_armed_) {
    arm_poll(wait.also_fd, kAlsoUserData);
    also_armed_ = true;
  }
  // One syscall submits the polls and sleeps; the kernel runs this
  // thread's receive work while it waits.
  __kernel_timespec ts{};
  ts.tv_sec = wait.timeout / 1000000;
  ts.tv_nsec = (wait.timeout % 1000000) * 1000;
  io_uring_getevents_arg arg{};
  arg.ts = reinterpret_cast<uint64_t>(&ts);
  const int r = rx_ring_.enter(rx_ring_.unsubmitted(), 1,
                               IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG,
                               &arg, sizeof arg);
  (void)r;  // -ETIME / -EINTR: the caller re-checks and comes back
}

std::size_t UringBackend::reap(std::size_t max,
                               const BatchReceiveHandler& handler) {
  unsigned head = *rx_ring_.cq_head;
  const unsigned tail = __atomic_load_n(rx_ring_.cq_tail, __ATOMIC_ACQUIRE);
  rx_batch_.clear();
  for (; head != tail && rx_batch_.size() < max; ++head) {
    const io_uring_cqe& cqe = rx_ring_.cqes[head & rx_ring_.cq_mask];
    if (cqe.user_data == kWakeUserData) {
      wake_armed_ = false;
      continue;
    }
    if (cqe.user_data == kAlsoUserData) {
      also_armed_ = false;
      continue;
    }
    if (cqe.user_data == kProvideUserData) {
      if (cqe.res < 0) {
        // Should not happen after setup validated the op; the slots in
        // that run are gone until restart, so say so.
        DNSCUP_LOG_WARN("uring PROVIDE_BUFFERS failed (%s): rx slots lost",
                        std::strerror(-cqe.res));
      }
      continue;
    }
    if (cqe.user_data != kRecvUserData) continue;
    // -ENOBUFS and friends end the multishot: re-armed below.
    if ((cqe.flags & IORING_CQE_F_MORE) == 0) recv_armed_ = false;
    if (cqe.res < 0 || (cqe.flags & IORING_CQE_F_BUFFER) == 0) continue;
    const unsigned bid = cqe.flags >> IORING_CQE_BUFFER_SHIFT;
    recycle_bids_.push_back(bid);
    uint8_t* slot = rx_slab_.data() + std::size_t{bid} * kRxSlotBytes;
    if (static_cast<std::size_t>(cqe.res) < sizeof(io_uring_recvmsg_out)) {
      continue;
    }
    auto* out = reinterpret_cast<io_uring_recvmsg_out*>(slot);
#ifdef SO_RXQ_OVFL
    if (out->controllen > 0) {
      // The control area sits between name space and payload; walk it
      // with a scratch msghdr so CMSG_* macros apply.
      msghdr scratch{};
      scratch.msg_control = slot + sizeof(io_uring_recvmsg_out) +
                            kRxNameSpace;
      scratch.msg_controllen = out->controllen;
      for (cmsghdr* cmsg = CMSG_FIRSTHDR(&scratch); cmsg != nullptr;
           cmsg = CMSG_NXTHDR(&scratch, cmsg)) {
        if (cmsg->cmsg_level == SOL_SOCKET &&
            cmsg->cmsg_type == SO_RXQ_OVFL) {
          uint32_t dropped = 0;
          std::memcpy(&dropped, CMSG_DATA(cmsg), sizeof dropped);
          if (dropped > last_overflow_) {
            rx_overflow_ += dropped - last_overflow_;
          }
          last_overflow_ = dropped;
        }
      }
    }
#endif
    if ((out->flags & MSG_TRUNC) != 0) {
      ++rx_truncated_;  // datagram larger than a 2 KiB slot: drop
      continue;
    }
    const std::size_t stored =
        static_cast<std::size_t>(cqe.res) - sizeof(io_uring_recvmsg_out) -
        kRxNameSpace - kRxControlSpace;
    const std::size_t len = std::min<std::size_t>(out->payloadlen, stored);
    sockaddr_in from{};
    std::memcpy(&from, slot + sizeof(io_uring_recvmsg_out),
                std::min<std::size_t>(out->namelen, sizeof from));
    ++stats_.packets_received;
    stats_.bytes_received += len;
    rx_batch_.push_back(RxPacket{
        Endpoint{ntohl(from.sin_addr.s_addr), ntohs(from.sin_port)},
        std::span<const uint8_t>(slot + sizeof(io_uring_recvmsg_out) +
                                     kRxNameSpace + kRxControlSpace,
                                 len)});
  }
  __atomic_store_n(rx_ring_.cq_head, head, __ATOMIC_RELEASE);

  if (!rx_batch_.empty()) {
    rx_batch_size_.add(static_cast<double>(rx_batch_.size()));
    handler(std::span<const RxPacket>(rx_batch_));
  }
  // The handler has returned: every span is dead, so the buffers can go
  // back to the kernel (ahead of a re-arm, in SQ order).  They are
  // submitted by the next receive(): its wait, or at once if datagrams
  // are already waiting.
  publish_rx_buffers();
  if (!recv_armed_) arm_multishot();
  return rx_batch_.size();
}

// ---------------------------------------------------------------------
// Send path.

void UringBackend::count_sent(std::size_t requested, std::size_t accepted) {
  ++stats_.packets_sent;
  stats_.bytes_sent += static_cast<uint64_t>(accepted);
  stats_.max_packet_bytes.set_max(static_cast<double>(requested));
}

void UringBackend::wait_writable() {
  pollfd p{};
  p.fd = fd_;
  p.events = POLLOUT;
  ::poll(&p, 1, kPollOutTimeoutMs);  // bounded; timeout just retries
}

std::size_t UringBackend::submit_tx_batch(std::span<const TxPacket> packets) {
  const std::size_t n = packets.size();
  DNSCUP_ASSERT(n <= kTxSlots);
  for (std::size_t i = 0; i < n; ++i) {
    tx_addrs_[i] = make_addr(packets[i].to);
    tx_iovs_[i] = {const_cast<uint8_t*>(packets[i].data.data()),
                   packets[i].data.size()};
    tx_msgs_[i] = msghdr{};
    tx_msgs_[i].msg_name = &tx_addrs_[i];
    tx_msgs_[i].msg_namelen = sizeof tx_addrs_[i];
    tx_msgs_[i].msg_iov = &tx_iovs_[i];
    tx_msgs_[i].msg_iovlen = 1;
  }

  std::size_t accepted = 0;
  // Indices still to (re)offer; starts as the whole batch, shrinks to
  // the EAGAIN stragglers on each retry round.
  std::vector<std::size_t>& pending = tx_pending_;
  std::vector<std::size_t>& retry = tx_retry_;
  pending.clear();
  for (std::size_t i = 0; i < n; ++i) pending.push_back(i);
  int eagain_budget = kMaxEagainRetries;

  while (!pending.empty()) {
    for (const std::size_t i : pending) {
      io_uring_sqe* sqe = tx_ring_.get_sqe();
      DNSCUP_ASSERT(sqe != nullptr);  // batch chunked to the SQ size
      sqe->opcode = IORING_OP_SENDMSG;
      sqe->fd = fd_;
      sqe->addr = reinterpret_cast<uint64_t>(&tx_msgs_[i]);
      sqe->len = 1;
      sqe->user_data = static_cast<uint64_t>(i);
    }
    // One syscall submits the whole round and waits for every
    // completion: the packet spans are borrowed only until we return.
    unsigned submitted = 0;
    const auto want = static_cast<unsigned>(pending.size());
    while (submitted < want) {
      const int r = tx_ring_.enter(want - submitted, want,
                                   IORING_ENTER_GETEVENTS, nullptr, 0);
      if (r == -EINTR || r == -EAGAIN || r == -EBUSY) continue;
      if (r < 0) break;  // ring failure: CQ drain below sees what landed
      submitted += static_cast<unsigned>(r);
    }
    // Wait for the full round (enter above may return once min_complete
    // was already satisfied by an earlier partial submit).
    unsigned completed = 0;
    retry.clear();
    while (completed < want) {
      unsigned head = *tx_ring_.cq_head;
      unsigned tail = __atomic_load_n(tx_ring_.cq_tail, __ATOMIC_ACQUIRE);
      if (head == tail) {
        const int r = tx_ring_.enter(0, want - completed,
                                     IORING_ENTER_GETEVENTS, nullptr, 0);
        if (r < 0 && r != -EINTR && r != -EAGAIN && r != -EBUSY) break;
        continue;
      }
      for (; head != tail; ++head) {
        const io_uring_cqe& cqe = tx_ring_.cqes[head & tx_ring_.cq_mask];
        const auto i = static_cast<std::size_t>(cqe.user_data);
        ++completed;
        if (cqe.res >= 0) {
          count_sent(packets[i].data.size(),
                     static_cast<std::size_t>(cqe.res));
          ++accepted;
        } else if (cqe.res == -EAGAIN || cqe.res == -EWOULDBLOCK) {
          retry.push_back(i);
        } else {
          ++tx_errors_;  // hard error: drop, keep serving
        }
      }
      __atomic_store_n(tx_ring_.cq_head, head, __ATOMIC_RELEASE);
    }
    if (retry.empty()) break;
    if (eagain_budget-- <= 0) {
      tx_errors_ += retry.size();  // buffer stayed full: drop the rest
      break;
    }
    ++tx_eagain_;
    wait_writable();
    pending.swap(retry);
  }
  return accepted;
}

std::size_t UringBackend::send_batch(std::span<const TxPacket> packets) {
  if (packets.empty()) return 0;
  const auto start = std::chrono::steady_clock::now();
  std::size_t sent = 0;
  {
    std::lock_guard lock(tx_mutex_);
    for (std::size_t cursor = 0; cursor < packets.size();
         cursor += kTxSlots) {
      const std::size_t n = std::min(kTxSlots, packets.size() - cursor);
      sent += submit_tx_batch(packets.subspan(cursor, n));
    }
  }
  tx_batch_size_.add(static_cast<double>(packets.size()));
  tx_flush_us_.add(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return sent;
}

void UringBackend::send(const Endpoint& to, std::span<const uint8_t> data) {
  const TxPacket packet{to, data};
  std::lock_guard lock(tx_mutex_);
  submit_tx_batch(std::span<const TxPacket>(&packet, 1));
}

// ---------------------------------------------------------------------

util::Status uring_runtime_probe() {
  metrics::MetricsRegistry scratch;
  IoBackend::Options options;
  options.metrics = &scratch;
  auto bound = UringBackend::bind(options);
  if (!bound.ok()) return bound.error();
  return util::Status::ok_status();
}

}  // namespace dnscup::net

#endif  // DNSCUP_HAVE_IO_URING
