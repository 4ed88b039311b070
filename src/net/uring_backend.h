// io_uring datagram backend (the "uring" IoBackend).
//
// Receive path: receive() runs on the thread that owns the socket.  Its
// first call arms one multishot IORING_OP_RECVMSG on that thread: the
// kernel runs a ring's receive work (the task_work that copies each
// datagram into a buffer and posts its CQE) on the thread that armed
// the request, so arming anywhere else would make some idle thread take
// an interrupt per datagram.  The kernel picks destination buffers from
// a provided-buffer group (2 KiB slots in one slab), writes each
// datagram straight into its slot and posts one CQE per datagram.
// receive() reaps up to `max` CQEs, hands the datagrams to the handler
// as spans into the slab, then queues their buffers' return with
// coalesced IORING_OP_PROVIDE_BUFFERS SQEs (consecutive slot runs
// collapse into one SQE) and a re-arm if the kernel ended the receive.
// The next receive() submits them: at once when datagrams are waiting,
// else in the io_uring_enter it sleeps in, which also carries POLL_ADDs
// on the caller's wake fd (and a watched fd) armed on the same ring and
// is bounded by the caller's timeout (IORING_ENTER_EXT_ARG).  The classic
// provided-buffer group is used instead of the newer
// IORING_REGISTER_PBUF_RING ring: kernels exist (observed in this
// project's CI image) that accept the ring registration yet never serve
// buffers from it — every buffer-select receive fails ENOBUFS — while
// the classic group works everywhere multishot recvmsg does.
//
// Send path: a second, mutex-guarded ring.  send_batch() fills one
// IORING_OP_SENDMSG SQE per datagram and issues a single
// submit-and-wait io_uring_enter for the whole batch — the datagram
// spans are only borrowed until send_batch returns, so the call waits
// for the kernel's completions (UDP sendmsg completes inline; the wait
// is the same syscall that submits).  EAGAIN retries are bounded and
// counted exactly like the portable backend's.
//
// Everything is raw syscalls (io_uring_setup/enter/register) against
// <linux/io_uring.h>; the build gates this file on that header
// (DNSCUP_HAVE_IO_URING) and bind() degrades to kUnsupported — which
// the factory turns into a portable fallback — when the running kernel
// refuses the ring, the buffer provisioning, or multishot recvmsg (bind
// probes the last on a throwaway socket, so the served socket's receive
// is still armed by the thread that receives).
#pragma once

#ifdef DNSCUP_HAVE_IO_URING

#include <linux/io_uring.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <mutex>
#include <vector>

#include "net/io_backend.h"
#include "util/result.h"

namespace dnscup::net {

class UringBackend final : public IoBackend {
 public:
  /// Datagram capacity of one ring submission (tx) / one armed multishot
  /// round (rx buffers are recycled continuously).
  static constexpr std::size_t kTxSlots = 64;
  /// Provided rx buffers registered with the kernel (power of two).
  static constexpr std::size_t kRxBufCount = 256;
  /// Bytes per rx buffer; larger datagrams are dropped as truncated.
  static constexpr std::size_t kRxSlotBytes = 2048;

  static util::Result<std::unique_ptr<UringBackend>> bind(
      const Options& options);

  ~UringBackend() override;

  UringBackend(const UringBackend&) = delete;
  UringBackend& operator=(const UringBackend&) = delete;

  const Endpoint& local_endpoint() const override { return local_; }
  std::string_view backend_name() const override { return "uring"; }
  std::size_t batch_slots() const override { return kTxSlots; }

  void send(const Endpoint& to, std::span<const uint8_t> data) override;
  std::size_t send_batch(std::span<const TxPacket> packets) override;
  std::size_t receive(std::size_t max, const BatchReceiveHandler& handler,
                      const Wait* wait = nullptr) override;
  /// The rx ring: readable while its completion queue holds entries.
  int ready_fd() const override { return rx_ring_.fd; }
  TrafficStats stats() const override;

  /// Datagrams the kernel dropped at the socket receive queue
  /// (SO_RXQ_OVFL deltas, as on the portable backend).
  uint64_t rx_overflow() const { return rx_overflow_.value(); }
  /// Datagrams truncated into a 2 KiB rx buffer and dropped.
  uint64_t rx_truncated() const { return rx_truncated_.value(); }
  /// Sends that hit EAGAIN and waited for POLLOUT.
  uint64_t tx_eagain_waits() const { return tx_eagain_.value(); }
  /// Datagrams dropped on a hard send error or exhausted retry budget.
  uint64_t tx_errors() const { return tx_errors_.value(); }

 private:
  /// One io_uring instance: fd + mapped SQ/CQ rings (single-mmap
  /// layout) + SQE array.  Plain struct; UringBackend drives it.
  struct Ring {
    int fd = -1;
    void* ring_mmap = nullptr;
    std::size_t ring_bytes = 0;
    io_uring_sqe* sqes = nullptr;
    std::size_t sqe_bytes = 0;
    unsigned* sq_head = nullptr;
    unsigned* sq_tail = nullptr;
    unsigned sq_mask = 0;
    unsigned* sq_array = nullptr;
    unsigned* cq_head = nullptr;
    unsigned* cq_tail = nullptr;
    unsigned cq_mask = 0;
    io_uring_cqe* cqes = nullptr;

    util::Status init(unsigned sq_entries, unsigned cq_entries);
    void close_ring();
    io_uring_sqe* get_sqe();
    /// SQEs queued since the last submit (the kernel advances sq_head).
    unsigned unsubmitted() const;
    /// io_uring_enter wrapper; returns -errno on failure.
    int enter(unsigned to_submit, unsigned min_complete, unsigned flags,
              const void* arg, std::size_t argsz);
  };

  UringBackend(int fd, Endpoint local, const Options& options);
  util::Status setup();
  /// Arms a multishot recvmsg on a throwaway socket and cancels it: the
  /// kernel rejects the combination inline when it lacks support.
  util::Status probe_multishot();
  void teardown();
  /// Queues the multishot recvmsg on fd_ (armed by the calling thread
  /// once submitted).
  void arm_multishot();
  /// Reaps up to `max` datagrams from the rx CQ, hands them to
  /// `handler`, then queues (without submitting) their buffers'
  /// re-provision and a re-arm if the kernel ended the receive.
  /// Returns datagrams delivered.
  std::size_t reap(std::size_t max, const BatchReceiveHandler& handler);
  /// Arms the wait's POLL_ADDs and blocks in one io_uring_enter for a
  /// completion or the timeout.
  void wait_for_completion(const Wait& wait);
  /// An rx SQE; submits what is queued first if the SQ is full.
  io_uring_sqe* rx_sqe();
  /// Submits every queued rx SQE without waiting.
  void submit_rx();
  /// Queues a POLL_ADD (POLLIN) on `fd` tagged `user_data`.
  void arm_poll(int fd, uint64_t user_data);
  /// Hands every consumed buffer back to the kernel's buffer group:
  /// sorts the pending bids and coalesces consecutive runs into single
  /// IORING_OP_PROVIDE_BUFFERS SQEs (queued, not yet submitted).
  void publish_rx_buffers();
  /// Fills one PROVIDE_BUFFERS SQE covering `count` contiguous slots
  /// starting at `first_bid`.
  void fill_provide_sqe(io_uring_sqe* sqe, unsigned first_bid,
                        unsigned count);
  void count_sent(std::size_t requested, std::size_t accepted);
  /// Blocks (bounded) until the socket is writable after EAGAIN.
  void wait_writable();
  /// Submits `count` prepared tx SQEs and waits for all completions;
  /// returns datagrams the kernel accepted.  Caller holds tx_mutex_.
  std::size_t submit_tx_batch(std::span<const TxPacket> packets);

  int fd_;
  Endpoint local_;

  Ring rx_ring_;
  Ring tx_ring_;

  // Provided-buffer group: the backing slab the kernel writes datagrams
  // into (bid == slot index).  Everything below up to tx_mutex_ is
  // touched only by the thread calling receive().
  std::vector<uint8_t> rx_slab_;
  std::vector<unsigned> recycle_bids_;  ///< consumed, awaiting re-provision
  std::vector<RxPacket> rx_batch_;
  bool recv_armed_ = false;  ///< the multishot receive is live
  bool wake_armed_ = false;  ///< a POLL_ADD on Wait::wake_fd is live
  bool also_armed_ = false;  ///< a POLL_ADD on Wait::also_fd is live

  /// msghdr template for the multishot recvmsg: reserves name + control
  /// space in every selected buffer.  Must outlive the armed SQE.
  msghdr rx_msghdr_{};
  static constexpr std::size_t kRxNameSpace = sizeof(sockaddr_in);
  static constexpr std::size_t kRxControlSpace = 64;

  std::mutex tx_mutex_;  ///< serializes tx-ring submission state
  std::vector<sockaddr_in> tx_addrs_;
  std::vector<iovec> tx_iovs_;
  std::vector<msghdr> tx_msgs_;
  /// Batch indices still to (re)offer and the EAGAIN stragglers of a
  /// round; sized kTxSlots once so a flush never allocates.
  std::vector<std::size_t> tx_pending_;
  std::vector<std::size_t> tx_retry_;

  TrafficInstruments stats_;
  metrics::Counter rx_overflow_;
  metrics::Counter rx_truncated_;
  metrics::Counter tx_eagain_;
  metrics::Counter tx_errors_;
  metrics::HistogramMetric rx_batch_size_;
  metrics::HistogramMetric tx_batch_size_;
  metrics::HistogramMetric tx_flush_us_;
  uint32_t last_overflow_ = 0;  ///< receive()-side cumulative mark
};

}  // namespace dnscup::net

#endif  // DNSCUP_HAVE_IO_URING
