// Pluggable datagram I/O backends.
//
// IoBackend is the seam between protocol code and the kernel's datagram
// machinery.  A backend owns one bound UDP socket plus whatever syscall
// strategy it serves it with:
//
//   * "portable" (UdpTransport) — recvmmsg/sendmmsg, waiting in ppoll;
//     works on every kernel and is the fallback,
//   * "uring" (UringBackend)   — io_uring multishot receive into a
//     provided-buffer group, batched submit-and-wait sends; compiled
//     when <linux/io_uring.h> is present and engaged only when the
//     running kernel accepts the ring setup.
//
// Every backend delivers the same contract.  Receiving is a pull:
// receive() runs on the thread that owns the socket (a serving worker)
// and hands up to `max` ready datagrams to a batch handler on that
// thread, as spans into the backend's receive buffers that are valid
// only inside the handler.  When nothing is ready it first blocks, in
// one kernel wait, until a datagram arrives, the caller's wake fd fires,
// a second watched fd becomes readable, or the timeout passes — so a
// worker serves, sends and sleeps on its own thread and no datagram
// crosses a thread.  The kernel socket queue is the only inbox; its
// drops are counted in udp_rx_overflow.  send_batch() hands a whole
// response batch to the kernel in as few syscalls as the strategy
// allows.
//
// The plain Transport mode (set_receive_handler: dnsq, dnsflood, tests)
// is a thread the backend starts that loops over the same receive().
//
// Selection: bind_io_backend() resolves kDefault through the
// DNSCUP_IO_BACKEND environment variable (portable when unset), tries
// the requested backend, and falls back to portable — with a logged
// warning, never an error — when the kernel or build lacks io_uring.
// Callers that must know what actually engaged read backend_name().
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <thread>

#include "net/transport.h"
#include "util/result.h"

namespace dnscup::net {

/// One datagram in an outgoing batch; `data` is borrowed until the
/// send_batch call returns (backends that complete sends asynchronously
/// must wait for kernel completion before returning).
struct TxPacket {
  Endpoint to;
  std::span<const uint8_t> data;
};

/// One datagram in an incoming batch; `data` points into the backend's
/// receive buffers and is valid only inside the handler.
struct RxPacket {
  Endpoint from;
  std::span<const uint8_t> data;
};

enum class IoBackendKind {
  kDefault,   ///< resolve via $DNSCUP_IO_BACKEND, else portable
  kPortable,  ///< recvmmsg/sendmmsg + ppoll (UdpTransport)
  kUring,     ///< io_uring multishot receive + batched submits
};

/// "portable" / "uring" / "default"; nullopt on anything else.
std::optional<IoBackendKind> parse_io_backend_kind(std::string_view text);
const char* to_string(IoBackendKind kind);

/// kDefault -> $DNSCUP_IO_BACKEND (unset or unparsable -> portable);
/// explicit kinds pass through.
IoBackendKind resolve_io_backend_kind(IoBackendKind kind);

class IoBackend : public Transport {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 lets the OS pick (see local_endpoint())
    /// Join a SO_REUSEPORT group: several backends bind the same port
    /// and the kernel hashes query flows across them.  Binding fails
    /// with kUnsupported on kernels without it so callers can fall back
    /// to per-worker ports.
    bool reuseport = false;
    /// Socket buffer sizes in bytes; 0 keeps the OS default.
    int rcvbuf_bytes = 0;
    int sndbuf_bytes = 0;
    /// Traffic counters register here (default_registry() when null),
    /// labeled with the local endpoint and the backend name.
    metrics::MetricsRegistry* metrics = nullptr;
  };

  /// Receives one call's datagrams; spans are valid only inside it.
  using BatchReceiveHandler = std::function<void(std::span<const RxPacket>)>;

  /// What receive() may block on when no datagram is ready.
  struct Wait {
    /// Ends the wait when readable (an eventfd the caller's producers
    /// signal); never consumed here.  -1: none.
    int wake_fd = -1;
    /// A second fd to watch, e.g. another backend's ready_fd() owned by
    /// the same thread.  -1: none.
    int also_fd = -1;
    Duration timeout = 0;  ///< longest the wait may last
  };

  IoBackend() = default;
  /// Joins the receive-handler thread, if one runs.
  ~IoBackend() override;

  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  /// Stable identifier of the engaged strategy ("portable", "uring",
  /// "sim"); metrics carry it as the `backend` label.
  virtual std::string_view backend_name() const = 0;

  /// Datagrams one receive/send syscall (or ring submission) can carry.
  virtual std::size_t batch_slots() const = 0;

  /// Sends the whole batch with as few syscalls as the strategy allows.
  /// Returns the number of datagrams the kernel accepted; the shortfall
  /// is counted in the backend's tx error metric.
  virtual std::size_t send_batch(std::span<const TxPacket> packets) = 0;

  /// Pull receive, called only by the one thread that owns the socket.
  /// Hands up to `max` ready datagrams to `handler` in a single call and
  /// returns how many.  With `wait`, when nothing is ready it first
  /// blocks until a datagram arrives, a watched fd becomes readable or
  /// the timeout passes, then looks once more (and may return 0).
  virtual std::size_t receive(std::size_t max,
                              const BatchReceiveHandler& handler,
                              const Wait* wait = nullptr) = 0;

  /// Readable while datagrams wait for receive() (the socket, or the
  /// ring whose completions carry them), so one thread's wait can cover
  /// a second backend through Wait::also_fd.
  virtual int ready_fd() const = 0;

  /// Plain Transport mode: starts a thread that loops over receive()
  /// and calls `handler` per datagram (replacing any previous handler
  /// and thread).  Not for sockets a worker receives on itself.
  void set_receive_handler(ReceiveHandler handler) final;

  /// Joins the receive-handler thread; the socket stays open for send().
  /// Idempotent; a no-op when no handler thread runs.
  void stop_receiving();

  /// Value snapshot of the traffic counters (atomics — no lock taken).
  virtual TrafficStats stats() const = 0;

 private:
  void handler_loop();

  ReceiveHandler handler_;
  int stop_fd_ = -1;  ///< eventfd that ends the handler thread's wait
  std::atomic<bool> stopping_{false};
  std::thread handler_thread_;
};

/// Binds a backend of the resolved kind on 127.0.0.1.  A uring request
/// degrades to portable (with a logged warning) when io_uring is not
/// compiled in or the kernel refuses the ring; every other bind error is
/// returned as-is.
util::Result<std::unique_ptr<IoBackend>> bind_io_backend(
    IoBackendKind kind, const IoBackend::Options& options);

/// True when the io_uring backend was compiled in (the build saw
/// <linux/io_uring.h>).
bool uring_compiled();

/// ok_status() when a uring backend can actually serve on this kernel
/// (probed by setting up and tearing down a real ring); otherwise the
/// reason — callers print it as an explicit SKIP.
util::Status uring_runtime_probe();

/// Pins the calling thread to `cpu` (no-op, returning false, when
/// unsupported or cpu < 0).
bool pin_current_thread_to_cpu(int cpu);

namespace detail {
/// Opens + binds the loopback UDP socket every backend serves: applies
/// reuseport/buffer options and SO_RXQ_OVFL drop accounting.  Returns
/// the fd and fills `local` with the bound endpoint.
util::Result<int> open_udp_socket(const IoBackend::Options& options,
                                  Endpoint* local);
}  // namespace detail

}  // namespace dnscup::net
