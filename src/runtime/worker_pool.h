// The serving skeleton under both daemons: dnscupd's ServingRuntime and
// dnscached's CacheRuntime each run one WorkerPool and build their
// protocol stack per worker on top of it — over the worker's EventLoop,
// registry and shims — keeping only their own order of start and stop.
//
// Each worker owns, privately and exclusively on its own thread:
//
//   * an EventLoop (its stack's timers) and a metrics registry,
//   * a bounded command queue whose pushes wake it through an eventfd —
//     the only way other threads reach it (run_on_worker),
//   * its member of one SO_REUSEPORT group on the configured port, so the
//     kernel's flow hash spreads query streams across workers (worker i
//     serves port + i instead where the kernel lacks SO_REUSEPORT),
//   * when the pool is bound with private sockets, one more socket on an
//     ephemeral port that only this worker serves — the cache's upstream
//     face, so the authority's responses and CACHE-UPDATE pushes come
//     back to the worker whose state they belong to,
//
// and sends through one batching ShimTransport per socket.
//
// The loop runs to completion on the worker's thread.  Per iteration: the
// private socket's whole burst, without waiting; then up to batch_size
// datagrams from the group socket, sleeping — when nothing else is
// pending — in one kernel wait on that socket, the private socket and the
// wake eventfd (kIdleWait at most, so timers still fire); flush; run the
// queued commands; advance the event loop to wall time; flush.  No
// datagram crosses a thread: the kernel socket queues are the only
// inboxes, and each datagram costs one call of its shim's handler.
// After stop() a worker keeps answering what is queued on its sockets,
// for at most kDrainBatches more iterations, then runs the exit hook and
// a final flush.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/io_backend.h"
#include "runtime/mpsc_queue.h"
#include "runtime/shim_transport.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::runtime {

/// The serving settings both daemons share; runtime::Config and
/// cachert::Config extend it.
struct PoolConfig {
  /// Serving port; 0 picks an ephemeral port (reflected in endpoints()).
  uint16_t port = 5300;
  int workers = 1;
  /// Try one SO_REUSEPORT group on `port`.  When binding the group fails
  /// (old kernel), the pool falls back to per-worker ports: worker i
  /// serves port + i (all ephemeral when port == 0).
  bool reuseport = true;
  int rcvbuf_bytes = 1 << 20;
  int sndbuf_bytes = 1 << 20;

  /// Datagram I/O backend for every worker socket.  kDefault consults
  /// DNSCUP_IO_BACKEND; an explicit kUring degrades to portable (with a
  /// warning) when the kernel lacks what the uring backend needs.
  net::IoBackendKind io_backend = net::IoBackendKind::kDefault;

  /// Worker CPU affinity: worker i's thread is pinned to
  /// pin_cpus[i % size].  Empty = no pinning.
  std::vector<int> pin_cpus;

  std::size_t command_capacity = 256;

  /// Datagrams a worker receives and serves from its group socket per
  /// loop iteration before flushing all buffered responses as one send
  /// batch.  Higher values amortise syscalls under load at the cost of
  /// per-query latency.
  std::size_t batch_size = 32;
};

class WorkerPool {
 public:
  struct Worker {
    Worker(int index, std::size_t command_capacity)
        : index(index), commands(command_capacity, &wake) {}

    const int index;
    metrics::MetricsRegistry registry;
    net::EventLoop loop{&registry};
    WakeSignal wake;
    BoundedMpscQueue<std::function<void()>> commands;
    /// The worker's member of the serving group.
    std::unique_ptr<net::IoBackend> io;
    ShimTransport shim;
    /// The private socket; null unless bound with private sockets.
    std::unique_ptr<net::IoBackend> private_io;
    ShimTransport private_shim;
    std::atomic<bool> stop{false};
    std::thread thread;
  };

  /// Runs on the worker's thread after its loop ends, before the final
  /// flush.
  using ExitHook = std::function<void(Worker&)>;

  /// Builds the workers (at least one) and starts the clock now_us()
  /// reads; binds nothing and starts no thread.
  explicit WorkerPool(PoolConfig config);
  /// Stops and joins the workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Binds every worker's group socket and, with `private_sockets`, its
  /// private socket, and points the shims at them.
  util::Status bind(bool private_sockets);

  /// Starts one thread per worker, each running the loop.
  void start(ExitHook on_exit = {});

  /// Graceful drain: every worker answers what is already queued on its
  /// sockets (bounded), then exits; joins them.  Idempotent.  The
  /// sockets stay open, and after stop() the shims send directly.
  void stop();

  bool running() const { return running_.load(); }

  int size() const { return static_cast<int>(workers_.size()); }
  Worker& worker(int index) {
    return *workers_[static_cast<std::size_t>(index)];
  }

  /// The serving endpoints: one entry in REUSEPORT mode, one per worker
  /// in fallback mode.
  const std::vector<net::Endpoint>& endpoints() const { return endpoints_; }
  /// Per-worker private-socket endpoints (empty without them).
  const std::vector<net::Endpoint>& private_endpoints() const {
    return private_endpoints_;
  }
  bool reuseport_active() const { return reuseport_active_; }
  /// Name of the I/O backend actually serving ("portable" or "uring" —
  /// after any fallback).
  std::string_view backend_name() const {
    return workers_.front()->io->backend_name();
  }

  /// Microseconds since construction — the wall clock every worker's
  /// EventLoop advances to, so timestamps are comparable across workers.
  net::SimTime now_us() const;

  /// Runs `fn` on worker `index` and waits.  Once the pool is stopped
  /// the workers are quiescent and `fn` runs inline on the caller.
  void run_on_worker(int index, const std::function<void()>& fn);

  /// Merged snapshot of the worker registries, each scraped on its own
  /// thread and aggregated with Snapshot::merge.
  metrics::Snapshot metrics();

 private:
  void worker_loop(Worker& worker);

  PoolConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  ExitHook on_exit_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<net::Endpoint> endpoints_;
  std::vector<net::Endpoint> private_endpoints_;
  bool reuseport_active_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace dnscup::runtime
