// Sharded multi-worker serving runtime.
//
// ServingRuntime runs N workers.  Each worker owns, privately and
// exclusively on its own thread:
//
//   * an EventLoop (retransmission timers, lease expiry),
//   * a real UDP socket — all workers in one SO_REUSEPORT group on the
//     configured port, so the kernel's flow hash spreads query streams
//     across workers (per-worker ports when REUSEPORT is unavailable),
//   * an AuthServer with its own copy of the (immutable-per-version) zone
//     data, and
//   * a DnscupAuthority shard: the worker's slice of the track file, its
//     own grant policy and CACHE-UPDATE retransmission state.
//
// Each worker runs to completion on its own thread: it pulls a batch of
// datagrams straight from its socket (IoBackend::receive), serves them,
// sends the responses as one batch and, when nothing is ready, sleeps in
// the backend's single kernel wait on the socket and its wake eventfd.
// No datagram crosses a thread; the kernel socket queue is the only
// inbox, and its drops are counted in udp_rx_overflow.
//
// The query hot path — receive, grant lease, answer, push updates — takes
// zero locks: every touched structure is worker-private, and the only
// shared cells are relaxed-atomic metrics.  Everything cross-shard flows
// over bounded MPSC queues whose pushes wake the worker's eventfd:
//
//   * control commands (zone reload, metrics scrape, lease collection,
//     push-plane resolutions): closures with completion futures,
//   * durability: lease ops stream to the single JournalWriter thread
//     that owns the durable LeaseStore (see journal_writer.h).
//
// Zone distribution is snapshot-based: reload_zone() materializes one
// shared_ptr<const Zone> and hands it to every worker; each worker diffs
// and swaps its served copy on its own thread, then fans CACHE-UPDATE out
// to the leaseholders in its shard.
//
// Deterministic simulation tests are untouched by all of this: they keep
// driving a single EventLoop directly; the runtime is the real-socket
// serving layer on top of the same components.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dnscup_authority.h"
#include "core/shard.h"
#include "net/event_loop.h"
#include "net/io_backend.h"
#include "planner/lease_planner.h"
#include "push/push_server.h"
#include "runtime/journal_writer.h"
#include "runtime/mpsc_queue.h"
#include "runtime/shim_transport.h"
#include "server/authoritative.h"
#include "store/lease_store.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::runtime {

struct Config {
  /// Serving port; 0 picks an ephemeral port (reflected in endpoints()).
  uint16_t port = 5300;
  int workers = 1;
  /// Try one SO_REUSEPORT group on `port`.  When binding the group fails
  /// (old kernel), the runtime falls back to per-worker ports: worker i
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

  bool dnscup = true;
  bool round_robin = false;
  net::Duration max_lease = net::seconds(3600);
  core::NotificationModule::Config notification;

  /// Online lease planner (src/planner): one planner thread off the hot
  /// path assigns lease lengths from a demand table fed by per-worker
  /// observation queues, and every shard grants what it assigned (pairs
  /// it has not planned yet are denied).  planner_config carries the
  /// planner's mode and budget; its worker count is overridden from
  /// Config::workers.  Without the planner every shard grants each EXT
  /// query the maximal lease.  Either way each shard's track file is
  /// bounded: an even split of planner_config.capacity with the planner
  /// (the demand table already bounds the pairs it plans), else of
  /// 100000 leases.
  bool planner = false;
  planner::LeasePlanner::Config planner_config;

  /// Durable state directory; empty = volatile authority.
  std::string state_dir;
  store::FsyncPolicy fsync = store::FsyncPolicy::kAlways;
  uint64_t snapshot_every_records = 4096;

  /// Connection-oriented push plane (src/push): when enabled the runtime
  /// listens for cache subscriptions on push_port (0 = ephemeral) and
  /// subscribed caches receive CACHE-UPDATE over their TCP channel, with
  /// the UDP retransmit path as fallback for everyone else.
  bool push_plane = false;
  uint16_t push_port = 0;
  push::PushServer::Config push;

  std::size_t command_capacity = 256;

  /// Datagrams a worker receives and serves per event-loop iteration
  /// before flushing all buffered responses as one send batch.  Higher
  /// values amortise syscalls under load at the cost of per-query
  /// latency.
  std::size_t batch_size = 32;
};

/// What start() recovered from the durable store, summed over shards.
struct RecoverySummary {
  uint64_t leases_restored = 0;
  uint64_t leases_expired = 0;
  uint64_t zones_changed = 0;
  uint64_t changes_pushed = 0;
  uint64_t replayed_records = 0;
  uint64_t torn_records = 0;
};

class ServingRuntime {
 public:
  /// Binds sockets, builds all shards, runs crash recovery (when
  /// `config.state_dir` is set) and starts the worker + journal threads.
  /// `zones` is copied into every shard.
  static util::Result<std::unique_ptr<ServingRuntime>> start(
      Config config, std::vector<dns::Zone> zones);

  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Graceful drain: every worker answers what is already queued on its
  /// socket (bounded), then exits; flushes the journal and writes a
  /// final snapshot.
  /// Idempotent.  Unacked CACHE-UPDATE retransmissions are abandoned
  /// (their leases stay durable and recover on the next start).
  void stop();

  /// The serving endpoints: one entry in REUSEPORT mode, one per worker
  /// in fallback mode.
  const std::vector<net::Endpoint>& endpoints() const { return endpoints_; }
  bool reuseport_active() const { return reuseport_active_; }
  /// Name of the I/O backend actually serving ("portable" or "uring" —
  /// after any fallback).
  std::string_view io_backend_name() const {
    return workers_.empty() ? std::string_view{}
                            : workers_.front()->io->backend_name();
  }
  int workers() const { return static_cast<int>(workers_.size()); }
  const RecoverySummary& recovery() const { return recovery_; }
  bool durable() const { return writer_ != nullptr; }

  /// The push plane, or null when Config::push_plane is off.
  push::PushServer* push_plane() { return push_.get(); }
  /// The lease planner, or null when Config::planner is off.
  planner::LeasePlanner* planner() { return planner_.get(); }
  /// TCP endpoint caches subscribe to; {0,0} when the plane is off.
  net::Endpoint push_endpoint() const {
    return push_ != nullptr ? push_->local_endpoint() : net::Endpoint{};
  }

  /// Microseconds since start() — the wall clock every shard's EventLoop
  /// advances to, so lease timestamps are comparable across shards.
  net::SimTime now_us() const;

  // Cross-shard control plane (each call fans a command to every worker
  // and blocks for completion; callable from any non-worker thread).

  /// Distributes a new zone version to every shard; returns the RRset
  /// change count the diff detected (identical in every shard).
  std::size_t reload_zone(dns::Zone zone);

  /// Merged snapshot: per-worker registries (scraped on their own
  /// threads) + the journal writer's registry, aggregated with
  /// Snapshot::merge.
  metrics::Snapshot metrics();

  /// All shards' leases, collected on their owning threads.
  std::vector<core::Lease> collect_leases();

  /// Merged track-file serialization (canonical order — what a
  /// single-threaded authority with the same leases would print).
  std::string serialize_track_files();

  /// Valid leases across all shards at now_us().
  std::size_t live_leases();

  /// Forces a durable snapshot; ok_status() when volatile.
  util::Status write_snapshot();

 private:
  struct Worker {
    explicit Worker(const Config& config);

    int index = 0;
    metrics::MetricsRegistry registry;
    net::EventLoop loop{&registry};
    WakeSignal wake;
    BoundedMpscQueue<std::function<void()>> commands;
    ShimTransport shim;
    std::unique_ptr<net::IoBackend> io;
    std::unique_ptr<server::AuthServer> server;
    std::unique_ptr<core::DnscupAuthority> dnscup;
    std::atomic<bool> stop{false};
    std::thread thread;
  };

  explicit ServingRuntime(Config config);

  util::Status bind_sockets();
  /// CPU for worker `index` per Config::pin_cpus (-1 = unpinned).
  int pin_cpu_for(int index) const;
  void worker_loop(Worker& worker);
  /// Runs `fn` on worker `w` and waits.  After stop() the workers are
  /// quiescent and the closure runs inline on the caller.
  void run_on_worker(Worker& worker, std::function<void()> fn);

  Config config_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<net::Endpoint> endpoints_;
  bool reuseport_active_ = false;
  store::PosixStorage storage_;
  std::unique_ptr<JournalWriter> writer_;
  /// Declared after workers_: the push thread posts resolutions into
  /// worker command queues, so it must stop (destruction runs stop())
  /// while those queues still exist.
  std::unique_ptr<push::PushServer> push_;
  /// Registry for the push plane's instruments; scraped by metrics().
  metrics::MetricsRegistry push_registry_;
  /// Declared after workers_ for the same reason as push_: workers feed
  /// the planner's queues, so it must outlive their threads (stop()
  /// joins workers before stopping the planner anyway).
  std::unique_ptr<planner::LeasePlanner> planner_;
  RecoverySummary recovery_;
  std::atomic<bool> running_{false};
};

}  // namespace dnscup::runtime
