// Sharded multi-worker authority runtime: what dnscupd runs.
//
// ServingRuntime runs its workers on a WorkerPool (worker_pool.h), which
// owns the sockets, the per-worker event loop and command queue and the
// run-to-completion loop.  On top, each worker owns, privately and
// exclusively on its own thread:
//
//   * an AuthServer with its own copy of the (immutable-per-version) zone
//     data, and
//   * a DnscupAuthority shard: the worker's slice of the track file, its
//     own grant policy and CACHE-UPDATE retransmission state.
//
// The query hot path — receive, grant lease, answer, push updates — takes
// zero locks: every touched structure is worker-private, and the only
// shared cells are relaxed-atomic metrics.  Everything cross-shard flows
// over bounded MPSC queues whose pushes wake the worker's eventfd:
//
//   * control commands (zone reload, metrics scrape, lease collection,
//     push-plane resolutions): closures run through the pool's
//     run_on_worker,
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
#include <memory>
#include <string>
#include <vector>

#include "core/dnscup_authority.h"
#include "planner/lease_planner.h"
#include "push/push_server.h"
#include "runtime/journal_writer.h"
#include "runtime/worker_pool.h"
#include "server/authoritative.h"
#include "store/lease_store.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::runtime {

/// The pool's serving settings (port 5300 by default) plus the
/// authority's own.
struct Config : PoolConfig {
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
  const std::vector<net::Endpoint>& endpoints() const {
    return pool_.endpoints();
  }
  bool reuseport_active() const { return pool_.reuseport_active(); }
  /// Name of the I/O backend actually serving ("portable" or "uring" —
  /// after any fallback).
  std::string_view io_backend_name() const { return pool_.backend_name(); }
  int workers() const { return pool_.size(); }
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
  net::SimTime now_us() const { return pool_.now_us(); }

  // Cross-shard control plane (each call fans a command to every worker
  // and blocks for completion; callable from any non-worker thread).

  /// Distributes a new zone version to every shard; returns the RRset
  /// change count the diff detected (identical in every shard).
  std::size_t reload_zone(dns::Zone zone);

  /// Merged snapshot: the pool's merged worker registries + the journal
  /// writer's, the push plane's and the planner's registries.
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
  /// One worker's protocol stack.
  struct Shard {
    std::unique_ptr<server::AuthServer> server;
    std::unique_ptr<core::DnscupAuthority> dnscup;
  };

  explicit ServingRuntime(Config config)
      : config_(std::move(config)), pool_(config_) {}

  Config config_;
  WorkerPool pool_;
  /// In worker order; built before the workers start, never resized.
  std::vector<Shard> shards_;
  store::PosixStorage storage_;
  std::unique_ptr<JournalWriter> writer_;
  /// Declared after pool_: the push thread posts resolutions into
  /// worker command queues, so it must stop (destruction runs stop())
  /// while those queues still exist.
  std::unique_ptr<push::PushServer> push_;
  /// Registry for the push plane's instruments; scraped by metrics().
  metrics::MetricsRegistry push_registry_;
  /// Declared after pool_ for the same reason as push_: workers feed
  /// the planner's queues, so it must outlive their threads (stop()
  /// joins workers before stopping the planner anyway).
  std::unique_ptr<planner::LeasePlanner> planner_;
  RecoverySummary recovery_;
};

}  // namespace dnscup::runtime
