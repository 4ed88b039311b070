// Cache-side serving runtime: the paper's "local DNS nameserver" as a
// multi-worker daemon over real sockets.
//
// CacheRuntime runs N workers.  Each worker owns, privately and
// exclusively on its own thread:
//
//   * an EventLoop (upstream retransmission timers, renegotiation),
//   * a *client-facing* UDP socket — the pool's group socket: all
//     workers in one SO_REUSEPORT group on the configured port so the
//     kernel spreads client query streams across workers (per-worker
//     ports when REUSEPORT is unavailable),
//   * an *upstream* UDP socket — the pool's private socket, on an
//     ephemeral port.  This one is per worker by construction: the
//     authority's responses — and its unsolicited CACHE-UPDATE pushes,
//     which go to the endpoint that sent the EXT query and registered
//     the lease — must come back to the worker whose resolver state they
//     belong to.  A shared REUSEPORT port cannot guarantee that (the
//     kernel hashes the *flow*, not the sending socket), a private port
//     trivially does,
//   * a CachingResolver with its own TTL cache slice, and
//   * (leases enabled) a LeaseClient: RRC reporting on EXT queries, LLT
//     lease registration, CACHE-UPDATE consumption + ACK, renegotiation.
//
// The workers run on a WorkerPool (src/runtime/worker_pool.h) bound with
// private sockets: the pool owns both sockets, the event loop, the
// command queue and the run-to-completion loop, which serves the
// upstream socket before the client socket and sleeps in one kernel wait
// on both and the wake eventfd.  The query hot path — client query in,
// cache hit, answer out — takes zero locks; cross-thread work
// (push-channel payloads, control commands) flows over the pool's
// bounded MPSC queues, and responses batch through the pool's shims into
// one send batch per socket per iteration.
//
// When the authority goes silent the worker degrades exactly as the
// paper prescribes: leases run out, entries fall back to TTL freshness,
// and expired entries re-resolve (with retries/timeouts) like a classic
// cache — strong consistency is an overlay, never a liveness dependency.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cachestore/mmap_store.h"
#include "push/push_client.h"
#include "runtime/worker_pool.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::cachert {

/// The pool's serving settings (the client-facing port, 5301 by default)
/// plus the cache's own.
struct Config : runtime::PoolConfig {
  Config() { port = 5301; }

  /// Upstream authorities, tried in order with retries/failover.  These
  /// double as the resolver's root set and as the LeaseClient's trusted
  /// push sources.
  std::vector<net::Endpoint> upstreams;

  /// DNScup cache-side module on/off — off is the plain-TTL baseline for
  /// A/B stale-window runs.
  bool dnscup = true;
  /// Cache entry bound per worker (LRU); 0 = unbounded.
  std::size_t cache_capacity = 0;
  /// Persistent cache store directory: each worker keeps its cache slice
  /// in an mmap-backed file `<cache_dir>/cache-shard-<i>` and restarts
  /// warm from it (cachestore::MmapCacheStore).  Warm-loaded lease state
  /// is kept only when the push plane can re-adopt it (dnscup +
  /// push_plane on); otherwise leases demote to plain TTL entries at
  /// load.  Empty = heap-only cache, cold every start.
  std::string cache_dir;
  /// Per-worker cache file size; slot/slab geometry derives from it.
  std::size_t cache_file_bytes = 64ull << 20;
  net::Duration query_timeout = net::seconds(2);
  int max_retries = 2;
  uint32_t default_negative_ttl = 60;

  /// Connection-oriented push plane (src/push): when enabled every
  /// worker keeps one TCP subscription channel to `push_authority` (the
  /// authority's --push-listen address), announcing its upstream socket
  /// as lease identity.  CACHE-UPDATEs then arrive and ack over the
  /// channel; UDP remains the fallback whenever the channel is down.
  /// The channel binds to the *first* configured upstream's lease set.
  bool push_plane = false;
  net::Endpoint push_authority{};
  push::PushClient::Config push;  ///< reconnect/keepalive knobs
};

class CacheRuntime {
 public:
  /// Binds both socket sides for every worker and starts the worker
  /// threads.  Fails when `config.upstreams` is empty or a bind fails.
  static util::Result<std::unique_ptr<CacheRuntime>> start(Config config);

  ~CacheRuntime();

  CacheRuntime(const CacheRuntime&) = delete;
  CacheRuntime& operator=(const CacheRuntime&) = delete;

  /// Graceful drain: every worker answers what is queued on its sockets
  /// (bounded; cache hits only — in-flight upstream tasks are
  /// abandoned), then exits.  Idempotent.
  void stop();

  /// Client-facing endpoints: one entry in REUSEPORT mode, one per
  /// worker in fallback mode.
  const std::vector<net::Endpoint>& endpoints() const {
    return pool_.endpoints();
  }
  /// Per-worker upstream-side endpoints (lease identities at the
  /// authority; tests assert CACHE-UPDATE pushes land here).
  const std::vector<net::Endpoint>& upstream_endpoints() const {
    return pool_.private_endpoints();
  }
  bool reuseport_active() const { return pool_.reuseport_active(); }
  int workers() const { return pool_.size(); }
  bool dnscup_enabled() const { return config_.dnscup; }
  /// Name of the I/O backend actually serving ("portable" or "uring" —
  /// after any fallback).
  std::string_view io_backend_name() const { return pool_.backend_name(); }

  /// Microseconds since start() — the wall clock every worker's
  /// EventLoop advances to.
  net::SimTime now_us() const { return pool_.now_us(); }

  // Cross-worker control plane (each call fans a command to every worker
  // and blocks; callable from any non-worker thread).

  /// Merged snapshot of every worker registry.
  metrics::Snapshot metrics() { return pool_.metrics(); }

  /// Valid leases across all workers at now_us(); 0 with dnscup off.
  std::size_t live_leases();

  /// Total cached entries across all workers.
  std::size_t cache_entries();

  /// True when the cache is backed by persistent per-worker store files.
  bool persistent_cache() const { return !config_.cache_dir.empty(); }
  /// Per-worker persistent-store load reports, in worker order (empty
  /// without cache_dir).  Load reports are write-once at open, so this is
  /// safe from any thread.
  std::vector<cachestore::MmapCacheStore::LoadReport> cache_load_reports()
      const;
  /// Entries adopted warm from the persistent store, across all workers.
  uint64_t warm_entries() const;

  /// Workers whose push channel is currently connected (0 when the push
  /// plane is off).
  std::size_t push_connected() const;
  /// Sum of successful channel (re)connects across workers.
  uint64_t push_connects() const;
  /// Test/ops hook: drops every worker's push channel and holds it down
  /// (true) or lets the clients reconnect (false).
  void set_push_paused(bool paused);

 private:
  /// One worker's protocol stack (cache_runtime.cc).
  struct Stack;

  explicit CacheRuntime(Config config);

  Config config_;
  runtime::WorkerPool pool_;
  /// In worker order; built before the workers start, never resized.
  std::vector<std::unique_ptr<Stack>> stacks_;
};

}  // namespace dnscup::cachert
