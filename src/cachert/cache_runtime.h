// Cache-side serving runtime: the paper's "local DNS nameserver" as a
// multi-worker daemon over real sockets.
//
// CacheRuntime runs N workers.  Each worker owns, privately and
// exclusively on its own thread:
//
//   * an EventLoop (upstream retransmission timers, renegotiation),
//   * a *client-facing* UDP socket — all workers in one SO_REUSEPORT
//     group on the configured port so the kernel spreads client query
//     streams across workers (per-worker ports when REUSEPORT is
//     unavailable),
//   * an *upstream* UDP socket on an ephemeral port.  This one is per
//     worker by construction: the authority's responses — and its
//     unsolicited CACHE-UPDATE pushes, which go to the endpoint that sent
//     the EXT query and registered the lease — must come back to the
//     worker whose resolver state they belong to.  A shared REUSEPORT
//     port cannot guarantee that (the kernel hashes the *flow*, not the
//     sending socket), a private port trivially does,
//   * a CachingResolver with its own TTL cache slice, and
//   * (leases enabled) a LeaseClient: RRC reporting on EXT queries, LLT
//     lease registration, CACHE-UPDATE consumption + ACK, renegotiation.
//
// Each worker runs to completion on its own thread, like the authority
// runtime (src/runtime): it pulls datagrams straight from its upstream
// socket, then its client socket (IoBackend::receive), and when nothing
// is ready it sleeps in one kernel wait covering both sockets and its
// wake eventfd.  The query hot path — client query in, cache hit, answer
// out — takes zero locks; cross-thread work (push-channel payloads,
// control commands) flows over bounded MPSC queues, and responses batch
// through ShimTransport into one send batch per socket per iteration.
//
// When the authority goes silent the worker degrades exactly as the
// paper prescribes: leases run out, entries fall back to TTL freshness,
// and expired entries re-resolve (with retries/timeouts) like a classic
// cache — strong consistency is an overlay, never a liveness dependency.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cachestore/mmap_store.h"
#include "core/lease_client.h"
#include "net/event_loop.h"
#include "net/io_backend.h"
#include "push/push_client.h"
#include "runtime/mpsc_queue.h"
#include "runtime/shim_transport.h"
#include "server/resolver.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::cachert {

struct Config {
  /// Client-facing port; 0 picks an ephemeral port (see endpoints()).
  uint16_t port = 5301;
  int workers = 1;
  /// Try one SO_REUSEPORT group on `port`; per-worker ports (port + i)
  /// when the kernel lacks it.
  bool reuseport = true;
  int rcvbuf_bytes = 1 << 20;
  int sndbuf_bytes = 1 << 20;

  /// Datagram I/O backend for both socket sides of every worker.
  /// kDefault consults DNSCUP_IO_BACKEND; an explicit kUring degrades to
  /// portable (with a warning) when the kernel lacks support.
  net::IoBackendKind io_backend = net::IoBackendKind::kDefault;

  /// Worker CPU affinity: worker i's thread is pinned to
  /// pin_cpus[i % size].  Empty = no pinning.
  std::vector<int> pin_cpus;

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

  std::size_t command_capacity = 256;
  /// Client datagrams received and served per loop iteration before one
  /// send flush.
  std::size_t batch_size = 32;
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
  const std::vector<net::Endpoint>& endpoints() const { return endpoints_; }
  /// Per-worker upstream-side endpoints (lease identities at the
  /// authority; tests assert CACHE-UPDATE pushes land here).
  const std::vector<net::Endpoint>& upstream_endpoints() const {
    return upstream_endpoints_;
  }
  bool reuseport_active() const { return reuseport_active_; }
  int workers() const { return static_cast<int>(workers_.size()); }
  bool dnscup_enabled() const { return config_.dnscup; }
  /// Name of the I/O backend actually serving ("portable" or "uring" —
  /// after any fallback).
  std::string_view io_backend_name() const {
    return workers_.empty() ? std::string_view{}
                            : workers_.front()->client_io->backend_name();
  }

  /// Microseconds since start() — the wall clock every worker's
  /// EventLoop advances to.
  net::SimTime now_us() const;

  // Cross-worker control plane (each call fans a command to every worker
  // and blocks; callable from any non-worker thread).

  /// Merged snapshot of every worker registry.
  metrics::Snapshot metrics();

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
  struct Worker {
    explicit Worker(const Config& config);

    int index = 0;
    metrics::MetricsRegistry registry;
    net::EventLoop loop{&registry};
    runtime::WakeSignal wake;
    runtime::BoundedMpscQueue<std::function<void()>> commands;

    /// Routes resolver sends: destinations in the upstream set leave via
    /// the upstream socket (so lease identity == upstream source port),
    /// everything else answers clients via the listening socket.  Both
    /// sides batch independently.
    class RouterTransport final : public net::Transport {
     public:
      const net::Endpoint& local_endpoint() const override {
        return client.local_endpoint();
      }
      void send(const net::Endpoint& to,
                std::span<const uint8_t> data) override {
        (is_upstream(to) ? static_cast<net::Transport&>(upstream)
                         : static_cast<net::Transport&>(client))
            .send(to, data);
      }
      void set_receive_handler(ReceiveHandler h) override {
        handler = std::move(h);
      }
      bool is_upstream(const net::Endpoint& to) const {
        for (const net::Endpoint& up : *upstreams) {
          if (up == to) return true;
        }
        return false;
      }
      void flush() {
        client.flush();
        upstream.flush();
      }

      runtime::ShimTransport client;
      runtime::ShimTransport upstream;
      const std::vector<net::Endpoint>* upstreams = nullptr;
      ReceiveHandler handler;
    };

    RouterTransport router;
    std::unique_ptr<net::IoBackend> client_io;
    std::unique_ptr<net::IoBackend> upstream_io;
    /// Persistent store behind the resolver's cache (owned by the cache
    /// via the storage seam; null without Config::cache_dir).
    cachestore::MmapCacheStore* cache_store = nullptr;
    std::unique_ptr<server::CachingResolver> resolver;
    std::unique_ptr<core::LeaseClient> lease_client;
    std::unique_ptr<push::PushClient> push_client;
    std::atomic<bool> stop{false};
    std::thread thread;
  };

  explicit CacheRuntime(Config config);

  util::Status bind_sockets();
  /// CPU for worker `index` per Config::pin_cpus (-1 = unpinned).
  int pin_cpu_for(int index) const;
  void worker_loop(Worker& worker);
  void run_on_worker(Worker& worker, std::function<void()> fn);

  Config config_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<net::Endpoint> endpoints_;
  std::vector<net::Endpoint> upstream_endpoints_;
  bool reuseport_active_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace dnscup::cachert
