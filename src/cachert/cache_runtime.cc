#include "cachert/cache_runtime.h"

#include <sys/stat.h>

#include <cerrno>
#include <future>
#include <mutex>
#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::cachert {

namespace {

/// One-shot survivor snapshot for the re-adoption handshake.  Computed on
/// the start() thread (before any worker thread exists), then *moved out*
/// by the first SurvivorsFn call on the push I/O thread — later reconnects
/// see an empty vector and fall back to the plain v1 handshake, so the
/// I/O thread never reads live cache state.
struct SurvivorBox {
  std::mutex mu;
  std::vector<push::LeaseSurvivor> survivors;
};

/// Longest an idle worker sleeps before it advances its event loop.
constexpr net::Duration kIdleWait = net::milliseconds(2);
/// Iterations a worker still serves from its sockets after stop(), so a
/// flood cannot hold the drain open forever.
constexpr int kDrainBatches = 128;

}  // namespace

CacheRuntime::Worker::Worker(const Config& config)
    : commands(config.command_capacity, &wake) {}

CacheRuntime::CacheRuntime(Config config) : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.batch_size < 1) config_.batch_size = 1;
  epoch_ = std::chrono::steady_clock::now();
}

CacheRuntime::~CacheRuntime() { stop(); }

net::SimTime CacheRuntime::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int CacheRuntime::pin_cpu_for(int index) const {
  if (config_.pin_cpus.empty()) return -1;
  return config_.pin_cpus[static_cast<std::size_t>(index) %
                          config_.pin_cpus.size()];
}

util::Status CacheRuntime::bind_sockets() {
  const int n = config_.workers;
  // Resolve once (kDefault consults DNSCUP_IO_BACKEND) so both socket
  // sides of every worker bind the same backend.
  const net::IoBackendKind kind =
      net::resolve_io_backend_kind(config_.io_backend);
  auto options_for = [this](Worker& worker, uint16_t port, bool reuseport) {
    net::IoBackend::Options options;
    options.port = port;
    options.reuseport = reuseport;
    options.rcvbuf_bytes = config_.rcvbuf_bytes;
    options.sndbuf_bytes = config_.sndbuf_bytes;
    options.metrics = &worker.registry;
    return options;
  };

  // Client-facing side: one REUSEPORT group, or per-worker ports.
  if (config_.reuseport) {
    bool unsupported = false;
    uint16_t group_port = config_.port;
    for (int i = 0; i < n; ++i) {
      auto bound = net::bind_io_backend(
          kind, options_for(*workers_[i], group_port, true));
      if (!bound.ok()) {
        if (bound.error().code == util::ErrorCode::kUnsupported) {
          unsupported = true;
          for (int j = 0; j < i; ++j) workers_[j]->client_io.reset();
          break;
        }
        return bound.error();
      }
      workers_[i]->client_io = std::move(bound).value();
      group_port = workers_[i]->client_io->local_endpoint().port;
    }
    if (!unsupported) {
      reuseport_active_ = true;
      endpoints_ = {workers_[0]->client_io->local_endpoint()};
    }
  }
  if (!reuseport_active_) {
    endpoints_.clear();
    for (int i = 0; i < n; ++i) {
      const uint16_t port =
          config_.port == 0 ? 0 : static_cast<uint16_t>(config_.port + i);
      auto bound =
          net::bind_io_backend(kind, options_for(*workers_[i], port, false));
      if (!bound.ok()) return bound.error();
      workers_[i]->client_io = std::move(bound).value();
      endpoints_.push_back(workers_[i]->client_io->local_endpoint());
    }
  }

  // Upstream side: always one private ephemeral port per worker, so the
  // authority's responses and pushes come back to the owning worker.
  upstream_endpoints_.clear();
  for (int i = 0; i < n; ++i) {
    auto bound =
        net::bind_io_backend(kind, options_for(*workers_[i], 0, false));
    if (!bound.ok()) return bound.error();
    workers_[i]->upstream_io = std::move(bound).value();
    upstream_endpoints_.push_back(workers_[i]->upstream_io->local_endpoint());
  }
  return util::Status::ok_status();
}

util::Result<std::unique_ptr<CacheRuntime>> CacheRuntime::start(
    Config config) {
  if (config.upstreams.empty()) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "cache runtime needs at least one upstream"};
  }
  auto runtime =
      std::unique_ptr<CacheRuntime>(new CacheRuntime(std::move(config)));
  const Config& cfg = runtime->config_;
  const int n = cfg.workers;

  // Create the cache directory (one level) so a fresh --cache-dir just
  // works; shard files themselves are O_CREAT'ed by the store.
  if (!cfg.cache_dir.empty()) {
    if (::mkdir(cfg.cache_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Error{util::ErrorCode::kIo,
                         "cannot create cache dir " + cfg.cache_dir};
    }
  }

  runtime->workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    runtime->workers_.push_back(std::make_unique<Worker>(cfg));
    runtime->workers_.back()->index = i;
  }
  if (auto status = runtime->bind_sockets(); !status.ok()) {
    return status.error();
  }

  // Per-worker protocol stacks (built on this thread, before any worker
  // thread exists — no locking needed).
  for (int i = 0; i < n; ++i) {
    Worker& worker = *runtime->workers_[i];
    worker.router.client.io = worker.client_io.get();
    worker.router.upstream.io = worker.upstream_io.get();
    worker.router.upstreams = &cfg.upstreams;

    server::CachingResolver::Config rc;
    rc.max_retries = cfg.max_retries;
    rc.query_timeout = cfg.query_timeout;
    rc.cache_capacity = cfg.cache_capacity;
    rc.default_negative_ttl = cfg.default_negative_ttl;
    rc.metrics = &worker.registry;
    if (!cfg.cache_dir.empty()) {
      cachestore::MmapCacheStore::Options so;
      so.path = cfg.cache_dir + "/cache-shard-" + std::to_string(i);
      so.file_bytes = cfg.cache_file_bytes;
      so.now = 0;  // worker SimTime starts at 0; downtime decay is baked in
      // Leases are only worth keeping when a push channel will announce
      // them for re-adoption; otherwise honoring them risks stale serves.
      so.keep_leases =
          cfg.dnscup && cfg.push_plane && cfg.push_authority.port != 0;
      so.metrics = &worker.registry;
      auto opened = cachestore::MmapCacheStore::open(std::move(so));
      if (!opened.ok()) return opened.error();
      worker.cache_store = opened.value().get();
      // The factory is a copyable std::function; route the unique_ptr
      // through a shared holder it can move out of exactly once.
      auto holder =
          std::make_shared<std::unique_ptr<server::CacheStoreBackend>>(
              std::move(opened).value());
      rc.cache_store = [holder] { return std::move(*holder); };
    }
    worker.resolver = std::make_unique<server::CachingResolver>(
        worker.router, worker.loop, cfg.upstreams, rc);
    if (cfg.dnscup) {
      core::LeaseClient::Config lc;
      lc.trusted_authorities = cfg.upstreams;
      lc.metrics = &worker.registry;
      worker.lease_client =
          std::make_unique<core::LeaseClient>(*worker.resolver, lc);
    }
    if (cfg.dnscup && cfg.push_plane && cfg.push_authority.port != 0) {
      // One subscription channel per worker, announcing the worker's
      // upstream socket (its lease identity at the authority).  The
      // client's handlers run on its own I/O thread; the payload hops to
      // the worker over the command queue.  try_push keeps the plane's
      // thread from ever blocking on a busy worker — a dropped push is
      // simply never acked and the authority falls back to UDP.
      push::PushClient::Config pc = cfg.push;
      pc.authority = cfg.push_authority;
      pc.identity = runtime->upstream_endpoints_[static_cast<std::size_t>(i)];
      pc.metrics = &worker.registry;
      const net::Endpoint grantor = cfg.upstreams.front();
      if (worker.cache_store != nullptr &&
          worker.cache_store->load_report().warm_entries > 0) {
        // Announce warm-reloaded leases (granted by a configured upstream
        // and still in term) for re-adoption on the first connect.
        auto box = std::make_shared<SurvivorBox>();
        worker.resolver->cache().for_each(
            [&box, &worker](const server::CacheKey& key,
                            const server::CacheEntry& entry) {
              if (!entry.lease.has_value() || entry.lease->expiry <= 0) return;
              if (!worker.router.is_upstream(entry.lease->authority)) return;
              box->survivors.push_back(push::LeaseSurvivor{
                  key.name, key.type,
                  static_cast<uint64_t>(entry.lease->expiry)});
            });
        // One SUBSCRIBE frame carries the announcement (the most
        // recently used first); survivors it cannot hold could never be
        // re-adopted, so they demote before the worker serves them.
        const std::size_t fit =
            push::survivors_per_subscribe(box->survivors);
        for (std::size_t k = fit; k < box->survivors.size(); ++k) {
          worker.lease_client->reject_readoption(box->survivors[k].name,
                                                 box->survivors[k].type);
        }
        box->survivors.resize(fit);
        if (!box->survivors.empty()) {
          pc.survivors = [box] {
            std::lock_guard<std::mutex> lock(box->mu);
            return std::move(box->survivors);
          };
        }
      }
      worker.push_client = push::PushClient::start(
          pc,
          [&worker, grantor](std::vector<uint8_t> bytes) {
            worker.commands.try_push(
                [&worker, grantor, bytes = std::move(bytes)] {
                  auto decoded = dns::Message::decode(bytes);
                  if (!decoded.ok() || worker.lease_client == nullptr) return;
                  worker.lease_client->on_channel_update(
                      grantor, decoded.value(),
                      [&worker](std::vector<uint8_t> ack) {
                        worker.push_client->send_ack(std::move(ack));
                      });
                });
            worker.wake.wake();
          },
          [&worker](push::SubscribeAck ack,
                    std::vector<push::LeaseSurvivor> announced) {
            worker.commands.try_push([&worker, ack = std::move(ack),
                                      announced = std::move(announced)] {
              if (worker.lease_client == nullptr) return;
              std::vector<std::pair<dns::Name, uint32_t>> inventory;
              inventory.reserve(ack.zones.size());
              for (const auto& z : ack.zones) {
                inventory.emplace_back(z.zone, z.serial);
              }
              if (ack.has_readoption && !announced.empty()) {
                std::vector<std::pair<dns::Name, dns::RRType>> pairs;
                pairs.reserve(announced.size());
                for (const auto& s : announced) {
                  pairs.emplace_back(s.name, s.type);
                }
                worker.lease_client->on_readoption(pairs, ack.resumed_bits,
                                                   inventory);
              } else {
                worker.lease_client->on_channel_resync(inventory);
              }
            });
            worker.wake.wake();
          });
    }
  }

  // Go live: each worker arms both sockets' receives on its own thread.
  runtime->running_.store(true);
  for (int i = 0; i < n; ++i) {
    Worker& worker = *runtime->workers_[i];
    worker.thread =
        std::thread([rt = runtime.get(), &worker] { rt->worker_loop(worker); });
  }
  return runtime;
}

void CacheRuntime::worker_loop(Worker& worker) {
  net::pin_current_thread_to_cpu(pin_cpu_for(worker.index));
  const std::size_t batch_size = config_.batch_size;
  std::deque<std::function<void()>> commands;
  worker.router.client.batching = true;
  worker.router.upstream.batching = true;
  const net::IoBackend::BatchReceiveHandler serve =
      [&worker](std::span<const net::RxPacket> batch) {
        if (!worker.router.handler) return;
        for (const net::RxPacket& packet : batch) {
          worker.router.handler(packet.from, packet.data);
        }
      };
  // One wait covers both sockets and the command queue's eventfd.
  const net::IoBackend::Wait idle{worker.wake.fd(),
                                  worker.upstream_io->ready_fd(), kIdleWait};
  int drain_batches = kDrainBatches;
  for (;;) {
    const bool stopping = worker.stop.load(std::memory_order_acquire);
    // Upstream datagrams first: a response or CACHE-UPDATE that just
    // arrived can turn pending client queries into cache hits within the
    // same iteration.  Upstream bursts are small (one per in-flight task
    // or push), so one receive takes a whole burst; client intake is
    // bounded by the batch size like the authority runtime.
    const std::size_t upstream = worker.upstream_io->receive(
        worker.upstream_io->batch_slots(), serve);
    const bool may_wait =
        !stopping && upstream == 0 && worker.commands.empty();
    const std::size_t served = worker.client_io->receive(
        batch_size, serve, may_wait ? &idle : nullptr);
    if (may_wait && served == 0) worker.wake.clear();
    worker.router.flush();
    worker.commands.drain(commands);
    for (auto& command : commands) command();
    // Resolver timers: upstream retransmissions, query timeouts,
    // renegotiation refreshes — all on the owning thread.
    worker.loop.run_until(now_us());
    worker.router.flush();
    // After stop(): answer what is still queued on the sockets, then exit.
    if (stopping && ((upstream == 0 && served == 0 &&
                      worker.commands.empty()) ||
                     --drain_batches == 0)) {
      break;
    }
  }
  worker.router.client.batching = false;
  worker.router.upstream.batching = false;
}

void CacheRuntime::stop() {
  if (!running_.exchange(false)) return;
  // Push channels first: their I/O threads post into worker command
  // queues, so they must be quiet before the workers drain and exit.
  for (auto& worker : workers_) {
    if (worker->push_client != nullptr) worker->push_client->stop();
  }
  for (auto& worker : workers_) {
    worker->stop.store(true, std::memory_order_release);
    worker->wake.wake();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void CacheRuntime::run_on_worker(Worker& worker, std::function<void()> fn) {
  if (!running_.load()) {
    fn();  // post-stop inspection: workers are quiescent
    return;
  }
  std::promise<void> done;
  auto finished = done.get_future();
  worker.commands.push([&fn, &done] {
    fn();
    done.set_value();
  });
  finished.wait();
}

metrics::Snapshot CacheRuntime::metrics() {
  metrics::Snapshot merged;
  merged.timestamp_us = now_us();
  bool first = true;
  for (auto& worker : workers_) {
    metrics::Snapshot shard;
    run_on_worker(*worker, [this, &worker, &shard] {
      shard = worker->registry.snapshot(now_us());
    });
    if (first) {
      shard.timestamp_us = merged.timestamp_us;
      merged = std::move(shard);
      first = false;
    } else {
      merged.merge(shard);
    }
  }
  return merged;
}

std::size_t CacheRuntime::live_leases() {
  std::size_t live = 0;
  for (auto& worker : workers_) {
    if (worker->lease_client == nullptr) continue;
    run_on_worker(*worker, [this, &worker, &live] {
      live += worker->lease_client->live_leases(now_us());
    });
  }
  return live;
}

std::vector<cachestore::MmapCacheStore::LoadReport>
CacheRuntime::cache_load_reports() const {
  std::vector<cachestore::MmapCacheStore::LoadReport> reports;
  for (const auto& worker : workers_) {
    if (worker->cache_store != nullptr) {
      reports.push_back(worker->cache_store->load_report());
    }
  }
  return reports;
}

uint64_t CacheRuntime::warm_entries() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    if (worker->cache_store != nullptr) {
      total += worker->cache_store->load_report().warm_entries;
    }
  }
  return total;
}

std::size_t CacheRuntime::push_connected() const {
  std::size_t connected = 0;
  for (const auto& worker : workers_) {
    if (worker->push_client != nullptr && worker->push_client->connected()) {
      ++connected;
    }
  }
  return connected;
}

uint64_t CacheRuntime::push_connects() const {
  uint64_t total = 0;
  for (const auto& worker : workers_) {
    if (worker->push_client != nullptr) {
      total += worker->push_client->connect_count();
    }
  }
  return total;
}

void CacheRuntime::set_push_paused(bool paused) {
  for (auto& worker : workers_) {
    if (worker->push_client != nullptr) {
      worker->push_client->set_paused(paused);
    }
  }
}

std::size_t CacheRuntime::cache_entries() {
  std::size_t total = 0;
  for (auto& worker : workers_) {
    run_on_worker(*worker, [&worker, &total] {
      total += worker->resolver->cache().size();
    });
  }
  return total;
}

}  // namespace dnscup::cachert
