#include "cachert/cache_runtime.h"

#include <sys/stat.h>

#include <cerrno>
#include <mutex>
#include <utility>

#include "core/lease_client.h"
#include "server/resolver.h"

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

/// Routes resolver sends: destinations in the upstream set leave via the
/// worker's private socket (so lease identity == upstream source port),
/// everything else answers clients via its group socket.  Both sides
/// batch independently, and the resolver's handler serves both.
class RouterTransport final : public net::Transport {
 public:
  RouterTransport(runtime::WorkerPool::Worker& worker,
                  const std::vector<net::Endpoint>& upstreams)
      : client_(worker.shim),
        upstream_(worker.private_shim),
        upstreams_(upstreams) {}

  const net::Endpoint& local_endpoint() const override {
    return client_.local_endpoint();
  }
  void send(const net::Endpoint& to,
            std::span<const uint8_t> data) override {
    (is_upstream(to) ? upstream_ : client_).send(to, data);
  }
  void set_receive_handler(ReceiveHandler h) override {
    client_.set_receive_handler(h);
    upstream_.set_receive_handler(std::move(h));
  }
  bool is_upstream(const net::Endpoint& to) const {
    for (const net::Endpoint& up : upstreams_) {
      if (up == to) return true;
    }
    return false;
  }

 private:
  runtime::ShimTransport& client_;
  runtime::ShimTransport& upstream_;
  const std::vector<net::Endpoint>& upstreams_;
};

}  // namespace

struct CacheRuntime::Stack {
  Stack(runtime::WorkerPool::Worker& worker,
        const std::vector<net::Endpoint>& upstreams)
      : router(worker, upstreams) {}

  RouterTransport router;
  /// Persistent store behind the resolver's cache (owned by the cache
  /// via the storage seam; null without Config::cache_dir).
  cachestore::MmapCacheStore* cache_store = nullptr;
  std::unique_ptr<server::CachingResolver> resolver;
  std::unique_ptr<core::LeaseClient> lease_client;
  std::unique_ptr<push::PushClient> push_client;
};

CacheRuntime::CacheRuntime(Config config)
    : config_(std::move(config)), pool_(config_) {}

CacheRuntime::~CacheRuntime() { stop(); }

util::Result<std::unique_ptr<CacheRuntime>> CacheRuntime::start(
    Config config) {
  if (config.upstreams.empty()) {
    return util::Error{util::ErrorCode::kInvalidArgument,
                       "cache runtime needs at least one upstream"};
  }
  auto runtime =
      std::unique_ptr<CacheRuntime>(new CacheRuntime(std::move(config)));
  const Config& cfg = runtime->config_;
  runtime::WorkerPool& pool = runtime->pool_;
  const int n = pool.size();

  // Create the cache directory (one level) so a fresh --cache-dir just
  // works; shard files themselves are O_CREAT'ed by the store.
  if (!cfg.cache_dir.empty()) {
    if (::mkdir(cfg.cache_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return util::Error{util::ErrorCode::kIo,
                         "cannot create cache dir " + cfg.cache_dir};
    }
  }

  // The private sockets are the upstream side: one ephemeral port per
  // worker, so the authority's responses and pushes come back to the
  // owning worker.
  if (auto status = pool.bind(/*private_sockets=*/true); !status.ok()) {
    return status.error();
  }

  // Per-worker protocol stacks (built on this thread, before any worker
  // thread exists — no locking needed).
  for (int i = 0; i < n; ++i) {
    runtime::WorkerPool::Worker& worker = pool.worker(i);
    runtime->stacks_.push_back(
        std::make_unique<Stack>(worker, cfg.upstreams));
    Stack& stack = *runtime->stacks_.back();

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
      stack.cache_store = opened.value().get();
      // The factory is a copyable std::function; route the unique_ptr
      // through a shared holder it can move out of exactly once.
      auto holder =
          std::make_shared<std::unique_ptr<server::CacheStoreBackend>>(
              std::move(opened).value());
      rc.cache_store = [holder] { return std::move(*holder); };
    }
    stack.resolver = std::make_unique<server::CachingResolver>(
        stack.router, worker.loop, cfg.upstreams, rc);
    if (cfg.dnscup) {
      core::LeaseClient::Config lc;
      lc.trusted_authorities = cfg.upstreams;
      lc.metrics = &worker.registry;
      stack.lease_client =
          std::make_unique<core::LeaseClient>(*stack.resolver, lc);
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
      pc.identity = pool.private_endpoints()[static_cast<std::size_t>(i)];
      pc.metrics = &worker.registry;
      const net::Endpoint grantor = cfg.upstreams.front();
      if (stack.cache_store != nullptr &&
          stack.cache_store->load_report().warm_entries > 0) {
        // Announce warm-reloaded leases (granted by a configured upstream
        // and still in term) for re-adoption on the first connect.
        auto box = std::make_shared<SurvivorBox>();
        stack.resolver->cache().for_each(
            [&box, &stack](const server::CacheKey& key,
                           const server::CacheEntry& entry) {
              if (!entry.lease.has_value() || entry.lease->expiry <= 0) return;
              if (!stack.router.is_upstream(entry.lease->authority)) return;
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
          stack.lease_client->reject_readoption(box->survivors[k].name,
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
      stack.push_client = push::PushClient::start(
          pc,
          [&worker, &stack, grantor](std::vector<uint8_t> bytes) {
            worker.commands.try_push(
                [&stack, grantor, bytes = std::move(bytes)] {
                  auto decoded = dns::Message::decode(bytes);
                  if (!decoded.ok() || stack.lease_client == nullptr) return;
                  stack.lease_client->on_channel_update(
                      grantor, decoded.value(),
                      [&stack](std::vector<uint8_t> ack) {
                        stack.push_client->send_ack(std::move(ack));
                      });
                });
            worker.wake.wake();
          },
          [&worker, &stack](push::SubscribeAck ack,
                            std::vector<push::LeaseSurvivor> announced) {
            worker.commands.try_push([&stack, ack = std::move(ack),
                                      announced = std::move(announced)] {
              if (stack.lease_client == nullptr) return;
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
                stack.lease_client->on_readoption(pairs, ack.resumed_bits,
                                                  inventory);
              } else {
                stack.lease_client->on_channel_resync(inventory);
              }
            });
            worker.wake.wake();
          });
    }
  }

  // Go live: each worker arms both sockets' receives on its own thread.
  pool.start();
  return runtime;
}

void CacheRuntime::stop() {
  if (!pool_.running()) return;
  // Push channels first: their I/O threads post into worker command
  // queues, so they must be quiet before the workers drain and exit.
  for (auto& stack : stacks_) {
    if (stack->push_client != nullptr) stack->push_client->stop();
  }
  pool_.stop();
}

std::size_t CacheRuntime::live_leases() {
  std::size_t live = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    const core::LeaseClient* client = stacks_[i]->lease_client.get();
    if (client == nullptr) continue;
    pool_.run_on_worker(i, [this, client, &live] {
      live += client->live_leases(now_us());
    });
  }
  return live;
}

std::size_t CacheRuntime::cache_entries() {
  std::size_t total = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.run_on_worker(i, [this, i, &total] {
      total += stacks_[i]->resolver->cache().size();
    });
  }
  return total;
}

std::vector<cachestore::MmapCacheStore::LoadReport>
CacheRuntime::cache_load_reports() const {
  std::vector<cachestore::MmapCacheStore::LoadReport> reports;
  for (const auto& stack : stacks_) {
    if (stack->cache_store != nullptr) {
      reports.push_back(stack->cache_store->load_report());
    }
  }
  return reports;
}

uint64_t CacheRuntime::warm_entries() const {
  uint64_t total = 0;
  for (const auto& stack : stacks_) {
    if (stack->cache_store != nullptr) {
      total += stack->cache_store->load_report().warm_entries;
    }
  }
  return total;
}

std::size_t CacheRuntime::push_connected() const {
  std::size_t connected = 0;
  for (const auto& stack : stacks_) {
    if (stack->push_client != nullptr && stack->push_client->connected()) {
      ++connected;
    }
  }
  return connected;
}

uint64_t CacheRuntime::push_connects() const {
  uint64_t total = 0;
  for (const auto& stack : stacks_) {
    if (stack->push_client != nullptr) {
      total += stack->push_client->connect_count();
    }
  }
  return total;
}

void CacheRuntime::set_push_paused(bool paused) {
  for (auto& stack : stacks_) {
    if (stack->push_client != nullptr) {
      stack->push_client->set_paused(paused);
    }
  }
}

}  // namespace dnscup::cachert
