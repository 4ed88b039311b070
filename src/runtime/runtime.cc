#include "runtime/runtime.h"

#include <algorithm>
#include <utility>

#include "core/shard.h"

namespace dnscup::runtime {

namespace {

/// Total track-file bound, split across shards, without the planner
/// (with it, the demand table's capacity bounds the planned pairs).
constexpr std::size_t kLeaseBound = 100000;

}  // namespace

ServingRuntime::~ServingRuntime() { stop(); }

util::Result<std::unique_ptr<ServingRuntime>> ServingRuntime::start(
    Config config, std::vector<dns::Zone> zones) {
  auto runtime =
      std::unique_ptr<ServingRuntime>(new ServingRuntime(std::move(config)));
  ServingRuntime* rt = runtime.get();
  const Config& cfg = rt->config_;
  WorkerPool& pool = rt->pool_;
  const int n = pool.size();

  // Durable path first: recovery must finish before any shard serves.
  core::RecoveredState recovered;
  if (cfg.dnscup && !cfg.state_dir.empty()) {
    store::LeaseStore::Config store_config;
    store_config.dir = cfg.state_dir;
    store_config.fsync = cfg.fsync;
    store_config.snapshot_every_records = cfg.snapshot_every_records;
    auto writer = JournalWriter::open(
        &rt->storage_, store_config, [rt] { return rt->now_us(); },
        &recovered);
    if (!writer.ok()) return writer.error();
    rt->writer_ = std::move(writer).value();
  }

  if (auto status = pool.bind(/*private_sockets=*/false); !status.ok()) {
    return status.error();
  }

  // Push plane before the shard stacks: each shard's NotificationModule
  // is built with the plane's per-worker writer.  The plane's I/O thread
  // routes every resolution back to the owning worker's command queue
  // with a non-blocking post — a dropped post (full queue) self-heals
  // through the notifier's channel-ack deadline, and nothing here can
  // deadlock a worker blocked on its own queue.
  if (cfg.dnscup && cfg.push_plane) {
    push::PushServer::Config pc = cfg.push;
    pc.port = cfg.push_port;
    pc.workers = n;
    auto started = push::PushServer::start(
        pc, &rt->push_registry_,
        [rt, n](int w, uint16_t id, core::ChannelResolution res) {
          if (w < 0 || w >= n) return;
          WorkerPool::Worker& worker = rt->pool_.worker(w);
          worker.commands.try_push([rt, w, id, res] {
            const auto& dnscup =
                rt->shards_[static_cast<std::size_t>(w)].dnscup;
            if (dnscup != nullptr) {
              dnscup->notifier().on_channel_resolution(id, res);
            }
          });
          worker.wake.wake();
        });
    if (!started.ok()) return started.error();
    rt->push_ = std::move(started).value();
    for (const dns::Zone& zone : zones) {
      rt->push_->set_zone_serial(zone.origin(), zone.serial());
    }
  }

  // Lease planner before the shard stacks: each shard's policy is built
  // with its worker's planner handle.  The planner thread never touches
  // worker state — observations arrive over per-worker MPSC queues and
  // assignments publish through the demand table's atomics.
  if (cfg.dnscup && cfg.planner) {
    planner::LeasePlanner::Config pc = cfg.planner_config;
    pc.workers = n;
    rt->planner_ = planner::LeasePlanner::start(pc);
  }

  // Per-shard protocol stacks.  Each worker gets its own copy of every
  // zone; the registries stay per-worker and merge only at scrape time.
  const std::size_t lease_bound = rt->planner_ != nullptr
                                      ? rt->planner_->config().capacity
                                      : kLeaseBound;
  const std::size_t shard_bound =
      std::max<std::size_t>(1, (lease_bound + n - 1) / n);
  rt->shards_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    WorkerPool::Worker& worker = pool.worker(i);
    Shard& shard = rt->shards_[static_cast<std::size_t>(i)];
    shard.server = std::make_unique<server::AuthServer>(
        worker.shim, worker.loop, server::AuthServer::Role::kMaster,
        &worker.registry);
    shard.server->set_round_robin(cfg.round_robin);
    for (const dns::Zone& zone : zones) shard.server->add_zone(zone);
    if (cfg.dnscup) {
      core::DnscupAuthority::Config dc;
      const net::Duration max_lease = cfg.max_lease;
      dc.max_lease = [max_lease](const dns::Name&, dns::RRType) {
        return max_lease;
      };
      dc.storage_budget = shard_bound;
      dc.notification = cfg.notification;
      dc.notification.metrics = &worker.registry;
      if (rt->push_ != nullptr) {
        dc.notification.push_writer = rt->push_->writer_for(i);
      }
      if (rt->planner_ != nullptr) {
        dc.planner = rt->planner_->handle_for_worker(i);
      }
      dc.metrics = &worker.registry;
      dc.journal =
          rt->writer_ != nullptr ? &rt->writer_->shard_journal() : nullptr;
      shard.dnscup = std::make_unique<core::DnscupAuthority>(
          *shard.server, worker.loop, dc);
    }
  }

  // Recovery: partition the surviving lease set by shard_of() and let
  // every shard re-adopt its slice (runs on this thread; no worker
  // threads exist yet, so no locking).
  if (rt->writer_ != nullptr) {
    rt->recovery_.replayed_records = recovered.replayed_records;
    rt->recovery_.torn_records = recovered.torn_records;
    const auto parts = core::partition_recovered(recovered, n);
    for (int i = 0; i < n; ++i) {
      const auto report = rt->shards_[i].dnscup->recover(parts[i]);
      rt->recovery_.leases_restored += report.leases_restored;
      rt->recovery_.leases_expired += report.leases_expired;
      rt->recovery_.changes_pushed += report.changes_pushed;
      rt->recovery_.zones_changed =
          std::max(rt->recovery_.zones_changed, report.zones_changed);
    }
  }

  // Go live: journal thread, then the workers, each of which arms its
  // socket's receive on its own thread.  A worker's exit hook sends one
  // final UDP copy of every CACHE-UPDATE still in flight (awaiting a
  // retry slot or a channel ack), so stop() never strands a queued push;
  // counted as cache_update_messages{result=shutdown_flush}.
  if (rt->writer_ != nullptr) rt->writer_->start();
  pool.start([rt](WorkerPool::Worker& worker) {
    const auto& dnscup =
        rt->shards_[static_cast<std::size_t>(worker.index)].dnscup;
    if (dnscup != nullptr) dnscup->notifier().flush_pending();
  });

  // Warm-restart lease re-adoption: v2 SUBSCRIBEs announce surviving
  // leases; each survivor is judged by the authority shard that owns its
  // (holder, name, type) key — the same shard_of() partition recovery
  // uses — via a blocking hop onto that worker.  Installed last so a
  // subscribe racing start() sees the all-rejected default (clients then
  // demote to TTL entries, which is safe) rather than a half-built
  // runtime.
  if (rt->push_ != nullptr && cfg.dnscup) {
    rt->push_->set_readopt_handler(
        [rt, n](const net::Endpoint& holder,
                const std::vector<push::LeaseSurvivor>& survivors) {
          std::vector<std::vector<std::size_t>> indices(n);
          std::vector<std::vector<core::DnscupAuthority::ReadoptRequest>>
              requests(n);
          for (std::size_t i = 0; i < survivors.size(); ++i) {
            const push::LeaseSurvivor& s = survivors[i];
            const std::size_t w = core::shard_of(
                holder, s.name, s.type, static_cast<std::size_t>(n));
            indices[w].push_back(i);
            requests[w].push_back(core::DnscupAuthority::ReadoptRequest{
                s.name, s.type,
                static_cast<net::Duration>(s.remaining_us)});
          }
          std::vector<bool> verdicts(survivors.size(), false);
          for (int w = 0; w < n; ++w) {
            if (requests[w].empty()) continue;
            std::vector<bool> part;
            rt->pool_.run_on_worker(w, [&] {
              part = rt->shards_[w].dnscup->readopt(holder, requests[w]);
            });
            for (std::size_t k = 0; k < part.size(); ++k) {
              verdicts[indices[w][k]] = part[k];
            }
          }
          return verdicts;
        });
  }
  return runtime;
}

void ServingRuntime::stop() {
  if (!pool_.running()) return;
  // 1. Stop the push plane: flushes its write queues (bounded) and
  //    resolves everything still owed as kFailed — the workers are still
  //    running, so those fall back to UDP and are then covered by each
  //    worker's notifier flush on exit.
  if (push_ != nullptr) push_->stop();
  // 2. Drain and join the workers: each answers what is queued on its
  //    socket (the socket stays open for post-stop sends), then exits.
  pool_.stop();
  // 3. Stop the planner after the workers have joined: no observe() or
  //    assignment() call can race the planner's teardown, and its final
  //    drain absorbs everything the workers enqueued.
  if (planner_ != nullptr) planner_->stop();
  // 4. Flush the journal: every op the workers enqueued lands in the WAL,
  //    then a final compacting snapshot.
  if (writer_ != nullptr) writer_->stop();
}

std::size_t ServingRuntime::reload_zone(dns::Zone zone) {
  // One immutable snapshot of the new version, shared by every shard;
  // each worker copies from it and diffs/swaps on its own thread.
  auto snapshot = std::make_shared<const dns::Zone>(std::move(zone));
  // Publish the new serial to the subscription handshake first, so a
  // cache connecting mid-reload resyncs against the version it is about
  // to be (or just was) pushed.
  if (push_ != nullptr) {
    push_->set_zone_serial(snapshot->origin(), snapshot->serial());
  }
  std::size_t changes = 0;
  for (int i = 0; i < pool_.size(); ++i) {
    pool_.run_on_worker(i, [this, i, &snapshot, &changes] {
      changes = shards_[i].server->reload_zone(*snapshot);
    });
  }
  return changes;
}

metrics::Snapshot ServingRuntime::metrics() {
  metrics::Snapshot merged = pool_.metrics();
  if (writer_ != nullptr) merged.merge(writer_->metrics());
  // The push plane's instruments live in a runtime-owned registry whose
  // instrument set is fixed at construction; counters/gauges are relaxed
  // atomics, so snapshotting here races with nothing.
  if (push_ != nullptr) merged.merge(push_registry_.snapshot(now_us()));
  // The planner guards its histograms internally (metrics() locks its
  // stats mutex against the planner thread's adds).
  if (planner_ != nullptr) merged.merge(planner_->metrics(now_us()));
  return merged;
}

std::vector<core::Lease> ServingRuntime::collect_leases() {
  std::vector<core::Lease> all;
  for (int i = 0; i < pool_.size(); ++i) {
    core::DnscupAuthority* dnscup = shards_[i].dnscup.get();
    if (dnscup == nullptr) continue;
    pool_.run_on_worker(i, [dnscup, &all] {
      dnscup->track_file().for_each(
          [&all](const core::Lease& lease) { all.push_back(lease); });
    });
  }
  return all;
}

std::string ServingRuntime::serialize_track_files() {
  // Rebuild one track file from all shards: restore() bypasses journal
  // and stats, and the map ordering makes the output canonical — byte
  // identical to a single-threaded authority holding the same leases.
  metrics::MetricsRegistry scratch;
  core::TrackFile merged(&scratch);
  for (const core::Lease& lease : collect_leases()) merged.restore(lease);
  return merged.serialize(now_us());
}

std::size_t ServingRuntime::live_leases() {
  const net::SimTime now = now_us();
  std::size_t live = 0;
  for (const core::Lease& lease : collect_leases()) {
    if (lease.valid(now)) ++live;
  }
  return live;
}

util::Status ServingRuntime::write_snapshot() {
  if (writer_ == nullptr) return util::Status::ok_status();
  return writer_->write_snapshot();
}

}  // namespace dnscup::runtime
