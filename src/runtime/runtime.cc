#include "runtime/runtime.h"

#include <algorithm>
#include <future>
#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::runtime {

namespace {

/// Total track-file bound, split across shards, without the planner
/// (with it, the demand table's capacity bounds the planned pairs).
constexpr std::size_t kLeaseBound = 100000;
/// Longest an idle worker sleeps before it advances its event loop.
constexpr net::Duration kIdleWait = net::milliseconds(2);
/// Batches a worker still serves from its socket after stop(), so a
/// flood cannot hold the drain open forever.
constexpr int kDrainBatches = 128;

}  // namespace

ServingRuntime::Worker::Worker(const Config& config)
    : commands(config.command_capacity, &wake) {}

ServingRuntime::ServingRuntime(Config config) : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.batch_size < 1) config_.batch_size = 1;
  epoch_ = std::chrono::steady_clock::now();
}

ServingRuntime::~ServingRuntime() { stop(); }

net::SimTime ServingRuntime::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int ServingRuntime::pin_cpu_for(int index) const {
  if (config_.pin_cpus.empty()) return -1;
  return config_.pin_cpus[static_cast<std::size_t>(index) %
                          config_.pin_cpus.size()];
}

util::Status ServingRuntime::bind_sockets() {
  const int n = config_.workers;
  // Resolve once (kDefault consults DNSCUP_IO_BACKEND) so every worker
  // binds the same backend and any env warning prints once.
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

  if (config_.reuseport) {
    bool unsupported = false;
    uint16_t group_port = config_.port;
    for (int i = 0; i < n; ++i) {
      auto bound = net::bind_io_backend(
          kind, options_for(*workers_[i], group_port, true));
      if (!bound.ok()) {
        if (bound.error().code == util::ErrorCode::kUnsupported) {
          // Kernel without SO_REUSEPORT: release what we bound and fall
          // back to one port per worker below.
          unsupported = true;
          for (int j = 0; j < i; ++j) workers_[j]->io.reset();
          break;
        }
        return bound.error();
      }
      workers_[i]->io = std::move(bound).value();
      // Port 0 resolves on the first bind; the rest join that group.
      group_port = workers_[i]->io->local_endpoint().port;
    }
    if (!unsupported) {
      reuseport_active_ = true;
      endpoints_ = {workers_[0]->io->local_endpoint()};
      return util::Status::ok_status();
    }
  }

  // Per-worker ports: worker i serves port + i (all ephemeral when the
  // configured port is 0).  shard.h's shard_of() tells clients with a
  // recovered lease which port their tuple lives behind.
  reuseport_active_ = false;
  endpoints_.clear();
  for (int i = 0; i < n; ++i) {
    const uint16_t port =
        config_.port == 0 ? 0 : static_cast<uint16_t>(config_.port + i);
    auto bound =
        net::bind_io_backend(kind, options_for(*workers_[i], port, false));
    if (!bound.ok()) return bound.error();
    workers_[i]->io = std::move(bound).value();
    endpoints_.push_back(workers_[i]->io->local_endpoint());
  }
  return util::Status::ok_status();
}

util::Result<std::unique_ptr<ServingRuntime>> ServingRuntime::start(
    Config config, std::vector<dns::Zone> zones) {
  auto runtime =
      std::unique_ptr<ServingRuntime>(new ServingRuntime(std::move(config)));
  const Config& cfg = runtime->config_;
  const int n = cfg.workers;

  // Durable path first: recovery must finish before any shard serves.
  core::RecoveredState recovered;
  if (cfg.dnscup && !cfg.state_dir.empty()) {
    store::LeaseStore::Config store_config;
    store_config.dir = cfg.state_dir;
    store_config.fsync = cfg.fsync;
    store_config.snapshot_every_records = cfg.snapshot_every_records;
    ServingRuntime* rt = runtime.get();
    auto writer = JournalWriter::open(
        &runtime->storage_, store_config, [rt] { return rt->now_us(); },
        &recovered);
    if (!writer.ok()) return writer.error();
    runtime->writer_ = std::move(writer).value();
  }

  runtime->workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    runtime->workers_.push_back(std::make_unique<Worker>(cfg));
    runtime->workers_.back()->index = i;
  }
  if (auto status = runtime->bind_sockets(); !status.ok()) {
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
    ServingRuntime* rt = runtime.get();
    auto started = push::PushServer::start(
        pc, &runtime->push_registry_,
        [rt](int w, uint16_t id, core::ChannelResolution res) {
          if (w < 0 || w >= static_cast<int>(rt->workers_.size())) return;
          Worker& worker = *rt->workers_[static_cast<std::size_t>(w)];
          worker.commands.try_push([&worker, id, res] {
            if (worker.dnscup != nullptr) {
              worker.dnscup->notifier().on_channel_resolution(id, res);
            }
          });
          worker.wake.wake();
        });
    if (!started.ok()) return started.error();
    runtime->push_ = std::move(started).value();
    for (const dns::Zone& zone : zones) {
      runtime->push_->set_zone_serial(zone.origin(), zone.serial());
    }
  }

  // Lease planner before the shard stacks: each shard's policy is built
  // with its worker's planner handle.  The planner thread never touches
  // worker state — observations arrive over per-worker MPSC queues and
  // assignments publish through the demand table's atomics.
  if (cfg.dnscup && cfg.planner) {
    planner::LeasePlanner::Config pc = cfg.planner_config;
    pc.workers = n;
    runtime->planner_ = planner::LeasePlanner::start(pc);
  }

  // Per-shard protocol stacks.  Each worker gets its own copy of every
  // zone; the registries stay per-worker and merge only at scrape time.
  const std::size_t lease_bound = runtime->planner_ != nullptr
                                      ? runtime->planner_->config().capacity
                                      : kLeaseBound;
  const std::size_t shard_bound =
      std::max<std::size_t>(1, (lease_bound + n - 1) / n);
  for (int i = 0; i < n; ++i) {
    Worker& worker = *runtime->workers_[i];
    worker.shim.io = worker.io.get();
    worker.server = std::make_unique<server::AuthServer>(
        worker.shim, worker.loop, server::AuthServer::Role::kMaster,
        &worker.registry);
    worker.server->set_round_robin(cfg.round_robin);
    for (const dns::Zone& zone : zones) worker.server->add_zone(zone);
    if (cfg.dnscup) {
      core::DnscupAuthority::Config dc;
      const net::Duration max_lease = cfg.max_lease;
      dc.max_lease = [max_lease](const dns::Name&, dns::RRType) {
        return max_lease;
      };
      dc.storage_budget = shard_bound;
      dc.notification = cfg.notification;
      dc.notification.metrics = &worker.registry;
      if (runtime->push_ != nullptr) {
        dc.notification.push_writer = runtime->push_->writer_for(i);
      }
      if (runtime->planner_ != nullptr) {
        dc.planner = runtime->planner_->handle_for_worker(i);
      }
      dc.metrics = &worker.registry;
      dc.journal = runtime->writer_ != nullptr
                       ? &runtime->writer_->shard_journal()
                       : nullptr;
      worker.dnscup = std::make_unique<core::DnscupAuthority>(
          *worker.server, worker.loop, dc);
    }
  }

  // Recovery: partition the surviving lease set by shard_of() and let
  // every shard re-adopt its slice (runs on this thread; no worker
  // threads exist yet, so no locking).
  if (runtime->writer_ != nullptr) {
    runtime->recovery_.replayed_records = recovered.replayed_records;
    runtime->recovery_.torn_records = recovered.torn_records;
    const auto parts = core::partition_recovered(recovered, n);
    for (int i = 0; i < n; ++i) {
      const auto report = runtime->workers_[i]->dnscup->recover(parts[i]);
      runtime->recovery_.leases_restored += report.leases_restored;
      runtime->recovery_.leases_expired += report.leases_expired;
      runtime->recovery_.changes_pushed += report.changes_pushed;
      runtime->recovery_.zones_changed =
          std::max(runtime->recovery_.zones_changed, report.zones_changed);
    }
  }

  // Go live: journal thread, then the workers, each of which arms its
  // socket's receive on its own thread.
  if (runtime->writer_ != nullptr) runtime->writer_->start();
  runtime->running_.store(true);
  for (int i = 0; i < n; ++i) {
    Worker& worker = *runtime->workers_[i];
    worker.thread =
        std::thread([rt = runtime.get(), &worker] { rt->worker_loop(worker); });
  }

  // Warm-restart lease re-adoption: v2 SUBSCRIBEs announce surviving
  // leases; each survivor is judged by the authority shard that owns its
  // (holder, name, type) key — the same shard_of() partition recovery
  // uses — via a blocking hop onto that worker.  Installed last so a
  // subscribe racing start() sees the all-rejected default (clients then
  // demote to TTL entries, which is safe) rather than a half-built
  // runtime.
  if (runtime->push_ != nullptr && cfg.dnscup) {
    runtime->push_->set_readopt_handler(
        [rt = runtime.get(), n](const net::Endpoint& holder,
                                const std::vector<push::LeaseSurvivor>&
                                    survivors) {
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
            Worker& worker = *rt->workers_[w];
            std::vector<bool> part;
            rt->run_on_worker(worker, [&] {
              part = worker.dnscup->readopt(holder, requests[w]);
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

void ServingRuntime::worker_loop(Worker& worker) {
  net::pin_current_thread_to_cpu(pin_cpu_for(worker.index));
  const std::size_t batch_size = config_.batch_size;
  std::deque<std::function<void()>> commands;
  // Steady state: receive one batch straight from the socket and serve
  // it — responses accumulate in the shim's tx arena — then flush them as
  // a single send batch.  No allocation anywhere on this path once warm.
  worker.shim.batching = true;
  const net::IoBackend::BatchReceiveHandler serve =
      [&worker](std::span<const net::RxPacket> batch) {
        if (!worker.shim.handler) return;
        for (const net::RxPacket& packet : batch) {
          worker.shim.handler(packet.from, packet.data);
        }
      };
  const net::IoBackend::Wait idle{worker.wake.fd(), -1, kIdleWait};
  int drain_batches = kDrainBatches;
  for (;;) {
    const bool stopping = worker.stop.load(std::memory_order_acquire);
    // Sleep only when no command is queued: the receive then waits on
    // the socket and the wake eventfd together.
    const bool may_wait = !stopping && worker.commands.empty();
    const std::size_t served =
        worker.io->receive(batch_size, serve, may_wait ? &idle : nullptr);
    if (may_wait && served == 0) worker.wake.clear();
    worker.shim.flush();
    worker.commands.drain(commands);
    for (auto& command : commands) command();
    // Advance the shard's event loop to wall time: retransmission timers
    // and lease-expiry prunes fire here, on the owning thread.
    worker.loop.run_until(now_us());
    // Command- and timer-driven sends (CACHE-UPDATE fan-out on a zone
    // reload, retransmissions) batch within their iteration too.
    worker.shim.flush();
    // After stop(): answer what is still queued on the socket, then exit.
    if (stopping && ((served == 0 && worker.commands.empty()) ||
                     --drain_batches == 0)) {
      break;
    }
  }
  // Shutdown drain: one final UDP copy of every CACHE-UPDATE still in
  // flight (awaiting a retry slot or a channel ack), so stop() never
  // strands a queued push.  Counted as
  // cache_update_messages{result=shutdown_flush}.
  if (worker.dnscup != nullptr) worker.dnscup->notifier().flush_pending();
  worker.shim.flush();
  worker.shim.batching = false;  // post-stop inspection sends go direct
}

void ServingRuntime::stop() {
  if (!running_.exchange(false)) return;
  // 1. Stop the push plane: flushes its write queues (bounded) and
  //    resolves everything still owed as kFailed — the workers are still
  //    running, so those fall back to UDP and are then covered by each
  //    worker's notifier flush on exit.
  if (push_ != nullptr) push_->stop();
  // 2. Drain and join the workers: each answers what is queued on its
  //    socket (the socket stays open for post-stop sends), then exits.
  for (auto& worker : workers_) {
    worker->stop.store(true, std::memory_order_release);
    worker->wake.wake();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // 3. Stop the planner after the workers have joined: no observe() or
  //    assignment() call can race the planner's teardown, and its final
  //    drain absorbs everything the workers enqueued.
  if (planner_ != nullptr) planner_->stop();
  // 4. Flush the journal: every op the workers enqueued lands in the WAL,
  //    then a final compacting snapshot.
  if (writer_ != nullptr) writer_->stop();
}

void ServingRuntime::run_on_worker(Worker& worker, std::function<void()> fn) {
  if (!running_.load()) {
    // Workers are quiescent (pre-start never happens — start() returns a
    // running runtime — so this is post-stop inspection).
    fn();
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
  for (auto& worker : workers_) {
    run_on_worker(*worker, [&worker, &snapshot, &changes] {
      changes = worker->server->reload_zone(*snapshot);
    });
  }
  return changes;
}

metrics::Snapshot ServingRuntime::metrics() {
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
  for (auto& worker : workers_) {
    if (worker->dnscup == nullptr) continue;
    run_on_worker(*worker, [&worker, &all] {
      worker->dnscup->track_file().for_each(
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
