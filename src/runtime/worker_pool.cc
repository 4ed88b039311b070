#include "runtime/worker_pool.h"

#include <deque>
#include <future>
#include <utility>

namespace dnscup::runtime {

namespace {

/// Longest an idle worker sleeps before it advances its event loop.
constexpr net::Duration kIdleWait = net::milliseconds(2);
/// Iterations a worker still serves from its sockets after stop(), so a
/// flood cannot hold the drain open forever.
constexpr int kDrainBatches = 128;

/// Hands each datagram of a batch to `shim`'s handler — the one call a
/// datagram costs.
net::IoBackend::BatchReceiveHandler serve_through(ShimTransport& shim) {
  return [&shim](std::span<const net::RxPacket> batch) {
    if (!shim.handler) return;
    for (const net::RxPacket& packet : batch) {
      shim.handler(packet.from, packet.data);
    }
  };
}

}  // namespace

WorkerPool::WorkerPool(PoolConfig config) : config_(std::move(config)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.batch_size < 1) config_.batch_size = 1;
  epoch_ = std::chrono::steady_clock::now();
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(
        std::make_unique<Worker>(i, config_.command_capacity));
  }
}

WorkerPool::~WorkerPool() { stop(); }

net::SimTime WorkerPool::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

util::Status WorkerPool::bind(bool private_sockets) {
  // Resolve once (kDefault consults DNSCUP_IO_BACKEND) so every socket
  // binds the same backend and any env warning prints once.
  const net::IoBackendKind kind =
      net::resolve_io_backend_kind(config_.io_backend);
  auto bind_one = [this, kind](Worker& worker, uint16_t port,
                               bool reuseport) {
    net::IoBackend::Options options;
    options.port = port;
    options.reuseport = reuseport;
    options.rcvbuf_bytes = config_.rcvbuf_bytes;
    options.sndbuf_bytes = config_.sndbuf_bytes;
    options.metrics = &worker.registry;
    return net::bind_io_backend(kind, options);
  };

  reuseport_active_ = false;
  if (config_.reuseport) {
    reuseport_active_ = true;
    uint16_t group_port = config_.port;
    for (auto& worker : workers_) {
      auto bound = bind_one(*worker, group_port, true);
      if (!bound.ok()) {
        if (bound.error().code != util::ErrorCode::kUnsupported) {
          return bound.error();
        }
        // Kernel without SO_REUSEPORT: fall back to one port per worker
        // below.
        reuseport_active_ = false;
        break;
      }
      worker->io = std::move(bound).value();
      // Port 0 resolves on the first bind; the rest join that group.
      group_port = worker->io->local_endpoint().port;
    }
  }
  endpoints_.clear();
  if (reuseport_active_) {
    endpoints_.push_back(workers_.front()->io->local_endpoint());
  } else {
    // Per-worker ports: worker i serves port + i (all ephemeral when the
    // configured port is 0).  shard.h's shard_of() tells clients with a
    // recovered lease which port their tuple lives behind.  A partly
    // bound group is released first.
    for (auto& worker : workers_) worker->io.reset();
    for (auto& worker : workers_) {
      const uint16_t port =
          config_.port == 0
              ? 0
              : static_cast<uint16_t>(config_.port + worker->index);
      auto bound = bind_one(*worker, port, false);
      if (!bound.ok()) return bound.error();
      worker->io = std::move(bound).value();
      endpoints_.push_back(worker->io->local_endpoint());
    }
  }
  for (auto& worker : workers_) worker->shim.io = worker->io.get();

  private_endpoints_.clear();
  if (private_sockets) {
    for (auto& worker : workers_) {
      auto bound = bind_one(*worker, 0, false);
      if (!bound.ok()) return bound.error();
      worker->private_io = std::move(bound).value();
      worker->private_shim.io = worker->private_io.get();
      private_endpoints_.push_back(worker->private_io->local_endpoint());
    }
  }
  return util::Status::ok_status();
}

void WorkerPool::start(ExitHook on_exit) {
  on_exit_ = std::move(on_exit);
  running_.store(true);
  for (auto& worker : workers_) {
    worker->thread =
        std::thread([this, w = worker.get()] { worker_loop(*w); });
  }
}

void WorkerPool::worker_loop(Worker& worker) {
  if (!config_.pin_cpus.empty()) {
    net::pin_current_thread_to_cpu(
        config_.pin_cpus[static_cast<std::size_t>(worker.index) %
                         config_.pin_cpus.size()]);
  }
  net::IoBackend* const private_io = worker.private_io.get();
  std::deque<std::function<void()>> commands;
  // Steady state: responses accumulate in the shims' tx arenas and leave
  // as one send batch per socket per flush.  No allocation anywhere on
  // this path once warm.
  worker.shim.batching = true;
  worker.private_shim.batching = true;
  auto flush = [&worker] {
    worker.shim.flush();
    worker.private_shim.flush();
  };
  const net::IoBackend::BatchReceiveHandler serve =
      serve_through(worker.shim);
  const net::IoBackend::BatchReceiveHandler serve_private =
      serve_through(worker.private_shim);
  const net::IoBackend::Wait idle{
      worker.wake.fd(), private_io != nullptr ? private_io->ready_fd() : -1,
      kIdleWait};
  int drain_batches = kDrainBatches;
  for (;;) {
    const bool stopping = worker.stop.load(std::memory_order_acquire);
    // Private datagrams first: a response or CACHE-UPDATE that just
    // arrived can turn pending queries into cache hits within the same
    // iteration.  Its bursts are small (one per in-flight upstream task
    // or push), so one receive takes a whole burst.
    const std::size_t private_served =
        private_io != nullptr
            ? private_io->receive(private_io->batch_slots(), serve_private)
            : 0;
    // Sleep only when nothing else is pending: the group receive then
    // waits on its socket, the private socket and the wake eventfd.
    const bool may_wait =
        !stopping && private_served == 0 && worker.commands.empty();
    const std::size_t served = worker.io->receive(
        config_.batch_size, serve, may_wait ? &idle : nullptr);
    if (may_wait && served == 0) worker.wake.clear();
    flush();
    worker.commands.drain(commands);
    for (auto& command : commands) command();
    // Advance the event loop to wall time: retransmission timers, lease
    // expiry and renegotiation fire here, on the owning thread.
    worker.loop.run_until(now_us());
    // Command- and timer-driven sends batch within their iteration too.
    flush();
    // After stop(): answer what is still queued on the sockets, then exit.
    if (stopping && ((private_served == 0 && served == 0 &&
                      worker.commands.empty()) ||
                     --drain_batches == 0)) {
      break;
    }
  }
  if (on_exit_) on_exit_(worker);
  flush();
  // Post-stop inspection sends go direct.
  worker.shim.batching = false;
  worker.private_shim.batching = false;
}

void WorkerPool::stop() {
  if (!running_.exchange(false)) return;
  for (auto& worker : workers_) {
    worker->stop.store(true, std::memory_order_release);
    worker->wake.wake();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void WorkerPool::run_on_worker(int index, const std::function<void()>& fn) {
  if (!running_.load()) {
    fn();
    return;
  }
  std::promise<void> done;
  auto finished = done.get_future();
  worker(index).commands.push([&fn, &done] {
    fn();
    done.set_value();
  });
  finished.wait();
}

metrics::Snapshot WorkerPool::metrics() {
  metrics::Snapshot merged;
  merged.timestamp_us = now_us();
  for (auto& worker : workers_) {
    metrics::Snapshot shard;
    run_on_worker(worker->index, [this, &worker, &shard] {
      shard = worker->registry.snapshot(now_us());
    });
    if (worker->index == 0) shard.timestamp_us = merged.timestamp_us;
    merged.merge(shard);
  }
  return merged;
}

}  // namespace dnscup::runtime
