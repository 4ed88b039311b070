// Online lease-planning subsystem (the live form of paper §4.2).
//
// One planner thread owns the sharded demand table and the incremental
// optimizers; worker threads touch the planner through exactly two
// wait-free-for-the-worker paths, so the query hot path never blocks on
// planning:
//
//   observe    worker → planner: a 16-byte Observation enqueued into the
//              worker's own BoundedMpscQueue (try_push — overflow drops
//              and counts, like every other cross-thread feed in the
//              runtime);
//   assignment worker ← planner: a lock-free probe of the demand table's
//              published `planned_bits`, guarded by the worker handle's
//              own hazard slot (demand_table.h).
//
// The planner thread drains all queues, folds each observation into the
// pair's λ estimate (an EWMA, lambda_estimator.h), applies the forecast
// to the incremental optimizer (O(log n) frontier maintenance), and
// publishes the changed assignments.  Every replan_interval it additionally runs
// the full batch planner per shard — the drift backstop that makes the
// published plan byte-for-byte the offline optimizer's output again.
//
// Memory follows the live pairs: the table and the optimizers' per-pair
// storage grow as pairs arrive, and `capacity` is only a ceiling.  A pair
// whose last applied observation is older than its maximal lease is
// reclaimed — it leaves the optimizer, which hands its budget share to
// the next pairs in λ order, and leaves the table, which recycles its id.
// Sweeps run on the replan cadence and when an insert meets the ceiling.
// The rule is safe because a grant is at most the record's maximal lease
// and is made before the observation it enqueues is applied: a pair idle
// that long holds no lease granted on an observed query.  (A lease whose
// observation was dropped on a full queue can outlive the reclaim; its
// track-file tuple still drives the CACHE-UPDATE push, so only the plan's
// budget count is short until that lease expires.)
//
// Budgets are split evenly across planner shards (like the runtime's
// per-worker lease bounds), so shard planning stays independent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/policy.h"
#include "planner/demand_table.h"
#include "planner/incremental_plan.h"
#include "runtime/mpsc_queue.h"
#include "util/metrics.h"

namespace dnscup::planner {

class LeasePlanner {
 public:
  enum class Mode {
    kStorage,  ///< SLP: cap expected live leases (§4.2.1)
    kComm,     ///< deprivation: cap authority-bound traffic (§4.2.2)
  };

  struct Config {
    Mode mode = Mode::kStorage;
    double storage_budget = 100000;  ///< expected live leases (kStorage)
    double message_budget = 1e6;     ///< messages/second (kComm)
    /// Full batch replan cadence (the drift backstop); <= 0 disables.
    net::Duration replan_interval = net::seconds(30);
    int shards = 4;
    /// Ceiling on live pairs, split across shards.  Allocates nothing:
    /// memory follows the pairs actually planned.
    std::size_t capacity = 1 << 21;
    /// Producer count: one observation queue per worker.
    int workers = 1;
    std::size_t queue_capacity = 8192;
    /// Planner-thread wakeup cadence when no observation arrives.
    net::Duration poll_interval = net::milliseconds(20);
  };

  static std::unique_ptr<LeasePlanner> start(Config config);
  ~LeasePlanner();

  void stop();

  /// The worker's seam into the planner (valid for the planner's
  /// lifetime; workers must stop using it before stop() — the runtime
  /// guarantees that by joining workers first).
  core::LeaseAssignmentSource* handle_for_worker(int worker);

  const Config& config() const { return config_; }

  /// Pairs currently in the demand table, across shards.
  std::size_t pairs() const;
  /// Observations the planner thread has applied (test synchronization).
  uint64_t applied() const {
    return applied_.load(std::memory_order_acquire);
  }
  /// Batch replans completed (test synchronization).
  uint64_t replans() const {
    return replans_.load(std::memory_order_acquire);
  }
  /// Forces a full replan on the next planner-thread iteration.
  void replan_now() {
    force_replan_.store(true, std::memory_order_release);
    wake_.wake();
  }

  /// Snapshot of the planner's registry (planner_* instruments).  Safe
  /// against the planner thread: histogram writes and snapshots share a
  /// mutex; counters/gauges are relaxed atomics.
  metrics::Snapshot metrics(int64_t timestamp_us);

 private:
  struct Observation {
    uint64_t key = 0;
    float rate = 0.0f;
    float max_lease_s = 0.0f;
  };

  struct Shard {
    explicit Shard(std::size_t ceiling) : table(ceiling) {}
    DemandShard table;
    std::unique_ptr<IncrementalPlanner> plan;
    /// Lower bound on the earliest lapses_at of the shard's live pairs:
    /// a sweep before it could free nothing.
    net::Duration next_reclaim = std::numeric_limits<net::Duration>::max();
  };

  class WorkerHandle final : public core::LeaseAssignmentSource {
   public:
    WorkerHandle(LeasePlanner* planner,
                 runtime::BoundedMpscQueue<Observation>* queue)
        : planner_(planner), queue_(queue) {}

    Assignment assignment(const net::Endpoint& holder,
                          const dns::Name& name,
                          dns::RRType type) override;
    void observe(const net::Endpoint& holder, const dns::Name& name,
                 dns::RRType type, double rate_qps,
                 double max_lease_s) override;

    const DemandShard::HazardSlot* hazard() const { return &hazard_; }

   private:
    LeasePlanner* planner_;
    runtime::BoundedMpscQueue<Observation>* queue_;
    /// Written by the handle's one worker on every probe; on its own
    /// cache line so two workers' probes never contend.
    alignas(64) DemandShard::HazardSlot hazard_{nullptr};
  };

  explicit LeasePlanner(Config config);

  int shard_of(uint64_t key) const {
    // High bits: the low bits pick the probe start inside the shard.
    return static_cast<int>((key >> 56) % static_cast<uint64_t>(
                                shards_.size()));
  }

  void run();
  void drain_and_apply();
  void apply(const Observation& o, net::Duration now);
  /// Reclaims the shard's pairs whose leases lapsed before `now`;
  /// returns how many.
  std::size_t reclaim(Shard& shard, net::Duration now);
  /// Writes the current assignment for a live `id` into its entry;
  /// returns true when a planned value changed.
  bool publish(Shard& shard, uint32_t id);
  void maybe_replan();
  void refresh_gauges();

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  runtime::WakeSignal wake_;
  std::vector<std::unique_ptr<runtime::BoundedMpscQueue<Observation>>>
      queues_;
  std::vector<std::unique_ptr<WorkerHandle>> handles_;
  std::vector<const DemandShard::HazardSlot*> hazards_;  ///< handles'
  std::deque<Observation> batch_;  ///< drain scratch (planner thread)
  std::vector<uint32_t> dirty_;    ///< update scratch (planner thread)

  metrics::MetricsRegistry registry_;
  metrics::Gauge pairs_gauge_;
  metrics::Gauge capacity_gauge_;
  metrics::Gauge planned_gauge_;
  metrics::Gauge headroom_gauge_;
  metrics::Counter observations_;
  metrics::Counter dropped_;
  metrics::Counter table_full_;
  metrics::Counter reclaimed_;
  metrics::Gauge table_bytes_gauge_;
  metrics::Counter assignments_changed_;
  metrics::HistogramMetric update_latency_us_;
  /// Planner-thread private: sampled-timing phase for update_latency_us_.
  uint64_t timing_sample_ = 0;
  metrics::HistogramMetric replan_latency_us_;
  metrics::HistogramMetric estimator_abs_error_;
  /// Guards the (single-threaded-by-design) histograms between the
  /// planner thread's adds and metrics() snapshots.
  std::mutex stats_mutex_;

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> replans_{0};
  std::atomic<bool> force_replan_{false};
  std::atomic<bool> stop_{false};
  std::chrono::steady_clock::time_point last_replan_;
  std::thread thread_;
};

}  // namespace dnscup::planner
