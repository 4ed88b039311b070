#include "planner/lease_planner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/assert.h"

namespace dnscup::planner {

namespace {

float planned_from_bits(uint32_t bits) {
  return std::bit_cast<float>(bits);
}

uint32_t bits_from_planned(float lease_s) {
  return std::bit_cast<uint32_t>(lease_s);
}

constexpr net::Duration kNever = std::numeric_limits<net::Duration>::max();

/// The planner's clock for lease lapses.
net::Duration planner_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// An observation's maximal lease in clock units, never short of the
/// record's: the observation carries it rounded to the nearest float, so
/// the next float up bounds it.  Absurd values saturate at a century, so
/// the sum with a clock reading cannot overflow.
net::Duration lease_span(float max_lease_s) {
  constexpr double kCentury = 100.0 * 365 * 86400;
  const double s =
      std::nextafter(max_lease_s, std::numeric_limits<float>::max());
  if (!(s > 0.0)) return 0;  // also NaN
  return static_cast<net::Duration>(std::ceil(std::min(s, kCentury) * 1e6));
}

}  // namespace

LeasePlanner::LeasePlanner(Config config) : config_(config) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.workers < 1) config_.workers = 1;
  if (config_.capacity < 1024) config_.capacity = 1024;

  const std::size_t per_shard =
      (config_.capacity + config_.shards - 1) / config_.shards;
  const double budget = config_.mode == Mode::kStorage
                            ? config_.storage_budget
                            : config_.message_budget;
  const double shard_budget = budget / config_.shards;
  shards_.reserve(config_.shards);
  for (int s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>(per_shard);
    const std::size_t ids = shard->table.ceiling();
    if (config_.mode == Mode::kStorage) {
      shard->plan = std::make_unique<IncrementalSlp>(ids, shard_budget);
    } else {
      shard->plan =
          std::make_unique<IncrementalDeprivation>(ids, shard_budget);
    }
    shards_.push_back(std::move(shard));
  }

  for (int w = 0; w < config_.workers; ++w) {
    queues_.push_back(std::make_unique<runtime::BoundedMpscQueue<Observation>>(
        config_.queue_capacity, &wake_));
    handles_.push_back(
        std::make_unique<WorkerHandle>(this, queues_.back().get()));
    hazards_.push_back(handles_.back()->hazard());
  }

  pairs_gauge_ = registry_.gauge("planner_pairs");
  capacity_gauge_ = registry_.gauge("planner_capacity");
  std::size_t ceiling = 0;
  for (const auto& shard : shards_) ceiling += shard->table.ceiling();
  capacity_gauge_.set(static_cast<double>(ceiling));
  table_bytes_gauge_ = registry_.gauge("planner_table_bytes");
  planned_gauge_ = registry_.gauge("planner_granted_pairs");
  headroom_gauge_ = registry_.gauge("planner_budget_headroom");
  headroom_gauge_.set(budget);
  observations_ = registry_.counter("planner_observations");
  dropped_ = registry_.counter("planner_observations_dropped");
  table_full_ = registry_.counter("planner_table_full");
  reclaimed_ = registry_.counter("planner_reclaimed");
  assignments_changed_ = registry_.counter("planner_assignments_changed");
  update_latency_us_ = registry_.histogram("planner_update_latency_us");
  replan_latency_us_ = registry_.histogram("planner_replan_latency_us");
  estimator_abs_error_ = registry_.histogram("planner_estimator_abs_error");
}

std::unique_ptr<LeasePlanner> LeasePlanner::start(Config config) {
  auto planner = std::unique_ptr<LeasePlanner>(new LeasePlanner(config));
  planner->last_replan_ = std::chrono::steady_clock::now();
  planner->thread_ = std::thread([p = planner.get()] { p->run(); });
  return planner;
}

LeasePlanner::~LeasePlanner() { stop(); }

void LeasePlanner::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  wake_.wake();
  if (thread_.joinable()) thread_.join();
  // The workers have stopped probing (the runtime joins them first), so
  // no hazard slot can hold a retired index any more.
  for (auto& shard : shards_) shard->table.collect({});
}

core::LeaseAssignmentSource* LeasePlanner::handle_for_worker(int worker) {
  DNSCUP_ASSERT(worker >= 0 &&
                worker < static_cast<int>(handles_.size()));
  return handles_[static_cast<std::size_t>(worker)].get();
}

std::size_t LeasePlanner::pairs() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->table.size();
  return total;
}

core::LeaseAssignmentSource::Assignment
LeasePlanner::WorkerHandle::assignment(const net::Endpoint& holder,
                                       const dns::Name& name,
                                       dns::RRType type) {
  const uint64_t key = pair_key(holder, name, type);
  const Shard& shard =
      *planner_->shards_[static_cast<std::size_t>(planner_->shard_of(key))];
  const uint32_t bits = shard.table.find(key, hazard_);
  if (bits == kUnplannedBits) return {};
  return {true, static_cast<double>(planned_from_bits(bits))};
}

void LeasePlanner::WorkerHandle::observe(const net::Endpoint& holder,
                                         const dns::Name& name,
                                         dns::RRType type, double rate_qps,
                                         double max_lease_s) {
  Observation o;
  o.key = pair_key(holder, name, type);
  o.rate = static_cast<float>(rate_qps);
  o.max_lease_s = static_cast<float>(max_lease_s);
  if (queue_->try_push(o)) {
    planner_->observations_.inc();
  } else {
    planner_->dropped_.inc();
  }
}

void LeasePlanner::run() {
  const auto poll = std::chrono::microseconds(
      std::max<net::Duration>(config_.poll_interval, net::milliseconds(1)));
  while (!stop_.load(std::memory_order_acquire)) {
    wake_.wait_for(poll);
    drain_and_apply();
    maybe_replan();
    refresh_gauges();
  }
  // Final drain so tests (and a clean shutdown) never strand queued
  // observations.
  drain_and_apply();
  refresh_gauges();
}

void LeasePlanner::drain_and_apply() {
  std::size_t applied_this_round = 0;
  for (auto& queue : queues_) {
    queue->drain(batch_);
    if (batch_.empty()) continue;
    // Every observation in the batch was enqueued, and so its lease
    // granted, before this reading.
    const net::Duration now = planner_now();
    std::lock_guard lock(stats_mutex_);
    for (const Observation& o : batch_) {
      // Sampled timing (1 in 64): two clock reads per observation would
      // dominate the drain at serve-path observation rates.
      const bool timed = (timing_sample_++ & 63u) == 0;
      const auto t0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      apply(o, now);
      if (timed) {
        const auto dt = std::chrono::steady_clock::now() - t0;
        update_latency_us_.add(
            std::chrono::duration<double, std::micro>(dt).count());
      }
      ++applied_this_round;
    }
  }
  if (applied_this_round > 0) {
    applied_.fetch_add(applied_this_round, std::memory_order_acq_rel);
  }
  for (auto& shard : shards_) shard->table.collect(hazards_);
}

void LeasePlanner::apply(const Observation& o, net::Duration now) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_of(o.key))];
  bool inserted = false;
  uint32_t id = shard.table.upsert(o.key, &inserted);
  if (id == DemandShard::kNoPair && reclaim(shard, now) > 0) {
    id = shard.table.upsert(o.key, &inserted);
  }
  if (id == DemandShard::kNoPair) {
    table_full_.inc();
    return;
  }
  DemandShard::Pair& pair = shard.table.pair(id);
  if (!inserted && pair.est.seeded()) {
    estimator_abs_error_.add(
        std::abs(pair.est.forecast() - static_cast<double>(o.rate)));
  }
  // Never earlier than before: a lease granted under a longer maximal
  // lease may still be live.
  pair.lapses_at =
      std::max(pair.lapses_at, now + lease_span(o.max_lease_s));
  shard.next_reclaim = std::min(shard.next_reclaim, pair.lapses_at);
  const double forecast = pair.est.update(static_cast<double>(o.rate));

  dirty_.clear();
  // A zero forecast removes the pair from the optimization (lease 0);
  // the pair stays until it is reclaimed, and the next positive
  // observation re-plans it.
  shard.plan->update(id, forecast,
                     static_cast<double>(o.max_lease_s), &dirty_);
  bool self_published = false;
  for (const uint32_t d : dirty_) {
    if (publish(shard, d)) assignments_changed_.inc();
    self_published |= d == id;
  }
  // The pair must read as "planned" from its first processed observation
  // even if its assignment stayed at the default.
  if (!self_published) publish(shard, id);
}

std::size_t LeasePlanner::reclaim(Shard& shard, net::Duration now) {
  if (now <= shard.next_reclaim) return 0;
  std::size_t freed = 0;
  net::Duration next = kNever;
  for (uint32_t id = 0; id < shard.table.id_limit(); ++id) {
    if (!shard.table.live(id)) continue;
    const net::Duration lapses_at = shard.table.pair(id).lapses_at;
    if (lapses_at >= now) {
      next = std::min(next, lapses_at);
      continue;
    }
    // Out of the plan first: its budget share goes to the next pairs in
    // λ order, whose new assignments publish below.
    dirty_.clear();
    shard.plan->update(id, 0.0, 0.0, &dirty_);
    shard.table.erase(id);
    for (const uint32_t d : dirty_) {
      if (publish(shard, d)) assignments_changed_.inc();
    }
    ++freed;
  }
  shard.next_reclaim = next;
  reclaimed_.inc(freed);
  return freed;
}

bool LeasePlanner::publish(Shard& shard, uint32_t id) {
  if (!shard.table.live(id)) return false;
  const uint32_t bits = bits_from_planned(
      static_cast<float>(shard.plan->lease_for(id)));
  const uint32_t prev = shard.table.planned(id);
  if (prev == bits) return false;
  shard.table.set_planned(id, bits);
  return prev != kUnplannedBits;
}

void LeasePlanner::maybe_replan() {
  const bool forced =
      force_replan_.exchange(false, std::memory_order_acq_rel);
  if (config_.replan_interval <= 0 && !forced) return;
  const auto now = std::chrono::steady_clock::now();
  if (!forced &&
      now - last_replan_ <
          std::chrono::microseconds(config_.replan_interval)) {
    return;
  }
  last_replan_ = now;

  const auto t0 = std::chrono::steady_clock::now();
  uint64_t changed = 0;
  {
    std::lock_guard lock(stats_mutex_);
    const net::Duration clock = planner_now();
    for (auto& shard : shards_) {
      // Lapsed pairs leave before the batch plan is rebuilt.
      reclaim(*shard, clock);
      shard->plan->replan();
      // Re-publish every live pair: the batch plan is authoritative for
      // all of them, not just recently-updated ids.
      for (uint32_t id = 0; id < shard->table.id_limit(); ++id) {
        if (publish(*shard, id)) ++changed;
      }
    }
    const auto dt = std::chrono::steady_clock::now() - t0;
    replan_latency_us_.add(
        std::chrono::duration<double, std::micro>(dt).count());
  }
  assignments_changed_.inc(changed);
  replans_.fetch_add(1, std::memory_order_acq_rel);
}

void LeasePlanner::refresh_gauges() {
  pairs_gauge_.set(static_cast<double>(pairs()));
  std::size_t granted = 0;
  std::size_t bytes = 0;
  double headroom = 0.0;
  for (const auto& shard : shards_) {
    granted += shard->plan->granted();
    bytes += shard->table.bytes();
    headroom += shard->plan->budget() - shard->plan->cost_used();
  }
  table_bytes_gauge_.set(static_cast<double>(bytes));
  planned_gauge_.set(static_cast<double>(granted));
  headroom_gauge_.set(headroom);
}

metrics::Snapshot LeasePlanner::metrics(int64_t timestamp_us) {
  std::lock_guard lock(stats_mutex_);
  return registry_.snapshot(timestamp_us);
}

}  // namespace dnscup::planner
