#include "planner/incremental_plan.h"

#include <limits>

#include "core/lease_math.h"
#include "util/assert.h"

namespace dnscup::planner {

namespace {

constexpr uint32_t kNoId = std::numeric_limits<uint32_t>::max();

/// Per-update bound on the deprivation sweep (entries examined); keeps a
/// single update O(log n) while replan() mops up whatever the bounded
/// sweep could not reach.
constexpr int kSweepSteps = 32;

void mark(std::vector<uint32_t>* dirty, uint32_t id) {
  if (dirty != nullptr && id != kNoId) dirty->push_back(id);
}

/// The entry for `id`, growing `entries` up to it on first use.
template <typename Entry>
Entry& entry_for(std::vector<Entry>& entries, std::size_t max_ids,
                 uint32_t id) {
  DNSCUP_ASSERT(id < max_ids);
  if (id >= entries.size()) entries.resize(std::size_t{id} + 1);
  return entries[id];
}

}  // namespace

// ---------------------------------------------------------------------------
// IncrementalSlp

IncrementalSlp::IncrementalSlp(std::size_t max_ids, double storage_budget)
    : max_ids_(max_ids), budget_(storage_budget) {
  DNSCUP_ASSERT(storage_budget >= 0.0);
  frontier_ = order_.end();
}

uint32_t IncrementalSlp::boundary_id() const {
  return frontier_ == order_.end() ? kNoId : frontier_->id;
}

void IncrementalSlp::update(uint32_t id, double rate, double max_lease,
                            std::vector<uint32_t>* dirty) {
  Entry& e = entry_for(entries_, max_ids_, id);
  // The boundary's truncated length depends on the used-storage total, so
  // it is dirty whenever anything changes.
  mark(dirty, boundary_id());
  mark(dirty, id);

  if (e.present) {
    auto it = order_.find(OrderKey{e.rate, id});
    DNSCUP_ASSERT(it != order_.end());
    if (e.granted) {
      used_ -= core::lease_probability(e.max_lease, e.rate);
      e.granted = false;
      --granted_;
    }
    if (it == frontier_) {
      frontier_ = order_.erase(it);
    } else {
      order_.erase(it);
    }
    e.present = false;
  }

  if (rate > 0.0 && max_lease > 0.0) {
    e.rate = rate;
    e.max_lease = max_lease;
    e.present = true;
    auto [it, inserted] = order_.insert(OrderKey{rate, id});
    DNSCUP_ASSERT(inserted);
    // Landing inside [begin, frontier_) makes the new entry part of the
    // granted prefix positionally; grant it and let fix_frontier retreat
    // if that overshoots the budget.
    if (frontier_ == order_.end() || Cmp{}(*it, *frontier_)) {
      e.granted = true;
      ++granted_;
      used_ += core::lease_probability(max_lease, rate);
    }
  }

  fix_frontier(dirty);
  mark(dirty, boundary_id());
}

void IncrementalSlp::fix_frontier(std::vector<uint32_t>* dirty) {
  // Retreat: shed the prefix tail (smallest λ granted) while over budget.
  while (used_ > budget_ && frontier_ != order_.begin()) {
    --frontier_;
    Entry& e = entries_[frontier_->id];
    e.granted = false;
    --granted_;
    used_ -= core::lease_probability(e.max_lease, e.rate);
    mark(dirty, frontier_->id);
  }
  // Advance: grant full leases while they fit — the batch greedy's
  // `used + full <= budget` admission, applied from the frontier on.
  while (frontier_ != order_.end()) {
    Entry& e = entries_[frontier_->id];
    const double p = core::lease_probability(e.max_lease, e.rate);
    if (used_ + p > budget_) break;
    e.granted = true;
    ++granted_;
    used_ += p;
    mark(dirty, frontier_->id);
    ++frontier_;
  }
  // Truncate the boundary onto the remaining budget (batch's last-grant
  // truncation).  remaining < P(L, λ) < 1 because the advance loop
  // stopped here.
  trunc_len_ = 0.0;
  if (frontier_ != order_.end()) {
    const double remaining = budget_ - used_;
    if (remaining > 0.0) {
      trunc_len_ =
          core::lease_length_for_probability(remaining, frontier_->rate);
    }
  }
}

double IncrementalSlp::lease_for(uint32_t id) const {
  if (id >= entries_.size()) return 0.0;
  const Entry& e = entries_[id];
  if (!e.present) return 0.0;
  if (e.granted) return e.max_lease;
  if (frontier_ != order_.end() && frontier_->id == id) return trunc_len_;
  return 0.0;
}

void IncrementalSlp::set_budget(double budget,
                                std::vector<uint32_t>* dirty) {
  DNSCUP_ASSERT(budget >= 0.0);
  mark(dirty, boundary_id());
  budget_ = budget;
  fix_frontier(dirty);
  mark(dirty, boundary_id());
}

std::vector<core::DemandEntry> IncrementalSlp::export_demands(
    std::vector<uint32_t>* ids) const {
  std::vector<core::DemandEntry> demands;
  demands.reserve(order_.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(order_.size());
  }
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.present) continue;
    demands.push_back(core::DemandEntry{id, 0, e.rate, e.max_lease});
    if (ids != nullptr) ids->push_back(id);
  }
  return demands;
}

void IncrementalSlp::replan() {
  std::vector<uint32_t> ids;
  const auto demands = export_demands(&ids);
  const core::LeasePlan plan =
      core::plan_storage_constrained(demands, budget_);

  used_ = 0.0;
  granted_ = 0;
  uint32_t truncated = kNoId;
  double truncated_len = 0.0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    Entry& e = entries_[ids[k]];
    const double len = plan.lengths[k];
    e.granted = len > 0.0 && len == e.max_lease;
    if (e.granted) {
      used_ += core::lease_probability(e.max_lease, e.rate);
      ++granted_;
    } else if (len > 0.0) {
      truncated = ids[k];
      truncated_len = len;
    }
  }
  // The batch truncates exactly the first not-fully-granted entry in its
  // sort order, which is this set's order — so the walk lands on it.
  frontier_ = order_.begin();
  while (frontier_ != order_.end() && entries_[frontier_->id].granted) {
    ++frontier_;
  }
  trunc_len_ = 0.0;
  if (frontier_ != order_.end() && frontier_->id == truncated) {
    trunc_len_ = truncated_len;
  }
}

// ---------------------------------------------------------------------------
// IncrementalDeprivation

IncrementalDeprivation::IncrementalDeprivation(std::size_t max_ids,
                                               double message_budget)
    : max_ids_(max_ids), budget_(message_budget) {
  DNSCUP_ASSERT(message_budget >= 0.0);
}

void IncrementalDeprivation::update(uint32_t id, double rate,
                                    double max_lease,
                                    std::vector<uint32_t>* dirty) {
  Entry& e = entry_for(entries_, max_ids_, id);
  if (e.present) {
    traffic_ -= e.deprived
                    ? e.rate
                    : core::renewal_rate(e.max_lease, e.rate);
    order_.erase(OrderKey{e.rate, id});
    if (e.deprived) deprived_.erase(OrderKey{e.rate, id});
    e.present = false;
    e.deprived = false;
    mark(dirty, id);
  }
  if (rate > 0.0 && max_lease > 0.0) {
    e.rate = rate;
    e.max_lease = max_lease;
    e.present = true;
    order_.insert(OrderKey{rate, id});
    // Leased is the traffic minimum for any entry; start there.
    traffic_ += core::renewal_rate(max_lease, rate);
    mark(dirty, id);
    try_deprive(id, dirty);
  }
  rebalance(dirty);
}

void IncrementalDeprivation::try_deprive(uint32_t id,
                                         std::vector<uint32_t>* dirty) {
  Entry& e = entries_[id];
  if (!e.present || e.deprived) return;
  const double added =
      e.rate - core::renewal_rate(e.max_lease, e.rate);
  if (traffic_ + added > budget_) return;
  e.deprived = true;
  traffic_ += added;
  deprived_.insert(OrderKey{e.rate, id});
  mark(dirty, id);
}

void IncrementalDeprivation::rebalance(std::vector<uint32_t>* dirty) {
  // Over budget (a deprived pair's rate grew, or the budget shrank):
  // re-grant leases largest-λ-deprived first — undoing the greedy's
  // deprivations in reverse priority.  When deprived_ drains and traffic
  // still exceeds budget, the plan is all-leased: the minimal achievable
  // traffic, matching plan_comm_constrained's infeasible-budget answer.
  while (traffic_ > budget_ && !deprived_.empty()) {
    auto it = std::prev(deprived_.end());
    Entry& e = entries_[it->id];
    traffic_ -= e.rate;
    traffic_ += core::renewal_rate(e.max_lease, e.rate);
    e.deprived = false;
    mark(dirty, it->id);
    deprived_.erase(it);
  }
  // Bounded deprivation sweep from the smallest-λ end; whatever it
  // cannot reach this round, replan() recovers.
  int steps = kSweepSteps;
  for (auto it = order_.begin(); it != order_.end() && steps > 0;
       ++it, --steps) {
    Entry& e = entries_[it->id];
    if (e.deprived) continue;
    const double added =
        e.rate - core::renewal_rate(e.max_lease, e.rate);
    if (traffic_ + added > budget_) continue;
    e.deprived = true;
    traffic_ += added;
    deprived_.insert(OrderKey{it->rate, it->id});
    mark(dirty, it->id);
  }
}

double IncrementalDeprivation::lease_for(uint32_t id) const {
  if (id >= entries_.size()) return 0.0;
  const Entry& e = entries_[id];
  if (!e.present || e.deprived) return 0.0;
  return e.max_lease;
}

void IncrementalDeprivation::set_budget(double budget,
                                        std::vector<uint32_t>* dirty) {
  DNSCUP_ASSERT(budget >= 0.0);
  budget_ = budget;
  rebalance(dirty);
}

std::vector<core::DemandEntry> IncrementalDeprivation::export_demands(
    std::vector<uint32_t>* ids) const {
  std::vector<core::DemandEntry> demands;
  demands.reserve(order_.size());
  if (ids != nullptr) {
    ids->clear();
    ids->reserve(order_.size());
  }
  for (uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.present) continue;
    demands.push_back(core::DemandEntry{id, 0, e.rate, e.max_lease});
    if (ids != nullptr) ids->push_back(id);
  }
  return demands;
}

void IncrementalDeprivation::replan() {
  std::vector<uint32_t> ids;
  const auto demands = export_demands(&ids);
  const core::LeasePlan plan = core::plan_comm_constrained(demands, budget_);

  deprived_.clear();
  traffic_ = 0.0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    Entry& e = entries_[ids[k]];
    e.deprived = plan.lengths[k] <= 0.0;
    if (e.deprived) {
      traffic_ += e.rate;
      deprived_.insert(OrderKey{e.rate, ids[k]});
    } else {
      traffic_ += core::renewal_rate(e.max_lease, e.rate);
    }
  }
}

}  // namespace dnscup::planner
