// Incremental versions of the two greedy lease optimizers
// (core/dynamic_lease.h, paper §4.2), maintaining the λ-ordered grant
// frontier under single-pair updates instead of re-sorting the world.
//
// Entries are addressed by a dense id (the demand table's pair id, below
// a bound fixed at construction; per-id storage grows with the largest id
// seen, not with the bound); each planner keeps an ordered set of
// (rate, id) keys using exactly the batch planners' comparison — rate
// order with ascending-id tie-break — so the incremental order is the
// order plan_storage_constrained / plan_comm_constrained would sort the
// same entries into when exported in ascending-id order.  An update is
// an O(log n) set reinsertion plus a frontier walk whose length is the
// number of assignments the update actually flips.
//
//  * IncrementalSlp (storage-constrained, §4.2.1) is *exact*: the greedy
//    grant set is the maximal prefix of the λ-descending order whose full
//    lease storage fits the budget, plus one truncated boundary entry —
//    a prefix invariant that single-pair updates repair locally (retreat
//    while over budget, advance while the next full lease fits).
//
//  * IncrementalDeprivation (communication-constrained, §4.2.2) is an
//    approximation: the batch greedy's skip-and-continue scan is path
//    dependent, so the incremental form deprives what it can locally
//    (the updated entry plus a bounded sweep from the smallest-λ end)
//    and re-grants largest-λ-deprived-first when traffic exceeds budget.
//
// Both expose replan(), which literally runs the batch planner over the
// current entries and adopts its output — the periodic drift backstop:
// immediately after replan() the assignment is byte-for-byte what the
// offline planner computes, which is what the equivalence tests certify.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "core/dynamic_lease.h"

namespace dnscup::planner {

/// Common interface the LeasePlanner drives; implementations below.
class IncrementalPlanner {
 public:
  virtual ~IncrementalPlanner() = default;

  /// Upserts entry `id` with a new forecast rate / maximal lease, fixing
  /// the plan around it.  rate <= 0 or max_lease <= 0 removes the entry.
  /// Every id whose assigned length may have changed (always including
  /// `id` itself and the truncation boundary) is appended to `dirty`.
  virtual void update(uint32_t id, double rate, double max_lease,
                      std::vector<uint32_t>* dirty) = 0;

  /// Assigned lease length in seconds (0 = unleased/deprived or absent).
  virtual double lease_for(uint32_t id) const = 0;

  /// Full batch recompute (sort + greedy) adopting the offline planner's
  /// output verbatim.
  virtual void replan() = 0;

  virtual void set_budget(double budget, std::vector<uint32_t>* dirty) = 0;
  virtual double budget() const = 0;
  /// Consumed budget: storage (expected live leases) for SLP, message
  /// rate for deprivation.
  virtual double cost_used() const = 0;
  virtual std::size_t entries() const = 0;
  /// Entries currently assigned a positive lease.
  virtual std::size_t granted() const = 0;
  /// Present entries in ascending id order, as the batch planners would
  /// receive them (tests and replan share this export).
  virtual std::vector<core::DemandEntry> export_demands(
      std::vector<uint32_t>* ids = nullptr) const = 0;
};

/// Storage-constrained dynamic lease (§4.2.1), incremental and exact.
class IncrementalSlp final : public IncrementalPlanner {
 public:
  /// `max_ids` bounds the id space (the demand table's ceiling); it
  /// allocates nothing.
  IncrementalSlp(std::size_t max_ids, double storage_budget);

  void update(uint32_t id, double rate, double max_lease,
              std::vector<uint32_t>* dirty) override;
  double lease_for(uint32_t id) const override;
  void replan() override;
  void set_budget(double budget, std::vector<uint32_t>* dirty) override;
  double budget() const override { return budget_; }
  double cost_used() const override { return used_; }
  std::size_t entries() const override { return order_.size(); }
  std::size_t granted() const override { return granted_; }
  std::vector<core::DemandEntry> export_demands(
      std::vector<uint32_t>* ids) const override;

 private:
  struct OrderKey {
    double rate;
    uint32_t id;
  };
  /// λ descending, id ascending — plan_storage_constrained's sort order.
  struct Cmp {
    bool operator()(const OrderKey& a, const OrderKey& b) const {
      if (a.rate != b.rate) return a.rate > b.rate;
      return a.id < b.id;
    }
  };
  struct Entry {
    double rate = 0.0;
    double max_lease = 0.0;
    bool present = false;
    bool granted = false;
  };

  uint32_t boundary_id() const;
  /// Restores the maximal-prefix invariant and recomputes the boundary
  /// truncation.
  void fix_frontier(std::vector<uint32_t>* dirty);

  std::size_t max_ids_;
  double budget_;
  double used_ = 0.0;        ///< Σ P over fully granted entries
  double trunc_len_ = 0.0;   ///< boundary entry's truncated length
  std::size_t granted_ = 0;  ///< fully granted count
  std::vector<Entry> entries_;  ///< by id, up to the largest id updated
  std::set<OrderKey, Cmp> order_;
  /// First not-fully-granted entry; the granted set is exactly
  /// [order_.begin(), frontier_).
  std::set<OrderKey, Cmp>::iterator frontier_;
};

/// Communication-constrained dynamic lease (§4.2.2), incremental
/// approximation with an exact replan() backstop.
class IncrementalDeprivation final : public IncrementalPlanner {
 public:
  IncrementalDeprivation(std::size_t max_ids, double message_budget);

  void update(uint32_t id, double rate, double max_lease,
              std::vector<uint32_t>* dirty) override;
  double lease_for(uint32_t id) const override;
  void replan() override;
  void set_budget(double budget, std::vector<uint32_t>* dirty) override;
  double budget() const override { return budget_; }
  double cost_used() const override { return traffic_; }
  std::size_t entries() const override { return order_.size(); }
  std::size_t granted() const override {
    return order_.size() - deprived_.size();
  }
  std::vector<core::DemandEntry> export_demands(
      std::vector<uint32_t>* ids) const override;

 private:
  struct OrderKey {
    double rate;
    uint32_t id;
  };
  /// λ ascending, id ascending — plan_comm_constrained's deprivation
  /// order.
  struct Cmp {
    bool operator()(const OrderKey& a, const OrderKey& b) const {
      if (a.rate != b.rate) return a.rate < b.rate;
      return a.id < b.id;
    }
  };
  struct Entry {
    double rate = 0.0;
    double max_lease = 0.0;
    bool present = false;
    bool deprived = false;
  };

  /// Deprives `id` when the added polling traffic fits the budget.
  void try_deprive(uint32_t id, std::vector<uint32_t>* dirty);
  /// Re-grants largest-λ deprived entries while over budget, then runs a
  /// bounded deprivation sweep from the smallest-λ end.
  void rebalance(std::vector<uint32_t>* dirty);

  std::size_t max_ids_;
  double budget_;
  double traffic_ = 0.0;  ///< Σ renewals (leased) + Σ λ (deprived)
  std::vector<Entry> entries_;  ///< by id, up to the largest id updated
  std::set<OrderKey, Cmp> order_;     ///< all present entries
  std::set<OrderKey, Cmp> deprived_;  ///< the deprived subset
};

}  // namespace dnscup::planner
