// Online lease-grant policies.
//
// A GrantPolicy sees each EXT query's name, the requesting cache and the
// RRC-reported query rate, and answers grant/deny plus a lease length.
// Each authority configuration runs exactly one:
//
//   no planner  AlwaysGrantPolicy — every EXT query gets the record's
//               maximal lease (the paper's fixed-lease baseline);
//   planner     PlannerGrantPolicy — the online lease planner's
//               assignment (paper §4.2 run live, src/planner).
//
// The authority's lease-storage bound (DnscupAuthority::Config::
// storage_budget) is applied after the policy, not inside it.
#pragma once

#include <functional>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/endpoint.h"
#include "net/time.h"

namespace dnscup::core {

struct GrantDecision {
  bool grant = false;
  net::Duration length = 0;
};

class GrantPolicy {
 public:
  virtual ~GrantPolicy() = default;

  /// `reported_rate` is the cache's RRC in queries/second (0 when the
  /// querier reported none).
  virtual GrantDecision decide(const dns::Name& name, dns::RRType type,
                               const net::Endpoint& holder,
                               double reported_rate, net::SimTime now) = 0;
};

/// Looks up the maximal lease length L_i for a record — per the paper:
/// 6 days for regular domains, 200 s for CDN, 6000 s for Dyn domains.
using MaxLeaseFn = std::function<net::Duration(const dns::Name&, dns::RRType)>;

/// Seam between the authority and an online lease planner (src/planner).
///
/// The planner runs on its own thread off the query hot path; a grant
/// policy talks to it through two calls, made only by the one worker
/// thread that owns the source: `observe` feeds a demand sample (a
/// non-blocking enqueue into the planner's per-worker MPSC queue —
/// overflow drops and is counted), and `assignment` probes the
/// planner's published plan (a read of the demand table that takes no
/// lock, allocates nothing and never waits).  The planner forgets a
/// pair whose leases have all lapsed, so a pair can read as unplanned
/// again.  Core deliberately only knows this interface, never the
/// planner's types, so the dependency points planner → core.
class LeaseAssignmentSource {
 public:
  virtual ~LeaseAssignmentSource() = default;

  struct Assignment {
    /// False until the planner has processed an observation for the
    /// pair, and again once it has reclaimed the pair.
    bool planned = false;
    /// Assigned lease length in seconds; 0 means the optimizer deprived
    /// the pair (deny, cache falls back to TTL polling).
    double lease_s = 0.0;
  };

  virtual Assignment assignment(const net::Endpoint& holder,
                                const dns::Name& name, dns::RRType type) = 0;

  /// `rate_qps` is the pair's RRC-reported demand; `max_lease_s` is L_i
  /// in seconds.
  virtual void observe(const net::Endpoint& holder, const dns::Name& name,
                       dns::RRType type, double rate_qps,
                       double max_lease_s) = 0;
};

/// Grants every EXT query the record's maximal lease (the fixed-lease
/// baseline when MaxLeaseFn is constant).
class AlwaysGrantPolicy final : public GrantPolicy {
 public:
  explicit AlwaysGrantPolicy(MaxLeaseFn max_lease)
      : max_lease_(std::move(max_lease)) {}

  GrantDecision decide(const dns::Name& name, dns::RRType type,
                       const net::Endpoint& holder, double reported_rate,
                       net::SimTime now) override;

 private:
  MaxLeaseFn max_lease_;
};

/// Never grants: DNScup disabled, pure TTL behaviour.
class NeverGrantPolicy final : public GrantPolicy {
 public:
  GrantDecision decide(const dns::Name&, dns::RRType, const net::Endpoint&,
                       double, net::SimTime) override {
    return {};
  }
};

/// Grants what the online lease planner assigned (paper §4.2 run live).
/// Every EXT decision with a positive RRC feeds the planner one
/// observation, and the granted length is the planner's assignment for
/// the pair, capped at the record's maximal lease.  The pair is denied —
/// plain TTL semantics — while the planner has not planned it yet, when
/// the plan deprived it (assigned length 0), and when the cache reported
/// RRC 0 (no demand to plan for).
class PlannerGrantPolicy final : public GrantPolicy {
 public:
  PlannerGrantPolicy(MaxLeaseFn max_lease, LeaseAssignmentSource* planner)
      : max_lease_(std::move(max_lease)), planner_(planner) {}

  GrantDecision decide(const dns::Name& name, dns::RRType type,
                       const net::Endpoint& holder, double reported_rate,
                       net::SimTime now) override;

 private:
  MaxLeaseFn max_lease_;
  LeaseAssignmentSource* planner_;
};

}  // namespace dnscup::core
