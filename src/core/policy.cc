#include "core/policy.h"

#include <algorithm>

namespace dnscup::core {

GrantDecision AlwaysGrantPolicy::decide(const dns::Name& name,
                                        dns::RRType type,
                                        const net::Endpoint& holder,
                                        double reported_rate,
                                        net::SimTime now) {
  (void)holder;
  (void)reported_rate;
  (void)now;
  const net::Duration length = max_lease_(name, type);
  if (length <= 0) return {};
  return {true, length};
}

GrantDecision PlannerGrantPolicy::decide(const dns::Name& name,
                                         dns::RRType type,
                                         const net::Endpoint& holder,
                                         double reported_rate,
                                         net::SimTime now) {
  (void)now;
  const net::Duration max_lease = max_lease_(name, type);
  if (max_lease <= 0 || reported_rate <= 0.0) return {};
  // Probe before observing: the answer reflects the plan as of query
  // arrival, so a pair's first-ever query is deterministically denied
  // however fast the planner thread drains the observation just queued.
  const LeaseAssignmentSource::Assignment a =
      planner_->assignment(holder, name, type);
  planner_->observe(holder, name, type, reported_rate,
                    net::to_seconds(max_lease));
  if (!a.planned || a.lease_s <= 0.0) return {};
  return {true, std::min(max_lease, net::from_seconds(a.lease_s))};
}

}  // namespace dnscup::core
