// Ablation: how close does the *online* lease planner get to the
// *offline* storage-constrained optimum the paper evaluates?
//
// The offline greedy (§4.2.1) sees the whole rate table in advance; the
// live authority learns each (cache, record) pair's rate from the RRC of
// the pair's queries.  We drive the shipping PlannerGrantPolicy — probe,
// observe, deny until planned, grant min(planned, max lease) — with
// Poisson query streams from caches with Zipf rates, and compare the
// achieved (storage, message-rate) points against the offline plan at the
// same storage budget.  Its planner applies each observation
// synchronously through the pieces the planner thread runs (EWMA
// forecast, incremental SLP), so the replay is deterministic.
//
// The bench is a gate: it exits non-zero when, at any budget, the online
// message rate is more than 1% from the offline optimum or mean live
// leases exceed the budget by more than 1%.
#include <cmath>
#include <cstdio>
#include <queue>
#include <string>

#include "bench_util.h"
#include "core/dynamic_lease.h"
#include "core/policy.h"
#include "core/track_file.h"
#include "planner/incremental_plan.h"
#include "planner/lambda_estimator.h"
#include "util/rng.h"

namespace {

using namespace dnscup;

constexpr double kTolerance = 0.01;

/// Pair names are "p<index>.example.com"; the index addresses demands[].
std::size_t pair_index(const dns::Name& name) {
  return std::stoul(name.label(0).substr(1));
}

/// The planner thread's per-observation work, run in the caller's
/// thread: fold the reported rate into the pair's EWMA forecast, then
/// repair the storage-constrained plan around the pair.
class SyncPlanner final : public core::LeaseAssignmentSource {
 public:
  SyncPlanner(std::size_t pairs, double budget)
      : plan_(pairs, budget), estimates_(pairs) {}

  Assignment assignment(const net::Endpoint&, const dns::Name& name,
                        dns::RRType) override {
    const std::size_t id = pair_index(name);
    if (!estimates_[id].seeded()) return {};
    return {true, plan_.lease_for(static_cast<uint32_t>(id))};
  }

  void observe(const net::Endpoint&, const dns::Name& name, dns::RRType,
               double rate_qps, double max_lease_s) override {
    const std::size_t id = pair_index(name);
    const double forecast = estimates_[id].update(rate_qps);
    plan_.update(static_cast<uint32_t>(id), forecast, max_lease_s, &dirty_);
  }

 private:
  planner::IncrementalSlp plan_;
  std::vector<planner::LambdaEstimator> estimates_;
  std::vector<uint32_t> dirty_;
};

struct OnlineResult {
  double mean_live = 0.0;
  double message_rate = 0.0;
  double query_rate = 0.0;
};

/// Replays Poisson arrivals for every demand pair against the policy.
/// A query reaching the authority = one message (renewal or poll); the
/// grant decision uses the pair's true rate as its RRC.
OnlineResult run_online(const std::vector<core::DemandEntry>& demands,
                        std::size_t budget, double duration_s,
                        uint64_t seed) {
  core::TrackFile track_file;
  SyncPlanner planner(demands.size(), static_cast<double>(budget));
  core::PlannerGrantPolicy policy(
      [&demands](const dns::Name& name, dns::RRType) {
        return net::from_seconds(demands[pair_index(name)].max_lease);
      },
      &planner);

  // Event queue of (next arrival, pair index).
  util::Rng rng(seed);
  std::vector<util::Rng> streams;
  std::priority_queue<std::pair<double, std::size_t>,
                      std::vector<std::pair<double, std::size_t>>,
                      std::greater<>>
      arrivals;
  std::vector<dns::Name> names;
  std::vector<net::Endpoint> holders;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    streams.push_back(rng.fork());
    arrivals.push({streams[i].exponential(demands[i].rate), i});
    std::string label = "p";
    label += std::to_string(i);
    names.push_back(dns::Name::from_labels({label, "example", "com"}));
    holders.push_back({net::make_ip(10, 1, static_cast<uint8_t>(
                                               demands[i].cache / 250),
                                    static_cast<uint8_t>(demands[i].cache %
                                                         250)),
                       53});
  }

  uint64_t queries = 0;
  uint64_t messages = 0;
  double live_integral = 0.0;
  double last_t = 0.0;
  while (!arrivals.empty()) {
    auto [t, i] = arrivals.top();
    arrivals.pop();
    if (t >= duration_s) continue;  // drop; no re-arm past the horizon
    const net::SimTime now = net::from_seconds(t);
    live_integral += track_file.live_count(now) * (t - last_t);
    last_t = t;
    ++queries;
    const core::Lease* lease = track_file.find(holders[i], names[i],
                                               dns::RRType::kA);
    if (lease == nullptr || !lease->valid(now)) {
      // Cache miss (TTL or lease expired): the query reaches the
      // authority and the policy decides on a lease.
      ++messages;
      const auto decision = policy.decide(names[i], dns::RRType::kA,
                                          holders[i], demands[i].rate, now);
      if (decision.grant) {
        track_file.grant(holders[i], names[i], dns::RRType::kA, now,
                         decision.length);
      }
    }
    arrivals.push({t + streams[i].exponential(demands[i].rate), i});
  }

  OnlineResult result;
  result.mean_live = live_integral / duration_s;
  result.message_rate = static_cast<double>(messages) / duration_s;
  result.query_rate = static_cast<double>(queries) / duration_s;
  return result;
}

}  // namespace

int main() {
  bench::heading("Ablation: online lease planner vs offline greedy");

  util::Rng rng(77);
  std::vector<core::DemandEntry> demands;
  const util::ZipfDistribution zipf(200, 1.0);
  for (std::size_t i = 0; i < 200; ++i) {
    core::DemandEntry d;
    d.record = i;
    d.cache = i % 3;
    d.rate = 2.0 * zipf.pmf(i) * 200.0 / 10.0;  // spread of rates
    d.max_lease = 600.0;
    demands.push_back(d);
  }

  std::printf("%-10s %-22s %-22s %-12s %-12s\n", "budget",
              "offline (live, msg/s)", "online (live, msg/s)",
              "msg overhead", "live/budget");
  bool ok = true;
  for (std::size_t budget : {10u, 25u, 50u, 100u, 150u}) {
    const auto offline = core::plan_storage_constrained(
        demands, static_cast<double>(budget));
    const auto online = run_online(demands, budget, 20000.0, 42);
    const double overhead =
        (online.message_rate - offline.total_message_rate) /
        offline.total_message_rate;
    const double over_budget =
        online.mean_live / static_cast<double>(budget) - 1.0;
    std::printf("%-10zu %8.1f, %-12.3f %8.1f, %-12.3f %+10.2f%% %+10.2f%%\n",
                budget, offline.total_storage, offline.total_message_rate,
                online.mean_live, online.message_rate, 100.0 * overhead,
                100.0 * over_budget);
    if (std::abs(overhead) > kTolerance || over_budget > kTolerance) {
      std::printf("FAIL: budget %zu is outside the %.0f%% tolerance\n",
                  budget, 100.0 * kTolerance);
      ok = false;
    }
  }
  std::printf(
      "\nthe planner path plans each pair from its reported rate and denies\n"
      "it until planned; it lands on the offline greedy's frontier while\n"
      "holding the budget it cannot plan for in advance.\n");
  return ok ? 0 : 1;
}
