#include <gtest/gtest.h>

#include <vector>

#include "core/policy.h"

namespace dnscup::core {
namespace {

using dns::Name;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }

const net::Endpoint kCache{net::make_ip(10, 0, 2, 1), 53};

MaxLeaseFn constant_lease(net::Duration d) {
  return [d](const Name&, RRType) { return d; };
}

TEST(AlwaysGrant, GrantsMaxLease) {
  AlwaysGrantPolicy policy(constant_lease(net::hours(2)));
  const auto decision = policy.decide(mk("x.com"), RRType::kA, kCache, 0.5, 0);
  EXPECT_TRUE(decision.grant);
  EXPECT_EQ(decision.length, net::hours(2));
}

TEST(AlwaysGrant, CategoryAwareLengths) {
  // The paper's per-category maxima: regular 6 d, CDN 200 s, Dyn 6000 s.
  AlwaysGrantPolicy policy([](const Name& name, RRType) -> net::Duration {
    if (name.label(0) == "cdn") return net::seconds(200);
    if (name.label(0) == "dyn") return net::seconds(6000);
    return net::days(6);
  });
  EXPECT_EQ(policy.decide(mk("cdn.x.com"), RRType::kA, kCache, 1, 0).length,
            net::seconds(200));
  EXPECT_EQ(policy.decide(mk("dyn.x.com"), RRType::kA, kCache, 1, 0).length,
            net::seconds(6000));
  EXPECT_EQ(policy.decide(mk("www.x.com"), RRType::kA, kCache, 1, 0).length,
            net::days(6));
}

TEST(AlwaysGrant, ZeroMaxLeaseMeansNoGrant) {
  AlwaysGrantPolicy policy(constant_lease(0));
  EXPECT_FALSE(policy.decide(mk("x.com"), RRType::kA, kCache, 1, 0).grant);
}

TEST(NeverGrant, NeverGrants) {
  NeverGrantPolicy policy;
  EXPECT_FALSE(policy.decide(mk("x.com"), RRType::kA, kCache, 100, 0).grant);
}

// ---- PlannerGrantPolicy ----------------------------------------------------

/// Scripted planner seam: answers every probe with `next` and records the
/// probes and observations it sees.
class FakePlanner final : public LeaseAssignmentSource {
 public:
  struct Observation {
    double rate_qps;
    double max_lease_s;
  };

  Assignment assignment(const net::Endpoint&, const Name&, RRType) override {
    ++probes;
    return next;
  }
  void observe(const net::Endpoint&, const Name&, RRType, double rate_qps,
               double max_lease_s) override {
    observations.push_back({rate_qps, max_lease_s});
  }

  Assignment next;
  int probes = 0;
  std::vector<Observation> observations;
};

class PlannerPolicyTest : public ::testing::Test {
 protected:
  GrantDecision decide(double rate) {
    return policy_.decide(mk("x.com"), RRType::kA, kCache, rate, 0);
  }

  FakePlanner planner_;
  PlannerGrantPolicy policy_{constant_lease(net::seconds(1000)), &planner_};
};

TEST_F(PlannerPolicyTest, UnplannedPairIsDeniedAndObservedOnce) {
  EXPECT_FALSE(decide(2.0).grant);
  EXPECT_EQ(planner_.probes, 1);
  ASSERT_EQ(planner_.observations.size(), 1u);
  EXPECT_DOUBLE_EQ(planner_.observations[0].rate_qps, 2.0);
  EXPECT_DOUBLE_EQ(planner_.observations[0].max_lease_s, 1000.0);
}

TEST_F(PlannerPolicyTest, PlannedZeroIsDenied) {
  // The plan deprived the pair: plain TTL, but demand is still observed.
  planner_.next = {true, 0.0};
  EXPECT_FALSE(decide(2.0).grant);
  EXPECT_EQ(planner_.observations.size(), 1u);
}

TEST_F(PlannerPolicyTest, PlannedLengthIsGranted) {
  planner_.next = {true, 300.0};
  const auto d = decide(2.0);
  EXPECT_TRUE(d.grant);
  EXPECT_EQ(d.length, net::seconds(300));
}

TEST_F(PlannerPolicyTest, PlannedAboveMaxLeaseIsCapped) {
  planner_.next = {true, 5000.0};
  const auto d = decide(2.0);
  EXPECT_TRUE(d.grant);
  EXPECT_EQ(d.length, net::seconds(1000));
}

TEST_F(PlannerPolicyTest, RrcZeroIsDeniedWithoutObservation) {
  // RRC 0 reports no demand: nothing to plan for, so nothing observed.
  planner_.next = {true, 300.0};
  EXPECT_FALSE(decide(0.0).grant);
  EXPECT_TRUE(planner_.observations.empty());
}

TEST(PlannerPolicy, ZeroMaxLeaseDeniesWithoutProbe) {
  FakePlanner planner;
  planner.next = {true, 300.0};
  PlannerGrantPolicy policy(constant_lease(0), &planner);
  EXPECT_FALSE(policy.decide(mk("x.com"), RRType::kA, kCache, 2.0, 0).grant);
  EXPECT_EQ(planner.probes, 0);
  EXPECT_TRUE(planner.observations.empty());
}

}  // namespace
}  // namespace dnscup::core
