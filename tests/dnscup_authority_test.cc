// DnscupAuthority tests: the one grant policy each configuration runs,
// the lease-storage bound applied after it, the expiry sweep that keeps
// the track file (and the bound) free of expired leases, and the
// authority-level occupancy gauges published at construction.
#include "core/dnscup_authority.h"

#include <gtest/gtest.h>

#include <string>

#include "net/sim_network.h"

namespace dnscup::core {
namespace {

using dns::Name;
using dns::RRType;

Name mk(const std::string& text) { return Name::parse(text).value(); }

/// d<i>.example.com, the fixture zone's i-th record.
Name record_name(int i) {
  std::string text = "d";
  text += std::to_string(i);
  text += ".example.com";
  return mk(text);
}

/// Plans every pair at `lease_s`, counting the observations it receives.
class PlanEverything final : public LeaseAssignmentSource {
 public:
  Assignment assignment(const net::Endpoint&, const Name&, RRType) override {
    return {true, lease_s};
  }
  void observe(const net::Endpoint&, const Name&, RRType, double,
               double) override {
    ++observations;
  }

  double lease_s = 1e9;
  int observations = 0;
};

struct Fixture {
  Fixture() {
    dns::SOARdata soa;
    soa.mname = mk("ns1.example.com");
    soa.rname = mk("admin.example.com");
    soa.serial = 1;
    soa.minimum = 60;
    dns::Zone zone = dns::Zone::make(mk("example.com"), soa, 3600,
                                     {mk("ns1.example.com")}, 3600);
    for (int i = 0; i < 8; ++i) {
      zone.add_record(record_name(i), RRType::kA, 300,
                      dns::ARdata{dns::Ipv4{0x0A000000u +
                                            static_cast<uint32_t>(i)}});
    }
    server.add_zone(std::move(zone));
  }

  DnscupAuthority make(DnscupAuthority::Config config) {
    if (config.max_lease == nullptr) {
      config.max_lease = [](const Name&, RRType) { return net::hours(1); };
    }
    config.metrics = &registry;
    return DnscupAuthority(server, loop, std::move(config));
  }

  static net::Endpoint holder(int i) {
    return {net::make_ip(10, 1, 0, static_cast<uint8_t>(i)), 53};
  }

  /// Sends holder `h` an EXT query for d<record>.example.com reporting
  /// 360 queries/hour; returns the LLT the answer carries (0 = no lease).
  uint16_t ext_query(int h, int record) {
    dns::Message query;
    query.id = 7;
    query.flags.ext = true;
    query.questions.push_back(dns::Question{
        record_name(record), RRType::kA, dns::RRClass::kIN, /*rrc=*/360});
    const auto response = server.handle(holder(h), query);
    if (!response.has_value() || response->answers.empty()) {
      ADD_FAILURE() << "no answer for d" << record;
      return 0;
    }
    return response->llt;
  }

  uint64_t pruned() const {
    return registry.snapshot().counter_total("track_file_pruned");
  }

  metrics::MetricsRegistry registry;
  net::EventLoop loop;
  net::SimNetwork network{loop, /*seed=*/1};
  server::AuthServer server{network.bind({net::make_ip(10, 0, 0, 1), 53}),
                            loop};
};

TEST(DnscupAuthorityPolicy, NoPlannerGrantsEveryExtQueryTheMaxLease) {
  Fixture fx;
  DnscupAuthority authority = fx.make({});
  EXPECT_NE(dynamic_cast<AlwaysGrantPolicy*>(&authority.policy()), nullptr);
  EXPECT_EQ(fx.ext_query(1, 0), dns::llt_from_seconds(3600));
}

TEST(DnscupAuthorityPolicy, PlannerGrantsWhatItPlanned) {
  Fixture fx;
  PlanEverything planner;
  planner.lease_s = 600;
  DnscupAuthority::Config config;
  config.planner = &planner;
  DnscupAuthority authority = fx.make(std::move(config));
  EXPECT_NE(dynamic_cast<PlannerGrantPolicy*>(&authority.policy()), nullptr);
  EXPECT_EQ(fx.ext_query(1, 0), dns::llt_from_seconds(600));
  EXPECT_EQ(planner.observations, 1);
}

// ---- lease-storage bound, under both policies ------------------------------

class LeaseBoundTest : public ::testing::TestWithParam<bool> {
 protected:
  DnscupAuthority make(net::Duration max_lease) {
    DnscupAuthority::Config config;
    config.storage_budget = 3;
    config.max_lease = [max_lease](const Name&, RRType) { return max_lease; };
    if (GetParam()) config.planner = &planner_;
    return fx_.make(std::move(config));
  }

  /// Three holders lease d0: the track file is at the bound.
  void fill() {
    for (int h = 1; h <= 3; ++h) ASSERT_GT(fx_.ext_query(h, 0), 0);
  }

  Fixture fx_;
  PlanEverything planner_;
};

TEST_P(LeaseBoundTest, NewPairIsRefusedAtTheBound) {
  DnscupAuthority authority = make(net::hours(1));
  fill();
  EXPECT_EQ(fx_.ext_query(4, 0), 0);  // new holder
  EXPECT_EQ(fx_.ext_query(1, 1), 0);  // known holder, new record
  EXPECT_EQ(authority.track_file().size(), 3u);
  EXPECT_EQ(authority.listener().stats().leases_denied, 2u);
  // The bound is applied after the policy: the planner still saw demand.
  if (GetParam()) {
    EXPECT_EQ(planner_.observations, 5);
  }
}

TEST_P(LeaseBoundTest, RenewalPassesAtTheBound) {
  DnscupAuthority authority = make(net::hours(1));
  fill();
  fx_.loop.run_for(net::seconds(10));
  EXPECT_GT(fx_.ext_query(2, 0), 0);
  EXPECT_EQ(authority.track_file().size(), 3u);
  EXPECT_EQ(authority.track_file().stats().renewals, 1u);
}

TEST_P(LeaseBoundTest, RoomFreesAfterExpiry) {
  DnscupAuthority authority = make(net::seconds(30));
  fill();
  EXPECT_EQ(fx_.ext_query(4, 0), 0);
  // The expiry sweep prunes the three leases without any traffic.
  fx_.loop.run_until(net::seconds(31));
  EXPECT_EQ(authority.track_file().size(), 0u);
  EXPECT_GT(fx_.ext_query(4, 0), 0);
}

INSTANTIATE_TEST_SUITE_P(BothPolicies, LeaseBoundTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Planner" : "NoPlanner";
                         });

// ---- expiry sweep ------------------------------------------------------------

// Regression: the expiry timer used to be armed only by recover(),
// readopt() and its own callback, so an authority that never recovered a
// lease kept every expired (cache, record) pair forever.
TEST(DnscupAuthorityExpiry, FreshAuthorityPrunesAnExpiredGrant) {
  Fixture fx;
  DnscupAuthority::Config config;
  config.max_lease = [](const Name&, RRType) { return net::seconds(120); };
  DnscupAuthority authority = fx.make(std::move(config));
  ASSERT_GT(fx.ext_query(1, 0), 0);
  EXPECT_EQ(authority.track_file().size(), 1u);

  fx.loop.run_until(net::seconds(121));
  EXPECT_EQ(authority.track_file().size(), 0u);
  EXPECT_EQ(fx.pruned(), 1u);
}

TEST(DnscupAuthorityExpiry, EarlierExpiryPullsTheSweepForward) {
  Fixture fx;
  DnscupAuthority::Config config;
  config.max_lease = [](const Name& name, RRType) {
    return name == record_name(0) ? net::hours(1) : net::seconds(10);
  };
  DnscupAuthority authority = fx.make(std::move(config));
  ASSERT_GT(fx.ext_query(1, 0), 0);  // sweep armed for 1 h
  ASSERT_GT(fx.ext_query(1, 1), 0);  // expires first: sweep moves to 10 s
  fx.loop.run_until(net::seconds(11));
  EXPECT_EQ(authority.track_file().size(), 1u);
  EXPECT_EQ(fx.pruned(), 1u);
}

TEST(DnscupAuthorityExpiry, SweepsAreCoalescedToOnePerSecond) {
  Fixture fx;
  DnscupAuthority::Config config;
  // d<i> leases for 10 s + i * 300 ms.
  config.max_lease = [](const Name& name, RRType) {
    const int i = name.label(0)[1] - '0';
    return net::seconds(10) + i * net::milliseconds(300);
  };
  DnscupAuthority authority = fx.make(std::move(config));
  for (int record = 0; record < 3; ++record) {
    ASSERT_GT(fx.ext_query(1, record), 0);
  }
  // The sweep at 10 s prunes d0; d1 (10.3 s) and d2 (10.6 s) wait for the
  // next sweep, one second later.
  fx.loop.run_until(net::milliseconds(10900));
  EXPECT_EQ(authority.track_file().size(), 2u);
  fx.loop.run_until(net::seconds(11));
  EXPECT_EQ(authority.track_file().size(), 0u);
  EXPECT_EQ(fx.pruned(), 3u);
}

// ---- occupancy gauges --------------------------------------------------------

TEST(DnscupAuthorityMetrics, OccupancyGaugesPublishedAtConstruction) {
  Fixture fx;
  DnscupAuthority::Config config;
  config.storage_budget = 1234;
  DnscupAuthority authority = fx.make(std::move(config));
  authority.refresh_gauges();

  const metrics::Snapshot snap = fx.registry.snapshot();
  const auto* budget = snap.find("authority_storage_budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_DOUBLE_EQ(budget->gauge_value, 1234.0);
  const auto* live = snap.find("authority_live_leases");
  ASSERT_NE(live, nullptr);
  EXPECT_DOUBLE_EQ(live->gauge_value, 0.0);
  // The wrapped modules registered their families in the same registry.
  EXPECT_NE(snap.find("detection_change_events"), nullptr);
}

}  // namespace
}  // namespace dnscup::core
