// Planner subsystem unit tests: demand table, λ estimator, incremental
// planners (certified against the batch optimizers and the brute force),
// and the LeasePlanner thread end-to-end in-process.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_lease.h"
#include "core/lease_math.h"
#include "planner/demand_table.h"
#include "planner/incremental_plan.h"
#include "planner/lambda_estimator.h"
#include "planner/lease_planner.h"
#include "util/rng.h"

namespace dnscup::planner {
namespace {

// ---- demand table ---------------------------------------------------------

/// Distinct, well-mixed test keys (never the 0/1 sentinels).
uint64_t test_key(uint64_t i) {
  return pair_key(net::Endpoint{0x0A000001, 53}, i, dns::RRType::kA);
}

/// Single-threaded reader probe.
uint32_t probe(const DemandShard& shard, uint64_t key) {
  DemandShard::HazardSlot hazard{nullptr};
  const uint32_t bits = shard.find(key, hazard);
  EXPECT_EQ(hazard.load(), nullptr);  // cleared after every probe
  return bits;
}

TEST(DemandShard, InsertFindAndDenseIds) {
  DemandShard shard(100);
  bool inserted = false;
  const uint32_t a = shard.upsert(test_key(1), &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(a, 0u);  // ids are dense, in arrival order
  EXPECT_EQ(shard.upsert(test_key(1), &inserted), a);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(shard.upsert(test_key(2), &inserted), 1u);
  EXPECT_TRUE(inserted);

  shard.set_planned(a, 123);
  EXPECT_EQ(probe(shard, test_key(1)), 123u);
  EXPECT_EQ(probe(shard, test_key(3)), kUnplannedBits);  // unknown
  EXPECT_EQ(shard.size(), 2u);
  EXPECT_EQ(shard.id_limit(), 2u);
}

TEST(DemandShard, NewPairsReadAsUnplanned) {
  DemandShard shard(16);
  bool inserted = false;
  const uint32_t id = shard.upsert(test_key(7), &inserted);
  ASSERT_NE(id, DemandShard::kNoPair);
  EXPECT_EQ(shard.planned(id), kUnplannedBits);
  EXPECT_EQ(probe(shard, test_key(7)), kUnplannedBits);
}

TEST(DemandShard, RejectsAtTheCeiling) {
  DemandShard shard(16);
  bool inserted = false;
  for (uint64_t k = 0; k < shard.ceiling(); ++k) {
    ASSERT_NE(shard.upsert(test_key(k), &inserted), DemandShard::kNoPair);
  }
  EXPECT_EQ(shard.upsert(test_key(9999), &inserted), DemandShard::kNoPair);
  EXPECT_EQ(shard.size(), shard.ceiling());
  // Existing pairs still resolve after the refusal.
  EXPECT_EQ(shard.upsert(test_key(0), &inserted), 0u);
  EXPECT_FALSE(inserted);
}

TEST(DemandShard, GrowthKeepsEveryAssignment) {
  DemandShard shard(1 << 20);
  const std::size_t empty_bytes = shard.bytes();
  constexpr uint32_t kPairs = 10000;  // ~10 index doublings from 16 slots
  bool inserted = false;
  for (uint32_t i = 0; i < kPairs; ++i) {
    const uint32_t id = shard.upsert(test_key(i), &inserted);
    ASSERT_EQ(id, i);
    shard.set_planned(id, i);
  }
  shard.collect({});
  for (uint32_t i = 0; i < kPairs; ++i) {
    ASSERT_EQ(probe(shard, test_key(i)), i) << "pair " << i;
  }
  // Memory follows the pairs, not the ceiling: the 16-byte index entries
  // at <= 3/4 load plus per-pair state stay well under 128 B a pair.
  EXPECT_LT(empty_bytes, 1024u);
  EXPECT_LT(shard.bytes(), std::size_t{kPairs} * 128);
}

TEST(DemandShard, ReclaimedPairReadsUnplannedAndItsIdIsRecycled) {
  DemandShard shard(64);
  bool inserted = false;
  const uint32_t a = shard.upsert(test_key(1), &inserted);
  const uint32_t b = shard.upsert(test_key(2), &inserted);
  shard.set_planned(a, 10);
  shard.set_planned(b, 20);

  shard.erase(a);
  EXPECT_FALSE(shard.live(a));
  EXPECT_EQ(probe(shard, test_key(1)), kUnplannedBits);
  EXPECT_EQ(probe(shard, test_key(2)), 20u);
  EXPECT_EQ(shard.size(), 1u);

  const uint32_t c = shard.upsert(test_key(3), &inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(c, a);  // recycled
  EXPECT_EQ(probe(shard, test_key(3)), kUnplannedBits);
  shard.set_planned(c, 30);
  EXPECT_EQ(probe(shard, test_key(3)), 30u);
  EXPECT_EQ(probe(shard, test_key(1)), kUnplannedBits);
  EXPECT_EQ(probe(shard, test_key(2)), 20u);
}

TEST(DemandShard, TombstonesAreClearedWithoutGrowingTheIndex) {
  // Churn at a steady live count: rebuilds clear tombstones in place of
  // doubling, so memory stays where the first rounds took it.
  DemandShard shard(1024);
  constexpr uint32_t kLive = 100;
  bool inserted = false;
  std::vector<uint32_t> previous;
  std::size_t warm_bytes = 0;
  for (uint32_t round = 0; round < 200; ++round) {
    std::vector<uint32_t> current;
    for (uint32_t j = 0; j < kLive; ++j) {
      const uint32_t id = shard.upsert(test_key(round * kLive + j), &inserted);
      ASSERT_TRUE(inserted);
      shard.set_planned(id, round * kLive + j);
      current.push_back(id);
    }
    for (const uint32_t id : previous) shard.erase(id);
    previous = std::move(current);
    shard.collect({});
    if (round < 10) {
      warm_bytes = std::max(warm_bytes, shard.bytes());
    } else {
      ASSERT_LE(shard.bytes(), warm_bytes) << "round " << round;
    }
  }
  EXPECT_EQ(shard.size(), kLive);
  for (uint32_t j = 0; j < kLive; ++j) {
    EXPECT_EQ(probe(shard, test_key(199 * kLive + j)), 199 * kLive + j);
  }
}

TEST(DemandShard, PairKeyDistinguishesComponents) {
  const net::Endpoint a{0x0A000001, 5353};
  const net::Endpoint b{0x0A000002, 5353};
  const auto name = dns::Name::parse("www.example.com").value();
  const uint64_t base = pair_key(a, name, dns::RRType::kA);
  EXPECT_NE(base, pair_key(b, name, dns::RRType::kA));
  EXPECT_NE(base, pair_key(a, name, dns::RRType::kAAAA));
  EXPECT_GT(base, 1u);  // 0 and 1 are the empty and tombstone sentinels
}

// ---- λ estimator ----------------------------------------------------------

TEST(LambdaEstimator, EwmaSmoothsSpikes) {
  LambdaEstimator est;
  EXPECT_DOUBLE_EQ(est.forecast(), 0.0);  // unseeded
  est.update(1.0);  // seeds at 1.0
  est.update(10.0);
  const double after_spike = est.forecast();
  EXPECT_GT(after_spike, 1.0);
  EXPECT_LT(after_spike, 10.0);  // did not jump all the way
  EXPECT_NEAR(after_spike, 0.3 * 10.0 + 0.7 * 1.0, 1e-5);
}

// ---- incremental planners -------------------------------------------------

struct RandomUpdate {
  uint32_t id;
  double rate;
  double max_lease;
};

std::vector<RandomUpdate> random_stream(util::Rng& rng, uint32_t max_ids,
                                        std::size_t n) {
  std::vector<RandomUpdate> stream;
  stream.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RandomUpdate u;
    u.id = static_cast<uint32_t>(rng.uniform_int(0, max_ids - 1));
    // ~10% removals; rates and leases log-uniform like the batch tests.
    if (rng.uniform_real(0.0, 1.0) < 0.1) {
      u.rate = 0.0;
      u.max_lease = 0.0;
    } else {
      u.rate = std::exp(rng.uniform_real(std::log(0.001), std::log(10.0)));
      u.max_lease =
          std::exp(rng.uniform_real(std::log(10.0), std::log(1e5)));
    }
    stream.push_back(u);
  }
  return stream;
}

/// Asserts the incremental planner's assignment matches the batch
/// planner's output over the same entries, length by length.
/// `exact` demands bitwise equality (valid right after replan());
/// otherwise lengths match within a small relative tolerance (the
/// incremental running totals accumulate in a different order).
void expect_matches_batch(const IncrementalPlanner& inc,
                          bool storage_mode, bool exact,
                          const char* context) {
  std::vector<uint32_t> ids;
  const auto demands = inc.export_demands(&ids);
  const core::LeasePlan plan =
      storage_mode ? core::plan_storage_constrained(demands, inc.budget())
                   : core::plan_comm_constrained(demands, inc.budget());
  ASSERT_EQ(plan.lengths.size(), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double got = inc.lease_for(ids[k]);
    const double want = plan.lengths[k];
    if (exact) {
      ASSERT_EQ(got, want) << context << " id " << ids[k];
    } else {
      ASSERT_NEAR(got, want, 1e-6 * std::max(1.0, want))
          << context << " id " << ids[k];
    }
  }
}

class IncrementalSlpEquivalence : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalSlpEquivalence, MatchesBatchUnderRandomStream) {
  util::Rng rng(GetParam());
  constexpr uint32_t kIds = 64;
  IncrementalSlp inc(kIds, /*storage_budget=*/8.0);
  std::vector<uint32_t> dirty;
  const auto stream = random_stream(rng, kIds, 400);
  std::size_t step = 0;
  for (const auto& u : stream) {
    dirty.clear();
    inc.update(u.id, u.rate, u.max_lease, &dirty);
    ASSERT_LE(inc.cost_used(), inc.budget() + 1e-6);
    // The incremental SLP is exact: every 16th step, diff the whole
    // assignment against the batch planner.
    if (++step % 16 == 0) {
      expect_matches_batch(inc, /*storage_mode=*/true, /*exact=*/false,
                           "mid-stream");
    }
  }
  // After the backstop replan the adoption is byte-for-byte.
  inc.replan();
  expect_matches_batch(inc, /*storage_mode=*/true, /*exact=*/true,
                       "post-replan");
}

TEST_P(IncrementalSlpEquivalence, BudgetChangesRepairTheFrontier) {
  util::Rng rng(GetParam() + 50);
  constexpr uint32_t kIds = 32;
  IncrementalSlp inc(kIds, 4.0);
  std::vector<uint32_t> dirty;
  for (const auto& u : random_stream(rng, kIds, 100)) {
    inc.update(u.id, u.rate, u.max_lease, &dirty);
  }
  for (const double budget : {0.0, 1.0, 16.0, 2.0}) {
    dirty.clear();
    inc.set_budget(budget, &dirty);
    ASSERT_LE(inc.cost_used(), budget + 1e-6);
    expect_matches_batch(inc, true, /*exact=*/false, "post-budget-change");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSlpEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(IncrementalSlp, DirtySetCoversEveryFlippedAssignment) {
  // Track assignments through the dirty sets alone; any divergence from
  // ground truth means update() failed to report a change.
  util::Rng rng(99);
  constexpr uint32_t kIds = 48;
  IncrementalSlp inc(kIds, 6.0);
  std::vector<double> mirror(kIds, 0.0);
  std::vector<uint32_t> dirty;
  for (const auto& u : random_stream(rng, kIds, 300)) {
    dirty.clear();
    inc.update(u.id, u.rate, u.max_lease, &dirty);
    for (const uint32_t id : dirty) mirror[id] = inc.lease_for(id);
    for (uint32_t id = 0; id < kIds; ++id) {
      ASSERT_EQ(mirror[id], inc.lease_for(id)) << "id " << id;
    }
  }
}

class IncrementalDeprivationInvariants
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDeprivationInvariants, BudgetAndAccountingHold) {
  util::Rng rng(GetParam() + 200);
  constexpr uint32_t kIds = 64;
  IncrementalDeprivation inc(kIds, /*message_budget=*/3.0);
  std::vector<uint32_t> dirty;
  std::size_t step = 0;
  for (const auto& u : random_stream(rng, kIds, 400)) {
    dirty.clear();
    inc.update(u.id, u.rate, u.max_lease, &dirty);
    ++step;
    // Lengths are all-or-nothing, and traffic accounting must match a
    // from-scratch recompute of the same assignment.
    std::vector<uint32_t> ids;
    const auto demands = inc.export_demands(&ids);
    double traffic = 0.0;
    std::size_t deprived = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const double len = inc.lease_for(ids[k]);
      if (len <= 0.0) {
        traffic += demands[k].rate;
        ++deprived;
      } else {
        ASSERT_EQ(len, demands[k].max_lease) << "partial length";
        traffic += core::renewal_rate(demands[k].max_lease, demands[k].rate);
      }
    }
    ASSERT_NEAR(inc.cost_used(), traffic,
                1e-6 * std::max(1.0, traffic))
        << "step " << step;
    // Budget respected, or the plan is all-leased (the minimal-traffic
    // answer the batch planner also returns for infeasible budgets).
    if (deprived > 0) {
      ASSERT_LE(inc.cost_used(), inc.budget() + 1e-6) << "step " << step;
    }
  }
  // The backstop adopts the batch plan verbatim.
  inc.replan();
  expect_matches_batch(inc, /*storage_mode=*/false, /*exact=*/true,
                       "post-replan");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDeprivationInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- brute-force certification (mirrors dynamic_lease_test) ---------------

class IncrementalVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalVsBruteForce, SlpNearOptimal) {
  util::Rng rng(GetParam());
  constexpr uint32_t kIds = 10;
  // Build the instance through incremental updates, not a batch load.
  IncrementalSlp inc(kIds, 0.0);
  std::vector<uint32_t> dirty;
  for (uint32_t id = 0; id < kIds; ++id) {
    const double rate =
        std::exp(rng.uniform_real(std::log(0.001), std::log(10.0)));
    const double max_lease =
        std::exp(rng.uniform_real(std::log(10.0), std::log(1e5)));
    inc.update(id, rate, max_lease, &dirty);
  }
  const auto demands = inc.export_demands(nullptr);
  double max_storage = 0.0;
  for (const auto& d : demands) {
    max_storage += core::lease_probability(d.max_lease, d.rate);
  }
  for (const double frac : {0.2, 0.5, 0.8}) {
    const double budget = frac * max_storage;
    inc.set_budget(budget, &dirty);
    // Evaluate the incremental assignment's costs.
    core::LeasePlan mine;
    std::vector<uint32_t> ids;
    const auto current = inc.export_demands(&ids);
    for (const uint32_t id : ids) mine.lengths.push_back(inc.lease_for(id));
    core::evaluate_plan(current, mine);
    const core::LeasePlan brute =
        core::brute_force_storage_constrained(current, budget);
    EXPECT_LE(mine.total_storage, budget + 1e-9);
    EXPECT_LE(mine.total_message_rate,
              brute.total_message_rate * 1.02 + 1e-9)
        << "seed " << GetParam() << " budget " << budget;
  }
}

TEST_P(IncrementalVsBruteForce, DeprivationNearOptimal) {
  util::Rng rng(GetParam() + 100);
  constexpr uint32_t kIds = 10;
  IncrementalDeprivation inc(kIds, 1e18);
  std::vector<uint32_t> dirty;
  double polling = 0.0;
  for (uint32_t id = 0; id < kIds; ++id) {
    const double rate =
        std::exp(rng.uniform_real(std::log(0.001), std::log(10.0)));
    const double max_lease =
        std::exp(rng.uniform_real(std::log(10.0), std::log(1e5)));
    inc.update(id, rate, max_lease, &dirty);
    polling += rate;
  }
  for (const double frac : {0.3, 0.6, 0.9}) {
    const double budget = polling * frac;
    inc.set_budget(budget, &dirty);
    inc.replan();  // certify the backstop's output, like the batch tests
    core::LeasePlan mine;
    std::vector<uint32_t> ids;
    const auto current = inc.export_demands(&ids);
    for (const uint32_t id : ids) mine.lengths.push_back(inc.lease_for(id));
    core::evaluate_plan(current, mine);
    const core::LeasePlan brute =
        core::brute_force_comm_constrained(current, budget);
    if (brute.total_message_rate <= budget + 1e-9) {
      EXPECT_LE(mine.total_message_rate, budget + 1e-9);
      EXPECT_LE(mine.total_storage, brute.total_storage * 1.02 + 1e-9)
          << "seed " << GetParam() << " budget " << budget;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- LeasePlanner end-to-end ----------------------------------------------

LeasePlanner::Config fast_config() {
  LeasePlanner::Config config;
  config.mode = LeasePlanner::Mode::kStorage;
  config.storage_budget = 1000.0;
  config.shards = 2;
  config.capacity = 2048;
  config.workers = 2;
  config.poll_interval = net::milliseconds(1);
  config.replan_interval = net::seconds(0);  // manual via replan_now()
  return config;
}

void wait_applied(LeasePlanner& planner, uint64_t target) {
  for (int i = 0; i < 5000 && planner.applied() < target; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(planner.applied(), target);
}

TEST(LeasePlanner, ObservationsBecomeAssignments) {
  auto planner = LeasePlanner::start(fast_config());
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  const auto name = dns::Name::parse("www.example.com").value();
  const net::Endpoint holder{0x7F000001, 4242};

  // Unknown pair: not planned yet.
  EXPECT_FALSE(handle->assignment(holder, name, dns::RRType::kA).planned);

  handle->observe(holder, name, dns::RRType::kA, /*rate_qps=*/2.0,
                  /*max_lease_s=*/600.0);
  wait_applied(*planner, 1);
  const auto a = handle->assignment(holder, name, dns::RRType::kA);
  EXPECT_TRUE(a.planned);
  // Budget 1000 with one pair: the full maximal lease.
  EXPECT_DOUBLE_EQ(a.lease_s, 600.0);
  EXPECT_EQ(planner->pairs(), 1u);
  planner->stop();
}

TEST(LeasePlanner, TightBudgetDeniesColdPairs) {
  auto config = fast_config();
  // Room for roughly one long-leased hot pair and nothing else: P for the
  // hot pair ≈ 1, the cold pairs would each add ≈ 1 more.
  config.storage_budget = 1.0;
  config.shards = 1;
  auto planner = LeasePlanner::start(config);
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  const net::Endpoint hot{0x7F000001, 1000};
  const auto name = dns::Name::parse("popular.example.com").value();
  handle->observe(hot, name, dns::RRType::kA, 50.0, 86400.0);
  for (int i = 0; i < 8; ++i) {
    const net::Endpoint cold{0x7F000001, static_cast<uint16_t>(2000 + i)};
    handle->observe(cold, name, dns::RRType::kA, 0.001, 86400.0);
  }
  wait_applied(*planner, 9);
  const auto hot_assignment = handle->assignment(hot, name, dns::RRType::kA);
  EXPECT_TRUE(hot_assignment.planned);
  EXPECT_DOUBLE_EQ(hot_assignment.lease_s, 86400.0);
  // At least the coldest pairs must be planned-but-denied (lease 0).
  int denied = 0;
  for (int i = 0; i < 8; ++i) {
    const net::Endpoint cold{0x7F000001, static_cast<uint16_t>(2000 + i)};
    const auto a = handle->assignment(cold, name, dns::RRType::kA);
    EXPECT_TRUE(a.planned);
    if (a.planned && a.lease_s == 0.0) ++denied;
  }
  EXPECT_GE(denied, 6);
  planner->stop();
}

TEST(LeasePlanner, ForcedReplanMatchesBatch) {
  auto planner = LeasePlanner::start(fast_config());
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(1);
  util::Rng rng(11);
  const auto name = dns::Name::parse("x.example.com").value();
  for (int i = 0; i < 200; ++i) {
    const net::Endpoint holder{0x7F000001,
                               static_cast<uint16_t>(1 + rng.uniform_int(
                                   1, 60000))};
    handle->observe(holder, name, dns::RRType::kA,
                    std::exp(rng.uniform_real(std::log(0.001),
                                              std::log(10.0))),
                    3600.0);
  }
  wait_applied(*planner, 200);
  const uint64_t replans_before = planner->replans();
  planner->replan_now();
  for (int i = 0; i < 5000 && planner->replans() == replans_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(planner->replans(), replans_before);
  planner->stop();
}

TEST(LeasePlanner, MetricsExposePlannerState) {
  auto planner = LeasePlanner::start(fast_config());
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  const auto name = dns::Name::parse("m.example.com").value();
  handle->observe(net::Endpoint{0x7F000001, 777}, name, dns::RRType::kA,
                  1.0, 60.0);
  wait_applied(*planner, 1);
  const auto snapshot = planner->metrics(0);
  EXPECT_EQ(snapshot.counter_total("planner_observations"), 1u);
  const auto* pairs = snapshot.find("planner_pairs");
  ASSERT_NE(pairs, nullptr);
  EXPECT_DOUBLE_EQ(pairs->gauge_value, 1.0);
  EXPECT_NE(snapshot.find("planner_update_latency_us"), nullptr);
  EXPECT_NE(snapshot.find("planner_reclaimed"), nullptr);
  const auto* bytes = snapshot.find("planner_table_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_GT(bytes->gauge_value, 0.0);
  const auto* capacity = snapshot.find("planner_capacity");
  ASSERT_NE(capacity, nullptr);
  EXPECT_DOUBLE_EQ(capacity->gauge_value, 2048.0);  // the ceiling
  planner->stop();
}

TEST(LeasePlanner, CleanStopUnderChurn) {
  auto config = fast_config();
  config.queue_capacity = 64;  // force drops under churn too
  auto planner = LeasePlanner::start(config);
  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
    const auto name = dns::Name::parse("churn.example.com").value();
    util::Rng rng(3);
    while (!stop.load(std::memory_order_acquire)) {
      const net::Endpoint holder{
          0x7F000001, static_cast<uint16_t>(rng.uniform_int(1, 5000))};
      handle->observe(holder, name, dns::RRType::kA,
                      rng.uniform_real(0.01, 5.0), 300.0);
      handle->assignment(holder, name, dns::RRType::kA);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  planner->replan_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_release);
  feeder.join();
  planner->stop();  // must not hang or crash with queued observations
  SUCCEED();
}

// ---- memory follows demand -----------------------------------------------

// ThreadSanitizer maps several shadow bytes for every application byte a
// program touches, so resident growth scales by that much in its build.
#if defined(__SANITIZE_THREAD__)
constexpr int64_t kShadowFactor = 8;
#else
constexpr int64_t kShadowFactor = 1;
#endif

/// This process's resident set (VmRSS), in bytes.
int64_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stoll(line.substr(6)) * 1024;
    }
  }
  return -1;
}

/// Distinct holders: one pair per index with a shared name.
net::Endpoint holder_of(int i) {
  return net::Endpoint{0x0A000000u + static_cast<uint32_t>(i >> 16),
                       static_cast<uint16_t>(i & 0xFFFF)};
}

TEST(LeasePlanner, ResidencyFollowsThePairsNotTheCeiling) {
  LeasePlanner::Config config;  // default ceiling: 2,097,152 pairs
  config.poll_interval = net::milliseconds(1);
  const int64_t before = resident_bytes();
  ASSERT_GT(before, 0);
  auto planner = LeasePlanner::start(config);
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  const auto name = dns::Name::parse("resident.example.com").value();
  constexpr int kPairs = 10000;
  for (int i = 0; i < kPairs; ++i) {
    handle->observe(holder_of(i), name, dns::RRType::kA, 1.0, 3600.0);
    // Stay inside the observation queue's bound.
    if ((i + 1) % 1000 == 0) wait_applied(*planner, i + 1);
  }
  EXPECT_EQ(planner->pairs(), static_cast<std::size_t>(kPairs));
  const int64_t growth = resident_bytes() - before;
  EXPECT_LT(growth, kShadowFactor * (int64_t{8} << 20))
      << "VmRSS grew by " << growth << " B";
  const auto snapshot = planner->metrics(0);
  const auto* bytes = snapshot.find("planner_table_bytes");
  ASSERT_NE(bytes, nullptr);
  EXPECT_LT(bytes->gauge_value, 4.0 * (1 << 20));
  planner->stop();
}

TEST(LeasePlanner, ChurnThroughTheCeilingReclaimsInsteadOfRefusing) {
  auto config = fast_config();
  config.shards = 1;
  config.capacity = 1024;
  config.storage_budget = 1e6;  // every pair granted: only the ceiling binds
  auto planner = LeasePlanner::start(config);
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  const auto name = dns::Name::parse("churn.example.com").value();
  constexpr int kCeiling = 1024;
  constexpr int kRounds = 10;  // 10x the ceiling in distinct pairs
  constexpr double kMaxLease = 0.02;  // s
  for (int round = 0; round < kRounds; ++round) {
    // The previous round's leases lapse, whatever the host's speed: the
    // sleep starts after the planner applied that round.
    if (round > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int j = 0; j < kCeiling; ++j) {
      handle->observe(holder_of(round * kCeiling + j), name, dns::RRType::kA,
                      1.0, kMaxLease);
    }
    wait_applied(*planner, static_cast<uint64_t>(round + 1) * kCeiling);
    ASSERT_LE(planner->pairs(), static_cast<std::size_t>(kCeiling))
        << "round " << round;
  }
  const auto snapshot = planner->metrics(0);
  EXPECT_EQ(snapshot.counter_total("planner_observations_dropped"), 0u);
  EXPECT_EQ(snapshot.counter_total("planner_table_full"), 0u);
  EXPECT_EQ(snapshot.counter_total("planner_reclaimed"),
            static_cast<uint64_t>(kRounds - 1) * kCeiling);
  for (int j = 0; j < kCeiling; ++j) {
    const auto a = handle->assignment(holder_of((kRounds - 1) * kCeiling + j),
                                      name, dns::RRType::kA);
    ASSERT_TRUE(a.planned) << "last-round pair " << j;
    EXPECT_GT(a.lease_s, 0.0);
  }
  planner->stop();
}

TEST(LeasePlanner, RestartedCacheGetsTheBudgetOfItsLapsedIdentity) {
  auto config = fast_config();
  config.shards = 1;
  constexpr int kNames = 8;
  // Rate 1 q/s and a 1 s maximal lease give P = L / (L + 1/λ) = 0.5
  // exactly, so kNames pairs fill a budget of kNames / 2 exactly.
  constexpr double kRate = 1.0;
  constexpr double kMaxLease = 1.0;
  config.storage_budget = kNames * 0.5;
  auto planner = LeasePlanner::start(config);
  core::LeaseAssignmentSource* handle = planner->handle_for_worker(0);
  // A cache's lease identity is its upstream endpoint; a restarted
  // dnscached comes back on a fresh ephemeral port.
  const net::Endpoint before_restart{0x7F000001, 40000};
  const net::Endpoint after_restart{0x7F000001, 40001};
  std::vector<dns::Name> names;
  for (int i = 0; i < kNames; ++i) {
    std::string text = "n";
    text += std::to_string(i);
    text += ".example.com";
    names.push_back(dns::Name::parse(text).value());
  }

  for (const auto& name : names) {
    handle->observe(before_restart, name, dns::RRType::kA, kRate, kMaxLease);
  }
  wait_applied(*planner, kNames);
  for (const auto& name : names) {
    const auto a = handle->assignment(before_restart, name, dns::RRType::kA);
    ASSERT_TRUE(a.planned);
    ASSERT_EQ(a.lease_s, kMaxLease) << "the first identity fills the budget";
  }

  // Past the first identity's maximal lease with margin; the second
  // identity's own pairs stay well inside theirs until the replan.
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  for (const auto& name : names) {
    handle->observe(after_restart, name, dns::RRType::kA, kRate, kMaxLease);
  }
  wait_applied(*planner, 2 * kNames);
  const uint64_t replans_before = planner->replans();
  planner->replan_now();
  for (int i = 0; i < 5000 && planner->replans() == replans_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(planner->replans(), replans_before);

  int granted = 0;
  for (const auto& name : names) {
    const auto a = handle->assignment(after_restart, name, dns::RRType::kA);
    if (a.planned && a.lease_s == kMaxLease) ++granted;
    EXPECT_FALSE(
        handle->assignment(before_restart, name, dns::RRType::kA).planned)
        << "the lapsed identity's pair is reclaimed";
  }
  EXPECT_EQ(granted, kNames);
  EXPECT_EQ(planner->pairs(), static_cast<std::size_t>(kNames));
  planner->stop();
}

TEST(LeasePlanner, ReadersNeverSeeAnotherPairsLease) {
  auto config = fast_config();
  config.shards = 2;
  config.capacity = 2048;  // 1024 per shard
  config.workers = 3;      // handle 0 feeds, handles 1 and 2 read
  config.storage_budget = 1e9;  // ample: each pair gets its own max lease
  config.replan_interval = net::milliseconds(5);  // sweeps on the cadence
  auto planner = LeasePlanner::start(config);
  const auto name = dns::Name::parse("reader.example.com").value();
  constexpr int kRounds = 8;
  constexpr int kPerRound = 1500;  // ~750 per shard: grows, never full
  // Pair i's maximal lease is 20 ms + i us: distinct as floats, so a
  // planned lease names the pair it was planned for.
  const auto lease_of = [](int i) {
    return static_cast<double>(static_cast<float>(0.02 + i * 1e-6));
  };

  std::atomic<int> fed{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> planned_reads{0};
  const auto reader = [&](int worker, uint64_t seed) {
    core::LeaseAssignmentSource* handle = planner->handle_for_worker(worker);
    util::Rng rng(seed);
    while (!done.load(std::memory_order_acquire)) {
      const int n = fed.load(std::memory_order_acquire);
      if (n == 0) continue;
      const int i = static_cast<int>(rng.uniform_int(0, n - 1));
      const auto a = handle->assignment(holder_of(i), name, dns::RRType::kA);
      if (!a.planned) continue;
      planned_reads.fetch_add(1, std::memory_order_relaxed);
      if (a.lease_s != lease_of(i)) {
        wrong.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread first(reader, 1, 1);
  std::thread second(reader, 2, 2);

  core::LeaseAssignmentSource* feeder = planner->handle_for_worker(0);
  for (int round = 0; round < kRounds; ++round) {
    for (int j = 0; j < kPerRound; ++j) {
      const int i = round * kPerRound + j;
      feeder->observe(holder_of(i), name, dns::RRType::kA, 1.0, lease_of(i));
    }
    fed.store((round + 1) * kPerRound, std::memory_order_release);
    wait_applied(*planner, static_cast<uint64_t>(round + 1) * kPerRound);
    // Past the round's longest lease: the next sweep reclaims it all and
    // the next round recycles its ids.
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  done.store(true, std::memory_order_release);
  first.join();
  second.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(planned_reads.load(), 0u);
  const auto snapshot = planner->metrics(0);
  EXPECT_EQ(snapshot.counter_total("planner_observations_dropped"), 0u);
  EXPECT_EQ(snapshot.counter_total("planner_table_full"), 0u);
  EXPECT_GE(snapshot.counter_total("planner_reclaimed"),
            static_cast<uint64_t>(kRounds - 1) * kPerRound);
  planner->stop();
}

}  // namespace
}  // namespace dnscup::planner
