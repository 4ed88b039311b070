#include <gtest/gtest.h>

#include "core/rate_tracker.h"

namespace dnscup::core {
namespace {

using dns::Name;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }

TEST(RateTracker, UnknownKeyIsZero) {
  RateTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.rate(mk("x.com"), RRType::kA, 0), 0.0);
  EXPECT_EQ(tracker.count(mk("x.com"), RRType::kA, 0), 0u);
}

TEST(RateTracker, CountsWithinWindow) {
  RateTracker tracker(net::hours(1));
  for (int i = 0; i < 60; ++i) {
    tracker.record(mk("x.com"), RRType::kA, net::minutes(i));
  }
  // 60 events over the last hour -> 1/min.
  const double rate = tracker.rate(mk("x.com"), RRType::kA, net::minutes(59));
  EXPECT_NEAR(rate, 60.0 / 3600.0, 1e-9);
}

TEST(RateTracker, OldSamplesFallOut) {
  RateTracker tracker(net::seconds(100));
  tracker.record(mk("x.com"), RRType::kA, 0);
  tracker.record(mk("x.com"), RRType::kA, net::seconds(10));
  EXPECT_EQ(tracker.count(mk("x.com"), RRType::kA, net::seconds(50)), 2u);
  EXPECT_EQ(tracker.count(mk("x.com"), RRType::kA, net::seconds(105)), 1u);
  EXPECT_EQ(tracker.count(mk("x.com"), RRType::kA, net::seconds(200)), 0u);
  EXPECT_DOUBLE_EQ(tracker.rate(mk("x.com"), RRType::kA, net::seconds(200)),
                   0.0);
}

TEST(RateTracker, KeysAreIndependent) {
  RateTracker tracker;
  tracker.record(mk("a.com"), RRType::kA, 0);
  tracker.record(mk("a.com"), RRType::kA, 0);
  tracker.record(mk("b.com"), RRType::kA, 0);
  tracker.record(mk("a.com"), RRType::kTXT, 0);
  EXPECT_EQ(tracker.count(mk("a.com"), RRType::kA, 0), 2u);
  EXPECT_EQ(tracker.count(mk("b.com"), RRType::kA, 0), 1u);
  EXPECT_EQ(tracker.count(mk("a.com"), RRType::kTXT, 0), 1u);
  EXPECT_EQ(tracker.tracked_keys(), 3u);
}

TEST(RateTracker, SampleCapBoundsMemory) {
  RateTracker tracker(net::hours(1), 16);
  for (int i = 0; i < 1000; ++i) {
    tracker.record(mk("hot.com"), RRType::kA, net::seconds(i));
  }
  EXPECT_LE(tracker.count(mk("hot.com"), RRType::kA, net::seconds(999)),
            16u);
}

TEST(RateTracker, PruneDropsEmptyKeys) {
  RateTracker tracker(net::seconds(10));
  tracker.record(mk("a.com"), RRType::kA, 0);
  tracker.record(mk("b.com"), RRType::kA, net::seconds(100));
  EXPECT_EQ(tracker.prune(net::seconds(105)), 1u);
  EXPECT_EQ(tracker.tracked_keys(), 1u);
}

TEST(RateTracker, RateMatchesPoissonStream) {
  RateTracker tracker(net::minutes(10));
  // 2 events/second for 10 minutes.
  net::SimTime t = 0;
  for (int i = 0; i < 1200; ++i) {
    t += net::milliseconds(500);
    tracker.record(mk("p.com"), RRType::kA, t);
  }
  const double rate = tracker.rate(mk("p.com"), RRType::kA, t);
  // The 256-sample cap keeps only the last 128 s: rate estimate still
  // counts live samples over the window.
  EXPECT_GT(rate, 0.0);
}

TEST(RateTracker, CaseInsensitiveNames) {
  RateTracker tracker;
  tracker.record(mk("WWW.X.COM"), RRType::kA, 0);
  EXPECT_EQ(tracker.count(mk("www.x.com"), RRType::kA, 0), 1u);
}

TEST(RateTracker, IdleKeysDecayUnderTrafficWithoutExplicitPrune) {
  RateTracker tracker(net::seconds(10));
  // 64 keys that go idle immediately.
  for (int i = 0; i < 64; ++i) {
    tracker.record(mk(("idle" + std::to_string(i) + ".com").c_str()),
                   RRType::kA, 0);
  }
  EXPECT_EQ(tracker.tracked_keys(), 64u);
  // Sustained traffic on one hot key, far past the window: the amortized
  // auto-prune (every ~size/2 recordings) must evict the idle keys with
  // no prune() call from the caller.
  for (int i = 0; i < 200; ++i) {
    tracker.record(mk("hot.com"), RRType::kA, net::seconds(100 + i));
  }
  EXPECT_EQ(tracker.tracked_keys(), 1u);
}

TEST(RateTracker, MaxKeysCapDropsNewKeysAndCounts) {
  RateTracker tracker(net::hours(1), 256, 8);
  for (int i = 0; i < 20; ++i) {
    tracker.record(mk(("k" + std::to_string(i) + ".com").c_str()),
                   RRType::kA, 0);
  }
  // All 20 keys are in-window, so pruning frees nothing: 8 admitted, the
  // rest dropped and counted.
  EXPECT_EQ(tracker.tracked_keys(), 8u);
  EXPECT_EQ(tracker.keys_dropped(), 12u);
  // An established key still records at the cap.
  tracker.record(mk("k0.com"), RRType::kA, net::seconds(1));
  EXPECT_EQ(tracker.count(mk("k0.com"), RRType::kA, net::seconds(1)), 2u);
}

TEST(RateTracker, CapAdmitsAfterPruneFreesRoom) {
  RateTracker tracker(net::seconds(10), 256, 4);
  for (int i = 0; i < 4; ++i) {
    tracker.record(mk(("old" + std::to_string(i) + ".com").c_str()),
                   RRType::kA, 0);
  }
  // At the cap, but every old key is stale by now: the admission-time
  // prune makes room, so the new key is tracked, not dropped.
  tracker.record(mk("new.com"), RRType::kA, net::seconds(100));
  EXPECT_EQ(tracker.keys_dropped(), 0u);
  EXPECT_EQ(tracker.count(mk("new.com"), RRType::kA, net::seconds(100)), 1u);
}

}  // namespace
}  // namespace dnscup::core
