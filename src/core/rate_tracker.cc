#include "core/rate_tracker.h"

#include <algorithm>

namespace dnscup::core {

void RateTracker::record(const dns::Name& name, dns::RRType type,
                         net::SimTime now) {
  const dns::NameView view(name);
  record(server::CacheKeyView(view, type), now);
}

void RateTracker::record(const server::CacheKeyView& key, net::SimTime now) {
  auto it = samples_.find(key);
  if (it == samples_.end()) {
    if (!admit_new_key(now)) return;
    it = samples_
             .try_emplace(server::CacheKey{key.name.materialize(), key.type},
                          max_samples_)
             .first;
  }
  it->second.push(now);
  trim(it->second, now);
  maybe_auto_prune(now);
}

bool RateTracker::admit_new_key(net::SimTime now) {
  if (samples_.size() < max_keys_) return true;
  prune(now);
  if (samples_.size() < max_keys_) return true;
  ++keys_dropped_;
  return false;
}

void RateTracker::maybe_auto_prune(net::SimTime now) {
  // A full prune every ~size/2 recordings keeps the walk amortized O(1)
  // per recording while guaranteeing idle keys disappear within one
  // window's worth of traffic.
  const std::size_t interval =
      std::max<std::size_t>(64, samples_.size() / 2);
  if (++ops_since_prune_ < interval) return;
  prune(now);
}

void RateTracker::trim(SampleRing& times, net::SimTime now) const {
  const net::SimTime horizon = now - window_;
  while (!times.empty() && times.front() < horizon) times.pop_front();
}

double RateTracker::rate(const dns::Name& name, dns::RRType type,
                         net::SimTime now) const {
  const dns::NameView view(name);
  return rate(server::CacheKeyView(view, type), now);
}

double RateTracker::rate(const server::CacheKeyView& key,
                         net::SimTime now) const {
  const std::size_t n = live(key, now);
  if (n == 0) return 0.0;
  return static_cast<double>(n) / net::to_seconds(window_);
}

std::size_t RateTracker::count(const dns::Name& name, dns::RRType type,
                               net::SimTime now) const {
  const dns::NameView view(name);
  return live(server::CacheKeyView(view, type), now);
}

std::size_t RateTracker::live(const server::CacheKeyView& key,
                              net::SimTime now) const {
  auto it = samples_.find(key);
  if (it == samples_.end()) return 0;
  // Count in-window samples without mutating state (const method).
  const net::SimTime horizon = now - window_;
  std::size_t n = 0;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    if (it->second.at(i) >= horizon) ++n;
  }
  return n;
}

std::size_t RateTracker::prune(net::SimTime now) {
  std::size_t removed = 0;
  for (auto it = samples_.begin(); it != samples_.end();) {
    trim(it->second, now);
    if (it->second.empty()) {
      it = samples_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  ops_since_prune_ = 0;
  return removed;
}

}  // namespace dnscup::core
