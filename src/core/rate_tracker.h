// Sliding-window query-rate estimation.
//
// Caches use it to fill the RRC field of outgoing queries ("the query rate
// originated from the local clients", §5.2) and to drive lease
// re-negotiation when their observed rate drifts from the one reported at
// grant time.
//
// Samples live in per-key ring buffers (not deques, whose block churn
// allocates on every push/pop cycle), so recording a query for an
// already-tracked name performs zero heap allocations.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/time.h"

namespace dnscup::core {

/// Fixed-capacity FIFO of timestamps.  Storage grows geometrically up to
/// `capacity` and is then reused forever; once warm, push/pop are
/// allocation-free (unlike std::deque's block churn).
class SampleRing {
 public:
  explicit SampleRing(std::size_t capacity) : cap_(capacity) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  net::SimTime front() const { return buf_[head_]; }
  net::SimTime at(std::size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }

  /// Appends; drops the oldest sample when at capacity.
  void push(net::SimTime t) {
    if (size_ == cap_ && size_ > 0) pop_front();
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) % buf_.size()] = t;
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) % buf_.size();
    --size_;
  }

 private:
  void grow() {
    std::size_t next = buf_.empty() ? 8 : buf_.size() * 2;
    if (next > cap_) next = cap_;
    std::vector<net::SimTime> fresh(next);
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = at(i);
    buf_ = std::move(fresh);
    head_ = 0;
  }

  std::size_t cap_;
  std::vector<net::SimTime> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class RateTracker {
 public:
  /// `window` is the averaging horizon; `max_samples_per_key` bounds
  /// memory for very hot records (rate stays exact while the oldest
  /// retained sample is within the window).  `max_keys` caps the tracked
  /// key set: a new key arriving at the cap triggers a prune, and is
  /// dropped (counted in keys_dropped()) if the map is still full — so a
  /// scan of millions of one-off names cannot grow estimator state
  /// without bound.
  explicit RateTracker(net::Duration window = net::hours(1),
                       std::size_t max_samples_per_key = 256,
                       std::size_t max_keys = 1 << 20)
      : window_(window), max_samples_(max_samples_per_key),
        max_keys_(max_keys) {}

  void record(const dns::Name& name, dns::RRType type, net::SimTime now);

  /// Estimated arrival rate in events/second over the window at `now`.
  /// With zero or one retained sample the estimate is count/window.
  double rate(const dns::Name& name, dns::RRType type,
              net::SimTime now) const;

  /// Number of events retained in-window for the key.
  std::size_t count(const dns::Name& name, dns::RRType type,
                    net::SimTime now) const;

  /// Drops keys whose samples all fell out of the window.  Also runs
  /// automatically from record() every ~size/2 recordings,
  /// so idle keys decay away under traffic without any external timer
  /// (amortized O(1) per recording, and erase-only — no allocation on the
  /// serve hot path).
  std::size_t prune(net::SimTime now);

  std::size_t tracked_keys() const { return samples_.size(); }

  /// New keys rejected because the tracker was at max_keys even after a
  /// prune.
  uint64_t keys_dropped() const { return keys_dropped_; }

 private:
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator==(const Key& other) const {
      return type == other.type && name == other.name;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.name.hash() * 31 + static_cast<std::size_t>(k.type);
    }
  };

  void trim(SampleRing& times, net::SimTime now) const;
  /// True when a new key may be inserted (prunes first when at the cap).
  bool admit_new_key(net::SimTime now);
  void maybe_auto_prune(net::SimTime now);

  net::Duration window_;
  std::size_t max_samples_;
  std::size_t max_keys_;
  std::size_t ops_since_prune_ = 0;
  uint64_t keys_dropped_ = 0;
  std::unordered_map<Key, SampleRing, KeyHash> samples_;
};

}  // namespace dnscup::core
