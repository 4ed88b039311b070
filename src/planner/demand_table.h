// Sharded demand table: the planner's view of every live
// (cache, record) pair, sized for 10M+ pairs.
//
// Memory layout is one arena of 32-byte slots per shard (open-addressed,
// linear probing, power-of-two sized, insert-only).  The concurrency
// contract is single-writer / multi-reader with no locks:
//
//   * the planner thread is the only writer: it upserts slots, runs the
//     estimator over the slot's state, and publishes the assigned lease
//     length into `planned_bits`;
//   * worker threads only ever read two atomic fields — `key` (acquire,
//     to locate a slot) and `planned_bits` (the assignment probe on the
//     grant path).  The estimator fields between them are planner-private,
//     so there is nothing to tear.
//
// Insert-only keeps reads coherent without versioning: a probe chain can
// never be broken by a deletion, and a slot's key never changes once
// published (release store after the payload fields are filled).  Pair
// turnover is handled one level up: the incremental planners assign
// length 0 to pairs whose forecast demand decays to zero, and the table
// is sized (capacity / shards, ~85% max load) so the steady-state pair
// population fits; when a shard fills, new pairs are rejected and counted
// — the authority denies them leases (plain TTL semantics).
//
// The pair key is a 64-bit splitmix of (holder endpoint, name hash,
// rrtype).  A collision merges two pairs' demand — harmless for planning
// (the protocol's correctness never depends on the table) and at 10M
// pairs the expected number of 64-bit collisions is ~0.000003.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/endpoint.h"
#include "planner/lambda_estimator.h"

namespace dnscup::planner {

/// Sentinel planned_bits value: pair present but not yet planned (readers
/// deny the pair a lease).  An all-ones float pattern is a NaN, so it can
/// never alias a real assigned length.
inline constexpr uint32_t kUnplannedBits = 0xFFFFFFFFu;

uint64_t pair_key(const net::Endpoint& holder, std::size_t name_hash,
                  dns::RRType type);

inline uint64_t pair_key(const net::Endpoint& holder, const dns::Name& name,
                         dns::RRType type) {
  return pair_key(holder, name.hash(), type);
}

class DemandShard {
 public:
  struct Slot {
    /// 0 = empty.  Written once (release) after the payload fields.
    std::atomic<uint64_t> key{0};
    /// Last observed rate (q/s) — planner-thread private.
    float observed = 0.0f;
    /// Estimator state — planner-thread private.
    LambdaEstimator::State est;
    /// Maximal lease L_i in seconds — planner-thread private.
    float max_lease_s = 0.0f;
    /// bit_cast of the assigned lease length in seconds, or
    /// kUnplannedBits.  Read by worker threads on the grant path.
    std::atomic<uint32_t> planned_bits{kUnplannedBits};
  };
  static_assert(sizeof(Slot) == 32);

  /// Sizes the arena at the smallest power of two holding `capacity`
  /// entries under ~85% load (minimum 64 slots).
  explicit DemandShard(std::size_t capacity);

  /// Writer (planner thread) only.  Returns the pair's slot, inserting an
  /// empty one when unseen; null when the shard is at capacity
  /// (`inserted` untouched in that case).
  Slot* upsert(uint64_t key, bool* inserted);

  /// Lock-free reader probe; null when the pair is unknown.
  const Slot* find(uint64_t key) const;

  /// Dense per-shard pair id — the slot's arena index.  Stable for the
  /// table's lifetime (insert-only), which is what lets the incremental
  /// planners use it as their entry handle.
  uint32_t index_of(const Slot* slot) const {
    return static_cast<uint32_t>(slot - slots_.get());
  }
  Slot* slot_at(uint32_t id) { return &slots_[id]; }
  const Slot* slot_at(uint32_t id) const { return &slots_[id]; }

  std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return cap_; }
  std::size_t slot_count() const { return mask_ + 1; }

 private:
  std::unique_ptr<Slot[]> slots_;
  uint64_t mask_ = 0;
  std::size_t cap_ = 0;
  /// Relaxed: occupancy telemetry for readers; exact for the writer.
  std::atomic<std::size_t> size_{0};
};

}  // namespace dnscup::planner
