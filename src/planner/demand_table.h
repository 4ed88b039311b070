// Sharded demand table: the planner's view of the live (cache, record)
// pairs, holding memory in proportion to them.
//
// Each shard has two parts:
//
//   * an open-addressed index (linear probing, power-of-two sized) of
//     16-byte entries mapping a pair key to its published `planned_bits`
//     and its dense pair id.  It starts at 16 entries and is rebuilt into
//     a fresh allocation as pairs arrive: at double size when live pairs
//     fill it, at the size the live pairs need when tombstones do;
//   * planner-private per-pair state (Pair) in a vector indexed by the
//     dense id, grown on demand.  Ids are dense in [0, id_limit()); an
//     erased pair's id is recycled by the next insert.
//
// `ceiling` bounds the live pairs; it allocates nothing.  At the ceiling
// upsert() refuses new pairs, and the LeasePlanner reclaims pairs whose
// leases have lapsed (lease_planner.h) before counting a pair as dropped.
//
// Concurrency: the planner thread is the only writer, serving workers
// read lock-free.
//
//   * A reader publishes the index it probes in its own hazard slot:
//     store the pointer, re-check that it is still current, probe, clear.
//     A rebuild retires the old index, and collect() frees a retired
//     index only when no hazard slot holds it.
//   * Within one index an entry's key only moves empty -> key ->
//     tombstone: inserts never reuse a tombstone, rebuilds clear them.
//     A reader that finds its key, reads planned_bits and then reads the
//     same key again has read that pair's value; an entry erased
//     underneath it reads as unknown.  Unknown means deny, which is plain
//     TTL semantics: a reader never gets another pair's lease.
//   * A rebuild copies the live entries' {key, planned_bits}; a reader
//     still on the old index sees the values as of the copy.
//
// The pair key is a 64-bit splitmix of (holder endpoint, name hash,
// rrtype).  A collision merges two pairs' demand — harmless for planning
// (the protocol's correctness never depends on the table) and at 10M
// pairs the expected number of 64-bit collisions is ~0.000003.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/endpoint.h"
#include "net/time.h"
#include "planner/lambda_estimator.h"

namespace dnscup::planner {

/// Sentinel planned_bits value: pair unknown, or present but not yet
/// planned (readers deny the pair a lease).  An all-ones float pattern is
/// a NaN, so it can never alias a real assigned length.
inline constexpr uint32_t kUnplannedBits = 0xFFFFFFFFu;

uint64_t pair_key(const net::Endpoint& holder, std::size_t name_hash,
                  dns::RRType type);

inline uint64_t pair_key(const net::Endpoint& holder, const dns::Name& name,
                         dns::RRType type) {
  return pair_key(holder, name.hash(), type);
}

class DemandShard {
 public:
  /// One generation of the index; readers reach it only through find().
  struct Index;
  /// A reader thread's hazard slot: the index it is probing, or null.
  using HazardSlot = std::atomic<const Index*>;

  /// upsert()'s answer at the ceiling.
  static constexpr uint32_t kNoPair = 0xFFFFFFFFu;

  /// Planner-private per-pair state, indexed by the dense id.
  struct Pair {
    LambdaEstimator est;
    /// Planner-clock time after which no lease granted on one of the
    /// pair's applied observations can still be live.
    net::Duration lapses_at = 0;
    /// The pair's index entry; kNoPair while the id is free.
    uint32_t entry = kNoPair;
  };

  explicit DemandShard(std::size_t ceiling);
  ~DemandShard();
  DemandShard(const DemandShard&) = delete;
  DemandShard& operator=(const DemandShard&) = delete;

  /// Reader probe (any thread) for a pair_key(): the pair's
  /// planned_bits, or kUnplannedBits when the pair is unknown.  Takes no
  /// lock, allocates nothing and never waits.  `hazard` belongs to the
  /// calling thread.
  uint32_t find(uint64_t key, HazardSlot& hazard) const;

  // ---- writer (planner thread) only ----

  /// Returns the pair_key()'s id, inserting it (unplanned, Pair reset)
  /// when unseen; kNoPair when the pair is new and the shard is at its
  /// ceiling (`inserted` untouched in that case).
  uint32_t upsert(uint64_t key, bool* inserted);
  /// Removes the pair: its entry becomes a tombstone, its id is freed.
  void erase(uint32_t id);

  bool live(uint32_t id) const {
    return id < pairs_.size() && pairs_[id].entry != kNoPair;
  }
  Pair& pair(uint32_t id) { return pairs_[id]; }
  uint32_t planned(uint32_t id) const;
  void set_planned(uint32_t id, uint32_t bits);
  /// Every live id is below this.
  uint32_t id_limit() const { return static_cast<uint32_t>(pairs_.size()); }

  /// Frees the retired indexes that no hazard slot holds.
  void collect(std::span<const HazardSlot* const> hazards);
  /// Heap bytes held: index generations (current and retired) plus the
  /// per-pair state and free-id vectors.
  std::size_t bytes() const;

  /// Live pairs (any thread; relaxed).
  std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }
  std::size_t ceiling() const { return ceiling_; }

 private:
  void rebuild(std::size_t slots);

  std::size_t ceiling_;
  std::unique_ptr<Index> index_;          ///< current generation (owned)
  std::atomic<const Index*> current_;     ///< index_, as readers see it
  std::vector<std::unique_ptr<Index>> retired_;
  std::size_t tombstones_ = 0;            ///< in index_
  std::vector<Pair> pairs_;
  std::vector<uint32_t> free_ids_;
  std::atomic<std::size_t> size_{0};
};

}  // namespace dnscup::planner
