#include "planner/demand_table.h"

#include <algorithm>
#include <bit>

#include "util/assert.h"
#include "util/hash.h"

namespace dnscup::planner {

struct DemandShard::Index {
  struct Entry {
    std::atomic<uint64_t> key{0};
    std::atomic<uint32_t> planned_bits{kUnplannedBits};
    /// The pair's dense id; written before the key is published and read
    /// only by the writer.
    uint32_t id = 0;
  };
  static_assert(sizeof(Entry) == 16);

  explicit Index(std::size_t slots)
      : mask(slots - 1), entries(std::make_unique<Entry[]>(slots)) {}
  std::size_t slots() const { return mask + 1; }

  const uint64_t mask;
  const std::unique_ptr<Entry[]> entries;
};

namespace {

constexpr uint64_t kEmptyKey = 0;
constexpr uint64_t kTombstoneKey = 1;
constexpr std::size_t kMinIndexSlots = 16;
/// Keeps dense ids and entry positions inside uint32_t.
constexpr std::size_t kMaxCeiling = std::size_t{1} << 30;

/// splitmix64 finalizer (util/hash.h): full-avalanche mix so linear
/// probing sees a uniform key distribution regardless of the inputs'
/// structure.
uint64_t mix(uint64_t x) { return util::splitmix64_mix(x); }

/// A rebuilt index starts at most half full.
std::size_t slots_for(std::size_t pairs) {
  return std::max(kMinIndexSlots, std::bit_ceil(2 * pairs));
}

/// Writer-side probe: the entry holding `key`, or the empty entry that
/// ends its chain.  Every index keeps an empty entry (load <= 3/4).
uint64_t locate(const DemandShard::Index& index, uint64_t key) {
  uint64_t i = key & index.mask;
  for (;;) {
    const uint64_t k = index.entries[i].key.load(std::memory_order_relaxed);
    if (k == key || k == kEmptyKey) return i;
    i = (i + 1) & index.mask;
  }
}

}  // namespace

uint64_t pair_key(const net::Endpoint& holder, std::size_t name_hash,
                  dns::RRType type) {
  const uint64_t endpoint =
      (static_cast<uint64_t>(holder.ip) << 16) | holder.port;
  const uint64_t key =
      mix(mix(endpoint) ^ static_cast<uint64_t>(name_hash) ^
          (static_cast<uint64_t>(type) * 0x9E3779B97F4A7C15ull));
  // 0 and 1 are the empty and tombstone sentinels; remap the
  // (astronomically unlikely) real keys 0 and 1.
  return key <= kTombstoneKey ? key + 2 : key;
}

DemandShard::DemandShard(std::size_t ceiling)
    : ceiling_(std::clamp<std::size_t>(ceiling, 1, kMaxCeiling)),
      index_(std::make_unique<Index>(kMinIndexSlots)),
      current_(index_.get()) {}

DemandShard::~DemandShard() = default;

uint32_t DemandShard::find(uint64_t key, HazardSlot& hazard) const {
  // Hazard handshake with rebuild()/collect(): once the re-check sees the
  // index still current, the writer's later hazard scan sees this slot
  // holding it (both sides seq_cst), so it is not freed under the probe.
  const Index* index = current_.load(std::memory_order_acquire);
  for (;;) {
    hazard.store(index, std::memory_order_seq_cst);
    const Index* now = current_.load(std::memory_order_seq_cst);
    if (now == index) break;
    index = now;
  }
  uint32_t bits = kUnplannedBits;
  for (uint64_t i = key & index->mask;; i = (i + 1) & index->mask) {
    const Index::Entry& entry = index->entries[i];
    const uint64_t k = entry.key.load(std::memory_order_acquire);
    if (k == key) {
      bits = entry.planned_bits.load(std::memory_order_acquire);
      // Erased underneath the read: the pair is unknown.
      if (entry.key.load(std::memory_order_relaxed) != key) {
        bits = kUnplannedBits;
      }
      break;
    }
    if (k == kEmptyKey) break;
  }
  hazard.store(nullptr, std::memory_order_release);
  return bits;
}

uint32_t DemandShard::upsert(uint64_t key, bool* inserted) {
  DNSCUP_ASSERT(key > kTombstoneKey);
  uint64_t i = locate(*index_, key);
  if (index_->entries[i].key.load(std::memory_order_relaxed) == key) {
    if (inserted != nullptr) *inserted = false;
    return index_->entries[i].id;
  }
  const std::size_t live = size_.load(std::memory_order_relaxed);
  if (live >= ceiling_) return kNoPair;
  if ((live + tombstones_ + 1) * 4 > index_->slots() * 3) {
    rebuild(slots_for(live + 1));
    i = locate(*index_, key);
  }

  uint32_t id = 0;
  if (free_ids_.empty()) {
    id = static_cast<uint32_t>(pairs_.size());
    pairs_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
    pairs_[id] = Pair{};
  }
  pairs_[id].entry = static_cast<uint32_t>(i);
  Index::Entry& entry = index_->entries[i];
  entry.id = id;
  // The entry has been empty since its index was built, so planned_bits
  // still holds its kUnplannedBits default: releasing the key publishes
  // a pair that reads as unplanned.
  entry.key.store(key, std::memory_order_release);
  size_.store(live + 1, std::memory_order_relaxed);
  if (inserted != nullptr) *inserted = true;
  return id;
}

void DemandShard::erase(uint32_t id) {
  DNSCUP_ASSERT(live(id));
  Pair& pair = pairs_[id];
  index_->entries[pair.entry].key.store(kTombstoneKey,
                                        std::memory_order_release);
  pair.entry = kNoPair;
  free_ids_.push_back(id);
  ++tombstones_;
  size_.store(size_.load(std::memory_order_relaxed) - 1,
              std::memory_order_relaxed);
}

uint32_t DemandShard::planned(uint32_t id) const {
  return index_->entries[pairs_[id].entry].planned_bits.load(
      std::memory_order_relaxed);
}

void DemandShard::set_planned(uint32_t id, uint32_t bits) {
  index_->entries[pairs_[id].entry].planned_bits.store(
      bits, std::memory_order_relaxed);
}

void DemandShard::rebuild(std::size_t slots) {
  auto fresh = std::make_unique<Index>(slots);
  const Index& old = *index_;
  for (uint64_t j = 0; j < old.slots(); ++j) {
    const Index::Entry& from = old.entries[j];
    const uint64_t key = from.key.load(std::memory_order_relaxed);
    if (key == kEmptyKey || key == kTombstoneKey) continue;
    const uint64_t i = locate(*fresh, key);
    Index::Entry& to = fresh->entries[i];
    to.key.store(key, std::memory_order_relaxed);
    to.planned_bits.store(from.planned_bits.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    to.id = from.id;
    pairs_[from.id].entry = static_cast<uint32_t>(i);
  }
  tombstones_ = 0;
  // Publishes the copied entries to readers, and (seq_cst) comes before
  // collect()'s hazard scan in the handshake with find().
  current_.store(fresh.get(), std::memory_order_seq_cst);
  retired_.push_back(std::move(index_));
  index_ = std::move(fresh);
}

void DemandShard::collect(std::span<const HazardSlot* const> hazards) {
  std::erase_if(retired_, [hazards](const std::unique_ptr<Index>& index) {
    for (const HazardSlot* hazard : hazards) {
      if (hazard->load(std::memory_order_seq_cst) == index.get()) {
        return false;
      }
    }
    return true;
  });
}

std::size_t DemandShard::bytes() const {
  std::size_t total = index_->slots() * sizeof(Index::Entry);
  for (const auto& index : retired_) {
    total += index->slots() * sizeof(Index::Entry);
  }
  return total + pairs_.capacity() * sizeof(Pair) +
         free_ids_.capacity() * sizeof(uint32_t);
}

}  // namespace dnscup::planner
