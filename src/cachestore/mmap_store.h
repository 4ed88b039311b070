// Mmap-backed persistent cache store: the dnsforwarder-style "cache file"
// adapted to the ResolverCache storage seam (server/cache_store.h).
//
// The store *serves* from the inherited heap map — lookups, LRU order and
// eviction behave exactly like HeapCacheStore, which is what the
// backend-equivalence tests assert — and mirrors every committed mutation
// into a memory-mapped file image:
//
//   [ header page, 4 KiB ]   magic, version, geometry, slab bump pointer,
//                            wall-clock epoch, CRC
//   [ slot table ]           slot_count × 512 B fixed slots, handed out
//                            from the front; each slot carries the
//                            entry's metadata + name text, a CRC over
//                            everything but the LRU tick, and a (offset,
//                            length, CRC) reference into the slab
//   [ slab arena ]           bump-allocated RRset wire data — the PR-4
//                            ByteWriter encode path (encode_rrset), one
//                            self-contained message per entry
//
// The heap map is the only index: each node records its slot, so commit,
// erase and touch go straight to it.  Killed slots are reused first, so
// the used slots form a prefix and the first never-used one ends every
// scan.  Zone serials ride in the same table as state=kZone slots.
//
// open() validates magic/version/geometry/CRC and falls back to a clean
// cold image on any mismatch; on a valid image it adopts every intact
// slot, decaying TTL and lease times by the wall-clock downtime (the
// persisted epoch maps the writing process's SimTime 0 to CLOCK_REALTIME;
// the delta between epochs is exactly the time the cache was down), then
// rewrites the image fresh against the new epoch — which also compacts
// the slab and clears tombstones.  A cold start and that rewrite drop
// the old image by truncating the file to zero and back, never writing
// the whole table.  Torn slots (a kill -9 mid-memcpy) simply fail their
// CRC and are dropped.
//
// Single-threaded like the rest of a worker's cache stack: one store per
// worker, one file per shard (dnscached names them cache-shard-<i>).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "server/cache_store.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::cachestore {

class MmapCacheStore final : public server::HeapCacheStore {
 public:
  struct Options {
    std::string path;
    /// Total file size; geometry (slot count, slab bytes) derives from
    /// it.  Clamped to at least 1 MiB.
    std::size_t file_bytes = 64ull << 20;
    /// The adopting runtime's SimTime at open (usually ~0): entries whose
    /// decayed TTL *and* lease are both past this are dropped at load.
    net::SimTime now = 0;
    /// False demotes warm-loaded lease state to plain TTL at load — the
    /// safe choice when no push channel will re-adopt the leases (dnscup
    /// or the push plane disabled), since honoring a lease the authority
    /// no longer serves pushes for risks stale serves.
    bool keep_leases = true;
    /// Registry for cache_store_* gauges/counters (default when null).
    metrics::MetricsRegistry* metrics = nullptr;
    /// Test hook: CLOCK_REALTIME stand-in in µs (0 = read the real clock).
    /// Downtime decay across restarts is the delta between the persisted
    /// and current wall epoch, so tests fake downtime by advancing this.
    int64_t wall_now_us = 0;
  };

  struct LoadReport {
    bool cold = true;              ///< started from an empty image
    std::string cold_reason;       ///< "fresh file", "bad version", ...
    uint64_t warm_entries = 0;     ///< entries adopted from the image
    uint64_t expired_dropped = 0;  ///< dead after downtime TTL decay
    uint64_t torn_dropped = 0;     ///< CRC-invalid or unparsable slots
    uint64_t leases_demoted = 0;   ///< lease state cleared (keep_leases off)
    uint64_t zones_loaded = 0;     ///< zone-serial slots adopted
    int64_t downtime_us = 0;       ///< wall-clock decay applied at load
  };

  /// Opens (creating or adopting) the file at options.path.  Fails only
  /// on I/O errors (open/truncate/mmap); a damaged or mismatched image is
  /// not an error — it cold-starts, and load_report() says why.
  static util::Result<std::unique_ptr<MmapCacheStore>> open(Options options);

  ~MmapCacheStore() override;

  // CacheStoreBackend — lookup/LRU/eviction behavior is inherited from
  // HeapCacheStore verbatim; only the mutating calls add a file mirror.
  std::string_view name() const override { return "mmap"; }
  void commit(const server::CacheKey& key) override;
  bool erase(const server::CacheKey& key) override;
  void put_zone_serial(const dns::Name& zone, uint32_t serial) override;

  const LoadReport& load_report() const { return load_; }
  std::size_t slot_count() const { return slot_count_; }
  /// Slots holding a live entry or zone serial in the file image.
  std::size_t slots_used() const { return slots_used_; }

 private:
  explicit MmapCacheStore(Options options);

  /// Drops the old image without writing it (truncate to zero and back),
  /// re-anchors the wall epoch and writes a fresh header; used both for
  /// cold starts and for the post-load rewrite.
  util::Status reset_image(int64_t wall_now);
  util::Status cold_init(const std::string& reason, int64_t wall_now);
  util::Status load_image(int64_t wall_now);
  void write_header();

  uint8_t* slot_ptr(uint32_t index) const;
  /// A slot for a new record: a killed one if any, else the first
  /// never-used one; kNoSlot when the table is full.
  uint32_t alloc_slot();
  /// Kills `*slot` (when set) for reuse and resets it to kNoSlot.
  void release_slot(uint32_t* slot);
  /// Appends `payload` to the slab, compacting once if full.  Returns
  /// false (persist failure) when the slab cannot take it even compacted.
  bool slab_append(std::span<const uint8_t> payload, uint64_t* off);
  void compact_slab();
  /// A touch: the heap relink plus a fresh LRU tick on the node's slot.
  void to_front(Node& node) override;
  /// Seals `image` into `*slot`, allocating one with a fresh LRU tick
  /// when it is kNoSlot; an overwrite keeps the tick (a commit is not a
  /// use).  False when the table is full.
  bool write_slot(uint32_t* slot, std::span<uint8_t> image);
  void persist(Node& node);
  void persist_zone(const dns::Name& zone, ZoneSerial& record);

  Options options_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::size_t slot_count_ = 0;
  std::size_t slab_off_ = 0;     ///< file offset of the slab arena
  std::size_t slab_bytes_ = 0;
  uint64_t slab_used_ = 0;
  int64_t wall_epoch_us_ = 0;    ///< CLOCK_REALTIME µs at SimTime 0
  uint64_t lru_tick_ = 0;        ///< monotone LRU stamp for slot ordering
  uint32_t next_slot_ = 0;       ///< slots at and past this were never used
  std::vector<uint32_t> free_slots_;  ///< killed slots below next_slot_
  std::size_t slots_used_ = 0;
  LoadReport load_;

  metrics::Gauge file_bytes_gauge_;
  metrics::Gauge slots_used_gauge_;
  metrics::Gauge warm_entries_gauge_;
  metrics::Counter cold_starts_;
  metrics::Counter persist_failed_slab_;
  metrics::Counter persist_failed_table_;
  metrics::Counter compactions_;
};

}  // namespace dnscup::cachestore
