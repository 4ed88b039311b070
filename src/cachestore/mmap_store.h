// Mmap-backed persistent cache store: the dnsforwarder-style "cache file"
// adapted to the ResolverCache storage seam (server/cache_store.h).
//
// The store *serves* from the inherited heap structures — lookups, LRU
// order and eviction behave exactly like HeapCacheStore, which is what the
// backend-equivalence tests assert — and mirrors every committed mutation
// into a memory-mapped file image:
//
//   [ header page, 4 KiB ]   magic, version, geometry, slab bump pointer,
//                            wall-clock epoch, CRC
//   [ slot table ]           slot_count × 512 B fixed slots, open-addressed
//                            (linear probing) on the splitmix64-mixed
//                            CacheKeyHash; each slot carries the entry's
//                            metadata + name text, a CRC over everything
//                            but the LRU tick, and a (offset, length, CRC)
//                            reference into the slab
//   [ slab arena ]           bump-allocated RRset wire data — the PR-4
//                            ByteWriter encode path (encode_rrset), one
//                            self-contained message per entry
//
// Zone serials ride in the same slot table as state=kZone slots, so the
// "highest serial applied" sidecar survives restarts too.
//
// open() validates magic/version/geometry/CRC and falls back to a clean
// cold image on any mismatch; on a valid image it adopts every intact
// slot, decaying TTL and lease times by the wall-clock downtime (the
// persisted epoch maps the writing process's SimTime 0 to CLOCK_REALTIME;
// the delta between epochs is exactly the time the cache was down), then
// rewrites the image fresh against the new epoch — which also compacts
// the slab and clears tombstones.  Torn slots (a kill -9 mid-memcpy)
// simply fail their CRC and are dropped.
//
// Single-threaded like the rest of a worker's cache stack: one store per
// worker, one file per shard (dnscached names them cache-shard-<i>).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

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
  void touch(const server::CacheKey& key) override;
  void touch(const server::CacheKeyView& key,
             server::CacheEntry& entry) override;
  void put_zone_serial(const dns::Name& zone, uint32_t serial) override;

  const LoadReport& load_report() const { return load_; }
  std::size_t file_bytes() const { return file_bytes_; }
  std::size_t slot_count() const { return slot_count_; }
  /// Slots holding a live entry or zone serial in the file image.
  std::size_t slots_used() const { return slots_used_; }

  /// Asks the kernel to start writing dirty pages back (msync MS_ASYNC);
  /// the destructor does a synchronous flush.
  void flush();

 private:
  explicit MmapCacheStore(Options options);

  /// Zeroes the slot table, re-anchors the wall epoch and rewrites the
  /// header; used both for cold starts and for the post-load rewrite.
  void reset_image(int64_t wall_now);
  void cold_init(const std::string& reason, int64_t wall_now);
  void load_image(int64_t wall_now);
  void write_header();

  uint8_t* slot_ptr(std::size_t index) const;
  /// Probes for the slot holding `key_hash` + matching identity;
  /// `insert_at` (may be null) receives the best insertion slot (first
  /// dead/free seen).  Returns slot_count() when not found.
  std::size_t probe(uint64_t key_hash, uint32_t want_state,
                    std::string_view name_text, uint16_t rrtype,
                    std::size_t* insert_at) const;
  /// Appends `payload` to the slab, compacting once if full.  Returns
  /// false (persist failure) when the slab cannot take it even compacted.
  bool slab_append(std::span<const uint8_t> payload, uint64_t* off);
  void compact_slab();
  /// Stamps a fresh LRU tick on the entry's slot (no-op when absent).
  void touch_slot(uint64_t key_hash, std::string_view text, dns::RRType type);
  void write_slot(std::size_t index, std::span<const uint8_t> image);
  void kill_slot(std::size_t index);
  void persist_entry(const server::CacheKey& key,
                     const server::CacheEntry& entry);
  void persist_zone(const dns::Name& zone, uint32_t serial);

  Options options_;
  int fd_ = -1;
  uint8_t* map_ = nullptr;
  std::size_t file_bytes_ = 0;
  std::size_t slot_count_ = 0;   ///< power of two
  std::size_t slab_off_ = 0;     ///< file offset of the slab arena
  std::size_t slab_bytes_ = 0;
  uint64_t slab_used_ = 0;
  int64_t wall_epoch_us_ = 0;    ///< CLOCK_REALTIME µs at SimTime 0
  uint64_t lru_tick_ = 0;        ///< monotone LRU stamp for slot ordering
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
