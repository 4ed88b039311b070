// Pluggable storage backend behind server::ResolverCache — the same
// extraction pattern as net::IoBackend: the cache's observable behavior
// (lookup/put/apply_update/invalidate semantics and stats) lives in
// ResolverCache, while the entry container (hash map + LRU order +
// zone-serial sidecar) is a backend that can be swapped.
//
// Two backends exist:
//  * HeapCacheStore (here) — the original unordered_map + LRU list; all
//    state is lost on process exit.
//  * cachestore::MmapCacheStore (src/cachestore) — serves from the same
//    heap structures but mirrors every committed mutation into an
//    mmap-backed file image, so a restart reloads the cache warm.
//
// The contract around mutation: ResolverCache mutates the CacheEntry
// reference returned by find()/upsert() and then calls commit(key); a
// persistent backend re-serializes the entry at commit time.  References
// stay valid until the entry is erased (they point into heap nodes, never
// into the file image).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "server/cache.h"

namespace dnscup::server {

class CacheStoreBackend {
 public:
  virtual ~CacheStoreBackend() = default;

  /// Backend identifier ("heap", "mmap") for logs and banners.
  virtual std::string_view name() const = 0;

  virtual std::size_t size() const = 0;

  /// The entry for `key`, or nullptr.  The reference stays valid until
  /// the key is erased; mutations through it must be followed by
  /// commit(key) to reach a persistent image.
  virtual CacheEntry* find(const CacheKey& key) = 0;

  /// The same probe by a borrowed key, without allocating.
  virtual CacheEntry* find(const CacheKeyView& key) = 0;

  /// Inserts (default-constructed) or returns the existing entry;
  /// `inserted` reports which.  A fresh insert lands at the LRU front.
  virtual CacheEntry& upsert(const CacheKey& key, bool& inserted) = 0;

  /// Re-persists an entry after in-place mutation (no-op on heap).
  virtual void commit(const CacheKey& key) { (void)key; }

  virtual bool erase(const CacheKey& key) = 0;

  /// Moves the entry to the LRU front.
  virtual void touch(const CacheKey& key) = 0;

  /// Moves `entry` — what find(key) returned, not erased since — to the
  /// LRU front without probing for it again.
  virtual void touch(const CacheKeyView& key, CacheEntry& entry) = 0;

  struct Victim {
    CacheKey key;
    bool leased = false;  ///< lease still valid at candidate time
  };
  /// The entry eviction should claim next: the least-recently-used entry
  /// without a *valid* lease at `now` (expired leases do not protect),
  /// falling back to the least-recently-used validly-leased entry when
  /// every entry is leased.  nullopt only when the store is empty.
  virtual std::optional<Victim> evict_candidate(net::SimTime now) const = 0;

  using EntryFn = std::function<void(const CacheKey&, const CacheEntry&)>;
  virtual void for_each(const EntryFn& fn) const = 0;

  // Zone-serial sidecar: the highest serial applied per zone, persisted
  // alongside the entries so a warm restart can prove its data current
  // against the authority's SUBSCRIBE_ACK inventory.
  virtual void put_zone_serial(const dns::Name& zone, uint32_t serial) = 0;
  virtual std::vector<std::pair<dns::Name, uint32_t>> zone_serials()
      const = 0;
};

/// The original concrete store: unordered_map keyed by CacheKey plus an
/// LRU list (front = most recent).  MmapCacheStore derives from this and
/// mirrors mutations into its file image.
class HeapCacheStore : public CacheStoreBackend {
 public:
  std::string_view name() const override { return "heap"; }
  std::size_t size() const override { return entries_.size(); }
  CacheEntry* find(const CacheKey& key) override;
  CacheEntry* find(const CacheKeyView& key) override;
  CacheEntry& upsert(const CacheKey& key, bool& inserted) override;
  bool erase(const CacheKey& key) override;
  void touch(const CacheKey& key) override;
  void touch(const CacheKeyView& key, CacheEntry& entry) override;
  std::optional<Victim> evict_candidate(net::SimTime now) const override;
  void for_each(const EntryFn& fn) const override;
  void put_zone_serial(const dns::Name& zone, uint32_t serial) override;
  std::vector<std::pair<dns::Name, uint32_t>> zone_serials() const override;

 protected:
  /// A map node is its entry: every CacheEntry this store hands out is
  /// the base of a Node, so touch(key, entry) reaches the LRU position
  /// from the entry alone.
  struct Node : CacheEntry {
    std::list<CacheKey>::iterator lru_it;
  };

  std::unordered_map<CacheKey, Node, CacheKeyHash, CacheKeyEq> entries_;
  std::list<CacheKey> lru_;  ///< front = most recent
  std::map<dns::Name, uint32_t> zone_serials_;
};

}  // namespace dnscup::server
