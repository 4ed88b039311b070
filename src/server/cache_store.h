// Pluggable storage backend behind server::ResolverCache — the same
// extraction pattern as net::IoBackend: the cache's observable behavior
// (lookup/put/apply_update/invalidate semantics and stats) lives in
// ResolverCache, while the entry container (hash map + LRU order +
// zone-serial sidecar) is a backend that can be swapped.
//
// Two backends exist:
//  * HeapCacheStore (here) — one unordered_map whose nodes are the
//    entries and link the LRU order; all state is lost on process exit.
//  * cachestore::MmapCacheStore (src/cachestore) — serves from the same
//    map, whose nodes also record their file slots, and mirrors every
//    committed mutation into an mmap-backed image, so a restart reloads
//    the cache warm.
//
// The contract around mutation: ResolverCache mutates the CacheEntry
// reference returned by find()/upsert() and then calls commit(key); a
// persistent backend re-serializes the entry at commit time.  References
// stay valid until the entry is erased (they point into heap nodes, never
// into the file image).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

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

  /// Visits every entry, most recently used first.
  using EntryFn = std::function<void(const CacheKey&, const CacheEntry&)>;
  virtual void for_each(const EntryFn& fn) const = 0;

  // Zone-serial sidecar: the highest serial applied per zone, persisted
  // alongside the entries so a warm restart can prove its data current
  // against the authority's SUBSCRIBE_ACK inventory.
  virtual void put_zone_serial(const dns::Name& zone, uint32_t serial) = 0;
  virtual std::optional<uint32_t> zone_serial(const dns::Name& zone)
      const = 0;
};

/// The in-process store: one unordered_map keyed by CacheKey whose nodes
/// also form the LRU list (front = most recent).  MmapCacheStore derives
/// from this and mirrors mutations into its file image.
class HeapCacheStore : public CacheStoreBackend {
 public:
  HeapCacheStore() = default;
  HeapCacheStore(const HeapCacheStore&) = delete;  // nodes link by address
  HeapCacheStore& operator=(const HeapCacheStore&) = delete;

  std::string_view name() const override { return "heap"; }
  std::size_t size() const override { return entries_.size(); }
  CacheEntry* find(const CacheKey& key) override { return find_node(key); }
  CacheEntry* find(const CacheKeyView& key) override { return find_node(key); }
  CacheEntry& upsert(const CacheKey& key, bool& inserted) override;
  bool erase(const CacheKey& key) override;
  void touch(const CacheKey& key) override;
  void touch(const CacheKeyView& key, CacheEntry& entry) override;
  std::optional<Victim> evict_candidate(net::SimTime now) const override;
  void for_each(const EntryFn& fn) const override;
  void put_zone_serial(const dns::Name& zone, uint32_t serial) override;
  std::optional<uint32_t> zone_serial(const dns::Name& zone) const override;

 protected:
  /// No file slot: not (yet) in a persistent image, or no image at all.
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  /// A map node is its entry and its place in the LRU list: every
  /// CacheEntry this store hands out is the base of a Node, so
  /// touch(key, entry) reaches the LRU links from the entry alone.
  struct Node : CacheEntry {
    const CacheKey* key = nullptr;  ///< the map key this node sits under
    Node* newer = nullptr;          ///< null at the most recent node
    Node* older = nullptr;          ///< null at the least recent node
    uint32_t slot = kNoSlot;        ///< MmapCacheStore's file slot
  };
  struct ZoneSerial {
    uint32_t serial = 0;
    uint32_t slot = kNoSlot;  ///< MmapCacheStore's file slot
  };

  template <typename Key>
  Node* find_node(const Key& key) {
    auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second;
  }
  /// Moves `node` to the LRU front: every touch ends here, so a
  /// persistent store overrides it to stamp the node's slot as well.
  virtual void to_front(Node& node);

  std::unordered_map<CacheKey, Node, CacheKeyHash, CacheKeyEq> entries_;
  Node* most_recent_ = nullptr;
  Node* least_recent_ = nullptr;
  std::map<dns::Name, ZoneSerial> zone_serials_;

 private:
  void unlink(Node& node);
  void link_front(Node& node);
};

}  // namespace dnscup::server
