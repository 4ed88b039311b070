#include "server/cache_store.h"

namespace dnscup::server {

CacheEntry* HeapCacheStore::find(const CacheKey& key) {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

CacheEntry* HeapCacheStore::find(const CacheKeyView& key) {
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

CacheEntry& HeapCacheStore::upsert(const CacheKey& key, bool& inserted) {
  auto [it, fresh] = entries_.try_emplace(key);
  inserted = fresh;
  if (fresh) {
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
  }
  return it->second;
}

bool HeapCacheStore::erase(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
  return true;
}

void HeapCacheStore::touch(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
}

void HeapCacheStore::touch(const CacheKeyView& key, CacheEntry& entry) {
  (void)key;
  lru_.splice(lru_.begin(), lru_, static_cast<Node&>(entry).lru_it);
}

std::optional<CacheStoreBackend::Victim> HeapCacheStore::evict_candidate(
    net::SimTime now) const {
  if (lru_.size() < 2) return std::nullopt;
  // Prefer the LRU-most entry without a valid lease; fall back to the
  // LRU-most leased entry (the caller counts that separately — the
  // authority believes we hold it, and the next query re-negotiates).
  // The MRU entry is never a candidate: it may be the insertion that
  // triggered the eviction, and callers hold a reference to it.
  std::optional<Victim> leased_fallback;
  auto stop = lru_.rend();
  --stop;  // reverse iteration ends before the LRU front (MRU entry)
  for (auto it = lru_.rbegin(); it != stop; ++it) {
    const CacheEntry& entry = entries_.at(*it);
    const bool lease_valid =
        entry.lease.has_value() && now < entry.lease->expiry;
    if (!lease_valid) return Victim{*it, false};
    if (!leased_fallback.has_value()) leased_fallback = Victim{*it, true};
  }
  return leased_fallback;
}

void HeapCacheStore::for_each(const EntryFn& fn) const {
  for (const auto& [key, node] : entries_) fn(key, node);
}

void HeapCacheStore::put_zone_serial(const dns::Name& zone, uint32_t serial) {
  zone_serials_[zone] = serial;
}

std::vector<std::pair<dns::Name, uint32_t>> HeapCacheStore::zone_serials()
    const {
  return {zone_serials_.begin(), zone_serials_.end()};
}

}  // namespace dnscup::server
