#include "server/cache_store.h"

namespace dnscup::server {

CacheEntry& HeapCacheStore::upsert(const CacheKey& key, bool& inserted) {
  auto [it, fresh] = entries_.try_emplace(key);
  inserted = fresh;
  if (fresh) {
    it->second.key = &it->first;
    link_front(it->second);
  }
  return it->second;
}

bool HeapCacheStore::erase(const CacheKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  unlink(it->second);
  entries_.erase(it);
  return true;
}

void HeapCacheStore::touch(const CacheKey& key) {
  if (Node* node = find_node(key)) to_front(*node);
}

void HeapCacheStore::touch(const CacheKeyView& key, CacheEntry& entry) {
  (void)key;
  to_front(static_cast<Node&>(entry));
}

void HeapCacheStore::to_front(Node& node) {
  unlink(node);
  link_front(node);
}

void HeapCacheStore::unlink(Node& node) {
  (node.newer != nullptr ? node.newer->older : most_recent_) = node.older;
  (node.older != nullptr ? node.older->newer : least_recent_) = node.newer;
}

void HeapCacheStore::link_front(Node& node) {
  node.newer = nullptr;
  node.older = most_recent_;
  (most_recent_ != nullptr ? most_recent_->newer : least_recent_) = &node;
  most_recent_ = &node;
}

std::optional<CacheStoreBackend::Victim> HeapCacheStore::evict_candidate(
    net::SimTime now) const {
  // Prefer the LRU-most entry without a valid lease; fall back to the
  // LRU-most leased entry (the caller counts that separately — the
  // authority believes we hold it, and the next query re-negotiates).
  // The MRU entry is never a candidate: it may be the insertion that
  // triggered the eviction, and callers hold a reference to it.
  std::optional<Victim> leased_fallback;
  for (const Node* node = least_recent_; node != most_recent_;
       node = node->newer) {
    const bool lease_valid =
        node->lease.has_value() && now < node->lease->expiry;
    if (!lease_valid) return Victim{*node->key, false};
    if (!leased_fallback.has_value()) {
      leased_fallback = Victim{*node->key, true};
    }
  }
  return leased_fallback;
}

void HeapCacheStore::for_each(const EntryFn& fn) const {
  for (const Node* node = most_recent_; node != nullptr; node = node->older) {
    fn(*node->key, *node);
  }
}

void HeapCacheStore::put_zone_serial(const dns::Name& zone, uint32_t serial) {
  zone_serials_[zone].serial = serial;
}

std::optional<uint32_t> HeapCacheStore::zone_serial(
    const dns::Name& zone) const {
  auto it = zone_serials_.find(zone);
  if (it == zone_serials_.end()) return std::nullopt;
  return it->second.serial;
}

}  // namespace dnscup::server
