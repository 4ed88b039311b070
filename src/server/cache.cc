#include "server/cache.h"

#include <algorithm>

#include "server/cache_store.h"
#include "util/assert.h"

namespace dnscup::server {

namespace {
/// EWMA weight of the newest gap.
constexpr double kSmoothing = 1.0 / 8;
/// One SimTime tick, in seconds.
constexpr double kMinGap = 1e-6;
}  // namespace

void ClientRate::record(net::SimTime now) {
  if (last_ != kNever) {
    const double gap = std::max(net::to_seconds(now - last_), 0.0);
    mean_gap_ = seeded() ? mean_gap_ + kSmoothing * (gap - mean_gap_) : gap;
  }
  last_ = now;
}

double ClientRate::rate(net::SimTime now) const {
  if (!seeded()) return kUnseededRate;
  const double idle = net::to_seconds(now - last_);
  return 1.0 / std::max({mean_gap_, idle, kMinGap});
}

ResolverCache::ResolverCache(std::size_t capacity,
                             metrics::MetricsRegistry* metrics)
    : ResolverCache(capacity, metrics, nullptr) {}

ResolverCache::ResolverCache(std::size_t capacity,
                             metrics::MetricsRegistry* metrics,
                             std::unique_ptr<CacheStoreBackend> store)
    : capacity_(capacity), store_(std::move(store)) {
  if (store_ == nullptr) store_ = std::make_unique<HeapCacheStore>();
  auto& registry = metrics::resolve(metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("resolver_cache")}};
  auto labeled = [&](const char* key, const char* value) {
    metrics::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  stats_.hits = registry.counter("resolver_cache_lookups",
                                 labeled("result", "hit"));
  stats_.misses = registry.counter("resolver_cache_lookups",
                                   labeled("result", "miss"));
  stats_.expired = registry.counter("resolver_cache_lookups",
                                    labeled("result", "expired"));
  stats_.insertions = registry.counter("resolver_cache_mutations",
                                       labeled("op", "insert"));
  stats_.invalidations = registry.counter("resolver_cache_mutations",
                                          labeled("op", "invalidate"));
  stats_.evictions = registry.counter("resolver_cache_mutations",
                                      labeled("op", "evict"));
  stats_.leased_evictions = registry.counter("resolver_cache_evictions",
                                             labeled("leased", "true"));
  stats_.unleased_evictions = registry.counter("resolver_cache_evictions",
                                               labeled("leased", "false"));
}

ResolverCache::~ResolverCache() = default;

ResolverCache::Stats ResolverCache::stats() const {
  return Stats{
      .hits = stats_.hits,
      .misses = stats_.misses,
      .expired = stats_.expired,
      .insertions = stats_.insertions,
      .invalidations = stats_.invalidations,
      .evictions = stats_.evictions,
      .leased_evictions = stats_.leased_evictions,
  };
}

std::size_t ResolverCache::size() const { return store_->size(); }

void ResolverCache::for_each_impl(
    const std::function<void(const CacheKey&, const CacheEntry&)>& fn) const {
  store_->for_each(fn);
}

const CacheEntry* ResolverCache::lookup(const dns::Name& name,
                                        dns::RRType type, net::SimTime now) {
  const CacheKey key{name, type};
  CacheEntry* entry = store_->find(key);
  if (entry == nullptr) {
    ++stats_.misses;
    return nullptr;
  }
  if (!entry->fresh(now)) {
    ++stats_.expired;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  store_->touch(key);
  return entry;
}

CacheEntry* ResolverCache::peek(const dns::Name& name, dns::RRType type) {
  return store_->find(CacheKey{name, type});
}

CacheEntry* ResolverCache::peek(const CacheKeyView& key) {
  return store_->find(key);
}

void ResolverCache::record_hit(const CacheKeyView& key, CacheEntry& entry) {
  ++stats_.hits;
  store_->touch(key, entry);
}

CacheEntry& ResolverCache::put(const dns::RRset& rrset, net::SimTime now) {
  const CacheKey key{rrset.name, rrset.type};
  bool inserted = false;
  CacheEntry& entry = store_->upsert(key, inserted);
  if (inserted) {
    ++stats_.insertions;
  } else {
    store_->touch(key);
    // Keep lease state across refreshes: a TTL refresh does not end a lease.
  }
  entry.rrset = rrset;
  entry.negative = false;
  entry.inserted_at = now;
  entry.expiry = now + net::seconds(rrset.ttl);
  store_->commit(key);
  evict_if_needed(now);
  return entry;
}

CacheEntry& ResolverCache::put_negative(const dns::Name& name,
                                        dns::RRType type, dns::Rcode rcode,
                                        uint32_t ttl, net::SimTime now) {
  const CacheKey key{name, type};
  bool inserted = false;
  CacheEntry& entry = store_->upsert(key, inserted);
  if (inserted) {
    ++stats_.insertions;
  } else {
    store_->touch(key);
  }
  entry.rrset = dns::RRset{name, type, dns::RRClass::kIN, ttl, {}};
  entry.negative = true;
  entry.negative_rcode = rcode;
  entry.inserted_at = now;
  entry.expiry = now + net::seconds(ttl);
  entry.lease.reset();
  store_->commit(key);
  evict_if_needed(now);
  return entry;
}

CacheEntry& ResolverCache::apply_update(const dns::RRset& rrset,
                                        net::SimTime now) {
  CacheEntry& entry = put(rrset, now);
  return entry;
}

bool ResolverCache::invalidate(const dns::Name& name, dns::RRType type) {
  if (!store_->erase(CacheKey{name, type})) return false;
  ++stats_.invalidations;
  return true;
}

bool ResolverCache::set_lease(const dns::Name& name, dns::RRType type,
                              const std::optional<LeaseState>& lease) {
  const CacheKey key{name, type};
  CacheEntry* entry = store_->find(key);
  if (entry == nullptr) return false;
  entry->lease = lease;
  store_->commit(key);
  return true;
}

void ResolverCache::commit(const dns::Name& name, dns::RRType type) {
  store_->commit(CacheKey{name, type});
}

std::size_t ResolverCache::purge_expired(net::SimTime now) {
  // An entry whose TTL *and* lease have both run out is dead weight: it
  // can never be served again, only replaced.  fresh() captures exactly
  // that — an expired lease does not protect an expired entry.
  std::vector<CacheKey> doomed;
  store_->for_each([&](const CacheKey& key, const CacheEntry& entry) {
    if (!entry.fresh(now)) doomed.push_back(key);
  });
  for (const CacheKey& key : doomed) store_->erase(key);
  return doomed.size();
}

void ResolverCache::note_zone_serial(const dns::Name& zone, uint32_t serial) {
  store_->put_zone_serial(zone, serial);
}

std::optional<uint32_t> ResolverCache::zone_serial(
    const dns::Name& zone) const {
  return store_->zone_serial(zone);
}

void ResolverCache::evict_if_needed(net::SimTime now) {
  if (capacity_ == 0) return;
  while (store_->size() > capacity_) {
    const auto victim = store_->evict_candidate(now);
    if (!victim.has_value()) return;
    store_->erase(victim->key);
    ++stats_.evictions;
    if (victim->leased) {
      // Last resort: the authority believes we hold this record.  The
      // eviction is observable (resolver_cache_evictions{leased=true})
      // and the next query re-negotiates the lease instead of serving
      // from a cache slot we no longer have.
      ++stats_.leased_evictions;
    } else {
      ++stats_.unleased_evictions;
    }
  }
}

}  // namespace dnscup::server
