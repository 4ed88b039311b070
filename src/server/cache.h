// TTL cache of a local DNS nameserver ("DNS cache" in the paper's
// terminology).  Entries expire by TTL — the classic *weak* consistency
// DNScup strengthens.  Each entry also carries optional lease state so the
// DNScup cache-side module can mark records as push-maintained; the cache
// itself stays oblivious to how leases are negotiated.
//
// Storage is pluggable (cache_store.h): the cache's observable behavior —
// lookup/put/apply_update/invalidate semantics, LRU eviction policy and
// the resolver_cache_* stats — lives here, while the entry container is a
// CacheStoreBackend.  The default backend is the in-process heap store;
// cachestore::MmapCacheStore adds an mmap-backed persistent image so
// dnscached restarts warm.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "dns/message.h"
#include "dns/rr.h"
#include "net/endpoint.h"
#include "net/time.h"
#include "util/hash.h"
#include "util/metrics.h"

namespace dnscup::server {

struct CacheKey {
  dns::Name name;
  dns::RRType type;

  bool operator==(const CacheKey& other) const {
    return type == other.type && name == other.name;
  }
};

/// Borrowed probe key for allocation-free lookups: a NameView over the
/// request bytes plus a type, with its CacheKeyHash computed once for the
/// store's map — the only index over cached entries; a persistent store
/// reaches an entry's file slot through the map node, never by hash.
/// Valid only while the viewed bytes are.
struct CacheKeyView {
  CacheKeyView(const dns::NameView& n, dns::RRType t);

  const dns::NameView& name;
  dns::RRType type;
  std::size_t hash;
};

struct CacheKeyHash {
  using is_transparent = void;

  /// splitmix64 finalizer over the (name hash, type) pair: the same
  /// full-avalanche mix the planner's demand table probes on.
  static std::size_t mix(std::size_t name_hash, dns::RRType type) {
    return static_cast<std::size_t>(util::splitmix64_mix(
        static_cast<uint64_t>(name_hash) * 31u +
        static_cast<uint64_t>(type)));
  }
  std::size_t operator()(const CacheKey& k) const {
    return mix(k.name.hash(), k.type);
  }
  std::size_t operator()(const CacheKeyView& k) const { return k.hash; }
};

struct CacheKeyEq {
  using is_transparent = void;
  bool operator()(const CacheKey& a, const CacheKey& b) const {
    return a == b;
  }
  bool operator()(const CacheKey& a, const CacheKeyView& b) const {
    return a.type == b.type && b.name.equals(a.name);
  }
  bool operator()(const CacheKeyView& a, const CacheKey& b) const {
    return (*this)(b, a);
  }
};

inline CacheKeyView::CacheKeyView(const dns::NameView& n, dns::RRType t)
    : name(n), type(t), hash(CacheKeyHash::mix(n.hash(), t)) {}

struct LeaseState {
  net::SimTime expiry = 0;        ///< lease valid until this instant
  net::Endpoint authority;        ///< grantor; only it may push updates
  // Re-negotiation bookkeeping of the lease-holding client (never
  // persisted: a warm-loaded lease starts without it and is not
  // re-negotiated until the next grant).
  double rate_at_grant = 0.0;     ///< client query rate reported at grant
  net::SimTime last_renegotiation = 0;
};

struct CacheEntry {
  dns::RRset rrset;               ///< empty for negative entries
  bool negative = false;
  dns::Rcode negative_rcode = dns::Rcode::kNXDomain;
  net::SimTime inserted_at = 0;
  net::SimTime expiry = 0;        ///< TTL expiry
  std::optional<LeaseState> lease;

  /// Usable at `now`: TTL-fresh, or covered by a still-valid lease (a
  /// leased record is authoritative until the lease expires or an update
  /// arrives — the paper's strong-consistency invariant).
  bool fresh(net::SimTime now) const {
    if (now < expiry) return true;
    return lease.has_value() && now < lease->expiry;
  }

  /// Whole seconds of TTL left at `now`; 0 once the TTL ran out (a leased
  /// entry past its TTL answers with TTL 0).
  uint32_t remaining_ttl(net::SimTime now) const {
    const auto left = (expiry - now) / net::seconds(1);
    return left > 0 ? static_cast<uint32_t>(left) : 0;
  }
};

class CacheStoreBackend;  // cache_store.h

class ResolverCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t expired = 0;     ///< lookups that found only a stale entry
    uint64_t insertions = 0;
    uint64_t invalidations = 0;
    uint64_t evictions = 0;
    uint64_t leased_evictions = 0;  ///< evictions of validly-leased entries
  };

  /// `capacity` bounds the entry count (LRU eviction); 0 = unbounded.
  /// Counters register in `metrics` (default_registry() when null) under
  /// resolver_cache_* with a per-instance label.  `store` selects the
  /// storage backend (null = heap); a persistent backend may already hold
  /// warm-reloaded entries, which are adopted without counting as
  /// insertions.
  explicit ResolverCache(std::size_t capacity = 0,
                         metrics::MetricsRegistry* metrics = nullptr);
  ResolverCache(std::size_t capacity, metrics::MetricsRegistry* metrics,
                std::unique_ptr<CacheStoreBackend> store);
  ~ResolverCache();

  ResolverCache(const ResolverCache&) = delete;
  ResolverCache& operator=(const ResolverCache&) = delete;

  /// Fresh entry lookup; counts hit/miss/expired.  Returns nullptr on miss.
  const CacheEntry* lookup(const dns::Name& name, dns::RRType type,
                           net::SimTime now);

  /// Non-counting peek at an entry regardless of freshness.  In-place
  /// mutations through the returned pointer reach a persistent backend
  /// only after commit() — prefer set_lease() for lease changes.
  CacheEntry* peek(const dns::Name& name, dns::RRType type);

  /// The same probe by a borrowed key: no allocation, no count, no LRU
  /// change — so a caller that declines the entry leaves no trace.
  CacheEntry* peek(const CacheKeyView& key);

  /// Commits a hit on `entry`, which peek(key) just returned: counts it
  /// as lookup() does and moves it to the LRU front without re-probing.
  void record_hit(const CacheKeyView& key, CacheEntry& entry);

  /// Inserts a positive entry.
  CacheEntry& put(const dns::RRset& rrset, net::SimTime now);

  /// Inserts a negative entry (RFC 2308), TTL from the zone SOA minimum.
  CacheEntry& put_negative(const dns::Name& name, dns::RRType type,
                           dns::Rcode rcode, uint32_t ttl, net::SimTime now);

  /// Applies a pushed DNScup update: replaces the entry's data in place,
  /// refreshing TTL.  Creates the entry if missing.
  CacheEntry& apply_update(const dns::RRset& rrset, net::SimTime now);

  /// Drops an entry (e.g. a pushed deletion).  Returns true if present.
  bool invalidate(const dns::Name& name, dns::RRType type);

  /// Sets or clears an entry's lease state through the storage seam, so
  /// persistent backends see the mutation.  False when nothing is cached.
  bool set_lease(const dns::Name& name, dns::RRType type,
                 const std::optional<LeaseState>& lease);

  /// Re-persists an entry after in-place mutation via peek()/put()
  /// references.  No-op on the heap backend or when the key is absent.
  void commit(const dns::Name& name, dns::RRType type);

  /// Removes every entry that is neither TTL-fresh nor covered by a valid
  /// lease at `now` (an expired lease does not keep an expired entry
  /// alive); returns count removed.
  std::size_t purge_expired(net::SimTime now);

  /// Records the highest zone serial applied (persisted by a persistent
  /// backend so a warm restart only refetches on a real serial gap).
  void note_zone_serial(const dns::Name& zone, uint32_t serial);
  /// The serial noted for `zone`, if any.
  std::optional<uint32_t> zone_serial(const dns::Name& zone) const;

  std::size_t size() const;
  /// Value snapshot of the registry-backed counters.
  Stats stats() const;

  CacheStoreBackend& store() { return *store_; }
  const CacheStoreBackend& store() const { return *store_; }

  /// Iterates all entries, most recently used first (tests, the DNScup
  /// lease module and the warm-restart survivor announcement).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for_each_impl(
        [&fn](const CacheKey& key, const CacheEntry& entry) { fn(key, entry); });
  }

 private:
  /// Registry-backed instruments mirroring Stats field-for-field; bump
  /// sites write through these handles, stats() materializes the values.
  struct Instruments {
    metrics::Counter hits;
    metrics::Counter misses;
    metrics::Counter expired;
    metrics::Counter insertions;
    metrics::Counter invalidations;
    metrics::Counter evictions;
    metrics::Counter leased_evictions;
    metrics::Counter unleased_evictions;
  };

  void for_each_impl(
      const std::function<void(const CacheKey&, const CacheEntry&)>& fn) const;
  void evict_if_needed(net::SimTime now);

  std::size_t capacity_;
  std::unique_ptr<CacheStoreBackend> store_;
  Instruments stats_;
};

}  // namespace dnscup::server
