#include <gtest/gtest.h>

#include "server/cache.h"

namespace dnscup::server {
namespace {

using dns::Name;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }

dns::RRset a_set(const char* name, uint32_t ttl, uint32_t addr) {
  dns::RRset set{mk(name), RRType::kA, dns::RRClass::kIN, ttl, {}};
  set.add(dns::ARdata{dns::Ipv4{addr}});
  return set;
}

TEST(ResolverCache, MissThenHit) {
  ResolverCache cache;
  EXPECT_EQ(cache.lookup(mk("a.com"), RRType::kA, 0), nullptr);
  cache.put(a_set("a.com", 300, 1), 0);
  const CacheEntry* e = cache.lookup(mk("a.com"), RRType::kA, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->negative);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ResolverCache, TtlExpiry) {
  ResolverCache cache;
  cache.put(a_set("a.com", 300, 1), 0);
  EXPECT_NE(cache.lookup(mk("a.com"), RRType::kA, net::seconds(299)),
            nullptr);
  EXPECT_EQ(cache.lookup(mk("a.com"), RRType::kA, net::seconds(300)),
            nullptr);
  EXPECT_EQ(cache.stats().expired, 1u);
}

TEST(ResolverCache, LeaseExtendsFreshnessBeyondTtl) {
  // The DNScup invariant: a leased record stays served past its TTL.
  ResolverCache cache;
  CacheEntry& e = cache.put(a_set("a.com", 300, 1), 0);
  e.lease = LeaseState{net::seconds(3600), {net::make_ip(10, 0, 0, 1), 53}};
  EXPECT_NE(cache.lookup(mk("a.com"), RRType::kA, net::seconds(1000)),
            nullptr);
  EXPECT_EQ(cache.lookup(mk("a.com"), RRType::kA, net::seconds(3600)),
            nullptr);  // lease over, TTL long gone
}

TEST(ResolverCache, NegativeEntries) {
  ResolverCache cache;
  cache.put_negative(mk("no.com"), RRType::kA, dns::Rcode::kNXDomain, 60, 0);
  const CacheEntry* e = cache.lookup(mk("no.com"), RRType::kA, 0);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->negative);
  EXPECT_EQ(e->negative_rcode, dns::Rcode::kNXDomain);
  EXPECT_EQ(cache.lookup(mk("no.com"), RRType::kA, net::seconds(61)),
            nullptr);
}

TEST(ResolverCache, RefreshKeepsLease) {
  ResolverCache cache;
  CacheEntry& e = cache.put(a_set("a.com", 300, 1), 0);
  e.lease = LeaseState{net::seconds(7200), {net::make_ip(10, 0, 0, 1), 53}};
  // A later TTL refresh (new resolution) must not clear the lease.
  cache.put(a_set("a.com", 300, 2), net::seconds(100));
  const CacheEntry* after = cache.peek(mk("a.com"), RRType::kA);
  ASSERT_NE(after, nullptr);
  ASSERT_TRUE(after->lease.has_value());
  EXPECT_EQ(after->lease->expiry, net::seconds(7200));
}

TEST(ResolverCache, NegativeOverwriteClearsLease) {
  ResolverCache cache;
  CacheEntry& e = cache.put(a_set("a.com", 300, 1), 0);
  e.lease = LeaseState{net::seconds(7200), {net::make_ip(10, 0, 0, 1), 53}};
  cache.put_negative(mk("a.com"), RRType::kA, dns::Rcode::kNXDomain, 60,
                     net::seconds(10));
  EXPECT_FALSE(cache.peek(mk("a.com"), RRType::kA)->lease.has_value());
}

TEST(ResolverCache, ApplyUpdateReplacesData) {
  ResolverCache cache;
  cache.put(a_set("a.com", 300, 1), 0);
  cache.apply_update(a_set("a.com", 300, 99), net::seconds(50));
  const CacheEntry* e = cache.peek(mk("a.com"), RRType::kA);
  EXPECT_EQ(std::get<dns::ARdata>(e->rrset.rdatas[0]).address.addr, 99u);
  EXPECT_EQ(e->expiry, net::seconds(350));  // TTL restarted at update time
}

TEST(ResolverCache, Invalidate) {
  ResolverCache cache;
  cache.put(a_set("a.com", 300, 1), 0);
  EXPECT_TRUE(cache.invalidate(mk("a.com"), RRType::kA));
  EXPECT_FALSE(cache.invalidate(mk("a.com"), RRType::kA));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ResolverCache, PurgeExpired) {
  ResolverCache cache;
  cache.put(a_set("a.com", 100, 1), 0);
  cache.put(a_set("b.com", 1000, 2), 0);
  CacheEntry& leased = cache.put(a_set("c.com", 100, 3), 0);
  leased.lease =
      LeaseState{net::seconds(5000), {net::make_ip(10, 0, 0, 1), 53}};
  EXPECT_EQ(cache.purge_expired(net::seconds(500)), 1u);  // only a.com
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.peek(mk("c.com"), RRType::kA), nullptr);
}

TEST(ResolverCache, LruEviction) {
  ResolverCache cache(2);
  cache.put(a_set("a.com", 300, 1), 0);
  cache.put(a_set("b.com", 300, 2), 0);
  // Touch a.com so b.com is the LRU victim.
  cache.lookup(mk("a.com"), RRType::kA, 0);
  cache.put(a_set("c.com", 300, 3), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.peek(mk("a.com"), RRType::kA), nullptr);
  EXPECT_EQ(cache.peek(mk("b.com"), RRType::kA), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResolverCache, EvictionSkipsLeasedEntries) {
  ResolverCache cache(2);
  CacheEntry& leased = cache.put(a_set("a.com", 300, 1), 0);
  leased.lease =
      LeaseState{net::seconds(5000), {net::make_ip(10, 0, 0, 1), 53}};
  cache.put(a_set("b.com", 300, 2), 0);
  cache.lookup(mk("b.com"), RRType::kA, 0);  // a.com is LRU but leased
  cache.put(a_set("c.com", 300, 3), 0);
  EXPECT_NE(cache.peek(mk("a.com"), RRType::kA), nullptr);  // survived
  EXPECT_EQ(cache.peek(mk("b.com"), RRType::kA), nullptr);  // evicted
}

TEST(ResolverCache, PurgeDropsEntriesWithExpiredLeases) {
  // Regression: an entry whose TTL *and* lease have both run out used to
  // survive purge_expired forever (the expired lease still "protected"
  // it), leaking one cache slot per dead leased record.
  ResolverCache cache;
  CacheEntry& dead = cache.put(a_set("dead.com", 100, 1), 0);
  dead.lease = LeaseState{net::seconds(200), {net::make_ip(10, 0, 0, 1), 53}};
  CacheEntry& alive = cache.put(a_set("alive.com", 100, 2), 0);
  alive.lease =
      LeaseState{net::seconds(5000), {net::make_ip(10, 0, 0, 1), 53}};
  // At t=300 both TTLs are gone; dead.com's lease is too, alive.com's
  // lease still has term.
  EXPECT_EQ(cache.purge_expired(net::seconds(300)), 1u);
  EXPECT_EQ(cache.peek(mk("dead.com"), RRType::kA), nullptr);
  EXPECT_NE(cache.peek(mk("alive.com"), RRType::kA), nullptr);
}

TEST(ResolverCache, ExpiredLeaseDoesNotProtectFromEviction) {
  ResolverCache cache(2);
  CacheEntry& stale = cache.put(a_set("a.com", 300, 1), 0);
  stale.lease = LeaseState{net::seconds(10), {net::make_ip(10, 0, 0, 1), 53}};
  cache.put(a_set("b.com", 300, 2), net::seconds(20));
  cache.lookup(mk("b.com"), RRType::kA, net::seconds(20));
  // a.com is LRU and its lease already ran out: it is a plain victim.
  cache.put(a_set("c.com", 300, 3), net::seconds(20));
  EXPECT_EQ(cache.peek(mk("a.com"), RRType::kA), nullptr);
  EXPECT_NE(cache.peek(mk("b.com"), RRType::kA), nullptr);
  EXPECT_EQ(cache.stats().leased_evictions, 0u);
}

TEST(ResolverCache, LeasedEvictionIsLastResortAndCounted) {
  ResolverCache cache(2);
  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  CacheEntry& first = cache.put(a_set("a.com", 300, 1), 0);
  first.lease = LeaseState{net::seconds(5000), authority};
  CacheEntry& second = cache.put(a_set("b.com", 300, 2), 0);
  second.lease = LeaseState{net::seconds(5000), authority};
  cache.lookup(mk("b.com"), RRType::kA, 0);  // a.com is now LRU
  // Every resident entry holds a valid lease, so capacity pressure must
  // claim the LRU leased entry — observably.
  cache.put(a_set("c.com", 300, 3), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.peek(mk("a.com"), RRType::kA), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().leased_evictions, 1u);
  // The evicted record now misses: the next client query goes upstream
  // and re-negotiates a lease instead of serving from a freed slot.
  EXPECT_EQ(cache.lookup(mk("a.com"), RRType::kA, 0), nullptr);
  CacheEntry& again = cache.put(a_set("a.com", 300, 1), net::seconds(1));
  EXPECT_FALSE(again.lease.has_value());  // fresh entry, fresh negotiation
}

TEST(ResolverCache, SetLeaseThroughTheSeam) {
  ResolverCache cache;
  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  EXPECT_FALSE(cache.set_lease(mk("a.com"), RRType::kA,
                               LeaseState{net::seconds(100), authority}));
  cache.put(a_set("a.com", 300, 1), 0);
  EXPECT_TRUE(cache.set_lease(mk("a.com"), RRType::kA,
                              LeaseState{net::seconds(100), authority}));
  ASSERT_TRUE(cache.peek(mk("a.com"), RRType::kA)->lease.has_value());
  EXPECT_TRUE(cache.set_lease(mk("a.com"), RRType::kA, std::nullopt));
  EXPECT_FALSE(cache.peek(mk("a.com"), RRType::kA)->lease.has_value());
}

TEST(ResolverCache, ZoneSerialsRoundTrip) {
  ResolverCache cache;
  cache.note_zone_serial(mk("example.com"), 7);
  cache.note_zone_serial(mk("other.org"), 3);
  cache.note_zone_serial(mk("example.com"), 9);  // upsert, not append
  EXPECT_EQ(cache.zone_serial(mk("example.com")), 9u);
  EXPECT_EQ(cache.zone_serial(mk("other.org")), 3u);
  EXPECT_FALSE(cache.zone_serial(mk("absent.net")).has_value());
}

TEST(ResolverCache, DistinctTypesAreDistinctEntries) {
  ResolverCache cache;
  cache.put(a_set("a.com", 300, 1), 0);
  dns::RRset txt{mk("a.com"), RRType::kTXT, dns::RRClass::kIN, 300, {}};
  txt.add(dns::TXTRdata{{"x"}});
  cache.put(txt, 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.lookup(mk("a.com"), RRType::kA, 0), nullptr);
  EXPECT_NE(cache.lookup(mk("a.com"), RRType::kTXT, 0), nullptr);
}

TEST(ResolverCache, ForEachVisitsAll) {
  ResolverCache cache;
  cache.put(a_set("a.com", 300, 1), 0);
  cache.put(a_set("b.com", 300, 2), 0);
  std::size_t visited = 0;
  cache.for_each([&](const CacheKey&, const CacheEntry&) { ++visited; });
  EXPECT_EQ(visited, 2u);
}

}  // namespace
}  // namespace dnscup::server
