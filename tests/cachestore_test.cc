// Mmap-backed persistent cache store: backend equivalence against the
// heap store under a seeded op stream (and of the reopened image against
// the heap store), warm-restart reload with wall-clock TTL decay, lease
// demotion, corruption fallback to cold (leaving nothing of the damaged
// image behind), torn-slot recovery, seeded byte mutation of a written
// image, LRU order across restarts, zone-serial persistence, slab
// compaction, and the resident footprint of a reopened image.
#include "cachestore/mmap_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "server/cache.h"
#include "server/cache_store.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace dnscup::cachestore {
namespace {

using dns::Name;
using dns::RRType;
using server::CacheEntry;
using server::CacheKey;
using server::LeaseState;
using server::ResolverCache;

Name mk(const char* text) { return Name::parse(text).value(); }

dns::RRset a_set(const std::string& name, uint32_t ttl, uint32_t addr) {
  dns::RRset set{Name::parse(name).value(), RRType::kA, dns::RRClass::kIN,
                 ttl, {}};
  set.add(dns::ARdata{dns::Ipv4{addr}});
  return set;
}

constexpr int64_t kWallBase = 1'700'000'000'000'000;  // fixed fake epoch

/// Per-test store file in the build tree's working directory.
class CacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string("cachestore_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "." + std::to_string(::getpid());
    ::unlink(path_.c_str());
  }
  void TearDown() override { ::unlink(path_.c_str()); }

  MmapCacheStore::Options options(int64_t wall_now = kWallBase,
                                  net::SimTime now = 0) {
    MmapCacheStore::Options opts;
    opts.path = path_;
    opts.file_bytes = 1ull << 20;
    opts.now = now;
    opts.wall_now_us = wall_now;
    return opts;
  }

  std::unique_ptr<MmapCacheStore> open(
      int64_t wall_now = kWallBase, net::SimTime now = 0,
      bool keep_leases = true,
      metrics::MetricsRegistry* metrics = nullptr) {
    auto opts = options(wall_now, now);
    opts.keep_leases = keep_leases;
    opts.metrics = metrics;
    auto opened = MmapCacheStore::open(std::move(opts));
    EXPECT_TRUE(opened.ok()) << opened.error().to_string();
    return std::move(opened).value();
  }

  /// Writes an image holding three entries and a zone serial.
  void write_populated_image() {
    ResolverCache cache(0, nullptr, open());
    cache.put(a_set("www.example.com", 600, 1), 0);
    cache.put(a_set("mail.example.com", 600, 2), 0);
    cache.put_negative(mk("no.example.com"), RRType::kA,
                       dns::Rcode::kNXDomain, 600, 0);
    cache.note_zone_serial(mk("example.com"), 9);
  }

  /// After a cold start the next open must find a valid, empty image:
  /// nothing of the damaged one may be adopted.
  void expect_reopen_adopts_nothing(std::size_t file_bytes = 1ull << 20) {
    auto opts = options(kWallBase + net::seconds(2), 0);
    opts.file_bytes = file_bytes;
    auto reopened = MmapCacheStore::open(std::move(opts));
    ASSERT_TRUE(reopened.ok());
    const auto& report = reopened.value()->load_report();
    EXPECT_FALSE(report.cold) << report.cold_reason;
    EXPECT_EQ(report.warm_entries, 0u);
    EXPECT_EQ(report.torn_dropped, 0u);
    EXPECT_EQ(report.zones_loaded, 0u);
    EXPECT_EQ(reopened.value()->size(), 0u);
  }

  std::string path_;
};

TEST_F(CacheStoreTest, ColdStartOnFreshFile) {
  auto store = open();
  EXPECT_EQ(store->name(), "mmap");
  EXPECT_TRUE(store->load_report().cold);
  EXPECT_EQ(store->load_report().cold_reason, "fresh file");
  EXPECT_GE(store->slot_count(), 64u);
  EXPECT_EQ(store->slots_used(), 0u);
  EXPECT_EQ(store->size(), 0u);
}

// ---- backend equivalence --------------------------------------------------

struct Lcg {
  uint64_t state;
  uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  }
};

/// What a restart must reproduce of one entry: its data, TTL clock and
/// negative flag, and its lease while valid at the reopen instant (the
/// image drops an expired lease at load, where the heap keeps it inert).
struct EntryImage {
  dns::RRset rrset;
  bool negative = false;
  net::SimTime inserted_at = 0;
  net::SimTime expiry = 0;
  std::optional<std::pair<net::SimTime, net::Endpoint>> lease;
  bool operator==(const EntryImage&) const = default;
};

std::map<std::string, EntryImage> entry_images(
    const server::CacheStoreBackend& store, net::SimTime now) {
  std::map<std::string, EntryImage> images;
  store.for_each([&](const CacheKey& key, const CacheEntry& entry) {
    EntryImage& image =
        images[key.name.to_string() + "/" +
               std::to_string(static_cast<int>(key.type))];
    image.rrset = entry.rrset;
    image.negative = entry.negative;
    image.inserted_at = entry.inserted_at;
    image.expiry = entry.expiry;
    if (entry.lease.has_value() && now < entry.lease->expiry) {
      image.lease.emplace(entry.lease->expiry, entry.lease->authority);
    }
  });
  return images;
}

/// The eviction order, least recent first, read destructively: each
/// evict_candidate in turn, then what is left (the MRU entry).
std::vector<std::string> drain_eviction_order(
    server::CacheStoreBackend& store, net::SimTime now) {
  std::vector<std::string> order;
  while (auto victim = store.evict_candidate(now)) {
    order.push_back(victim->key.name.to_string());
    store.erase(victim->key);
  }
  store.for_each([&order](const CacheKey& key, const CacheEntry&) {
    order.push_back(key.name.to_string());
  });
  return order;
}

/// Drives the same randomized op stream through a heap-backed and an
/// mmap-backed ResolverCache and asserts identical observable behavior —
/// the seam's core contract — then reopens the image and asserts that
/// what a restart adopts equals the heap store's state.
TEST_F(CacheStoreTest, BackendEquivalenceUnderSeededOpStream) {
  constexpr std::size_t kCapacity = 12;
  ResolverCache heap(kCapacity);
  auto owned = std::make_unique<ResolverCache>(kCapacity, nullptr, open());
  ResolverCache& mmap = *owned;

  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  Lcg rng{20260809};
  net::SimTime now = 0;
  for (int op = 0; op < 4000; ++op) {
    const std::string name =
        "n" + std::to_string(rng.next() % 24) + ".example.com";
    now += static_cast<net::Duration>(
        rng.next() % static_cast<uint64_t>(net::seconds(5)));
    switch (rng.next() % 8) {
      case 0:
      case 1: {
        const uint32_t ttl = 30 + rng.next() % 600;
        const uint32_t addr = static_cast<uint32_t>(rng.next());
        heap.put(a_set(name, ttl, addr), now);
        mmap.put(a_set(name, ttl, addr), now);
        break;
      }
      case 2: {
        const uint32_t ttl = 30 + rng.next() % 120;
        heap.put_negative(mk(name.c_str()), RRType::kA,
                          dns::Rcode::kNXDomain, ttl, now);
        mmap.put_negative(mk(name.c_str()), RRType::kA,
                          dns::Rcode::kNXDomain, ttl, now);
        break;
      }
      case 3: {
        const auto lease = LeaseState{
            now + net::seconds(60) +
                static_cast<net::Duration>(
                    rng.next() % static_cast<uint64_t>(net::seconds(600))),
            authority};
        EXPECT_EQ(heap.set_lease(mk(name.c_str()), RRType::kA, lease),
                  mmap.set_lease(mk(name.c_str()), RRType::kA, lease));
        break;
      }
      case 4: {
        EXPECT_EQ(heap.invalidate(mk(name.c_str()), RRType::kA),
                  mmap.invalidate(mk(name.c_str()), RRType::kA));
        break;
      }
      case 5: {
        EXPECT_EQ(heap.purge_expired(now), mmap.purge_expired(now));
        break;
      }
      case 6: {
        heap.note_zone_serial(mk("example.com"),
                              static_cast<uint32_t>(op));
        mmap.note_zone_serial(mk("example.com"),
                              static_cast<uint32_t>(op));
        break;
      }
      default: {
        const CacheEntry* h = heap.lookup(mk(name.c_str()), RRType::kA, now);
        const CacheEntry* m = mmap.lookup(mk(name.c_str()), RRType::kA, now);
        ASSERT_EQ(h == nullptr, m == nullptr) << "op " << op << " " << name;
        if (h != nullptr) {
          EXPECT_EQ(h->negative, m->negative);
          EXPECT_EQ(h->expiry, m->expiry);
          EXPECT_EQ(h->rrset.rdatas.size(), m->rrset.rdatas.size());
        }
        break;
      }
    }
    ASSERT_EQ(heap.size(), mmap.size()) << "op " << op;
  }

  const auto hs = heap.stats();
  const auto ms = mmap.stats();
  EXPECT_EQ(hs.hits, ms.hits);
  EXPECT_EQ(hs.misses, ms.misses);
  EXPECT_EQ(hs.expired, ms.expired);
  EXPECT_EQ(hs.insertions, ms.insertions);
  EXPECT_EQ(hs.invalidations, ms.invalidations);
  EXPECT_EQ(hs.evictions, ms.evictions);
  EXPECT_EQ(hs.leased_evictions, ms.leased_evictions);
  EXPECT_EQ(heap.zone_serial(mk("example.com")),
            mmap.zone_serial(mk("example.com")));

  // Same resident set, entry for entry.
  std::vector<std::pair<std::string, net::SimTime>> heap_dump, mmap_dump;
  heap.for_each([&](const CacheKey& k, const CacheEntry& e) {
    heap_dump.emplace_back(k.name.to_string(), e.expiry);
  });
  mmap.for_each([&](const CacheKey& k, const CacheEntry& e) {
    mmap_dump.emplace_back(k.name.to_string(), e.expiry);
  });
  std::sort(heap_dump.begin(), heap_dump.end());
  std::sort(mmap_dump.begin(), mmap_dump.end());
  EXPECT_EQ(heap_dump, mmap_dump);

  // The image.  Purged first so every entry is still fresh at the
  // reopen, which sees no downtime: a restart must then adopt exactly
  // the heap store's entries, zone serials and eviction order.
  EXPECT_EQ(heap.purge_expired(now), mmap.purge_expired(now));
  owned.reset();  // flushes the image
  auto image = open(kWallBase + now, now);
  const auto& report = image->load_report();
  ASSERT_FALSE(report.cold) << report.cold_reason;
  EXPECT_EQ(report.torn_dropped, 0u);
  EXPECT_EQ(report.expired_dropped, 0u);
  EXPECT_EQ(report.downtime_us, 0);
  EXPECT_EQ(report.warm_entries, heap.size());
  EXPECT_EQ(entry_images(*image, now), entry_images(heap.store(), now));
  EXPECT_EQ(report.zones_loaded, 1u);
  EXPECT_EQ(image->zone_serial(mk("example.com")),
            heap.zone_serial(mk("example.com")));
  EXPECT_EQ(drain_eviction_order(*image, now),
            drain_eviction_order(heap.store(), now));
}

// ---- warm restart ---------------------------------------------------------

TEST_F(CacheStoreTest, WarmReloadDecaysTtlByDowntime) {
  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  {
    ResolverCache cache(0, nullptr, open());
    cache.put(a_set("www.example.com", 600, 7), net::seconds(10));
    cache.put(a_set("mail.example.com", 50, 8), net::seconds(10));
    cache.set_lease(
        mk("www.example.com"), RRType::kA,
        LeaseState{net::seconds(500), authority});
    cache.note_zone_serial(mk("example.com"), 42);
  }  // destructor msyncs

  // The process was down for 120 s of wall time: mail.example.com's 50 s
  // TTL (set at t=10) is long gone, www's 600 s TTL and 500 s lease are
  // not.
  auto reloaded = open(kWallBase + net::seconds(120), 0);
  const auto& report = reloaded->load_report();
  EXPECT_FALSE(report.cold);
  EXPECT_EQ(report.warm_entries, 1u);
  EXPECT_EQ(report.expired_dropped, 1u);
  EXPECT_EQ(report.torn_dropped, 0u);
  EXPECT_EQ(report.zones_loaded, 1u);
  EXPECT_EQ(report.downtime_us, net::seconds(120));

  CacheEntry* entry =
      reloaded->find(CacheKey{mk("www.example.com"), RRType::kA});
  ASSERT_NE(entry, nullptr);
  // Written at t=10 with TTL 600 → expiry 610 in the old clock; the new
  // clock starts 120 s later.
  EXPECT_EQ(entry->expiry, net::seconds(610 - 120));
  ASSERT_TRUE(entry->lease.has_value());
  EXPECT_EQ(entry->lease->expiry, net::seconds(500 - 120));
  EXPECT_EQ(entry->lease->authority, authority);
  ASSERT_EQ(entry->rrset.rdatas.size(), 1u);
  EXPECT_EQ(std::get<dns::ARdata>(entry->rrset.rdatas[0]).address.addr, 7u);

  EXPECT_EQ(reloaded->zone_serial(mk("example.com")), 42u);
}

TEST_F(CacheStoreTest, KeepLeasesFalseDemotesWarmLeases) {
  const net::Endpoint authority{net::make_ip(10, 0, 0, 1), 53};
  {
    ResolverCache cache(0, nullptr, open());
    // TTL-fresh and leased: survives demotion as a plain TTL entry.
    cache.put(a_set("a.example.com", 600, 1), 0);
    cache.set_lease(mk("a.example.com"), RRType::kA,
                    LeaseState{net::seconds(900), authority});
    // TTL already short; only the lease would keep it alive.
    cache.put(a_set("b.example.com", 30, 2), 0);
    cache.set_lease(mk("b.example.com"), RRType::kA,
                    LeaseState{net::seconds(900), authority});
  }

  auto reloaded = open(kWallBase + net::seconds(60), 0, /*keep_leases=*/false);
  const auto& report = reloaded->load_report();
  EXPECT_EQ(report.leases_demoted, 2u);
  EXPECT_EQ(report.warm_entries, 1u);   // only a.example.com
  EXPECT_EQ(report.expired_dropped, 1u);
  CacheEntry* entry =
      reloaded->find(CacheKey{mk("a.example.com"), RRType::kA});
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->lease.has_value());
}

TEST_F(CacheStoreTest, NegativeEntriesSurviveRestart) {
  {
    ResolverCache cache(0, nullptr, open());
    cache.put_negative(mk("no.example.com"), RRType::kA,
                       dns::Rcode::kNXDomain, 600, 0);
  }
  auto reloaded = open(kWallBase + net::seconds(10), 0);
  EXPECT_EQ(reloaded->load_report().warm_entries, 1u);
  CacheEntry* entry =
      reloaded->find(CacheKey{mk("no.example.com"), RRType::kA});
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->negative);
  EXPECT_EQ(entry->negative_rcode, dns::Rcode::kNXDomain);
  EXPECT_TRUE(entry->rrset.rdatas.empty());
}

TEST_F(CacheStoreTest, LruOrderSurvivesRestart) {
  {
    ResolverCache cache(0, nullptr, open());
    cache.put(a_set("old.example.com", 600, 1), 0);
    cache.put(a_set("mid.example.com", 600, 2), 0);
    cache.put(a_set("hot.example.com", 600, 3), 0);
    // Touch old.example.com so the pre-restart LRU victim is mid.
    cache.lookup(mk("old.example.com"), RRType::kA, net::seconds(1));
    // Re-persisting mid is not a use: it stays the LRU victim.
    cache.commit(mk("mid.example.com"), RRType::kA);
  }
  ResolverCache cache(3, nullptr, open(kWallBase + net::seconds(5), 0));
  EXPECT_EQ(cache.size(), 3u);
  // One insert over capacity must evict the pre-restart LRU entry.
  cache.put(a_set("new.example.com", 600, 4), net::seconds(1));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.peek(mk("mid.example.com"), RRType::kA), nullptr);
  EXPECT_NE(cache.peek(mk("old.example.com"), RRType::kA), nullptr);
  EXPECT_NE(cache.peek(mk("hot.example.com"), RRType::kA), nullptr);
}

// ---- corruption -----------------------------------------------------------

void patch_file(const std::string& path, std::size_t offset,
                const void* bytes, std::size_t len) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(bytes, 1, len, f), len);
  std::fclose(f);
}

TEST_F(CacheStoreTest, BadMagicFallsBackCold) {
  write_populated_image();
  const char junk[8] = {'N', 'O', 'T', 'A', 'C', 'A', 'C', 'H'};
  patch_file(path_, 0, junk, sizeof junk);
  auto reloaded = open(kWallBase + 1, 0);
  EXPECT_TRUE(reloaded->load_report().cold);
  EXPECT_EQ(reloaded->load_report().cold_reason, "bad magic");
  EXPECT_EQ(reloaded->size(), 0u);
  reloaded.reset();
  expect_reopen_adopts_nothing();
}

TEST_F(CacheStoreTest, BadVersionFallsBackCold) {
  write_populated_image();
  // An image that says version 1 (the hash-placed layout): version then
  // header CRC refreshed so only the version mismatches.
  const uint32_t version = 1;
  patch_file(path_, 8, &version, sizeof version);
  std::vector<uint8_t> head(60);
  { std::ifstream in(path_, std::ios::binary);
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(head.size())); }
  const uint32_t crc = util::crc32(head);
  patch_file(path_, 60, &crc, sizeof crc);
  auto reloaded = open(kWallBase + 1, 0);
  EXPECT_TRUE(reloaded->load_report().cold);
  EXPECT_EQ(reloaded->load_report().cold_reason, "bad version");
  reloaded.reset();
  expect_reopen_adopts_nothing();
}

TEST_F(CacheStoreTest, TornHeaderFallsBackCold) {
  write_populated_image();
  // Flip one CRC-covered header byte without fixing the CRC.
  const uint8_t garbage = 0xA5;
  patch_file(path_, 40, &garbage, sizeof garbage);
  auto reloaded = open(kWallBase + 1, 0);
  EXPECT_TRUE(reloaded->load_report().cold);
  EXPECT_EQ(reloaded->load_report().cold_reason, "bad header crc");
  reloaded.reset();
  expect_reopen_adopts_nothing();
}

TEST_F(CacheStoreTest, ResizedFileFallsBackCold) {
  write_populated_image();
  auto opts = options(kWallBase + 1, 0);
  opts.file_bytes = 2ull << 20;  // operator grew --cache-file-size
  auto reloaded = MmapCacheStore::open(std::move(opts));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded.value()->load_report().cold);
  EXPECT_EQ(reloaded.value()->load_report().cold_reason, "size mismatch");
  reloaded.value().reset();
  expect_reopen_adopts_nothing(2ull << 20);
}

TEST_F(CacheStoreTest, TornSlotIsDroppedOthersSurvive) {
  {
    ResolverCache cache(0, nullptr, open());
    cache.put(a_set("a.example.com", 600, 1), 0);
    cache.put(a_set("b.example.com", 600, 2), 0);
    cache.put(a_set("c.example.com", 600, 3), 0);
  }
  // Corrupt one used slot's name text mid-file (CRC now mismatches).
  auto probe = open(kWallBase + 1, 0);
  ASSERT_EQ(probe->load_report().warm_entries, 3u);
  const std::size_t slot_count = probe->slot_count();
  probe.reset();
  bool patched = false;
  std::vector<uint8_t> slot(512);
  std::ifstream in(path_, std::ios::binary);
  for (std::size_t i = 0; i < slot_count && !patched; ++i) {
    in.seekg(static_cast<std::streamoff>(4096 + i * 512));
    in.read(reinterpret_cast<char*>(slot.data()), 512);
    uint32_t state = 0;
    std::memcpy(&state, slot.data(), sizeof state);
    if (state == 1) {  // kUsed
      const uint8_t garbage = 0xFF;
      patch_file(path_, 4096 + i * 512 + 64, &garbage, sizeof garbage);
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  auto reloaded = open(kWallBase + 2, 0);
  EXPECT_FALSE(reloaded->load_report().cold);
  EXPECT_EQ(reloaded->load_report().torn_dropped, 1u);
  EXPECT_EQ(reloaded->load_report().warm_entries, 2u);
}

std::vector<uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// A seeded byte-mutation loop over a written image: open() must never
/// crash, and it either cold-starts or adopts only entries that were
/// written, each with its written data and lifetime.
TEST_F(CacheStoreTest, SeededByteMutationsAdoptOnlyWrittenEntries) {
  constexpr int kEntries = 40;
  constexpr int kIterations = 400;
  std::map<std::string, uint32_t> written;  // name -> A address
  std::size_t slab_off = 0;
  {
    auto store = open();
    slab_off = 4096 + store->slot_count() * 512;
    ResolverCache cache(0, nullptr, std::move(store));
    for (int i = 0; i < kEntries; ++i) {
      const std::string name = "m" + std::to_string(i) + ".example.com.";
      written[name] = 1000 + static_cast<uint32_t>(i);
      cache.put(a_set(name, 600, written[name]), 0);
    }
    cache.note_zone_serial(mk("example.com"), 7);
  }
  const std::vector<uint8_t> pristine = read_file(path_);
  uint64_t slab_used = 0;
  std::memcpy(&slab_used, pristine.data() + 32, sizeof slab_used);
  ASSERT_GT(slab_used, 0u);
  // Where the bytes mean something: the CRC-covered header, the used
  // slot prefix (entries plus the zone slot) and the slab's used bytes.
  const std::pair<std::size_t, std::size_t> regions[] = {
      {0, 64},
      {4096, 4096 + (kEntries + 1) * 512},
      {slab_off, slab_off + slab_used},
  };

  util::Rng rng(20261017);
  int warm = 0, cold = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    std::vector<uint8_t> image = pristine;
    const int mutations = static_cast<int>(rng.uniform_int(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const auto region = rng.uniform_int(0, 2);
      const auto [lo, hi] = regions[region];
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(static_cast<int64_t>(lo),
                          static_cast<int64_t>(hi) - 1));
      const auto kind = rng.uniform_int(0, 2);
      if (kind == 2 && region == 1) {
        // A slot's state word: free (ends the scan), used, dead, zone or
        // no state at all.
        const std::size_t slot = lo + (at - lo) / 512 * 512;
        const auto state = static_cast<uint32_t>(rng.uniform_int(0, 4));
        std::memcpy(image.data() + slot, &state, sizeof state);
      } else if (kind == 1) {
        image[at] = static_cast<uint8_t>(rng.uniform_int(0, 255));
      } else {
        image[at] ^= static_cast<uint8_t>(1u << rng.uniform_int(0, 7));
      }
    }
    write_file(path_, image);

    auto store = open(kWallBase + net::seconds(1), 0);
    const auto& report = store->load_report();
    if (report.cold) {
      ++cold;
      EXPECT_EQ(store->size(), 0u);
      continue;
    }
    ++warm;
    EXPECT_LE(store->size(), written.size());
    store->for_each([&](const CacheKey& key, const CacheEntry& entry) {
      const auto it = written.find(key.name.to_string());
      ASSERT_NE(it, written.end())
          << "iteration " << iteration << " adopted " << key.name.to_string();
      EXPECT_EQ(key.type, RRType::kA);
      EXPECT_FALSE(entry.negative);
      EXPECT_FALSE(entry.lease.has_value());
      EXPECT_EQ(entry.expiry, net::seconds(600 - 1));
      EXPECT_EQ(entry.rrset, a_set(it->first, 600, it->second));
    });
    EXPECT_LE(report.zones_loaded, 1u);
    const auto serial = store->zone_serial(mk("example.com"));
    EXPECT_EQ(serial.value_or(7), 7u);
    EXPECT_EQ(serial.has_value(), report.zones_loaded == 1);
  }
  // The budget exercises both outcomes.
  EXPECT_GT(warm, 0);
  EXPECT_GT(cold, 0);
}

/// Resident bytes of this process's mapping of `path` (the Rss line of
/// its /proc/self/smaps entry); -1 when the file is not mapped.
long mapped_rss_bytes(const std::string& path) {
  std::ifstream smaps("/proc/self/smaps");
  const std::string suffix = "/" + path;
  std::string line;
  bool ours = false;
  while (std::getline(smaps, line)) {
    // A mapping starts with its address range "lo-hi perms ...".
    const std::size_t space = line.find(' ');
    const std::size_t dash = line.find('-');
    if (space != std::string::npos && dash < space &&
        line.find_first_not_of("0123456789abcdef-") == space) {
      ours = line.size() >= suffix.size() &&
             line.compare(line.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
      continue;
    }
    if (ours && line.rfind("Rss:", 0) == 0) {
      return std::stol(line.substr(4)) * 1024;
    }
  }
  return -1;
}

/// Reopening a large image touches only what its records need: the load
/// stops at the first never-used slot, and the old image is dropped by
/// truncation instead of being zeroed page by page.
TEST_F(CacheStoreTest, ReopenedImageKeepsOnlyUsedPagesResident) {
  constexpr std::size_t kFileBytes = 256ull << 20;  // 64 MiB slot table
  constexpr int kEntries = 4000;
  auto opts = options();
  opts.file_bytes = kFileBytes;
  {
    auto opened = MmapCacheStore::open(opts);
    ASSERT_TRUE(opened.ok());
    ResolverCache cache(0, nullptr, std::move(opened).value());
    for (int i = 0; i < kEntries; ++i) {
      cache.put(a_set("r" + std::to_string(i) + ".example.com", 600,
                      static_cast<uint32_t>(i)),
                0);
    }
  }
  opts.wall_now_us = kWallBase + net::seconds(1);
  auto reopened = MmapCacheStore::open(opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->load_report().warm_entries,
            static_cast<uint64_t>(kEntries));

  // The rewritten image needs its header page, one 512 B slot per entry
  // (~2 MiB) and ~40 B of slab per entry (~160 KiB).  The slack of
  // 2 MiB covers page rounding at both regions' ends; zeroing or
  // scanning the whole 64 MiB table would blow through it.
  const long needed = 4096 + kEntries * 512 + kEntries * 40;
  const long rss = mapped_rss_bytes(path_);
  ASSERT_GE(rss, 0) << "image mapping not found in /proc/self/smaps";
  EXPECT_GE(rss, kEntries * 512L);
  EXPECT_LT(rss, needed + (2L << 20));
}

// ---- slab compaction ------------------------------------------------------

TEST_F(CacheStoreTest, SlabCompactionKeepsEntriesIntact) {
  metrics::MetricsRegistry registry;
  auto store = open(kWallBase, 0, true, &registry);
  ResolverCache cache(0, nullptr, std::move(store));
  // Each put re-appends the entry's wire payload to the bump arena; far
  // more appends than the ~900 KiB slab holds forces compaction.
  dns::RRset big{mk("big.example.com"), RRType::kTXT, dns::RRClass::kIN,
                 600, {}};
  big.add(dns::TXTRdata{{std::string(200, 'x')}});
  for (int i = 0; i < 8000; ++i) {
    big.ttl = 600 + static_cast<uint32_t>(i % 7);
    cache.put(big, net::seconds(i % 100));
    cache.put(a_set("a.example.com", 600, static_cast<uint32_t>(i)),
              net::seconds(i % 100));
  }
  uint64_t compactions = 0, persist_failures = 0;
  for (const auto& entry : registry.snapshot(0).entries) {
    if (entry.name == "cache_store_compactions") {
      compactions += entry.counter_value;
    }
    if (entry.name == "cache_store_persist_failures") {
      persist_failures += entry.counter_value;
    }
  }
  EXPECT_GT(compactions, 0u);
  EXPECT_EQ(persist_failures, 0u);

  cache.note_zone_serial(mk("example.com"), 5);
  const net::SimTime end = net::seconds(99);
  ASSERT_NE(cache.lookup(mk("big.example.com"), RRType::kTXT, end), nullptr);
  ASSERT_NE(cache.lookup(mk("a.example.com"), RRType::kA, end), nullptr);
}

TEST_F(CacheStoreTest, CompactedImageReloadsCleanly) {
  {
    metrics::MetricsRegistry registry;
    ResolverCache cache(0, nullptr, open(kWallBase, 0, true, &registry));
    dns::RRset big{mk("big.example.com"), RRType::kTXT, dns::RRClass::kIN,
                   600, {}};
    big.add(dns::TXTRdata{{std::string(200, 'y')}});
    for (int i = 0; i < 8000; ++i) {
      cache.put(big, 0);
      cache.put(a_set("a.example.com", 600, 1), 0);
    }
  }
  auto reloaded = open(kWallBase + net::seconds(5), 0);
  EXPECT_FALSE(reloaded->load_report().cold);
  EXPECT_EQ(reloaded->load_report().warm_entries, 2u);
  EXPECT_EQ(reloaded->load_report().torn_dropped, 0u);
  CacheEntry* entry =
      reloaded->find(CacheKey{mk("big.example.com"), RRType::kTXT});
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->rrset.rdatas.size(), 1u);
  EXPECT_EQ(std::get<dns::TXTRdata>(entry->rrset.rdatas[0]).strings[0],
            std::string(200, 'y'));
}

}  // namespace
}  // namespace dnscup::cachestore
