// Wire hot-path micro-benchmark: encode/decode throughput and — via a
// counting global allocator — heap traffic per operation.  The refactor's
// contract is that arena-backed encode and view-based decode allocate
// nothing in steady state; this bench measures it and emits the numbers
// as JSON (BENCH_wire_micro.json) so regressions show up as a diff.
//
// Two serve-path stages ride along, each at the scale of the repository
// benchmark's workloads:
//  * a cache hit: one client datagram through CachingResolver +
//    LeaseClient (the try_fast_hit path of dnscached) against a warm,
//    leased 50k-name cache, on the heap store and on MmapCacheStore;
//  * Zone::lookup_ref (with the qname's view parse) at 10k and 50k names.
// Queries draw names Zipf(0.9).  The bench fails itself when a cache hit
// allocates.
//
//   build/bench/wire_micro [--out BENCH_wire_micro.json]
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cachestore/mmap_store.h"
#include "core/lease_client.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/cache_store.h"
#include "server/resolver.h"
#include "util/assert.h"
#include "util/rng.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

// Counting allocator: every heap allocation in the process ticks the
// counters.  Frees are uncounted — the bench reports allocation traffic,
// not live bytes.
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) -
                                    1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dnscup {
namespace {

using dns::Message;
using dns::Name;
using dns::RRClass;
using dns::RRType;

struct BenchResult {
  double ops_per_sec = 0.0;
  double allocs_per_op = 0.0;
  double bytes_per_op = 0.0;
};

template <typename Fn>
BenchResult run_bench(const char* name, std::size_t iters, Fn&& fn) {
  for (std::size_t i = 0; i < 2000; ++i) fn();  // warm arenas and caches
  const uint64_t allocs0 = g_allocs.load();
  const uint64_t bytes0 = g_alloc_bytes.load();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t allocs1 = g_allocs.load();
  const uint64_t bytes1 = g_alloc_bytes.load();
  const double secs =
      std::chrono::duration<double>(t1 - t0).count();
  BenchResult r;
  r.ops_per_sec = static_cast<double>(iters) / secs;
  r.allocs_per_op =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(iters);
  r.bytes_per_op =
      static_cast<double>(bytes1 - bytes0) / static_cast<double>(iters);
  std::printf("%-24s %12.0f ops/s  %9.1f ns/op  %8.3f allocs/op  "
              "%10.1f bytes/op\n",
              name, r.ops_per_sec, 1e9 / r.ops_per_sec, r.allocs_per_op,
              r.bytes_per_op);
  return r;
}

constexpr std::size_t kDraws = 1 << 16;

/// `n` names under one zone, each as a plain A query in wire form, and a
/// Zipf(0.9) sequence of draws over them.
struct Population {
  dns::Name origin = Name::parse("bench.example.com").value();
  std::vector<Name> names;
  std::vector<std::vector<uint8_t>> wires;
  std::vector<uint32_t> draws;
};

Population make_population(std::size_t n) {
  Population pop;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = std::to_string(i);
    pop.names.push_back(pop.origin.prepend(label).prepend("n"));
    Message q;
    q.id = static_cast<uint16_t>(i);
    q.flags.rd = true;
    q.questions.push_back(
        dns::Question{pop.names.back(), RRType::kA, RRClass::kIN, 0});
    pop.wires.push_back(q.encode());
  }
  util::Rng rng(0x5EED);
  const util::ZipfDistribution zipf(n, 0.9);
  for (std::size_t i = 0; i < kDraws; ++i) {
    pop.draws.push_back(static_cast<uint32_t>(zipf.sample(rng)));
  }
  return pop;
}

dns::RRset address_set(const Name& name, std::size_t i) {
  dns::RRset set{name, RRType::kA, RRClass::kIN, 3600, {}};
  set.add(dns::ARdata{dns::Ipv4{.addr = 0x0A000000u + uint32_t(i)}});
  return set;
}

/// Swallows answers: a virtual send the compiler cannot elide, no copy.
class SinkTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint&, std::span<const uint8_t> data) override {
    bytes_ += data.size();
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 1), 53};
  ReceiveHandler handler_;
  uint64_t bytes_ = 0;
};

/// One cache-hit datagram through CachingResolver + LeaseClient over a
/// warm cache holding every name, each leased (as after dnscached's warm
/// restart).  `image` selects MmapCacheStore at that path; empty uses the
/// heap store.
BenchResult bench_cache_hit(const char* label, const Population& pop,
                            const std::string& image, std::size_t iters) {
  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  SinkTransport transport;
  const net::Endpoint authority{net::make_ip(10, 0, 0, 53), 53};
  const net::Endpoint client{net::make_ip(10, 0, 0, 99), 4000};
  server::CachingResolver::Config rc;
  rc.metrics = &registry;
  if (!image.empty()) {
    ::unlink(image.c_str());
    cachestore::MmapCacheStore::Options so;
    so.path = image;
    so.file_bytes = 256ull << 20;  // 131072 slots for the 50k names
    so.metrics = &registry;
    auto opened = cachestore::MmapCacheStore::open(std::move(so));
    DNSCUP_ASSERT(opened.ok());
    auto holder =
        std::make_shared<std::unique_ptr<server::CacheStoreBackend>>(
            std::move(opened).value());
    rc.cache_store = [holder] { return std::move(*holder); };
  }
  server::CachingResolver resolver(transport, loop, {authority}, rc);
  core::LeaseClient::Config lc;
  lc.metrics = &registry;
  core::LeaseClient lease(resolver, lc);
  for (std::size_t i = 0; i < pop.names.size(); ++i) {
    resolver.cache().put(address_set(pop.names[i], i), 0);
    Message granted;
    granted.flags.qr = true;
    granted.flags.ext = true;
    granted.llt = dns::llt_from_seconds(3600);
    granted.questions.push_back(
        dns::Question{pop.names[i], RRType::kA, RRClass::kIN, 0});
    lease.on_response(authority, granted);
  }
  DNSCUP_ASSERT(lease.live_leases(0) == pop.names.size());
  std::size_t next = 0;
  const BenchResult r = run_bench(label, iters, [&] {
    transport.deliver(client, pop.wires[pop.draws[next++ % kDraws]]);
  });
  // Every measured query was a hit, answered on the fast path.
  DNSCUP_ASSERT(resolver.stats().fast_hits == next);
  DNSCUP_ASSERT(transport.bytes() > 0);
  if (!image.empty()) ::unlink(image.c_str());
  return r;
}

/// Zone::lookup_ref for a drawn qname, with the qname's view parse (the
/// authority's fast path does both per query).
BenchResult bench_zone_lookup(const char* label, const Population& pop,
                              std::size_t iters) {
  dns::SOARdata soa;
  soa.mname = pop.origin.prepend("ns1");
  soa.rname = pop.origin.prepend("admin");
  soa.serial = 1;
  soa.minimum = 300;
  dns::Zone zone =
      dns::Zone::make(pop.origin, soa, 3600, {soa.mname}, 3600);
  for (std::size_t i = 0; i < pop.names.size(); ++i) {
    zone.add_record(pop.names[i], RRType::kA, 300,
                    dns::ARdata{dns::Ipv4{.addr = 0x0A000000u + uint32_t(i)}});
  }
  std::size_t next = 0;
  std::size_t found = 0;
  const BenchResult r = run_bench(label, iters, [&] {
    const auto& wire = pop.wires[pop.draws[next++ % kDraws]];
    dns::ByteReader reader(wire);
    (void)reader.seek(12);
    dns::NameView qname;
    DNSCUP_ASSERT(reader.name_view(qname).ok());
    const auto result = zone.lookup_ref(qname, RRType::kA);
    found += result.status == dns::Zone::LookupStatus::kSuccess;
  });
  DNSCUP_ASSERT(found == next);
  return r;
}

/// A representative response: one question, a 4-member A RRset and an
/// SOA in authority — compression-heavy names under one origin.
Message make_message() {
  Message m;
  m.id = 0x1234;
  m.flags.qr = true;
  m.flags.aa = true;
  m.questions.push_back(dns::Question{
      Name::parse("www.cdn.example.com").value(), RRType::kA, RRClass::kIN,
      0});
  for (uint32_t i = 0; i < 4; ++i) {
    m.answers.push_back(dns::ResourceRecord{
        Name::parse("www.cdn.example.com").value(), RRClass::kIN, 300,
        dns::ARdata{dns::Ipv4{.addr = 0x0A000001 + i}}});
  }
  m.authority.push_back(dns::ResourceRecord{
      Name::parse("example.com").value(), RRClass::kIN, 300,
      dns::SOARdata{Name::parse("ns1.example.com").value(),
                    Name::parse("admin.example.com").value(), 1, 7200, 900,
                    604800, 300}});
  return m;
}

void append_json(std::string& out, const char* key, const BenchResult& r,
                 bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "  \"%s\": {\"ops_per_sec\": %.0f, \"ns_per_op\": %.1f, "
                "\"allocs_per_op\": %.4f, \"bytes_allocated_per_op\": "
                "%.1f}%s\n",
                key, r.ops_per_sec, 1e9 / r.ops_per_sec, r.allocs_per_op,
                r.bytes_per_op, last ? "" : ",");
  out += buf;
}

int run(int argc, char** argv) {
  std::string out_path = "BENCH_wire_micro.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  const Message message = make_message();
  const std::vector<uint8_t> wire = message.encode();
  std::printf("message: %zu wire bytes, %zu answers\n\n", wire.size(),
              message.answers.size());
  constexpr std::size_t kIters = 200000;

  // Arena encode: the steady-state tx path (AuthServer::encode_scratch).
  std::vector<uint8_t> arena;
  const BenchResult encode_arena =
      run_bench("encode (arena)", kIters, [&message, &arena] {
        arena.clear();
        dns::ByteWriter w(arena);
        message.encode_into(w);
        DNSCUP_ASSERT(!w.message().empty());
      });

  // Owning encode: the old per-response-vector path, for comparison.
  const BenchResult encode_owning =
      run_bench("encode (owning)", kIters, [&message] {
        const std::vector<uint8_t> bytes = message.encode();
        DNSCUP_ASSERT(!bytes.empty());
      });

  // View decode: structural parse only — what the serve fast path does.
  // The view is reused across iterations (parse_into), so its section
  // vectors keep their capacity and a warm parse never allocates.
  dns::MessageView view;
  const BenchResult decode_view =
      run_bench("decode (view)", kIters, [&wire, &view] {
        const auto st = dns::MessageView::parse_into(wire, view);
        DNSCUP_ASSERT(st.ok());
        DNSCUP_ASSERT(view.answers.size() == 4);
      });

  // Owning decode: full materialization (cold paths, tests).
  const BenchResult decode_owning =
      run_bench("decode (owning)", kIters, [&wire] {
        auto decoded = Message::decode(wire);
        DNSCUP_ASSERT(decoded.ok());
      });

  std::printf("\nserve-path stages (Zipf 0.9 draws):\n");
  const Population names_50k = make_population(50000);
  const std::string image =
      (std::filesystem::path(out_path).parent_path() /
       ("wire_micro_cache_" + std::to_string(::getpid()) + ".img"))
          .string();
  const BenchResult hit_heap =
      bench_cache_hit("cache hit (heap, 50k)", names_50k, "", kIters);
  const BenchResult hit_mmap =
      bench_cache_hit("cache hit (mmap, 50k)", names_50k, image, kIters);
  const BenchResult lookup_10k = bench_zone_lookup(
      "zone lookup_ref (10k)", make_population(10000), kIters);
  const BenchResult lookup_50k =
      bench_zone_lookup("zone lookup_ref (50k)", names_50k, kIters);

  // The contract: arena encode, view decode and a cache hit are
  // allocation-free in steady state.
  if (encode_arena.allocs_per_op > 0.0 || decode_view.allocs_per_op > 0.0 ||
      hit_heap.allocs_per_op > 0.0 || hit_mmap.allocs_per_op > 0.0) {
    std::fprintf(stderr,
                 "FAIL: steady-state hot path allocated (encode %.4f/op, "
                 "decode view %.4f/op, cache hit heap %.4f/op, mmap "
                 "%.4f/op)\n",
                 encode_arena.allocs_per_op, decode_view.allocs_per_op,
                 hit_heap.allocs_per_op, hit_mmap.allocs_per_op);
    return 1;
  }
  std::printf("\nhot path steady-state allocations: 0 (contract holds)\n");

  std::string json = "{\n  \"bench\": \"wire_micro\",\n";
  char sized[128];
  std::snprintf(sized, sizeof sized, "  \"wire_bytes\": %zu,\n", wire.size());
  json += sized;
  append_json(json, "encode_arena", encode_arena, false);
  append_json(json, "encode_owning", encode_owning, false);
  append_json(json, "decode_view", decode_view, false);
  append_json(json, "decode_owning", decode_owning, false);
  append_json(json, "cache_hit_heap_50k", hit_heap, false);
  append_json(json, "cache_hit_mmap_50k", hit_mmap, false);
  append_json(json, "zone_lookup_ref_10k", lookup_10k, false);
  append_json(json, "zone_lookup_ref_50k", lookup_50k, true);
  json += "}\n";
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dnscup

int main(int argc, char** argv) { return dnscup::run(argc, argv); }
