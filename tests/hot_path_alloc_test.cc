// Serve-path allocation and parity tests.
//
// 1. Parity: the zero-copy fast path (AuthServer::try_fast_query) must
//    produce byte-identical responses to the owning decode/handle/encode
//    slow path for every query shape it claims.
// 2. Allocation-freedom: a counting global allocator asserts that the
//    steady-state serve path — datagram in, response out, rate recorded —
//    performs zero heap allocations.  tools/check.sh --bench-smoke runs
//    this binary as the zero-allocation gate.
// 3. The same through each real I/O backend: a serving worker's warm
//    receive -> serve -> send_batch round over loopback sockets allocates
//    nothing either.
// 4. The cache side: a hit through CachingResolver + LeaseClient
//    (CachingResolver::try_fast_hit) — positive, negative and leased
//    entries, on the heap store and on MmapCacheStore — allocates nothing
//    from the first hit on: the rate estimate lives in the entry.  One
//    pass only sizes the resolver's reused answer buffer.
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "cachestore/mmap_store.h"
#include "core/dnscup_authority.h"
#include "core/lease_client.h"
#include "dns/message.h"
#include "dns/name.h"
#include "net/endpoint.h"
#include "net/event_loop.h"
#include "net/io_backend.h"
#include "net/transport.h"
#include "runtime/shim_transport.h"
#include "server/authoritative.h"
#include "server/cache_store.h"
#include "server/resolver.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dnscup::server {
namespace {

using dns::Message;
using dns::Name;
using dns::Question;
using dns::RRClass;
using dns::RRType;

Name mk(const char* text) { return Name::parse(text).value(); }
dns::Ipv4 ip(const char* text) { return dns::Ipv4::parse(text).value(); }

/// In-process transport: delivers datagrams synchronously and captures
/// the last response into a fixed buffer — no allocation on send, so it
/// can sit inside the measured loop.
class CaptureTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override { return local_; }

  void send(const net::Endpoint&, std::span<const uint8_t> data) override {
    ASSERT_LE(data.size(), last_.size());
    std::memcpy(last_.data(), data.data(), data.size());
    last_len_ = data.size();
    ++sends_;
  }

  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }

  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }

  std::span<const uint8_t> last() const {
    return std::span<const uint8_t>(last_.data(), last_len_);
  }
  uint64_t sends() const { return sends_; }

 private:
  net::Endpoint local_{net::make_ip(10, 0, 0, 1), 53};
  net::Transport::ReceiveHandler handler_;
  std::array<uint8_t, 4096> last_{};
  std::size_t last_len_ = 0;
  uint64_t sends_ = 0;
};

dns::Zone test_zone() {
  dns::SOARdata soa;
  soa.mname = mk("ns1.example.com");
  soa.rname = mk("admin.example.com");
  soa.serial = 1;
  soa.minimum = 60;
  dns::Zone zone = dns::Zone::make(mk("example.com"), soa, 3600,
                                   {mk("ns1.example.com")}, 3600);
  zone.add_record(mk("ns1.example.com"), RRType::kA, 3600,
                  dns::ARdata{ip("10.0.0.1")});
  for (int i = 0; i < 4; ++i) {
    zone.add_record(mk("www.example.com"), RRType::kA, 300,
                    dns::ARdata{dns::Ipv4{.addr = 0xC0000250u + uint32_t(i)}});
  }
  zone.add_record(mk("alias.example.com"), RRType::kCNAME, 300,
                  dns::CNAMERdata{mk("www.example.com")});
  zone.add_record(mk("sub.example.com"), RRType::kNS, 3600,
                  dns::NSRdata{mk("ns.sub.example.com")});
  zone.add_record(mk("ns.sub.example.com"), RRType::kA, 3600,
                  dns::ARdata{ip("10.0.0.2")});
  return zone;
}

std::vector<uint8_t> query_wire(const char* qname, RRType qtype,
                                uint16_t id = 42) {
  Message m;
  m.id = id;
  m.flags.rd = true;
  m.questions.push_back(Question{mk(qname), qtype, RRClass::kIN, 0});
  return m.encode();
}

class HotPathTest : public ::testing::Test {
 protected:
  HotPathTest() : server_(transport_, loop_) {
    server_.add_zone(test_zone());
  }

  /// Sends `wire` through on_datagram (fast path eligible) and returns
  /// the captured response bytes.
  std::vector<uint8_t> serve(const std::vector<uint8_t>& wire) {
    transport_.deliver(client_, wire);
    const auto captured = transport_.last();
    return {captured.begin(), captured.end()};
  }

  /// The slow path's answer for the same query, encoded the old way.
  std::vector<uint8_t> slow_answer(const std::vector<uint8_t>& wire) {
    auto decoded = Message::decode(wire);
    EXPECT_TRUE(decoded.ok());
    auto response = server_.handle(client_, decoded.value());
    EXPECT_TRUE(response.has_value());
    return response->encode();
  }

  net::EventLoop loop_;
  CaptureTransport transport_;
  net::Endpoint client_{net::make_ip(10, 0, 0, 99), 4000};
  AuthServer server_;
};

TEST_F(HotPathTest, FastPathMatchesSlowPathSuccess) {
  const auto wire = query_wire("www.example.com", RRType::kA);
  EXPECT_EQ(serve(wire), slow_answer(wire));
}

TEST_F(HotPathTest, FastPathMatchesSlowPathNXDomain) {
  const auto wire = query_wire("missing.example.com", RRType::kA);
  EXPECT_EQ(serve(wire), slow_answer(wire));
}

TEST_F(HotPathTest, FastPathMatchesSlowPathNoData) {
  const auto wire = query_wire("www.example.com", RRType::kAAAA);
  EXPECT_EQ(serve(wire), slow_answer(wire));
}

TEST_F(HotPathTest, FastPathMatchesSlowPathRefused) {
  const auto wire = query_wire("www.other.org", RRType::kA);
  EXPECT_EQ(serve(wire), slow_answer(wire));
}

TEST_F(HotPathTest, FallthroughCasesStillMatch) {
  // CNAME chase and delegation fall through to the slow path inside
  // on_datagram; the answer must still match handle()+encode().
  for (const auto& wire :
       {query_wire("alias.example.com", RRType::kA),
        query_wire("deep.sub.example.com", RRType::kA),
        query_wire("sub.example.com", RRType::kNS)}) {
    EXPECT_EQ(serve(wire), slow_answer(wire));
  }
}

TEST_F(HotPathTest, CompressedQnameIsNotFastPathEligible) {
  // A compression pointer in the first (only) question can reference
  // nothing but itself — the reader rejects it, the fast path declines
  // it, and the slow decode drops it as undecodable.  No response, no
  // crash, formerr counted.
  std::vector<uint8_t> wire = query_wire("www.example.com", RRType::kA);
  std::vector<uint8_t> pointered(wire.begin(), wire.begin() + 12);
  pointered.insert(pointered.end(), {3, 'w', 'w', 'w', 0xC0, 12});
  pointered.insert(pointered.end(), {0x00, 0x01, 0x00, 0x01});
  const uint64_t sends_before = transport_.sends();
  const uint64_t formerr_before = server_.stats().formerr;
  transport_.deliver(client_, pointered);
  EXPECT_EQ(transport_.sends(), sends_before);
  EXPECT_EQ(server_.stats().formerr, formerr_before + 1);
}

TEST_F(HotPathTest, TwoQuestionQueryAnswersFormErrViaSlowPath) {
  // qd != 1 is rejected by the fast path up front; the slow path answers
  // FormErr exactly as before.
  std::vector<uint8_t> wire = query_wire("www.example.com", RRType::kA);
  std::vector<uint8_t> doubled(wire.begin(), wire.begin() + 12);
  doubled[5] = 2;  // QDCOUNT = 2
  const std::span<const uint8_t> question(wire.data() + 12,
                                          wire.size() - 12);
  doubled.insert(doubled.end(), question.begin(), question.end());
  doubled.insert(doubled.end(), question.begin(), question.end());
  transport_.deliver(client_, doubled);
  auto responded = Message::decode(transport_.last());
  ASSERT_TRUE(responded.ok());
  EXPECT_EQ(responded.value().flags.rcode, dns::Rcode::kFormErr);
}

TEST_F(HotPathTest, SteadyStateServesWithZeroAllocations) {
  const auto wire = query_wire("www.example.com", RRType::kA);
  const auto nxwire = query_wire("missing.example.com", RRType::kA);
  // Warm every arena and pool: scratch buffers, compression table.
  for (int i = 0; i < 64; ++i) {
    transport_.deliver(client_, wire);
    transport_.deliver(client_, nxwire);
  }
  const uint64_t sends_before = transport_.sends();
  const uint64_t allocs_before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) {
    transport_.deliver(client_, wire);
    transport_.deliver(client_, nxwire);
  }
  const uint64_t allocs_after = g_allocs.load();
  EXPECT_EQ(transport_.sends(), sends_before + 2000);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state serve path allocated";
}

TEST_F(HotPathTest, SteadyStateWithDnscupHooksIsAllocationFree) {
  // The full DNScup stack installs a query hook, a fast-query hook and
  // the notifier's extension handler; legacy queries must still serve
  // allocation-free.
  core::DnscupAuthority::Config dc;
  dc.max_lease = [](const dns::Name&, dns::RRType) {
    return net::seconds(3600);
  };
  core::DnscupAuthority dnscup(server_, loop_, dc);

  const auto wire = query_wire("www.example.com", RRType::kA);
  // Warm the serve path's arenas and pools (encode buffers, compression
  // table) before counting.
  for (int i = 0; i < 64; ++i) transport_.deliver(client_, wire);
  const uint64_t sends_before = transport_.sends();
  const uint64_t allocs_before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) transport_.deliver(client_, wire);
  const uint64_t allocs_after = g_allocs.load();
  EXPECT_EQ(transport_.sends(), sends_before + 1000);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "steady-state DNScup serve path allocated";
}

/// One worker-loop round per query through real sockets: the client
/// backend sends, the server backend's receive() hands the datagram to
/// the AuthServer over a batching ShimTransport, flush() sends the
/// answer as a batch, and the client's receive() takes it.
void backend_round_trip_allocates_nothing(net::IoBackendKind kind) {
  metrics::MetricsRegistry registry;
  net::IoBackend::Options options;
  options.metrics = &registry;
  auto server_io = net::bind_io_backend(kind, options);
  ASSERT_TRUE(server_io.ok()) << server_io.error().to_string();
  auto client_io = net::bind_io_backend(kind, options);
  ASSERT_TRUE(client_io.ok()) << client_io.error().to_string();
  ASSERT_EQ(server_io.value()->backend_name(), net::to_string(kind));

  net::EventLoop loop(&registry);
  runtime::ShimTransport shim;
  shim.io = server_io.value().get();
  shim.batching = true;
  AuthServer server(shim, loop, AuthServer::Role::kMaster, &registry);
  server.add_zone(test_zone());

  const net::IoBackend::BatchReceiveHandler serve =
      [&shim](std::span<const net::RxPacket> batch) {
        for (const net::RxPacket& packet : batch) {
          shim.handler(packet.from, packet.data);
        }
      };
  uint64_t answers = 0;
  const net::IoBackend::BatchReceiveHandler collect =
      [&answers](std::span<const net::RxPacket> batch) {
        answers += batch.size();
      };
  const net::IoBackend::Wait wait{-1, -1, net::seconds(1)};
  const auto wire = query_wire("www.example.com", RRType::kA);
  const net::TxPacket query{server_io.value()->local_endpoint(), wire};
  auto round = [&] {
    client_io.value()->send_batch(std::span<const net::TxPacket>(&query, 1));
    for (int tries = 0; tries < 5; ++tries) {
      if (server_io.value()->receive(32, serve, &wait) > 0) break;
    }
    shim.flush();
    for (int tries = 0; tries < 5; ++tries) {
      if (client_io.value()->receive(32, collect, &wait) > 0) break;
    }
  };
  // Warm the arenas, the backends' receive state and the rings.
  for (int i = 0; i < 64; ++i) round();
  const uint64_t answers_before = answers;
  const uint64_t allocs_before = g_allocs.load();
  for (int i = 0; i < 1000; ++i) round();
  const uint64_t allocs_after = g_allocs.load();
  EXPECT_EQ(answers, answers_before + 1000);
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << net::to_string(kind) << " receive/serve/send_batch round allocated";
}

TEST(BackendRoundTrip, PortableIsAllocationFree) {
  backend_round_trip_allocates_nothing(net::IoBackendKind::kPortable);
}

/// Cache hits from the first on: one CachingResolver + LeaseClient,
/// answering from a warm cache through on_datagram.
void cache_hits_allocate_nothing(bool mmap) {
  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  CaptureTransport transport;
  const net::Endpoint authority{net::make_ip(10, 0, 0, 53), 53};
  const net::Endpoint client{net::make_ip(10, 0, 0, 99), 4000};
  const std::string file =
      "hot_path_alloc_test_" + std::to_string(::getpid()) + ".img";
  CachingResolver::Config rc;
  rc.metrics = &registry;
  if (mmap) {
    ::unlink(file.c_str());
    cachestore::MmapCacheStore::Options so;
    so.path = file;
    so.file_bytes = 4u << 20;
    so.metrics = &registry;
    auto opened = cachestore::MmapCacheStore::open(std::move(so));
    ASSERT_TRUE(opened.ok());
    auto holder = std::make_shared<std::unique_ptr<CacheStoreBackend>>(
        std::move(opened).value());
    rc.cache_store = [holder] { return std::move(*holder); };
  }
  CachingResolver resolver(transport, loop, {authority}, rc);
  core::LeaseClient::Config lc;
  lc.metrics = &registry;
  core::LeaseClient lease(resolver, lc);
  ASSERT_EQ(resolver.cache().store().name(), mmap ? "mmap" : "heap");

  dns::RRset www{mk("www.example.com"), RRType::kA, RRClass::kIN, 300, {}};
  for (uint32_t i = 0; i < 4; ++i) {
    www.add(dns::ARdata{dns::Ipv4{.addr = 0xC0000250u + i}});
  }
  resolver.cache().put(www, 0);
  resolver.cache().put_negative(mk("missing.example.com"), RRType::kA,
                                dns::Rcode::kNXDomain, 300, 0);
  // The leased entry arrives the real way: a miss, then the authority's
  // EXT answer granting a lease (which also records its lease metadata).
  const auto leased_wire = query_wire("leased.example.com", RRType::kA);
  transport.deliver(client, leased_wire);
  auto upstream = Message::decode(transport.last());
  ASSERT_TRUE(upstream.ok() && upstream.value().flags.ext);
  Message granted = dns::make_response(upstream.value());
  granted.flags.aa = true;
  granted.llt = dns::llt_from_seconds(3600);
  granted.answers.push_back(dns::ResourceRecord{
      mk("leased.example.com"), RRClass::kIN, 60,
      dns::ARdata{ip("192.0.2.99")}});
  transport.deliver(authority, granted.encode());
  ASSERT_EQ(lease.stats().leases_registered, 1u);

  const std::vector<std::vector<uint8_t>> wires = {
      query_wire("www.example.com", RRType::kA),
      query_wire("missing.example.com", RRType::kA), leased_wire};
  // One pass sizes the answer buffer; nothing else needs warming.
  for (const auto& wire : wires) transport.deliver(client, wire);
  for (const auto& wire : wires) {
    const uint64_t fast_before = resolver.stats().fast_hits;
    const uint64_t sends_before = transport.sends();
    const uint64_t allocs_before = g_allocs.load();
    for (int i = 0; i < 1000; ++i) transport.deliver(client, wire);
    const uint64_t allocs_after = g_allocs.load();
    EXPECT_EQ(transport.sends(), sends_before + 1000);
    EXPECT_EQ(resolver.stats().fast_hits, fast_before + 1000);
    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << (mmap ? "mmap" : "heap") << " cache hit allocated for "
        << Message::decode(wire).value().questions[0].qname.to_string();
  }
  if (mmap) ::unlink(file.c_str());
}

TEST(CacheHit, HeapStoreIsAllocationFree) {
  cache_hits_allocate_nothing(false);
}

TEST(CacheHit, MmapStoreIsAllocationFree) {
  cache_hits_allocate_nothing(true);
}

TEST(BackendRoundTrip, UringIsAllocationFree) {
  if (!net::uring_compiled() || !net::uring_runtime_probe().ok()) {
    GTEST_SKIP() << "io_uring backend unavailable on this kernel";
  }
  backend_round_trip_allocates_nothing(net::IoBackendKind::kUring);
}

}  // namespace
}  // namespace dnscup::server
