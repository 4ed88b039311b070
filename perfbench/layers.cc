// layers — replays a workload's generated inputs through each layer's
// public functions in-process and times every call.
//
// The daemons are black boxes to the load generator; this program gives
// the per-layer split.  It rebuilds the workload's zone and read/update
// streams from the seed (workload.h) and drives:
//
//   serve path   dns::MessageView::parse_into, Zone::lookup_ref,
//                GrantPolicy::decide / ListeningModule::on_query_view,
//                the planner's observe/assignment seam, Message::encode_into,
//                and the whole datagram through AuthServer over a
//                benchmark-owned net::Transport (timed until its send);
//   update path  AuthServer::apply_update, NotificationModule::on_zone_change,
//                push::FrameReader::next, LeaseClient::on_channel_update,
//                ResolverCache::apply_update, the notifier's ack handling;
//   cache        ResolverCache::peek, MmapCacheStore commit/touch/open;
//   store        WalWriter::append and sync.
//
// Every timed call is a span (name, start, end, parent, request id) kept
// in memory and written as CSV at exit.  Durations go to a sample file
// (same format as loadgen's) so perfbench/stats.py applies one percentile
// rule to everything; scalar results go to a JSON summary.
//
//   layers --seed S --names N --zipf s --ext-fraction f --workdir DIR
//          --samples FILE --trace FILE --out FILE
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cachestore/mmap_store.h"
#include "core/dnscup_authority.h"
#include "core/lease_client.h"
#include "dns/wire.h"
#include "planner/lease_planner.h"
#include "push/framing.h"
#include "server/authoritative.h"
#include "server/resolver.h"
#include "store/storage.h"
#include "store/wal.h"
#include "workload.h"

namespace {
// Heap allocations made by the calling thread (the planner thread's own
// allocations must not count against the serve path).
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// In-memory spans plus the per-name duration series derived from them.
class Recorder {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;
    uint32_t request = 0;
    uint32_t name = 0;
    int64_t start = 0;
    int64_t end = 0;
  };

  uint32_t name_id(const std::string& name) {
    for (uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    series_.emplace_back();
    return static_cast<uint32_t>(names_.size() - 1);
  }

  uint32_t add(uint32_t name, int64_t start, int64_t end, uint32_t parent,
               uint32_t request, bool sample = true) {
    const auto id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back(Span{id, parent, request, name, start, end});
    if (sample) {
      series_[name].push_back(static_cast<uint32_t>(
          std::min<int64_t>(end - start, UINT32_MAX)));
    }
    return id;
  }

  /// Opens a span that later spans can name as their parent.
  uint32_t begin(uint32_t name, uint32_t request) {
    return add(name, now_ns(), 0, 0, request, false);
  }
  void end(uint32_t span) { spans_[span - 1].end = now_ns(); }

  /// Times fn() as a span; returns the span id.
  template <typename Fn>
  uint32_t time(uint32_t name, uint32_t parent, uint32_t request, Fn&& fn) {
    const int64_t t0 = now_ns();
    fn();
    return add(name, t0, now_ns(), parent, request);
  }

  void reserve(std::size_t n) { spans_.reserve(n); }

  bool write_samples(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const auto len = static_cast<uint16_t>(names_[i].size());
      const auto count = static_cast<uint32_t>(series_[i].size());
      std::fwrite(&len, sizeof len, 1, f);
      std::fwrite(names_[i].data(), 1, names_[i].size(), f);
      std::fwrite(&count, sizeof count, 1, f);
      std::fwrite(series_[i].data(), sizeof(uint32_t), series_[i].size(), f);
    }
    std::fclose(f);
    return true;
  }

  bool write_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span_id,parent_id,request_id,name,start_ns,end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%u,%u,%u,%s,%lld,%lld\n", s.id, s.parent, s.request,
                   names_[s.name].c_str(), static_cast<long long>(s.start),
                   static_cast<long long>(s.end));
    }
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<uint32_t>> series_;
  std::vector<Span> spans_;
};

/// The benchmark-owned transport: delivers datagrams straight into the
/// bound server and stamps the moment the server sends its answer.
class BenchTransport final : public net::Transport {
 public:
  explicit BenchTransport(net::Endpoint local) : local_(local) {}

  const net::Endpoint& local_endpoint() const override { return local_; }
  void send(const net::Endpoint& to,
            std::span<const uint8_t> data) override {
    last_send_ns = now_ns();
    ++sends;
    if (capture) sent.emplace_back(to, std::vector<uint8_t>(data.begin(),
                                                            data.end()));
  }
  void set_receive_handler(ReceiveHandler handler) override {
    handler_ = std::move(handler);
  }
  void deliver(const net::Endpoint& from, std::span<const uint8_t> data) {
    handler_(from, data);
  }

  int64_t last_send_ns = 0;
  uint64_t sends = 0;
  bool capture = false;
  std::vector<std::pair<net::Endpoint, std::vector<uint8_t>>> sent;

 private:
  net::Endpoint local_;
  ReceiveHandler handler_;
};

// Calls replayed per path: reads through the serve path and the cache,
// UPDATEs through the fan-out chain, records through the WAL.
constexpr std::size_t kReads = 40000;
constexpr std::size_t kUpdates = 1000;
constexpr std::size_t kStoreRecords = 200;

struct Options {
  Spec spec;
  std::string workdir = ".";
  std::string samples;
  std::string trace;
  std::string out;
};

dns::RRset a_rrset(const Spec& spec, std::size_t name, uint32_t version) {
  dns::RRset set;
  set.name = owner(name);
  set.type = dns::RRType::kA;
  set.ttl = kTtl;
  set.rdatas.push_back(dns::ARdata{dns::Ipv4{address(spec.seed, name, version)}});
  return set;
}

dns::Message answer_for(const Spec& spec, std::size_t name) {
  dns::Message m;
  m.flags.qr = true;
  m.flags.aa = true;
  m.questions.push_back(
      dns::Question{owner(name), dns::RRType::kA, dns::RRClass::kIN, 0});
  m.answers.push_back(dns::ResourceRecord{
      owner(name), dns::RRClass::kIN, kTtl,
      dns::ARdata{dns::Ipv4{address(spec.seed, name, 0)}}});
  return m;
}

double histogram_mean(const metrics::Snapshot& snap, const char* name) {
  uint64_t count = 0;
  double sum = 0;
  for (const auto& e : snap.entries) {
    if (e.name == name && e.kind == metrics::InstrumentKind::kHistogram) {
      count += e.histogram.count;
      sum += e.histogram.sum;
    }
  }
  return count ? sum / static_cast<double>(count) : 0.0;
}

double value_sum(const metrics::Snapshot& snap, const char* name) {
  double total = 0;
  for (const auto& e : snap.entries) {
    if (e.name != name) continue;
    total += e.kind == metrics::InstrumentKind::kGauge
                 ? e.gauge_value
                 : static_cast<double>(e.counter_value);
  }
  return total;
}

int run(const Options& opts) {
  const Spec& spec = opts.spec;
  Recorder rec;
  rec.reserve(kReads * 8 + kUpdates * 8 + spec.names * 2);
  const uint32_t s_request = rec.name_id("replay.request");
  const uint32_t s_update_root = rec.name_id("replay.update");
  const uint32_t s_decode = rec.name_id("dns.decode");
  const uint32_t s_lookup = rec.name_id("dns.zone_lookup");
  const uint32_t s_decide = rec.name_id("core.lease_decide");
  const uint32_t s_observe_listener = rec.name_id("core.listener_observe");
  const uint32_t s_plan_observe = rec.name_id("planner.observe");
  const uint32_t s_plan_assign = rec.name_id("planner.assignment");
  const uint32_t s_encode = rec.name_id("dns.encode");
  const uint32_t s_auth_plain = rec.name_id("server.auth_query_plain");
  const uint32_t s_auth_ext = rec.name_id("server.auth_query_ext");
  const uint32_t s_update = rec.name_id("server.update_apply");
  const uint32_t s_fanout = rec.name_id("core.notify_fanout");
  const uint32_t s_frame = rec.name_id("push.frame_decode");
  const uint32_t s_client = rec.name_id("core.lease_client_apply");
  const uint32_t s_ack = rec.name_id("core.cache_update_ack");
  const uint32_t s_cache_apply = rec.name_id("server.cache_apply_update");
  const uint32_t s_peek = rec.name_id("server.cache_peek");
  const uint32_t s_commit = rec.name_id("cachestore.commit");
  const uint32_t s_touch = rec.name_id("cachestore.touch");
  const uint32_t s_open = rec.name_id("cachestore.open");
  const uint32_t s_append = rec.name_id("store.append");
  const uint32_t s_fsync = rec.name_id("store.fsync");

  std::vector<dns::Name> names;
  names.reserve(spec.names);
  for (std::size_t i = 0; i < spec.names; ++i) names.push_back(owner(i));
  const dns::Name origin = dns::Name::parse(kOrigin).value();
  const net::Endpoint auth_ep{net::make_ip(10, 0, 0, 53), 53};
  std::vector<net::Endpoint> holders;
  for (uint8_t h = 1; h <= 4; ++h) {
    holders.push_back(net::Endpoint{net::make_ip(10, 9, 0, h), 5353});
  }
  const net::Duration max_lease = net::seconds(3600);

  // ---- serve path: the authority with DNScup and the planner -----------
  metrics::MetricsRegistry registry;
  net::EventLoop loop(&registry);
  BenchTransport auth_transport(auth_ep);
  server::AuthServer auth(auth_transport, loop,
                          server::AuthServer::Role::kMaster, &registry);
  const dns::Zone zone = make_zone(spec);
  auth.add_zone(zone);
  planner::LeasePlanner::Config pcfg;
  pcfg.storage_budget = 5000;
  pcfg.capacity = 1 << 18;
  auto lease_planner = planner::LeasePlanner::start(pcfg);
  core::LeaseAssignmentSource* seam = lease_planner->handle_for_worker(0);
  core::DnscupAuthority::Config dcfg;
  dcfg.max_lease = [max_lease](const dns::Name&, dns::RRType) {
    return max_lease;
  };
  dcfg.storage_budget = 5000;
  dcfg.planner = seam;
  dcfg.metrics = &registry;
  core::DnscupAuthority dnscup(auth, loop, dcfg);
  const dns::Zone& served = *auth.find_zone(origin);

  std::vector<dns::Message> answers;
  answers.reserve(spec.names);
  for (std::size_t i = 0; i < spec.names; ++i) {
    answers.push_back(answer_for(spec, i));
  }
  // The replay mixes plain and EXT queries even where the generator sends
  // only plain reads: a cache's upstream queries are all EXT.
  Spec replay = spec;
  if (replay.ext_fraction <= 0) replay.ext_fraction = 0.2;
  ReadStream stream(replay);
  dns::MessageView view;
  std::vector<uint8_t> arena;
  arena.reserve(4096);
  uint64_t allocs = 0;
  uint64_t ext_reads = 0;
  std::vector<Read> read_log;
  read_log.reserve(kReads);
  for (std::size_t q = 0; q < kReads; ++q) {
    const Read r = stream.next();
    read_log.push_back(r);
    const std::vector<uint8_t> wire =
        query_wire(r.name, r.ext, static_cast<uint16_t>(q));
    const net::Endpoint& holder = holders[q % holders.size()];
    const auto req = static_cast<uint32_t>(q + 1);
    const uint32_t root = rec.begin(s_request, req);
    // The whole datagram through the server, until it sends the answer;
    // then each stage of the same request on its own, on the server's
    // zone.
    const uint64_t allocs0 = t_allocs;
    const int64_t t0 = now_ns();
    auth_transport.deliver(holder, wire);
    const int64_t t1 = auth_transport.last_send_ns;
    allocs += t_allocs - allocs0;
    rec.add(r.ext ? s_auth_ext : s_auth_plain, t0, t1, root, req);
    rec.time(s_decode, root, req, [&] {
      const auto st = dns::MessageView::parse_into(wire, view);
      if (!st.ok()) std::abort();
    });
    rec.time(s_lookup, root, req, [&] {
      const auto ref =
          served.lookup_ref(view.questions[0].qname, dns::RRType::kA);
      if (ref.status != dns::Zone::LookupStatus::kSuccess) std::abort();
    });
    if (r.ext) {
      ++ext_reads;
      rec.time(s_decide, root, req, [&] {
        (void)dnscup.policy().decide(names[r.name], dns::RRType::kA, holder,
                                     10.0, loop.now());
      });
      rec.time(s_plan_observe, root, req, [&] {
        seam->observe(holder, names[r.name], dns::RRType::kA, 10.0, 3600.0);
      });
      rec.time(s_plan_assign, root, req, [&] {
        (void)seam->assignment(holder, names[r.name], dns::RRType::kA);
      });
    } else {
      rec.time(s_observe_listener, root, req, [&] {
        dnscup.listener().on_query_view(view.questions[0].qname,
                                        dns::RRType::kA, loop.now());
      });
    }
    rec.time(s_encode, root, req, [&] {
      arena.clear();
      dns::ByteWriter w(arena);
      answers[r.name].encode_into(w);
    });
    rec.end(root);
  }
  const uint64_t auth_sends = auth_transport.sends;

  // ---- update path: apply, fan out, push framing, cache-side apply -----
  BenchTransport notify_transport(auth_ep);
  notify_transport.capture = true;
  metrics::MetricsRegistry update_registry;
  core::TrackFile track_file(&update_registry);
  core::NotificationModule::Config ncfg;
  ncfg.metrics = &update_registry;
  core::NotificationModule notifier(&notify_transport, &loop, &track_file,
                                    ncfg);
  // The fan-out chain runs on its own zone copy: AuthServer::apply_update
  // snapshots and diffs the whole zone per UPDATE, so it is timed apart,
  // on a time budget, below.
  dns::Zone churned = zone;

  const net::Endpoint cache_ep = holders[0];
  BenchTransport cache_transport(cache_ep);
  server::CachingResolver::Config rcfg;
  rcfg.metrics = &update_registry;
  server::CachingResolver resolver(cache_transport, loop, {auth_ep}, rcfg);
  core::LeaseClient::Config ccfg;
  ccfg.trusted_authorities = {auth_ep};
  ccfg.metrics = &update_registry;
  core::LeaseClient lease_client(resolver, ccfg);
  server::ResolverCache plain_cache(0, &update_registry);
  for (std::size_t i = 0; i < spec.names; ++i) {
    const dns::RRset set = a_rrset(spec, i, 0);
    resolver.cache().put(set, loop.now());
    plain_cache.put(set, loop.now());
  }
  const std::size_t hot = hot_names(spec);
  for (std::size_t i = 0; i < hot; ++i) {
    track_file.grant(cache_ep, names[i], dns::RRType::kA, loop.now(),
                     max_lease);
    resolver.cache().set_lease(
        names[i], dns::RRType::kA,
        server::LeaseState{loop.now() + max_lease, auth_ep});
  }
  push::FrameReader frames;
  push::Frame frame;
  std::vector<uint8_t> framed;
  double ack_us_sum = 0;
  uint64_t acks = 0;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    const Update u = update_at(spec, k);
    const auto req = static_cast<uint32_t>(kReads + k + 1);
    const uint32_t root = rec.begin(s_update_root, req);
    const dns::Message msg =
        update_message(spec, u.name, u.version, static_cast<uint16_t>(k));
    bool changed = false;
    if (server::apply_update_section(churned, msg.authority, changed) !=
            dns::Rcode::kNoError ||
        !changed) {
      std::abort();
    }
    churned.bump_serial();
    dns::RRsetChange change;
    change.name = names[u.name];
    change.before = a_rrset(spec, u.name, u.version - 1);
    change.after = a_rrset(spec, u.name, u.version);
    notify_transport.sent.clear();
    const int64_t t_fan = now_ns();
    rec.time(s_fanout, root, req, [&] {
      notifier.on_zone_change(churned, {change});
    });
    for (const auto& [to, bytes] : notify_transport.sent) {
      framed.clear();
      push::encode_frame(push::FrameKind::kPush, bytes, framed);
      frames.append(framed);
      rec.time(s_frame, root, req, [&] {
        if (!frames.next(frame)) std::abort();
      });
      if (!(to == cache_ep)) continue;
      auto pushed = dns::Message::decode(frame.body);
      if (!pushed.ok()) std::abort();
      std::vector<uint8_t> ack_wire;
      rec.time(s_client, root, req, [&] {
        lease_client.on_channel_update(
            auth_ep, pushed.value(),
            [&ack_wire](std::vector<uint8_t> a) { ack_wire = std::move(a); });
      });
      auto ack = dns::Message::decode(ack_wire);
      if (!ack.ok() || !notifier.on_message(cache_ep, ack.value())) {
        std::abort();
      }
      const int64_t t_ack = now_ns();
      rec.add(s_ack, t_fan, t_ack, root, req);
      ack_us_sum += static_cast<double>(t_ack - t_fan) / 1000.0;
      ++acks;
    }
    rec.time(s_cache_apply, root, req, [&] {
      plain_cache.apply_update(*change.after, loop.now());
    });
    rec.end(root);
  }
  // AuthServer::apply_update: as many UPDATEs as fit a 1.5 s budget, and
  // at least 20 so the p50 stays reportable on a 50k-name zone.
  BenchTransport update_transport(auth_ep);
  server::AuthServer updater(update_transport, loop,
                             server::AuthServer::Role::kMaster,
                             &update_registry);
  updater.add_zone(zone);
  const int64_t apply_deadline = now_ns() + 1'500'000'000;
  for (std::size_t k = 0;
       k < kUpdates && (k < 20 || now_ns() < apply_deadline); ++k) {
    const Update u = update_at(spec, k);
    const dns::Message msg =
        update_message(spec, u.name, u.version, static_cast<uint16_t>(k));
    rec.time(s_update, 0, static_cast<uint32_t>(kReads + k + 1), [&] {
      if (updater.apply_update(msg) != dns::Rcode::kNoError) std::abort();
    });
  }
  const auto lc = lease_client.stats();
  if (lc.updates_applied != kUpdates) {
    std::fprintf(stderr, "layers: lease client applied %llu of %zu updates\n",
                 static_cast<unsigned long long>(lc.updates_applied),
                 kUpdates);
    return 1;
  }

  // ---- resolver cache hit path ------------------------------------------
  for (std::size_t q = 0; q < read_log.size(); ++q) {
    const Read& r = read_log[q];
    rec.time(s_peek, 0, static_cast<uint32_t>(q + 1), [&] {
      if (resolver.cache().peek(names[r.name], dns::RRType::kA) == nullptr) {
        std::abort();
      }
    });
  }

  // ---- persistent cache store -------------------------------------------
  const std::string store_path = opts.workdir + "/layers-cache-shard";
  std::filesystem::remove(store_path);
  cachestore::MmapCacheStore::Options sopts;
  sopts.path = store_path;
  sopts.file_bytes = 256ull << 20;  // as the benchmark's dnscached
  sopts.metrics = &update_registry;
  auto opened = cachestore::MmapCacheStore::open(sopts);
  if (!opened.ok()) {
    std::fprintf(stderr, "layers: %s\n", opened.error().to_string().c_str());
    return 1;
  }
  std::unique_ptr<cachestore::MmapCacheStore> store = std::move(opened).value();
  for (std::size_t i = 0; i < spec.names; ++i) {
    const server::CacheKey key{names[i], dns::RRType::kA};
    bool inserted = false;
    server::CacheEntry& entry = store->upsert(key, inserted);
    entry.rrset = a_rrset(spec, i, 0);
    entry.expiry = net::seconds(kTtl);
    entry.lease = server::LeaseState{max_lease, auth_ep};
    rec.time(s_commit, 0, 0, [&] { store->commit(key); });
  }
  for (std::size_t q = 0; q < read_log.size(); ++q) {
    const server::CacheKey key{names[read_log[q].name], dns::RRType::kA};
    rec.time(s_touch, 0, static_cast<uint32_t>(q + 1),
             [&] { store->touch(key); });
  }
  store.reset();  // flushes the image, like a cache shutting down
  uint64_t warm_entries = 0;
  rec.time(s_open, 0, 0, [&] {
    auto reopened = cachestore::MmapCacheStore::open(sopts);
    if (!reopened.ok()) std::abort();
    warm_entries = reopened.value()->load_report().warm_entries;
  });
  std::filesystem::remove(store_path);

  // ---- durable store: WAL append + fsync per change ---------------------
  const std::string wal_dir = opts.workdir + "/layers-wal";
  std::filesystem::remove_all(wal_dir);
  store::PosixStorage storage;
  if (!storage.create_dir(wal_dir).ok()) return 1;
  auto wal = store::WalWriter::open(&storage, wal_dir, 1, store::WalOptions{});
  if (!wal.ok()) {
    std::fprintf(stderr, "layers: %s\n", wal.error().to_string().c_str());
    return 1;
  }
  double append_us = 0, fsync_us = 0;
  for (std::size_t k = 0; k < kStoreRecords; ++k) {
    store::WalRecord record;
    record.type = store::WalRecordType::kZoneSerial;
    record.origin = origin;
    record.serial = static_cast<uint32_t>(k + 2);
    const int64_t t0 = now_ns();
    if (!wal.value()->append(record).ok()) return 1;
    const int64_t t1 = now_ns();
    if (!wal.value()->sync().ok()) return 1;
    const int64_t t2 = now_ns();
    rec.add(s_append, t0, t1, 0, 0);
    rec.add(s_fsync, t1, t2, 0, 0);
    append_us += (t1 - t0) / 1000.0;
    fsync_us += (t2 - t1) / 1000.0;
  }
  const double wal_bytes = static_cast<double>(
      wal.value()->active_segment_bytes());
  wal.value().reset();
  std::filesystem::remove_all(wal_dir);

  // ---- planner: let the planner thread apply what it was fed ------------
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (lease_planner->applied() < ext_reads * 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const metrics::Snapshot psnap = lease_planner->metrics(0);
  lease_planner->stop();
  const double observations = value_sum(psnap, "planner_observations");
  const double dropped = value_sum(psnap, "planner_observations_dropped");

  if (!opts.samples.empty() && !rec.write_samples(opts.samples)) return 1;
  if (!opts.trace.empty() && !rec.write_trace(opts.trace)) return 1;
  std::FILE* f =
      opts.out.empty() ? stdout : std::fopen(opts.out.c_str(), "w");
  if (f == nullptr) return 1;
  const double n_store = static_cast<double>(kStoreRecords);
  std::fprintf(
      f,
      "{\"reads\": %zu, \"ext_reads\": %llu, \"auth_sends\": %llu, "
      "\"allocs_per_query\": %.6f, \"updates\": %zu, "
      "\"ack_latency_us_mean\": %.6f, \"store_append_us_mean\": %.6f, "
      "\"store_fsync_us_mean\": %.6f, \"wal_bytes_per_update\": %.6f, "
      "\"cachestore_warm_entries\": %llu, "
      "\"planner_update_latency_us_mean\": %.6f, "
      "\"planner_observations_dropped_ratio\": %.9f, "
      "\"planner_pairs\": %.0f}\n",
      kReads, static_cast<unsigned long long>(ext_reads),
      static_cast<unsigned long long>(auth_sends),
      static_cast<double>(allocs) / static_cast<double>(kReads),
      kUpdates, acks ? ack_us_sum / static_cast<double>(acks) : 0.0,
      append_us / n_store, fsync_us / n_store, wal_bytes / n_store,
      static_cast<unsigned long long>(warm_entries),
      histogram_mean(psnap, "planner_update_latency_us"),
      observations + dropped > 0 ? dropped / (observations + dropped) : 0.0,
      value_sum(psnap, "planner_pairs"));
  if (f != stdout) std::fclose(f);
  return auth_sends == kReads ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--seed") {
      opts.spec.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--names") {
      opts.spec.names = std::strtoull(v, nullptr, 10);
    } else if (arg == "--zipf") {
      opts.spec.zipf_s = std::atof(v);
    } else if (arg == "--ext-fraction") {
      opts.spec.ext_fraction = std::atof(v);
    } else if (arg == "--workdir") {
      opts.workdir = v;
    } else if (arg == "--samples") {
      opts.samples = v;
    } else if (arg == "--trace") {
      opts.trace = v;
    } else if (arg == "--out") {
      opts.out = v;
    } else {
      std::fprintf(stderr, "layers: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (opts.spec.names == 0 || opts.spec.names > 1000000) {
    std::fprintf(stderr,
                 "usage: layers --seed S --names N [--zipf s] "
                 "[--ext-fraction f]\n"
                 "              [--workdir DIR] [--samples F] [--trace F] "
                 "[--out F]\n");
    return 2;
  }
  return perfbench::run(opts);
}
