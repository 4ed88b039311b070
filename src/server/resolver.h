// Caching recursive resolver — the "local DNS nameserver" of the paper.
//
// Serves stub clients over its transport, resolves misses iteratively
// through the nameserver hierarchy (root hints -> referrals -> authority),
// caches positive and negative answers by TTL, coalesces duplicate
// in-flight questions, and retries/fails over across servers on timeout.
//
// DNScup's cache-side module attaches through the Extension interface: it
// can decorate outgoing queries (EXT flag + RRC rate report), observe
// responses (granted LLT -> lease registration) and consume unsolicited
// messages (CACHE-UPDATE pushes).  With no extension installed this is a
// plain TTL resolver — the backward-compatible deployment story of §1.
//
// Serving has two paths.  A plain one-question query that hits a fresh
// entry is answered by try_fast_hit straight from the request bytes: the
// qname is parsed as a NameView, the cache is probed by a CacheKeyView,
// and the answer is encoded into a reused arena — no heap allocation.
// Its bytes and side effects (counters, extension hook, LRU order) are
// exactly the owning path's: Message::decode, handle_client_query,
// resolve() and encode().  Everything else (misses, expired entries,
// CNAME chases, EXT, other opcodes, malformed input) takes that owning
// path, and the fast path declines before changing anything.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "dns/message.h"
#include "net/event_loop.h"
#include "net/transport.h"
#include "server/cache.h"

namespace dnscup::server {

class CachingResolver {
 public:
  struct Config {
    int max_retries = 2;           ///< retransmissions per server
    net::Duration query_timeout = net::seconds(2);
    int max_referrals = 16;
    int max_cname_hops = 8;
    int max_indirections = 4;      ///< nested NS-address resolutions
    std::size_t cache_capacity = 0;
    uint32_t default_negative_ttl = 60;
    /// Registry for resolver_* and resolver_cache_* instruments
    /// (default_registry() when null).
    metrics::MetricsRegistry* metrics = nullptr;
    /// Storage backend factory for the cache (cache_store.h); null uses
    /// the heap store.  A persistent backend may arrive warm-loaded —
    /// its entries serve immediately.
    std::function<std::unique_ptr<CacheStoreBackend>()> cache_store;
  };

  struct Outcome {
    enum class Status { kOk, kNXDomain, kNoData, kServFail, kTimeout };
    Status status = Status::kServFail;
    dns::RRset rrset;   ///< the answer RRset when status == kOk
    std::vector<dns::ResourceRecord> cname_chain;
    bool from_cache = false;
  };
  using Callback = std::function<void(const Outcome&)>;

  struct Stats {
    uint64_t client_queries = 0;
    uint64_t fast_hits = 0;        ///< client queries try_fast_hit answered
    uint64_t upstream_queries = 0;
    uint64_t retransmissions = 0;
    uint64_t timeouts = 0;
    uint64_t servfails = 0;
    uint64_t coalesced = 0;
  };

  /// DNScup (or any protocol extension) plugs in here.
  class Extension {
   public:
    virtual ~Extension() = default;
    /// Observes every client-side question (cache hit or miss) — this is
    /// where DNScup measures the local query rate it reports as RRC.
    virtual void on_client_query(const dns::Name& qname, dns::RRType qtype) {
      (void)qname;
      (void)qtype;
    }
    /// The same observation for a question try_fast_hit answers: `key`
    /// views the request bytes (valid only for the call) and `hit` is the
    /// fresh entry about to be served (the hook may update its lease's
    /// unpersisted re-negotiation bookkeeping).  The default materializes
    /// the name and forwards to the owning form.
    virtual void on_client_query(const CacheKeyView& key, CacheEntry& hit) {
      (void)hit;
      on_client_query(key.name.materialize(), key.type);
    }
    /// Chance to mutate an outgoing upstream query (set EXT flag, RRC).
    virtual void on_outgoing_query(dns::Message& query) { (void)query; }
    /// Observes every upstream response after normal processing.
    virtual void on_response(const net::Endpoint& from,
                             const dns::Message& response) {
      (void)from;
      (void)response;
    }
    /// First-chance handler for unsolicited datagrams (server pushes).
    /// Return true when consumed.
    virtual bool on_unsolicited(const net::Endpoint& from,
                                const dns::Message& message) {
      (void)from;
      (void)message;
      return false;
    }
  };

  CachingResolver(net::Transport& transport, net::EventLoop& loop,
                  std::vector<net::Endpoint> root_servers, Config config);
  CachingResolver(net::Transport& transport, net::EventLoop& loop,
                  std::vector<net::Endpoint> root_servers)
      : CachingResolver(transport, loop, std::move(root_servers), Config()) {}

  /// Resolves (name, type); the callback fires exactly once, possibly
  /// synchronously on a cache hit.
  void resolve(const dns::Name& qname, dns::RRType qtype, Callback cb);

  /// Forces a network re-resolution even when the cache is fresh (the
  /// cache entry is refreshed from the response as usual).  DNScup's
  /// cache-side module uses this to re-negotiate a lease when the local
  /// query rate has drifted from what was last reported (§5.1.2).
  void refresh(const dns::Name& qname, dns::RRType qtype, Callback cb);

  ResolverCache& cache() { return cache_; }
  /// Value snapshot of the registry-backed counters.
  Stats stats() const;
  net::Transport& transport() { return *transport_; }
  net::EventLoop& loop() { return *loop_; }

  /// The extension must outlive the resolver (not owned).
  void set_extension(Extension* extension) { extension_ = extension; }

  /// Allocation-free hit path, tried first for every datagram.  Accepts
  /// only a plain query — QR=0, opcode QUERY, no EXT, one question with a
  /// pointer-free qname, empty AN/NS/AR, nothing after the question —
  /// whose (qname, qtype) entry is fresh.  It then answers exactly as
  /// handle_client_query would and returns true; otherwise it returns
  /// false having changed nothing.
  bool try_fast_hit(const net::Endpoint& from, std::span<const uint8_t> data);

  /// The owning serve path for a decoded client query: counts it, runs
  /// the extension hook, answers from the cache or resolves, and sends.
  void handle_client_query(const net::Endpoint& from,
                           const dns::Message& request);

 private:
  struct Task {
    dns::Name qname;
    dns::RRType qtype;
    int depth = 0;  // combined guard for cname chasing + indirections
    std::vector<Callback> callbacks;
    std::vector<net::Endpoint> servers;
    std::size_t server_idx = 0;
    int retries_left = 0;
    int referrals = 0;
    net::TimerHandle timer;
  };

  struct TaskKey {
    dns::Name name;
    dns::RRType type;
    bool operator<(const TaskKey& other) const {
      if (name < other.name) return true;
      if (other.name < name) return false;
      return type < other.type;
    }
  };

  void on_datagram(const net::Endpoint& from, std::span<const uint8_t> data);
  void handle_upstream_response(const net::Endpoint& from,
                                const dns::Message& response);

  void resolve_internal(const dns::Name& qname, dns::RRType qtype, int depth,
                        Callback cb);
  bool answer_from_cache(const dns::Name& qname, dns::RRType qtype, int depth,
                         const Callback& cb);
  void start_task(const dns::Name& qname, dns::RRType qtype, int depth,
                  Callback cb);
  std::vector<net::Endpoint> best_cached_servers(const dns::Name& qname);
  void send_current(uint16_t qid);
  void on_timeout(uint16_t qid);
  void advance_server(uint16_t qid);
  void finish(uint16_t qid, Outcome outcome);
  void process_answer(uint16_t qid, const dns::Message& response,
                      const std::function<void()>& notify_extension);
  void process_referral(uint16_t qid, const dns::Message& response);

  struct Instruments {
    metrics::Counter client_queries;
    metrics::Counter fast_hits;
    metrics::Counter upstream_queries;
    metrics::Counter retransmissions;
    metrics::Counter timeouts;
    metrics::Counter servfails;
    metrics::Counter coalesced;
  };

  net::Transport* transport_;
  net::EventLoop* loop_;
  std::vector<net::Endpoint> roots_;
  Config config_;
  ResolverCache cache_;
  Extension* extension_ = nullptr;
  Instruments stats_;
  std::vector<uint8_t> answer_arena_;  ///< try_fast_hit's reused encode buffer

  std::map<uint16_t, Task> tasks_;
  std::map<TaskKey, uint16_t> task_by_key_;
  uint16_t next_qid_ = 1;
};

}  // namespace dnscup::server
