// DNScup listening module (paper §5.2, Figure 6).
//
// Monitors incoming DNS queries at the authoritative nameserver, reads the
// RRC rate report from EXT queries, asks the grant policy whether to lease,
// records granted leases in the track file, and stamps the LLT field into
// the response.  Legacy queries (no EXT flag) pass through untouched and
// keep plain TTL semantics.
#pragma once

#include <cstdint>

#include "core/policy.h"
#include "core/track_file.h"
#include "dns/message.h"
#include "net/time.h"
#include "util/metrics.h"

namespace dnscup::core {

class ListeningModule {
 public:
  struct Stats {
    uint64_t ext_queries = 0;
    uint64_t legacy_queries = 0;
    uint64_t leases_granted = 0;
    uint64_t leases_denied = 0;
  };

  /// Neither the track file nor the policy is owned.  `lease_bound` caps
  /// the track file: once it holds that many tuples, a grant to a pair
  /// without a valid lease is refused (renewals still pass).  Counters
  /// register in `metrics` (default_registry() when null) under
  /// listener_*.
  ListeningModule(TrackFile* track_file, GrantPolicy* policy,
                  std::size_t lease_bound,
                  metrics::MetricsRegistry* metrics = nullptr);

  /// AuthServer query-hook entry point: inspects the query, possibly
  /// grants a lease and sets response.llt.  Only positive authoritative
  /// answers are leased — there is nothing to push for a referral, and
  /// negative answers change when names appear, which the detection module
  /// reports as RRset additions only for previously-leased names.
  /// Returns the granted lease length, 0 when no lease was granted.
  net::Duration on_query(const net::Endpoint& from, const dns::Message& query,
                         dns::Message& response, net::SimTime now);

  /// AuthServer fast-query-hook entry point: the allocation-free twin of
  /// on_query for plain legacy queries (no EXT flag, so no lease grant and
  /// no response mutation) — counts the query.  Must stay behaviorally
  /// identical to on_query's legacy branch.
  void on_query_view(const dns::NameView& qname, dns::RRType qtype,
                     net::SimTime now);

  /// Value snapshot of the registry-backed counters.
  Stats stats() const;

 private:
  struct Instruments {
    metrics::Counter ext_queries;
    metrics::Counter legacy_queries;
    metrics::Counter leases_granted;
    metrics::Counter leases_denied;
  };

  TrackFile* track_file_;
  GrantPolicy* policy_;
  std::size_t lease_bound_;
  Instruments stats_;
};

}  // namespace dnscup::core
