// DNScup cache-side module: turns a plain CachingResolver into a
// lease-holding DNS cache.
//
// As a CachingResolver::Extension it
//  * measures the local client query rate per record and reports it in the
//    RRC field of outgoing EXT queries (paper Figure 3 step 1);
//  * registers leases granted via the LLT field of responses (step 2) —
//    the cached entry then stays authoritative past its TTL while the
//    lease is valid;
//  * consumes unsolicited CACHE-UPDATE pushes (step 3): applies the new
//    RRsets / invalidations to the cache and acknowledges (step 4).
//
// Updates are accepted only from the endpoint that granted the lease, and
// zone serials are checked so reordered or duplicated pushes cannot roll
// the cache back to older data.  The client keeps no copy of cache state:
// the highest serial applied per zone is the cache's zone-serial sidecar,
// and a lease's re-negotiation bookkeeping lives in the entry's
// LeaseState.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/auth.h"
#include "core/rate_tracker.h"
#include "dns/zone.h"
#include "server/resolver.h"
#include "util/metrics.h"

namespace dnscup::core {

class LeaseClient final : public server::CachingResolver::Extension {
 public:
  struct Stats {
    uint64_t rrc_reports = 0;
    uint64_t leases_registered = 0;
    uint64_t lease_renewals = 0;
    uint64_t updates_received = 0;
    uint64_t updates_applied = 0;
    uint64_t stale_updates_ignored = 0;   ///< older serial than seen
    uint64_t unauthorized_updates = 0;    ///< push from a non-grantor
    uint64_t auth_failures = 0;           ///< MAC missing or invalid
    uint64_t acks_sent = 0;
    uint64_t renegotiations = 0;          ///< rate-drift refresh queries
    uint64_t channel_updates = 0;         ///< pushes arriving over TCP
    uint64_t resyncs = 0;                 ///< SUBSCRIBE_ACK inventories seen
    uint64_t resync_refetches = 0;        ///< leased records refetched
    uint64_t readoptions_resumed = 0;     ///< warm leases resumed as-is
    uint64_t readoptions_serial_gap = 0;  ///< resumed but zone moved on
    uint64_t readoptions_rejected = 0;    ///< demoted to plain TTL entries
  };

  struct Config {
    /// Re-negotiate the lease when the local query rate drifts from the
    /// rate reported at grant time by this factor (in either direction).
    /// The refreshed EXT query carries the new RRC, letting the authority
    /// re-decide the lease term (§5.1.2).  0 disables re-negotiation.
    double renegotiate_rate_factor = 4.0;
    /// Cooldown between re-negotiations of the same record.
    net::Duration renegotiate_min_interval = net::minutes(5);
    /// When set, pushed CACHE-UPDATEs must verify before being applied
    /// (paper §5.3); unverifiable pushes are dropped without an ack.
    /// Not owned, may be null (plain text).
    MessageAuthenticator* authenticator = nullptr;
    /// Upstream trust set: when non-empty, unsolicited CACHE-UPDATE
    /// pushes are accepted only from these endpoints (the configured
    /// upstream authorities).  Without it, a push for a record we hold no
    /// lease on would be applied from *any* sender — fine in a closed
    /// simulation, a poisoning vector on a real socket.  The per-record
    /// grantor check still applies on top.
    std::vector<net::Endpoint> trusted_authorities;
    /// Registry for lease_client_* instruments (default_registry() when
    /// null).
    metrics::MetricsRegistry* metrics = nullptr;
  };

  /// The resolver must outlive the client; attaches itself as extension.
  explicit LeaseClient(server::CachingResolver& resolver)
      : LeaseClient(resolver, Config()) {}
  LeaseClient(server::CachingResolver& resolver, Config config);

  // Extension interface -----------------------------------------------
  void on_client_query(const dns::Name& qname, dns::RRType qtype) override;
  /// The allocation-free form for fast-path hits: the rate tracker is
  /// probed by the borrowed key (its hash reused), and `hit` stands in
  /// for a second cache probe.
  void on_client_query(const server::CacheKeyView& key,
                       server::CacheEntry& hit) override;
  void on_outgoing_query(dns::Message& query) override;
  void on_response(const net::Endpoint& from,
                   const dns::Message& response) override;
  bool on_unsolicited(const net::Endpoint& from,
                      const dns::Message& message) override;

  /// Delivers one encoded CACHE-UPDATE ack (used by both the UDP path —
  /// transport().send — and the push channel's in-band PUSH_ACK).
  using AckSender = std::function<void(std::vector<uint8_t> ack)>;

  /// A CACHE-UPDATE that arrived over the push channel instead of UDP.
  /// `from` is the lease-granting authority the channel is bound to; the
  /// same trust / grantor / serial checks as the UDP path apply, and the
  /// ack goes back through `send_ack` so it rides the channel rather
  /// than an ambiguous UDP flow.  Returns true when consumed.
  bool on_channel_update(const net::Endpoint& from,
                         const dns::Message& message,
                         const AckSender& send_ack);

  /// Serial-gap resync after a (re)connect: the authority's zone-serial
  /// inventory from the SUBSCRIBE_ACK.  Any zone whose serial is ahead
  /// of the last one we applied (or that we hold leases under without
  /// ever applying a push) had updates we missed while disconnected —
  /// every leased record under it is refetched.
  void on_channel_resync(
      const std::vector<std::pair<dns::Name, uint32_t>>& zones);

  /// Outcome of a warm-restart lease re-adoption handshake (the v2
  /// SUBSCRIBE/SUBSCRIBE_ACK exchange).  `announced` are the survivors
  /// sent in the SUBSCRIBE; `resumed` parallels it (true = the authority
  /// re-registered that lease).  Rejected survivors are demoted — their
  /// lease state is cleared so they fall back to plain TTL entries and
  /// the next query re-negotiates; resumed ones keep their lease.  Then
  /// the normal serial-gap resync runs over `zones`, so a resumed lease
  /// under a zone that moved on while we were down is refetched (counted
  /// as serial_gap), while matching serials resume with no refetch at
  /// all.  Plain types, not push framing structs: core cannot depend on
  /// the push plane (the dependency points the other way).
  void on_readoption(
      const std::vector<std::pair<dns::Name, dns::RRType>>& announced,
      const std::vector<bool>& resumed,
      const std::vector<std::pair<dns::Name, uint32_t>>& zones);

  /// Demotes a warm-loaded lease the authority did not re-adopt — or
  /// that was never announced to it — to a plain TTL entry, through the
  /// cache's storage seam; counted as a rejected re-adoption.  The next
  /// client query re-negotiates normally.
  void reject_readoption(const dns::Name& name, dns::RRType type);

  /// Live leases currently registered in the cache.
  std::size_t live_leases(net::SimTime now) const;

  /// Value snapshot of the registry-backed counters.
  Stats stats() const;
  const RateTracker& client_rates() const { return rates_; }

 private:
  struct Instruments {
    metrics::Counter rrc_reports;
    metrics::Counter leases_registered;
    metrics::Counter lease_renewals;
    metrics::Counter updates_received;
    metrics::Counter updates_applied;
    metrics::Counter stale_updates_ignored;
    metrics::Counter unauthorized_updates;
    metrics::Counter auth_failures;
    metrics::Counter acks_sent;
    metrics::Counter renegotiations;
    metrics::Counter channel_updates;
    metrics::Counter resyncs;
    metrics::Counter resync_refetches;
    metrics::Counter readoptions_resumed;
    metrics::Counter readoptions_serial_gap;
    metrics::Counter readoptions_rejected;
  };

  /// One client question: records its rate and re-negotiates a lease
  /// whose rate drifted.  `entry` is the cached record (null when none).
  void observe_query(const server::CacheKeyView& key,
                     server::CacheEntry* entry);
  /// True when `serial` is newer than the highest serial applied for
  /// `zone` (read from the cache's zone-serial sidecar), or none was.
  bool newer_serial(const dns::Name& zone, uint32_t serial) const;
  /// Shared CACHE-UPDATE pipeline: trust gate, verify, parse, grantor
  /// check, serial guard, apply, ack via `send_ack`.
  bool handle_update(const net::Endpoint& from, const dns::Message& message,
                     const AckSender& send_ack);

  server::CachingResolver* resolver_;
  Config config_;
  RateTracker rates_;
  Instruments stats_;
};

}  // namespace dnscup::core
