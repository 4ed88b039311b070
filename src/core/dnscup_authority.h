// DNScup authority-side middleware (paper Figure 6).
//
// Wraps an unmodified AuthServer with the three DNScup components:
//
//   detection module    — subscribes to zone-change events (dynamic
//                         updates, AXFR refreshes and manual reloads all
//                         flow through AuthServer's change hooks);
//   listening module    — observes queries, grants leases, stamps LLT;
//   notification module — pushes CACHE-UPDATE messages to leaseholders
//                         and tracks acknowledgements.
//
// The wrapper owns the track file and the grant policy; the AuthServer's
// "named modules" stay untouched, which is the paper's minimal-modification
// deployment claim.
#pragma once

#include <limits>
#include <memory>

#include "core/listener.h"
#include "core/notifier.h"
#include "core/persistence.h"
#include "core/policy.h"
#include "core/track_file.h"
#include "server/authoritative.h"

namespace dnscup::core {

class DnscupAuthority {
 public:
  struct Config {
    MaxLeaseFn max_lease;                       ///< required
    /// Hard bound on the track file: once the authority tracks this many
    /// leases, a grant to a pair without a valid lease is refused
    /// (renewals always pass), so outside input cannot grow lease state
    /// without limit.  Applied after the grant policy decides.
    std::size_t storage_budget = 100000;
    NotificationModule::Config notification;    ///< retransmit behaviour
    /// Online lease planner (not owned, may be null).  Null: every EXT
    /// query gets the record's maximal lease (AlwaysGrantPolicy, the
    /// paper's fixed-lease baseline).  Set: every EXT decision feeds the
    /// planner an observation and grants whatever lease length it
    /// assigned the (cache, record) pair — denying pairs it has not
    /// planned yet (PlannerGrantPolicy).
    LeaseAssignmentSource* planner = nullptr;
    /// Registry for authority/track-file/listener/notifier instruments
    /// (default_registry() when null).
    metrics::MetricsRegistry* metrics = nullptr;
    /// Durable-state journal (store::LeaseStore or any StateJournal).
    /// When set, every lease mutation and zone-serial change is recorded
    /// through it; recover() restores the journal's state after a crash.
    /// Not owned, may be null (volatile authority, the previous default).
    StateJournal* journal = nullptr;
  };

  /// Attaches DNScup to `server`.  The server must outlive this object.
  DnscupAuthority(server::AuthServer& server, net::EventLoop& loop,
                  Config config);
  /// Cancels the pending expiry sweep, whose callback holds `this`.
  ~DnscupAuthority();
  DnscupAuthority(const DnscupAuthority&) = delete;
  DnscupAuthority& operator=(const DnscupAuthority&) = delete;

  TrackFile& track_file() { return track_file_; }
  const TrackFile& track_file() const { return track_file_; }
  ListeningModule& listener() { return listener_; }
  NotificationModule& notifier() { return notifier_; }
  GrantPolicy& policy() { return *policy_; }

  struct DetectionStats {
    uint64_t change_events = 0;
    uint64_t rrsets_changed = 0;
  };
  /// Value snapshot of the registry-backed counters.
  DetectionStats detection_stats() const;

  /// Recomputes the authority_live_leases / authority_storage_budget
  /// occupancy gauges (live_count is O(leases), so this is not done on
  /// the query hot path — change events and periodic dumps call it).
  void refresh_gauges();

  /// What recover() did, for logging and tests.
  struct RecoveryReport {
    uint64_t leases_restored = 0;   ///< still valid at recovery time
    uint64_t leases_expired = 0;    ///< expired during the outage, dropped
    uint64_t zones_changed = 0;     ///< zones whose serial moved while down
    uint64_t changes_pushed = 0;    ///< RRset changes fanned out on resume
  };

  /// Crash recovery: re-adopts the surviving lease set from the durable
  /// store, arms the expiry (prune) sweep, and resumes CACHE-UPDATE
  /// fan-out — any zone whose serial no longer matches the last serial
  /// the leaseholders were notified about is pushed to every surviving
  /// holder.  Call once, after zones are loaded and before serving.
  RecoveryReport recover(const RecoveredState& state);

  /// One surviving lease a warm-restarted cache announces in its v2
  /// SUBSCRIBE (push framing's LeaseSurvivor, re-declared here because
  /// core does not depend on the push plane).
  struct ReadoptRequest {
    dns::Name name;
    dns::RRType type = dns::RRType::kA;
    net::Duration remaining = 0;  ///< lease time the cache believes is left
  };

  /// Cache-restart lease re-adoption: re-registers each survivor we are
  /// authoritative for, with the announced remaining term clamped by the
  /// configured max lease.  Returns one verdict per request (true =
  /// re-adopted; CACHE-UPDATE pushes for the record resume).  Grants go
  /// through the track file, so they journal and count like fresh
  /// grants, and the expiry timer covers them.  Counted under
  /// authority_lease_readoptions{result=resumed|rejected}.
  std::vector<bool> readopt(const net::Endpoint& holder,
                            const std::vector<ReadoptRequest>& requests);

 private:
  /// Expired tuples leave the track file — and the durable store — in a
  /// sweep at the earliest lease expiry, without waiting for traffic, so
  /// the storage bound counts only leases that may still be in force.
  /// Sweeps are coalesced to at most one per second: each is an
  /// O(leases) walk.
  ///
  /// Arms the sweep for a lease expiring at `expiry` unless one is
  /// already pending no later than that.  O(1): called on every grant.
  void schedule_sweep(net::SimTime expiry);
  /// Arms the sweep at the track file's earliest expiry (an O(leases)
  /// walk; recovery, re-adoption and each sweep call it).
  void arm_expiry_timer();
  void sweep();
  struct Instruments {
    metrics::Counter change_events;
    metrics::Counter rrsets_changed;
  };

  server::AuthServer* server_;
  net::EventLoop* loop_;
  Config config_;
  TrackFile track_file_;
  std::unique_ptr<GrantPolicy> policy_;
  ListeningModule listener_;
  NotificationModule notifier_;
  Instruments detection_stats_;
  metrics::Gauge live_leases_;
  metrics::Gauge storage_budget_;
  metrics::Gauge recovered_leases_;
  metrics::Counter recovery_changes_pushed_;
  metrics::Counter readoptions_resumed_;
  metrics::Counter readoptions_rejected_;
  net::TimerHandle expiry_timer_;  ///< active() while a sweep is pending
  net::SimTime sweep_at_ = 0;      ///< when the pending sweep fires
  net::SimTime last_sweep_ = std::numeric_limits<net::SimTime>::min();
};

}  // namespace dnscup::core
