#include "core/dnscup_authority.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "util/assert.h"
#include "util/logging.h"

namespace dnscup::core {

namespace {

/// Defaults the notifier's registry to the authority-wide one.
DnscupAuthority::Config normalize(DnscupAuthority::Config config) {
  if (config.notification.metrics == nullptr) {
    config.notification.metrics = config.metrics;
  }
  return config;
}

std::unique_ptr<GrantPolicy> make_policy(
    const DnscupAuthority::Config& config) {
  DNSCUP_ASSERT(config.max_lease != nullptr);
  if (config.planner == nullptr) {
    return std::make_unique<AlwaysGrantPolicy>(config.max_lease);
  }
  return std::make_unique<PlannerGrantPolicy>(config.max_lease,
                                              config.planner);
}

/// Minimum spacing of expiry sweeps (see schedule_sweep).
constexpr net::Duration kSweepGap = net::seconds(1);

}  // namespace

DnscupAuthority::DnscupAuthority(server::AuthServer& server,
                                 net::EventLoop& loop, Config config)
    : server_(&server),
      loop_(&loop),
      config_(normalize(std::move(config))),
      track_file_(config_.metrics),
      policy_(make_policy(config_)),
      listener_(&track_file_, policy_.get(), config_.storage_budget,
                config_.metrics),
      notifier_(&server.transport(), &loop, &track_file_,
                config_.notification) {
  auto& registry = metrics::resolve(config_.metrics);
  detection_stats_.change_events =
      registry.counter("detection_change_events");
  detection_stats_.rrsets_changed =
      registry.counter("detection_rrsets_changed");
  live_leases_ = registry.gauge("authority_live_leases");
  storage_budget_ = registry.gauge("authority_storage_budget");
  storage_budget_.set(static_cast<double>(config_.storage_budget));
  recovered_leases_ = registry.gauge("authority_recovered_leases");
  recovery_changes_pushed_ =
      registry.counter("authority_recovery_changes_pushed");
  readoptions_resumed_ = registry.counter(
      "authority_lease_readoptions", {{"result", "resumed"}});
  readoptions_rejected_ = registry.counter(
      "authority_lease_readoptions", {{"result", "rejected"}});

  track_file_.set_journal(config_.journal);

  // Listening module: sees every query/response pair.
  server_->set_query_hook([this](const net::Endpoint& from,
                                 const dns::Message& query,
                                 dns::Message& response) {
    const net::SimTime now = loop_->now();
    const net::Duration granted =
        listener_.on_query(from, query, response, now);
    if (granted > 0) schedule_sweep(now + granted);
  });
  // Zero-copy twin of the above for plain legacy queries: on_query never
  // mutates the response for non-EXT queries, so the fast path only needs
  // the legacy counter replicated.
  server_->set_fast_query_hook([this](const net::Endpoint&,
                                      const dns::NameView& qname,
                                      dns::RRType qtype) {
    listener_.on_query_view(qname, qtype, loop_->now());
  });

  // Detection module: every zone-data change (dynamic update, manual
  // reload, AXFR refresh) arrives here and fans out via the notifier.
  server_->add_change_listener(
      [this](const dns::Zone& zone,
             const std::vector<dns::RRsetChange>& changes) {
        ++detection_stats_.change_events;
        detection_stats_.rrsets_changed += changes.size();
        notifier_.on_zone_change(zone, changes);
        // Persist the serial the leaseholders have now been told about:
        // after a crash, a mismatch against the loaded zone is the signal
        // to re-push.
        if (config_.journal != nullptr) {
          config_.journal->record_zone_serial(zone.origin(), zone.serial());
        }
        refresh_gauges();
      });

  // Notification module: consumes CACHE-UPDATE acknowledgements before
  // the server's normal dispatch.
  // The notifier only eats CACHE-UPDATE acknowledgements, never plain
  // queries, so the fast path may bypass it (may_consume_queries=false).
  server_->set_extension_handler(
      [this](const net::Endpoint& from, const dns::Message& message) {
        return notifier_.on_message(from, message);
      },
      /*may_consume_queries=*/false);
}

DnscupAuthority::~DnscupAuthority() { expiry_timer_.cancel(); }

DnscupAuthority::DetectionStats DnscupAuthority::detection_stats() const {
  return DetectionStats{
      .change_events = detection_stats_.change_events,
      .rrsets_changed = detection_stats_.rrsets_changed,
  };
}

void DnscupAuthority::refresh_gauges() {
  live_leases_.set(static_cast<double>(track_file_.live_count(loop_->now())));
  storage_budget_.set(static_cast<double>(config_.storage_budget));
}

DnscupAuthority::RecoveryReport DnscupAuthority::recover(
    const RecoveredState& state) {
  const net::SimTime now = loop_->now();
  RecoveryReport report;

  // 1. Re-adopt leases that are still in term; leases that ran out while
  // the authority was down fall back to TTL semantics on their caches and
  // are simply dropped.
  for (const Lease& lease : state.leases) {
    if (lease.valid(now)) {
      track_file_.restore(lease);
      ++report.leases_restored;
    } else {
      ++report.leases_expired;
    }
  }
  recovered_leases_.set(static_cast<double>(report.leases_restored));

  // 2. Arm expiry so recovered leases leave the track file (and the
  // durable store) on schedule even with no query traffic.
  arm_expiry_timer();

  // 3. Resume CACHE-UPDATE fan-out.  The journal records the serial the
  // leaseholders were last notified about; a loaded zone with a different
  // serial changed while we were down (or mid-crash), so its current
  // RRsets are pushed to every surviving leaseholder.
  std::map<dns::Name, dns::Zone*> changed;
  for (const dns::Name& origin : server_->zone_origins()) {
    dns::Zone* zone = server_->find_zone(origin);
    DNSCUP_ASSERT(zone != nullptr);
    auto it = state.zone_serials.find(origin);
    if (it != state.zone_serials.end() && it->second != zone->serial()) {
      changed.emplace(origin, zone);
      ++report.zones_changed;
    }
    // Re-anchor the journal at the serial now being served, so the next
    // crash compares against reality.
    if (config_.journal != nullptr) {
      config_.journal->record_zone_serial(origin, zone->serial());
    }
  }

  if (!changed.empty()) {
    std::map<dns::Zone*, std::set<std::pair<dns::Name, dns::RRType>>> leased;
    track_file_.for_each([&](const Lease& lease) {
      if (!lease.valid(now)) return;
      dns::Zone* zone = server_->find_zone(lease.name);
      if (zone != nullptr && changed.count(zone->origin()) > 0) {
        leased[zone].emplace(lease.name, lease.type);
      }
    });
    for (const auto& [zone, pairs] : leased) {
      std::vector<dns::RRsetChange> changes;
      changes.reserve(pairs.size());
      for (const auto& [name, type] : pairs) {
        const dns::RRset* after = zone->find(name, type);
        changes.push_back(dns::RRsetChange{
            name, type, std::nullopt,
            after != nullptr ? std::optional<dns::RRset>(*after)
                             : std::nullopt});
      }
      notifier_.on_zone_change(*zone, changes);
      report.changes_pushed += changes.size();
      recovery_changes_pushed_ += changes.size();
    }
  }

  refresh_gauges();
  DNSCUP_LOG_INFO(
      "recovery: %llu leases restored, %llu expired, %llu zones changed "
      "while down, %llu changes re-pushed",
      static_cast<unsigned long long>(report.leases_restored),
      static_cast<unsigned long long>(report.leases_expired),
      static_cast<unsigned long long>(report.zones_changed),
      static_cast<unsigned long long>(report.changes_pushed));
  return report;
}

std::vector<bool> DnscupAuthority::readopt(
    const net::Endpoint& holder, const std::vector<ReadoptRequest>& requests) {
  const net::SimTime now = loop_->now();
  std::vector<bool> verdicts;
  verdicts.reserve(requests.size());
  bool any = false;
  for (const ReadoptRequest& req : requests) {
    // Re-adopt only records we are (still) authoritative for, for at
    // most the configured max lease: the announced remaining term is the
    // cache's claim, not a commitment we ever made in this incarnation.
    if (server_->find_zone(req.name) == nullptr) {
      verdicts.push_back(false);
      ++readoptions_rejected_;
      continue;
    }
    const net::Duration length =
        std::min(req.remaining, config_.max_lease(req.name, req.type));
    if (length <= 0) {
      verdicts.push_back(false);
      ++readoptions_rejected_;
      continue;
    }
    track_file_.grant(holder, req.name, req.type, now, length);
    verdicts.push_back(true);
    ++readoptions_resumed_;
    any = true;
  }
  if (any) {
    arm_expiry_timer();
    refresh_gauges();
  }
  return verdicts;
}

void DnscupAuthority::schedule_sweep(net::SimTime expiry) {
  const net::SimTime at = std::max(expiry, last_sweep_ + kSweepGap);
  if (expiry_timer_.active() && sweep_at_ <= at) return;
  expiry_timer_.cancel();
  sweep_at_ = at;
  expiry_timer_ = loop_->schedule_at(at, [this] { sweep(); });
}

void DnscupAuthority::arm_expiry_timer() {
  net::SimTime earliest = std::numeric_limits<net::SimTime>::max();
  track_file_.for_each([&](const Lease& lease) {
    earliest = std::min(earliest, lease.expiry());
  });
  if (earliest != std::numeric_limits<net::SimTime>::max()) {
    schedule_sweep(earliest);
  }
}

void DnscupAuthority::sweep() {
  expiry_timer_ = {};  // fired: active() now means "a sweep is pending"
  last_sweep_ = loop_->now();
  track_file_.prune(last_sweep_);
  refresh_gauges();
  arm_expiry_timer();
}

}  // namespace dnscup::core
