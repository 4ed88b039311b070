#include "core/lease_client.h"

#include "core/cache_update.h"
#include "util/logging.h"

namespace dnscup::core {

using server::CacheEntry;
using server::LeaseState;

LeaseClient::LeaseClient(server::CachingResolver& resolver, Config config)
    : resolver_(&resolver), config_(config) {
  resolver_->set_extension(this);
  auto& registry = metrics::resolve(config.metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("lease_client")}};
  auto labeled = [&](const char* key, const char* value) {
    metrics::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  stats_.rrc_reports = registry.counter("lease_client_rrc_reports", base);
  stats_.leases_registered = registry.counter(
      "lease_client_leases", labeled("event", "registered"));
  stats_.lease_renewals =
      registry.counter("lease_client_leases", labeled("event", "renewed"));
  stats_.updates_received = registry.counter(
      "lease_client_updates", labeled("result", "received"));
  stats_.updates_applied =
      registry.counter("lease_client_updates", labeled("result", "applied"));
  stats_.stale_updates_ignored = registry.counter(
      "lease_client_updates", labeled("result", "stale_ignored"));
  stats_.unauthorized_updates = registry.counter(
      "lease_client_updates", labeled("result", "unauthorized"));
  stats_.auth_failures = registry.counter("lease_client_updates",
                                          labeled("result", "auth_failed"));
  stats_.acks_sent = registry.counter("lease_client_acks_sent", base);
  stats_.renegotiations =
      registry.counter("lease_client_renegotiations", base);
  stats_.channel_updates = registry.counter("lease_client_updates",
                                            labeled("result", "channel"));
  stats_.resyncs = registry.counter("lease_client_resyncs", base);
  stats_.resync_refetches =
      registry.counter("lease_client_resync_refetches", base);
  stats_.readoptions_resumed = registry.counter(
      "lease_readoption_total", labeled("result", "resumed"));
  stats_.readoptions_serial_gap = registry.counter(
      "lease_readoption_total", labeled("result", "serial_gap"));
  stats_.readoptions_rejected = registry.counter(
      "lease_readoption_total", labeled("result", "rejected"));
}

LeaseClient::Stats LeaseClient::stats() const {
  return Stats{
      .rrc_reports = stats_.rrc_reports,
      .leases_registered = stats_.leases_registered,
      .lease_renewals = stats_.lease_renewals,
      .updates_received = stats_.updates_received,
      .updates_applied = stats_.updates_applied,
      .stale_updates_ignored = stats_.stale_updates_ignored,
      .unauthorized_updates = stats_.unauthorized_updates,
      .auth_failures = stats_.auth_failures,
      .acks_sent = stats_.acks_sent,
      .renegotiations = stats_.renegotiations,
      .channel_updates = stats_.channel_updates,
      .resyncs = stats_.resyncs,
      .resync_refetches = stats_.resync_refetches,
      .readoptions_resumed = stats_.readoptions_resumed,
      .readoptions_serial_gap = stats_.readoptions_serial_gap,
      .readoptions_rejected = stats_.readoptions_rejected,
  };
}

void LeaseClient::on_client_query(const server::CacheKeyView& key,
                                  CacheEntry* entry) {
  if (entry == nullptr) return;  // nothing cached to measure or re-negotiate
  const net::SimTime now = resolver_->loop().now();
  entry->client_rate.record(now);
  if (!entry->lease.has_value() || now >= entry->lease->expiry) {
    return;  // nothing leased; the normal miss path negotiates
  }
  LeaseState& lease = *entry->lease;
  if (now - lease.last_renegotiation < kRenegotiateMinInterval) return;
  const double baseline = lease.rate_at_grant;
  if (baseline <= 0.0) return;  // warm-loaded: no grant-time rate
  const double ratio = entry->client_rate.rate(now) / baseline;
  if (ratio < kRenegotiateRateFactor && ratio > 1.0 / kRenegotiateRateFactor) {
    return;  // rate still in the negotiated band
  }
  // Bookkeeping only, never persisted: no commit needed.
  lease.last_renegotiation = now;
  ++stats_.renegotiations;
  // A forced EXT refresh carries the new RRC; the authority re-decides
  // the lease term and the response re-registers it here.
  resolver_->refresh(key.name.materialize(), key.type,
                     [](const server::CachingResolver::Outcome&) {});
}

void LeaseClient::on_outgoing_query(dns::Message& query) {
  query.flags.ext = true;
  const net::SimTime now = resolver_->loop().now();
  for (auto& q : query.questions) {
    // Not only client questions go upstream: a CNAME target or a glueless
    // NS address has no entry yet and reports the unseeded rate.
    const dns::NameView view(q.qname);
    const CacheEntry* entry =
        resolver_->cache().peek(server::CacheKeyView(view, q.qtype));
    q.rrc = dns::rrc_from_rate(entry != nullptr
                                   ? entry->client_rate.rate(now)
                                   : server::ClientRate::kUnseededRate);
    ++stats_.rrc_reports;
  }
}

void LeaseClient::on_response(const net::Endpoint& from,
                              const dns::Message& response) {
  if (!response.flags.ext || response.llt == 0) return;
  if (response.flags.rcode != dns::Rcode::kNoError ||
      response.questions.size() != 1) {
    return;
  }
  const dns::Question& q = response.questions[0];
  const net::SimTime now = resolver_->loop().now();

  // The cache entry for the answer was just inserted by the resolver's
  // normal processing; attach the lease to it.
  CacheEntry* entry = resolver_->cache().peek(q.qname, q.qtype);
  if (entry == nullptr || entry->negative) return;

  const net::Duration length =
      net::seconds(static_cast<int64_t>(dns::llt_to_seconds(response.llt)));
  if (entry->lease.has_value() && entry->lease->authority == from) {
    ++stats_.lease_renewals;
  } else {
    ++stats_.leases_registered;
  }
  LeaseState lease{now + length, from, entry->client_rate.rate(now)};
  // The re-negotiation cooldown outlives a re-grant.
  if (entry->lease.has_value()) {
    lease.last_renegotiation = entry->lease->last_renegotiation;
  }
  // Through the storage seam (not a raw member write), so a persistent
  // backend re-serializes the entry with its new lease state.
  resolver_->cache().set_lease(q.qname, q.qtype, lease);
}

bool LeaseClient::on_unsolicited(const net::Endpoint& from,
                                 const dns::Message& message) {
  if (message.flags.opcode != dns::Opcode::kCacheUpdate || message.flags.qr) {
    return false;
  }
  return handle_update(from, message, [&](std::vector<uint8_t> ack) {
    resolver_->transport().send(from, ack);
  });
}

bool LeaseClient::on_channel_update(const net::Endpoint& from,
                                    const dns::Message& message,
                                    const AckSender& send_ack) {
  if (message.flags.opcode != dns::Opcode::kCacheUpdate || message.flags.qr) {
    return false;
  }
  ++stats_.channel_updates;
  return handle_update(from, message, send_ack);
}

void LeaseClient::on_channel_resync(
    const std::vector<std::pair<dns::Name, uint32_t>>& zones) {
  ++stats_.resyncs;
  const net::SimTime now = resolver_->loop().now();
  std::vector<std::pair<dns::Name, dns::RRType>> refetch;
  for (const auto& [zone, serial] : zones) {
    // A gap means pushes were missed while disconnected.  No recorded
    // serial at all is also a gap when we hold leases under the zone:
    // those leases came from plain EXT grants and we cannot prove the
    // data is current.
    if (!newer_serial(zone, serial)) continue;
    resolver_->cache().for_each(
        [&](const server::CacheKey& key, const CacheEntry& entry) {
          if (!entry.lease.has_value() || now >= entry.lease->expiry) return;
          if (!key.name.is_subdomain_of(zone)) return;
          refetch.emplace_back(key.name, key.type);
        });
    // Adopt the authority's serial: the refetches below re-read the
    // current data, so a reconnect without intervening changes stays
    // quiet next time.
    resolver_->cache().note_zone_serial(zone, serial);
  }
  for (const auto& [name, type] : refetch) {
    ++stats_.resync_refetches;
    resolver_->refresh(name, type,
                       [](const server::CachingResolver::Outcome&) {});
  }
}

void LeaseClient::on_readoption(
    const std::vector<std::pair<dns::Name, dns::RRType>>& announced,
    const std::vector<bool>& resumed,
    const std::vector<std::pair<dns::Name, uint32_t>>& zones) {
  // Which zones moved on while we were down?  Decided against the
  // persisted (pre-restart) serials, before on_channel_resync adopts the
  // new ones.
  std::vector<dns::Name> gap_zones;
  for (const auto& [zone, serial] : zones) {
    if (newer_serial(zone, serial)) gap_zones.push_back(zone);
  }
  for (std::size_t i = 0; i < announced.size(); ++i) {
    const auto& [name, type] = announced[i];
    if (i >= resumed.size() || !resumed[i]) {
      // The authority does not track this lease (anymore): never serve
      // it as push-maintained.
      reject_readoption(name, type);
      continue;
    }
    bool under_gap = false;
    for (const dns::Name& zone : gap_zones) {
      if (name.is_subdomain_of(zone)) {
        under_gap = true;
        break;
      }
    }
    // Resumed either way — the lease stands and pushes flow again; the
    // serial-gap resync below refetches the gap cases' data.
    if (under_gap) {
      ++stats_.readoptions_serial_gap;
    } else {
      ++stats_.readoptions_resumed;
    }
  }
  on_channel_resync(zones);
}

void LeaseClient::reject_readoption(const dns::Name& name, dns::RRType type) {
  resolver_->cache().set_lease(name, type, std::nullopt);
  ++stats_.readoptions_rejected;
}

bool LeaseClient::newer_serial(const dns::Name& zone, uint32_t serial) const {
  const auto applied = resolver_->cache().zone_serial(zone);
  return !applied.has_value() || dns::serial_gt(serial, *applied);
}

bool LeaseClient::handle_update(const net::Endpoint& from,
                                const dns::Message& message,
                                const AckSender& send_ack) {
  ++stats_.updates_received;
  if (!config_.trusted_authorities.empty()) {
    bool trusted = false;
    for (const net::Endpoint& authority : config_.trusted_authorities) {
      if (authority == from) {
        trusted = true;
        break;
      }
    }
    if (!trusted) {
      ++stats_.unauthorized_updates;
      return true;  // consumed silently; never ack an untrusted pusher
    }
  }
  dns::Message verified = message;
  if (config_.authenticator != nullptr &&
      !config_.authenticator->verify(verified)) {
    ++stats_.auth_failures;
    return true;  // consumed; no ack for an unverifiable push
  }
  auto parsed = parse_cache_update(verified);
  if (!parsed) {
    DNSCUP_LOG_WARN("lease client: malformed CACHE-UPDATE from %s: %s",
                    from.to_string().c_str(),
                    parsed.error().message.c_str());
    return true;  // consumed, but not acknowledged
  }
  const CacheUpdate& update = parsed.value();
  const net::SimTime now = resolver_->loop().now();

  // Authorization: every affected record we hold under lease must have
  // been granted by this sender.  Records we do not hold are ignored.
  auto authorized = [&](const dns::Name& name, dns::RRType type) {
    const CacheEntry* entry = resolver_->cache().peek(name, type);
    if (entry == nullptr) return true;  // nothing cached; harmless
    if (!entry->lease.has_value()) return true;
    return entry->lease->authority == from;
  };
  for (const auto& set : update.updated) {
    if (!authorized(set.name, set.type)) {
      ++stats_.unauthorized_updates;
      return true;  // consumed silently; no ack for an impostor
    }
  }
  for (const auto& [name, type] : update.removed) {
    if (!authorized(name, type)) {
      ++stats_.unauthorized_updates;
      return true;
    }
  }

  // Ordering guard: never roll back to an older zone serial.
  if (!newer_serial(update.zone, update.serial)) {
    ++stats_.stale_updates_ignored;
  } else {
    resolver_->cache().note_zone_serial(update.zone, update.serial);
    for (const auto& set : update.updated) {
      CacheEntry* existing = resolver_->cache().peek(set.name, set.type);
      const bool had_lease =
          existing != nullptr && existing->lease.has_value();
      const auto lease = had_lease ? existing->lease : std::nullopt;
      resolver_->cache().apply_update(set, now);
      if (had_lease) {
        // The push does not end the lease; write it through the seam.
        resolver_->cache().set_lease(set.name, set.type, lease);
      }
      ++stats_.updates_applied;
    }
    for (const auto& [name, type] : update.removed) {
      resolver_->cache().invalidate(name, type);
      ++stats_.updates_applied;
    }
  }

  // Acknowledge (idempotent: duplicates are re-acked so the notifier can
  // stop retransmitting even when our first ack was lost).
  const dns::Message ack = make_cache_update_ack(message);
  send_ack(ack.encode());
  ++stats_.acks_sent;
  return true;
}

std::size_t LeaseClient::live_leases(net::SimTime now) const {
  std::size_t count = 0;
  resolver_->cache().for_each(
      [&](const server::CacheKey&, const CacheEntry& entry) {
        if (entry.lease.has_value() && now < entry.lease->expiry) ++count;
      });
  return count;
}

}  // namespace dnscup::core
