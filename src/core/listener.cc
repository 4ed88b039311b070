#include "core/listener.h"

namespace dnscup::core {

ListeningModule::ListeningModule(TrackFile* track_file, GrantPolicy* policy,
                                 std::size_t lease_bound,
                                 metrics::MetricsRegistry* metrics)
    : track_file_(track_file), policy_(policy), lease_bound_(lease_bound) {
  auto& registry = metrics::resolve(metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("listener")}};
  auto labeled = [&](const char* key, const char* value) {
    metrics::Labels labels = base;
    labels.emplace_back(key, value);
    return labels;
  };
  stats_.ext_queries =
      registry.counter("listener_queries", labeled("kind", "ext"));
  stats_.legacy_queries =
      registry.counter("listener_queries", labeled("kind", "legacy"));
  stats_.leases_granted = registry.counter("listener_lease_decisions",
                                           labeled("result", "granted"));
  stats_.leases_denied = registry.counter("listener_lease_decisions",
                                          labeled("result", "denied"));
}

ListeningModule::Stats ListeningModule::stats() const {
  return Stats{
      .ext_queries = stats_.ext_queries,
      .legacy_queries = stats_.legacy_queries,
      .leases_granted = stats_.leases_granted,
      .leases_denied = stats_.leases_denied,
  };
}

net::Duration ListeningModule::on_query(const net::Endpoint& from,
                                        const dns::Message& query,
                                        dns::Message& response,
                                        net::SimTime now) {
  if (query.questions.size() != 1) return 0;
  const dns::Question& q = query.questions[0];

  if (!query.flags.ext) {
    ++stats_.legacy_queries;
    return 0;  // TTL-only cache; nothing to negotiate
  }
  ++stats_.ext_queries;

  // Lease only positive authoritative answers to the question itself.
  if (response.flags.rcode != dns::Rcode::kNoError || !response.flags.aa ||
      response.answers.empty()) {
    return 0;
  }

  const double reported = dns::rrc_to_rate(q.rrc);
  GrantDecision decision =
      policy_->decide(q.qname, q.qtype, from, reported, now);
  if (decision.grant && track_file_->size() >= lease_bound_) {
    // At the storage bound only a renewal may land: outside input cannot
    // grow the track file past it.
    const Lease* lease = track_file_->find(from, q.qname, q.qtype);
    decision.grant = lease != nullptr && lease->valid(now);
  }
  if (!decision.grant) {
    ++stats_.leases_denied;
    return 0;
  }
  track_file_->grant(from, q.qname, q.qtype, now, decision.length);
  ++stats_.leases_granted;
  response.flags.ext = true;
  response.llt = dns::llt_from_seconds(
      static_cast<uint64_t>(net::to_seconds(decision.length)));
  return decision.length;
}

void ListeningModule::on_query_view(const dns::NameView&, dns::RRType,
                                    net::SimTime) {
  ++stats_.legacy_queries;
}

}  // namespace dnscup::core
