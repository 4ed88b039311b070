#include "core/track_file.h"

#include <charconv>
#include <sstream>

#include "core/persistence.h"
#include "util/assert.h"

namespace dnscup::core {

TrackFile::TrackFile(metrics::MetricsRegistry* metrics) {
  auto& registry = metrics::resolve(metrics);
  const metrics::Labels base{
      {"instance", registry.next_instance("track_file")}};
  auto labeled = [&](const char* op) {
    metrics::Labels labels = base;
    labels.emplace_back("op", op);
    return labels;
  };
  stats_.grants = registry.counter("track_file_lease_ops", labeled("grant"));
  stats_.renewals =
      registry.counter("track_file_lease_ops", labeled("renew"));
  stats_.revocations =
      registry.counter("track_file_lease_ops", labeled("revoke"));
  stats_.pruned = registry.counter("track_file_pruned", base);
}

TrackFile::Stats TrackFile::stats() const {
  return Stats{
      .grants = stats_.grants,
      .renewals = stats_.renewals,
      .revocations = stats_.revocations,
      .pruned = stats_.pruned,
  };
}

void TrackFile::grant(const net::Endpoint& holder, const dns::Name& name,
                      dns::RRType type, net::SimTime now,
                      net::Duration length) {
  DNSCUP_ASSERT(length > 0);
  auto& holders = leases_[Key{name, type}];
  auto [it, inserted] = holders.try_emplace(holder);
  if (inserted) ++size_;
  const bool renewal = !inserted && it->second.valid(now);
  if (renewal) {
    ++stats_.renewals;
  } else {
    ++stats_.grants;
  }
  it->second = Lease{holder, name, type, now, length};
  if (journal_ != nullptr) journal_->record_grant(it->second, renewal);
}

void TrackFile::restore(const Lease& lease) {
  auto& holders = leases_[Key{lease.name, lease.type}];
  if (holders.insert_or_assign(lease.holder, lease).second) ++size_;
}

const Lease* TrackFile::find(const net::Endpoint& holder,
                             const dns::Name& name, dns::RRType type) const {
  auto it = leases_.find(Key{name, type});
  if (it == leases_.end()) return nullptr;
  auto hit = it->second.find(holder);
  return hit == it->second.end() ? nullptr : &hit->second;
}

std::vector<Lease> TrackFile::holders_of(const dns::Name& name,
                                         dns::RRType type,
                                         net::SimTime now) const {
  std::vector<Lease> out;
  auto it = leases_.find(Key{name, type});
  if (it == leases_.end()) return out;
  for (const auto& [holder, lease] : it->second) {
    if (lease.valid(now)) out.push_back(lease);
  }
  return out;
}

std::vector<Lease> TrackFile::leases_of(const net::Endpoint& holder,
                                        net::SimTime now) const {
  std::vector<Lease> out;
  for (const auto& [key, holders] : leases_) {
    auto it = holders.find(holder);
    if (it != holders.end() && it->second.valid(now)) {
      out.push_back(it->second);
    }
  }
  return out;
}

bool TrackFile::revoke(const net::Endpoint& holder, const dns::Name& name,
                       dns::RRType type) {
  auto it = leases_.find(Key{name, type});
  if (it == leases_.end()) return false;
  if (it->second.erase(holder) == 0) return false;
  --size_;
  if (it->second.empty()) leases_.erase(it);
  ++stats_.revocations;
  if (journal_ != nullptr) journal_->record_revoke(holder, name, type);
  return true;
}

std::size_t TrackFile::prune(net::SimTime now) {
  std::size_t removed = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    auto& holders = it->second;
    for (auto hit = holders.begin(); hit != holders.end();) {
      if (!hit->second.valid(now)) {
        hit = holders.erase(hit);
        ++removed;
      } else {
        ++hit;
      }
    }
    it = holders.empty() ? leases_.erase(it) : std::next(it);
  }
  size_ -= removed;
  stats_.pruned += removed;
  // One compact WAL record covers the whole sweep: replay re-applies the
  // same expiry filter.  An empty sweep changes nothing, so skip it.
  if (removed > 0 && journal_ != nullptr) journal_->record_prune(now);
  return removed;
}

std::size_t TrackFile::live_count(net::SimTime now) const {
  std::size_t count = 0;
  for (const auto& [key, holders] : leases_) {
    for (const auto& [holder, lease] : holders) {
      if (lease.valid(now)) ++count;
    }
  }
  return count;
}

std::string TrackFile::serialize(net::SimTime now) const {
  std::ostringstream os;
  for (const auto& [key, holders] : leases_) {
    for (const auto& [holder, lease] : holders) {
      if (!lease.valid(now)) continue;
      os << holder.to_string() << ' ' << lease.name.to_string() << ' '
         << dns::to_string(lease.type) << ' ' << lease.granted_at << ' '
         << lease.length << '\n';
    }
  }
  return os.str();
}

namespace {

util::Result<net::Endpoint> parse_endpoint(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) {
    return util::make_error(util::ErrorCode::kMalformed,
                            "endpoint missing port");
  }
  DNSCUP_ASSIGN_OR_RETURN(dns::Ipv4 ip, dns::Ipv4::parse(text.substr(0, colon)));
  uint16_t port = 0;
  const auto ptext = text.substr(colon + 1);
  const auto [ptr, ec] =
      std::from_chars(ptext.data(), ptext.data() + ptext.size(), port);
  if (ec != std::errc() || ptr != ptext.data() + ptext.size()) {
    return util::make_error(util::ErrorCode::kMalformed, "bad port");
  }
  return net::Endpoint{ip.addr, port};
}

}  // namespace

util::Result<TrackFile> TrackFile::parse(std::string_view text) {
  TrackFile tf;
  std::size_t start = 0;
  std::size_t lineno = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++lineno;
    if (line.empty()) continue;

    std::istringstream is{std::string(line)};
    std::string addr, name_text, type_text;
    int64_t granted = 0;
    int64_t length = 0;
    if (!(is >> addr >> name_text >> type_text >> granted >> length)) {
      return util::make_error(util::ErrorCode::kMalformed,
                              "track file line " + std::to_string(lineno));
    }
    DNSCUP_ASSIGN_OR_RETURN(net::Endpoint holder, parse_endpoint(addr));
    DNSCUP_ASSIGN_OR_RETURN(dns::Name name, dns::Name::parse(name_text));
    DNSCUP_ASSIGN_OR_RETURN(dns::RRType type,
                            dns::rrtype_from_string(type_text));
    auto& holders = tf.leases_[Key{name, type}];
    const bool inserted =
        holders.try_emplace(holder, Lease{holder, name, type, granted, length})
            .second;
    if (!inserted) {
      return util::make_error(
          util::ErrorCode::kExists,
          "duplicate lease for " + holder.to_string() + " on track file line " +
              std::to_string(lineno));
    }
    ++tf.size_;
  }
  return tf;
}

}  // namespace dnscup::core
