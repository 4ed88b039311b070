// The DNScup track file (paper §4, §5.2): the authoritative nameserver's
// record of which DNS caches hold live leases on which resource records.
//
// Each tuple carries the five fields of the prototype's database file:
// source address, queried name, query type, query (grant) time and lease
// length.  Expired leases are pruned lazily; the text serialization matches
// the prototype's on-disk track file and round-trips through parse().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/endpoint.h"
#include "net/time.h"
#include "util/metrics.h"
#include "util/result.h"

namespace dnscup::core {

class StateJournal;  // persistence.h — durable-store hook

struct Lease {
  net::Endpoint holder;       ///< the DNS cache (local nameserver)
  dns::Name name;
  dns::RRType type = dns::RRType::kA;
  net::SimTime granted_at = 0;
  net::Duration length = 0;

  net::SimTime expiry() const { return granted_at + length; }
  bool valid(net::SimTime now) const { return now < expiry(); }
};

class TrackFile {
 public:
  struct Stats {
    uint64_t grants = 0;
    uint64_t renewals = 0;
    uint64_t revocations = 0;
    uint64_t pruned = 0;
  };

  /// Lease-op counters register in `metrics` (default_registry() when
  /// null) under track_file_* with a per-instance label.
  explicit TrackFile(metrics::MetricsRegistry* metrics = nullptr);

  /// Attaches a durable-state journal (persistence.h); every grant,
  /// revoke and non-empty prune is recorded through it.  Not owned; null
  /// detaches.  restore() bypasses the journal — recovered leases already
  /// live in the store.
  void set_journal(StateJournal* journal) { journal_ = journal; }

  /// Grants or renews a lease; renewal restarts the term at `now`.
  void grant(const net::Endpoint& holder, const dns::Name& name,
             dns::RRType type, net::SimTime now, net::Duration length);

  /// Re-inserts a lease recovered from the durable store: no stats
  /// counting, no journaling — the tuple is already persistent.
  void restore(const Lease& lease);

  /// The lease a holder has on (name, type), expired or not.
  const Lease* find(const net::Endpoint& holder, const dns::Name& name,
                    dns::RRType type) const;

  /// All holders with *valid* leases on (name, type) — the notification
  /// fan-out set for a change to that record.
  std::vector<Lease> holders_of(const dns::Name& name, dns::RRType type,
                                net::SimTime now) const;

  /// All valid leases held by one cache.
  std::vector<Lease> leases_of(const net::Endpoint& holder,
                               net::SimTime now) const;

  bool revoke(const net::Endpoint& holder, const dns::Name& name,
              dns::RRType type);

  /// Drops expired leases; returns how many were removed.
  std::size_t prune(net::SimTime now);

  /// Number of valid leases at `now` — the authority's storage usage,
  /// the quantity the storage-constrained algorithm budgets.
  std::size_t live_count(net::SimTime now) const;

  /// Total tuples including expired-but-unpruned.  O(1): the count is
  /// maintained on every insert and erase.
  std::size_t size() const { return size_; }

  /// Value snapshot of the registry-backed counters.
  Stats stats() const;

  /// One "address name type grant_time_us length_us" line per valid lease.
  std::string serialize(net::SimTime now) const;
  /// Parses serialize() output.  Malformed lines and duplicate
  /// (holder, name, type) tuples are hard errors, not silent skips: a
  /// track file is authoritative state, and a duplicate means two grant
  /// times for one lease with no way to know which is real.
  static util::Result<TrackFile> parse(std::string_view text);

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, holders] : leases_) {
      for (const auto& [holder, lease] : holders) fn(lease);
    }
  }

 private:
  struct Key {
    dns::Name name;
    dns::RRType type;
    bool operator<(const Key& other) const {
      if (name < other.name) return true;
      if (other.name < name) return false;
      return type < other.type;
    }
  };

  struct Instruments {
    metrics::Counter grants;
    metrics::Counter renewals;
    metrics::Counter revocations;
    metrics::Counter pruned;
  };

  std::map<Key, std::map<net::Endpoint, Lease>> leases_;
  std::size_t size_ = 0;
  Instruments stats_;
  StateJournal* journal_ = nullptr;
};

}  // namespace dnscup::core
