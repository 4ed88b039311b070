// In-process reproduction of the paper's Figure-7 testbed: a root
// nameserver, a master authoritative nameserver with two slaves, and a set
// of DNS caches (local nameservers), all over the deterministic simulated
// network.  The paper built 40 zones from the 50 most popular IRCache
// domains; we synthesize the same shape.
//
// With `dnscup_enabled` the master runs the DNScup middleware and every
// cache runs a LeaseClient; disabled, the identical topology degrades to
// plain TTL consistency — the comparison baseline.
#pragma once

#include <memory>
#include <string>
#include <optional>
#include <vector>

#include "core/auth.h"
#include "core/dnscup_authority.h"
#include "core/lease_client.h"
#include "net/event_loop.h"
#include "net/sim_network.h"
#include "server/authoritative.h"
#include "server/resolver.h"

namespace dnscup::sim {

struct TestbedConfig {
  std::size_t zones = 40;
  std::size_t caches = 2;
  std::size_t slaves = 2;
  bool dnscup_enabled = true;
  /// Advertise the slaves in every delegation (NS + glue), so resolvers
  /// can fail over to them when the master is unreachable — the
  /// availability story of §1.  Slaves still need a bootstrap
  /// request_transfer() before they can serve.
  bool advertise_slaves = false;
  /// Records' TTL in the authoritative zones.
  uint32_t record_ttl = 300;
  /// Maximal lease length the authority grants.
  net::Duration max_lease = net::hours(24);
  /// CACHE-UPDATE retransmission budget (notification module).
  int notification_max_retries = 5;
  /// Non-empty: sign/verify CACHE-UPDATE with this shared key (§5.3).
  std::string auth_key;
  net::LinkParams link;  ///< default: 1 ms LAN links
  uint64_t seed = 42;
  /// Registry every component publishes into.  Null: the testbed owns a
  /// private registry, so identically-seeded testbeds produce identical
  /// (byte-for-byte) snapshots regardless of what else ran in-process.
  metrics::MetricsRegistry* metrics = nullptr;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);

  net::EventLoop& loop() { return loop_; }
  net::SimNetwork& network() { return network_; }

  /// The registry all testbed components publish into.
  metrics::MetricsRegistry& metrics() { return *metrics_; }

  /// Sim-time-stamped snapshot of every instrument in the testbed.
  metrics::Snapshot metrics_snapshot() const {
    return metrics_->snapshot(loop_.now());
  }

  server::AuthServer& root() { return *root_; }
  server::AuthServer& master() { return *master_; }
  server::AuthServer& slave(std::size_t i) { return *slaves_.at(i); }
  server::CachingResolver& cache(std::size_t i) { return *caches_.at(i); }

  /// Null when dnscup_enabled is false.
  core::DnscupAuthority* dnscup() { return dnscup_.get(); }
  core::LeaseClient* lease_client(std::size_t i) {
    return i < lease_clients_.size() ? lease_clients_[i].get() : nullptr;
  }

  std::size_t zone_count() const { return zone_origins_.size(); }
  const dns::Name& zone_origin(std::size_t i) const {
    return zone_origins_.at(i);
  }
  /// The www host of zone i — the record the experiments query and change.
  dns::Name web_host(std::size_t i) const;

  net::Endpoint master_endpoint() const { return master_endpoint_; }

  /// Drives the loop until the resolution completes (or `timeout` passes);
  /// nullopt on timeout.
  std::optional<server::CachingResolver::Outcome> resolve(
      std::size_t cache_index, const dns::Name& qname, dns::RRType qtype,
      net::Duration timeout = net::seconds(30));

  /// Repoints zone i's web host to `address` via an RFC 2136 UPDATE sent
  /// over the wire from an admin endpoint; runs the loop until the master
  /// responds.  Returns the update rcode (kServFail on timeout).
  dns::Rcode repoint_web_host(std::size_t zone_index, dns::Ipv4 address,
                              net::Duration timeout = net::seconds(30));

  /// Fire-and-forget variant for use inside scheduled events: sends the
  /// UPDATE and returns immediately without driving the loop.
  void repoint_web_host_async(std::size_t zone_index, dns::Ipv4 address);

  const TestbedConfig& config() const { return config_; }

 private:
  TestbedConfig config_;
  /// Owned fallback registry; must precede every metric-publishing member.
  std::unique_ptr<metrics::MetricsRegistry> owned_metrics_;
  metrics::MetricsRegistry* metrics_;
  net::EventLoop loop_;
  net::SimNetwork network_;
  std::vector<dns::Name> zone_origins_;
  net::Endpoint master_endpoint_;

  std::unique_ptr<server::AuthServer> root_;
  std::unique_ptr<server::AuthServer> master_;
  std::vector<std::unique_ptr<server::AuthServer>> slaves_;
  std::vector<std::unique_ptr<server::CachingResolver>> caches_;
  std::unique_ptr<core::SharedKeyAuthenticator> authenticator_;
  std::unique_ptr<core::DnscupAuthority> dnscup_;
  std::vector<std::unique_ptr<core::LeaseClient>> lease_clients_;

  net::Transport* admin_transport_ = nullptr;
  std::optional<dns::Rcode> admin_last_rcode_;
  uint16_t admin_next_id_ = 100;
};

}  // namespace dnscup::sim
