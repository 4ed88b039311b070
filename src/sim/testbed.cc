#include "sim/testbed.h"

#include <string>

#include "server/update.h"
#include "util/assert.h"

namespace dnscup::sim {

using dns::Name;
using dns::RRType;

namespace {

constexpr uint16_t kDnsPort = 53;

net::Endpoint root_endpoint() {
  return {net::make_ip(10, 0, 0, 1), kDnsPort};
}
net::Endpoint master_ep() { return {net::make_ip(10, 0, 1, 1), kDnsPort}; }
net::Endpoint slave_ep(std::size_t i) {
  return {net::make_ip(10, 0, 1, static_cast<uint8_t>(2 + i)), kDnsPort};
}
net::Endpoint cache_ep(std::size_t i) {
  return {net::make_ip(10, 0, 2, static_cast<uint8_t>(1 + i)), kDnsPort};
}
net::Endpoint admin_ep() { return {net::make_ip(10, 0, 9, 9), 5353}; }

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      owned_metrics_(config.metrics != nullptr
                         ? nullptr
                         : std::make_unique<metrics::MetricsRegistry>()),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : owned_metrics_.get()),
      loop_(metrics_),
      network_(loop_, config.seed, metrics_) {
  network_.set_default_link(config_.link);
  master_endpoint_ = master_ep();

  // ---- zones -----------------------------------------------------------
  dns::Zone root_zone(Name::root());
  dns::SOARdata root_soa;
  root_soa.mname = Name::parse("a.root-servers.net.").value();
  root_soa.rname = Name::parse("admin.root-servers.net.").value();
  root_soa.serial = 1;
  root_soa.minimum = 60;
  root_zone.add_record(Name::root(), RRType::kSOA, 86400, root_soa);
  root_zone.add_record(Name::root(), RRType::kNS, 86400,
                       dns::NSRdata{root_soa.mname});

  master_ = std::make_unique<server::AuthServer>(
      network_.bind(master_ep()), loop_, server::AuthServer::Role::kMaster,
      metrics_);

  for (std::size_t i = 0; i < config_.zones; ++i) {
    const Name origin =
        Name::parse("zone" + std::to_string(i) + ".com.").value();
    zone_origins_.push_back(origin);

    const Name ns1 = origin.prepend("ns1");
    dns::SOARdata soa;
    soa.mname = ns1;
    soa.rname = origin.prepend("admin");
    soa.serial = 1;
    soa.refresh = 3600;
    soa.retry = 600;
    soa.expire = 86400 * 7;
    soa.minimum = 60;

    dns::Zone zone(origin);
    zone.add_record(origin, RRType::kSOA, config_.record_ttl, soa);
    zone.add_record(origin, RRType::kNS, config_.record_ttl,
                    dns::NSRdata{ns1});
    zone.add_record(ns1, RRType::kA, config_.record_ttl,
                    dns::ARdata{dns::Ipv4{master_ep().ip}});
    zone.add_record(
        origin.prepend("www"), RRType::kA, config_.record_ttl,
        dns::ARdata{dns::Ipv4{net::make_ip(
            192, 0, static_cast<uint8_t>(2 + i / 250),
            static_cast<uint8_t>(1 + i % 250))}});

    // Delegation + glue in the root zone.
    root_zone.add_record(origin, RRType::kNS, 86400, dns::NSRdata{ns1});
    root_zone.add_record(ns1, RRType::kA, 86400,
                         dns::ARdata{dns::Ipv4{master_ep().ip}});

    if (config_.advertise_slaves) {
      for (std::size_t s = 0; s < config_.slaves; ++s) {
        const Name ns_name =
            origin.prepend("ns" + std::to_string(2 + s));
        const dns::Ipv4 addr{slave_ep(s).ip};
        zone.add_record(origin, RRType::kNS, config_.record_ttl,
                        dns::NSRdata{ns_name});
        zone.add_record(ns_name, RRType::kA, config_.record_ttl,
                        dns::ARdata{addr});
        root_zone.add_record(origin, RRType::kNS, 86400,
                             dns::NSRdata{ns_name});
        root_zone.add_record(ns_name, RRType::kA, 86400,
                             dns::ARdata{addr});
      }
    }
    master_->add_zone(std::move(zone));
  }

  root_ = std::make_unique<server::AuthServer>(
      network_.bind(root_endpoint()), loop_,
      server::AuthServer::Role::kMaster, metrics_);
  root_->add_zone(std::move(root_zone));

  // ---- slaves (NOTIFY + AXFR replication of every zone) ----------------
  for (std::size_t i = 0; i < config_.slaves; ++i) {
    auto slave = std::make_unique<server::AuthServer>(
        network_.bind(slave_ep(i)), loop_, server::AuthServer::Role::kSlave,
        metrics_);
    slave->set_master(master_ep());
    master_->add_slave(slave_ep(i));
    slaves_.push_back(std::move(slave));
  }

  // ---- DNScup middleware ------------------------------------------------
  if (config_.dnscup_enabled) {
    core::DnscupAuthority::Config dnscup_config;
    const net::Duration max_lease = config_.max_lease;
    dnscup_config.max_lease = [max_lease](const Name&, RRType) {
      return max_lease;
    };
    dnscup_config.metrics = metrics_;
    dnscup_config.notification.max_retries = config_.notification_max_retries;
    if (!config_.auth_key.empty()) {
      authenticator_ =
          std::make_unique<core::SharedKeyAuthenticator>(config_.auth_key);
      dnscup_config.notification.authenticator = authenticator_.get();
    }
    dnscup_ = std::make_unique<core::DnscupAuthority>(*master_, loop_,
                                                      dnscup_config);
  }

  // ---- caches -----------------------------------------------------------
  server::CachingResolver::Config resolver_config;
  resolver_config.metrics = metrics_;
  for (std::size_t i = 0; i < config_.caches; ++i) {
    auto cache = std::make_unique<server::CachingResolver>(
        network_.bind(cache_ep(i)), loop_,
        std::vector<net::Endpoint>{root_endpoint()}, resolver_config);
    if (config_.dnscup_enabled) {
      core::LeaseClient::Config client_config;
      client_config.authenticator = authenticator_.get();
      client_config.metrics = metrics_;
      lease_clients_.push_back(
          std::make_unique<core::LeaseClient>(*cache, client_config));
    }
    caches_.push_back(std::move(cache));
  }

  // ---- admin endpoint for wire dynamic updates ---------------------------
  // The operator's control channel is reliable regardless of injected DNS
  // path loss: experiments inject loss into the DNS traffic, not into the
  // zone-administration path (a lost UPDATE would silently desynchronize
  // the experiment driver's notion of truth from the master's).
  net::LinkParams admin_link = config_.link;
  admin_link.loss_probability = 0.0;
  admin_link.duplicate_probability = 0.0;
  network_.set_link(admin_ep(), master_ep(), admin_link);
  network_.set_link(master_ep(), admin_ep(), admin_link);
  auto& admin = network_.bind(admin_ep());
  admin.set_receive_handler([this](const net::Endpoint&,
                                   std::span<const uint8_t> data) {
    auto decoded = dns::Message::decode(data);
    if (decoded && decoded.value().flags.qr &&
        decoded.value().flags.opcode == dns::Opcode::kUpdate) {
      admin_last_rcode_ = decoded.value().flags.rcode;
    }
  });
  admin_transport_ = &admin;
}

Name Testbed::web_host(std::size_t i) const {
  return zone_origins_.at(i).prepend("www");
}

std::optional<server::CachingResolver::Outcome> Testbed::resolve(
    std::size_t cache_index, const Name& qname, RRType qtype,
    net::Duration timeout) {
  std::optional<server::CachingResolver::Outcome> result;
  cache(cache_index)
      .resolve(qname, qtype,
               [&result](const server::CachingResolver::Outcome& outcome) {
                 result = outcome;
               });
  const net::SimTime deadline = loop_.now() + timeout;
  while (!result.has_value() && loop_.now() < deadline && !loop_.empty()) {
    loop_.run_until(loop_.now() + net::milliseconds(10));
  }
  return result;
}

void Testbed::repoint_web_host_async(std::size_t zone_index,
                                     dns::Ipv4 address) {
  const Name& origin = zone_origins_.at(zone_index);
  const dns::Message update =
      server::UpdateBuilder(origin)
          .replace_a(web_host(zone_index), config_.record_ttl, address)
          .build(admin_next_id_++);
  admin_transport_->send(master_ep(), update.encode());
}

dns::Rcode Testbed::repoint_web_host(std::size_t zone_index,
                                     dns::Ipv4 address,
                                     net::Duration timeout) {
  admin_last_rcode_.reset();
  repoint_web_host_async(zone_index, address);

  const net::SimTime deadline = loop_.now() + timeout;
  while (!admin_last_rcode_.has_value() && loop_.now() < deadline &&
         !loop_.empty()) {
    loop_.run_until(loop_.now() + net::milliseconds(10));
  }
  return admin_last_rcode_.value_or(dns::Rcode::kServFail);
}

}  // namespace dnscup::sim
