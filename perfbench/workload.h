// The benchmark's generated inputs, shared by the load generator
// (loadgen.cc) and the layer replay (layers.cc) so both see the same zone,
// query stream and update stream for a given seed.
//
// The zone holds `names` A records w<i>.example.com.  Every address is a
// pure function of (seed, name, version): version 0 is what the zone file
// ships, version v is what the v-th RFC 2136 UPDATE of that name installs.
// That function is the generator's versioned model of the zone — an answer
// is correct only if it carries an address some issued version produced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/zone.h"
#include "server/update.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

using namespace dnscup;

inline constexpr const char* kOrigin = "example.com";
/// Record TTL, longer than any run.
inline constexpr uint32_t kTtl = 86400;
/// UPDATE targets: the kHot most popular names.
inline constexpr std::size_t kHot = 100;

struct Spec {
  uint64_t seed = 1;
  std::size_t names = 10000;
  double zipf_s = 1.0;
  double ext_fraction = 0.0;  ///< share of reads carrying EXT + RRC
  /// UPDATEs already applied by earlier runs against the same authority;
  /// the next one is global update number `update_base`.
  uint64_t update_base = 0;
};

inline uint32_t address(uint64_t seed, std::size_t name, uint32_t version) {
  const uint64_t h = util::splitmix64_mix(
      util::splitmix64_mix(seed) ^ (static_cast<uint64_t>(name) << 20) ^
      version);
  return 0x0A000000u | static_cast<uint32_t>(h & 0xFFFFFF);
}

inline dns::Name owner(std::size_t name) {
  return dns::Name::parse("w" + std::to_string(name) + "." + kOrigin).value();
}

inline dns::Zone make_zone(const Spec& spec) {
  dns::SOARdata soa;
  soa.mname = dns::Name::parse("ns1.example.com").value();
  soa.rname = dns::Name::parse("admin.example.com").value();
  soa.serial = 1;
  soa.refresh = 7200;
  soa.retry = 900;
  soa.expire = 604800;
  soa.minimum = 300;
  dns::Zone zone = dns::Zone::make(dns::Name::parse(kOrigin).value(), soa,
                                   kTtl, {soa.mname}, kTtl);
  zone.add_record(soa.mname, dns::RRType::kA, kTtl,
                  dns::ARdata{dns::Ipv4{0x0A000001}});
  for (std::size_t i = 0; i < spec.names; ++i) {
    zone.add_record(owner(i), dns::RRType::kA, kTtl,
                    dns::ARdata{dns::Ipv4{address(spec.seed, i, 0)}});
  }
  return zone;
}

/// Query wire image for name `i`; EXT queries report a nominal 10 q/s RRC
/// so the authority's grant policy sees a record worth leasing.
inline std::vector<uint8_t> query_wire(std::size_t i, bool ext, uint16_t id) {
  dns::Message query;
  query.id = id;
  query.flags.opcode = dns::Opcode::kQuery;
  query.flags.rd = true;
  query.flags.ext = ext;
  query.questions.push_back(
      dns::Question{owner(i), dns::RRType::kA, dns::RRClass::kIN,
                    ext ? dns::rrc_from_rate(10.0) : uint16_t{0}});
  return query.encode();
}

inline dns::Message update_message(const Spec& spec, std::size_t name,
                                   uint32_t version, uint16_t id) {
  return server::UpdateBuilder(dns::Name::parse(kOrigin).value())
      .replace_a(owner(name), kTtl,
                 dns::Ipv4{address(spec.seed, name, version)})
      .build(id);
}

/// One read of the stream: which name, and whether it carries EXT.
struct Read {
  uint32_t name = 0;
  bool ext = false;
};

/// Deterministic read stream: Zipf(s) ranks (rank 0 = w0, the most
/// popular) and a Bernoulli(ext_fraction) EXT flag per read.
class ReadStream {
 public:
  explicit ReadStream(const Spec& spec)
      : spec_(spec), rng_(spec.seed * 0x9E3779B97F4A7C15ull + 1),
        zipf_(spec.names, spec.zipf_s) {}

  Read next() {
    Read r;
    r.name = static_cast<uint32_t>(zipf_.sample(rng_));
    r.ext = spec_.ext_fraction > 0 && rng_.chance(spec_.ext_fraction);
    return r;
  }

 private:
  Spec spec_;
  util::Rng rng_;
  util::ZipfDistribution zipf_;
};

/// The k-th UPDATE targets hot name k mod hot, so each hot name changes
/// once per `hot` updates; `version` counts that name's updates so far.
struct Update {
  uint32_t name = 0;
  uint32_t version = 0;
};

inline std::size_t hot_names(const Spec& spec) {
  return kHot < spec.names ? kHot : spec.names;
}

inline Update update_at(const Spec& spec, uint64_t k) {
  const std::size_t hot = hot_names(spec);
  return Update{static_cast<uint32_t>(k % hot),
                static_cast<uint32_t>(k / hot + 1)};
}

/// The version `name` holds once the first `spec.update_base` UPDATEs
/// are applied.
inline uint32_t current_version(const Spec& spec, std::size_t name) {
  const std::size_t hot = hot_names(spec);
  if (name >= hot) return 0;
  return static_cast<uint32_t>(spec.update_base / hot +
                               (name < spec.update_base % hot ? 1 : 0));
}

}  // namespace perfbench
