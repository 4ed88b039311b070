// ResourceRecord and RRset containers plus their wire encoding
// (RFC 1035 §3.2, §4.1.3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "dns/wire.h"
#include "util/result.h"

namespace dnscup::dns {

struct ResourceRecord {
  Name name;
  RRClass rrclass = RRClass::kIN;
  uint32_t ttl = 0;
  Rdata rdata;

  RRType type() const { return rdata_type(rdata); }

  /// "name ttl class type rdata" presentation line.
  std::string to_string() const;

  bool operator==(const ResourceRecord&) const = default;
};

/// All records sharing (name, type, class); members share one TTL, per
/// RFC 2181 §5.2.
struct RRset {
  Name name;
  RRType type = RRType::kA;
  RRClass rrclass = RRClass::kIN;
  uint32_t ttl = 0;
  std::vector<Rdata> rdatas;

  bool empty() const { return rdatas.empty(); }
  std::size_t size() const { return rdatas.size(); }

  /// True if `value` is already present (exact match).
  bool contains(const Rdata& value) const;

  /// Adds if absent; returns true when the set changed.
  bool add(Rdata value);

  /// Removes an exact match; returns true when the set changed.
  bool remove(const Rdata& value);

  /// Expands to individual records.
  std::vector<ResourceRecord> to_records() const;

  /// Unordered payload comparison (TTL ignored) — used by the DNScup change
  /// detector to distinguish real data changes from TTL refreshes.
  bool same_data(const RRset& other) const;

  bool operator==(const RRset&) const = default;
};

/// Encodes one record: NAME TYPE CLASS TTL RDLENGTH RDATA.
void encode_record(const ResourceRecord& rr, ByteWriter& writer);

/// Encodes every member of an RRset directly from the set — no
/// ResourceRecord materialization, so no Name copies.  Bytes are identical
/// to calling encode_record on each of set.to_records().
void encode_rrset(const RRset& set, ByteWriter& writer);

/// The same with `ttl` written in place of set.ttl — a cache answering
/// from its copy writes the remaining TTL without copying the set.
void encode_rrset(const RRset& set, uint32_t ttl, ByteWriter& writer);

/// Decodes one record at the reader's cursor.
util::Result<ResourceRecord> decode_record(ByteReader& reader);

}  // namespace dnscup::dns
