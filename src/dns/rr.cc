#include "dns/rr.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"

namespace dnscup::dns {

std::string ResourceRecord::to_string() const {
  std::ostringstream os;
  os << name.to_string() << ' ' << ttl << ' ' << dns::to_string(rrclass)
     << ' ' << dns::to_string(type()) << ' ' << rdata_to_string(rdata);
  return os.str();
}

bool RRset::contains(const Rdata& value) const {
  return std::find(rdatas.begin(), rdatas.end(), value) != rdatas.end();
}

bool RRset::add(Rdata value) {
  DNSCUP_ASSERT(rdata_type(value) == type);
  if (contains(value)) return false;
  rdatas.push_back(std::move(value));
  return true;
}

bool RRset::remove(const Rdata& value) {
  auto it = std::find(rdatas.begin(), rdatas.end(), value);
  if (it == rdatas.end()) return false;
  rdatas.erase(it);
  return true;
}

std::vector<ResourceRecord> RRset::to_records() const {
  std::vector<ResourceRecord> out;
  out.reserve(rdatas.size());
  for (const auto& rd : rdatas) {
    out.push_back(ResourceRecord{name, rrclass, ttl, rd});
  }
  return out;
}

bool RRset::same_data(const RRset& other) const {
  if (rdatas.size() != other.rdatas.size()) return false;
  // Order-insensitive: every rdata of ours appears in theirs (both sets are
  // duplicate-free by construction).
  for (const auto& rd : rdatas) {
    if (!other.contains(rd)) return false;
  }
  return true;
}

namespace {

void encode_record_parts(const Name& name, RRType type, RRClass rrclass,
                         uint32_t ttl, const Rdata& rdata,
                         ByteWriter& writer) {
  writer.name(name);
  writer.u16(static_cast<uint16_t>(type));
  writer.u16(static_cast<uint16_t>(rrclass));
  writer.u32(ttl);
  const std::size_t rdlength_at = writer.size();
  writer.u16(0);  // placeholder
  const std::size_t rdata_start = writer.size();
  encode_rdata(rdata, writer);
  const std::size_t rdata_len = writer.size() - rdata_start;
  DNSCUP_ASSERT(rdata_len <= 0xFFFF);
  writer.patch_u16(rdlength_at, static_cast<uint16_t>(rdata_len));
}

}  // namespace

void encode_record(const ResourceRecord& rr, ByteWriter& writer) {
  encode_record_parts(rr.name, rr.type(), rr.rrclass, rr.ttl, rr.rdata,
                      writer);
}

void encode_rrset(const RRset& set, ByteWriter& writer) {
  encode_rrset(set, set.ttl, writer);
}

void encode_rrset(const RRset& set, uint32_t ttl, ByteWriter& writer) {
  for (const auto& rd : set.rdatas) {
    encode_record_parts(set.name, set.type, set.rrclass, ttl, rd, writer);
  }
}

util::Result<ResourceRecord> decode_record(ByteReader& reader) {
  ResourceRecord rr;
  DNSCUP_ASSIGN_OR_RETURN(rr.name, reader.name());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t type_raw, reader.u16());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t class_raw, reader.u16());
  DNSCUP_ASSIGN_OR_RETURN(rr.ttl, reader.u32());
  DNSCUP_ASSIGN_OR_RETURN(uint16_t rdlength, reader.u16());
  rr.rrclass = static_cast<RRClass>(class_raw);
  DNSCUP_ASSIGN_OR_RETURN(
      rr.rdata, decode_rdata(static_cast<RRType>(type_raw), rdlength, reader));
  return rr;
}

}  // namespace dnscup::dns
