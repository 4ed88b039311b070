#include "cachestore/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <ctime>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/rr.h"
#include "dns/wire.h"
#include "util/crc32.h"

namespace dnscup::cachestore {
namespace {

constexpr char kMagic[8] = {'D', 'N', 'S', 'C', 'U', 'P', 'C', '1'};
/// Version 1 placed slots by key hash; version 2 allocates them from the
/// front of the table and carries no key hash.
constexpr uint32_t kFormatVersion = 2;
constexpr std::size_t kHeaderBytes = 4096;
constexpr std::size_t kSlotBytes = 512;
constexpr std::size_t kMinFileBytes = 1ull << 20;
constexpr std::size_t kMinSlots = 64;

// Fixed in-slot byte layout.  The LRU tick lives OUTSIDE the CRC-covered
// range so touch() — the per-cache-hit path — is a single uncheck-summed
// u64 store; a torn tick only perturbs warm-reload LRU order, never data.
constexpr std::size_t kNameOffset = 64;        // after SlotHeader
constexpr std::size_t kMaxNameText = 255;
constexpr std::size_t kTickOffset = 496;       // u64, not CRC-covered
constexpr std::size_t kSlotCrcOffset = 508;    // u32 over [0, 496)

enum SlotState : uint32_t {
  kFree = 0,  ///< never used since the image was reset; ends every scan
  kUsed = 1,
  kDead = 2,
  kZone = 3,
};

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t slot_bytes;
  uint64_t slot_count;
  uint64_t slab_bytes;
  uint64_t slab_used;
  int64_t wall_epoch_us;  ///< CLOCK_REALTIME µs at the writer's SimTime 0
  uint64_t file_bytes;
  uint32_t reserved;
  uint32_t crc;           ///< over the preceding bytes
};
static_assert(sizeof(FileHeader) == 64);
static_assert(std::is_trivially_copyable_v<FileHeader>);
constexpr std::size_t kHeaderCrcOffset = offsetof(FileHeader, crc);

struct SlotHeader {
  uint32_t state;
  uint32_t slab_crc;
  int64_t inserted_at;
  int64_t expiry;
  int64_t lease_expiry;
  uint64_t slab_off;     ///< offset within the slab arena
  uint32_t slab_len;
  uint32_t ttl;          ///< zone slots: the zone serial
  uint32_t lease_ip;
  uint16_t lease_port;
  uint16_t name_len;
  uint16_t rrtype;
  uint16_t rrclass;
  uint8_t negative;
  uint8_t negative_rcode;
  uint8_t has_lease;
  uint8_t pad;
};
static_assert(sizeof(SlotHeader) == kNameOffset);
static_assert(std::is_trivially_copyable_v<SlotHeader>);

int64_t realtime_us() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return int64_t{ts.tv_sec} * 1'000'000 + ts.tv_nsec / 1'000;
}

util::Error io_error(const char* what) {
  return util::make_error(util::ErrorCode::kIo,
                          std::string(what) + ": " + std::strerror(errno));
}

/// A name's slot text — its lower-cased presentation form, "." for the
/// root — written into `buf` without allocating.  Empty when the text
/// would not fit a slot.
using NameText = std::array<char, kMaxNameText + 1>;

std::string_view name_text(const dns::Name& name, NameText& buf) {
  if (name.is_root()) return ".";
  std::size_t len = 0;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    const std::string_view label = name.label(i);
    if (len + label.size() + 1 > kMaxNameText) return {};
    for (const char c : label) {
      buf[len++] = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a')
                                          : c;
    }
    buf[len++] = '.';
  }
  return {buf.data(), len};
}

uint32_t slot_crc(const uint8_t* slot) {
  return util::crc32({slot, kTickOffset});
}

/// Stores the slot's CRC over its current bytes.
void seal(uint8_t* slot) {
  const uint32_t crc = slot_crc(slot);
  std::memcpy(slot + kSlotCrcOffset, &crc, sizeof crc);
}

}  // namespace

MmapCacheStore::MmapCacheStore(Options options)
    : options_(std::move(options)) {
  metrics::MetricsRegistry& reg = metrics::resolve(options_.metrics);
  const std::string instance = reg.next_instance("cache_store");
  metrics::Labels base{{"instance", instance}};
  file_bytes_gauge_ = reg.gauge("cache_store_file_bytes", base);
  slots_used_gauge_ = reg.gauge("cache_store_slots_used", base);
  warm_entries_gauge_ = reg.gauge("cache_store_warm_entries", base);
  cold_starts_ = reg.counter("cache_store_cold_starts", base);
  metrics::Labels slab = base;
  slab.emplace_back("reason", "slab_full");
  persist_failed_slab_ = reg.counter("cache_store_persist_failures", slab);
  metrics::Labels table = base;
  table.emplace_back("reason", "table_full");
  persist_failed_table_ = reg.counter("cache_store_persist_failures", table);
  compactions_ = reg.counter("cache_store_compactions", base);
}

MmapCacheStore::~MmapCacheStore() {
  if (map_ != nullptr) {
    ::msync(map_, file_bytes_, MS_SYNC);
    ::munmap(map_, file_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

util::Result<std::unique_ptr<MmapCacheStore>> MmapCacheStore::open(
    Options options) {
  const int64_t wall_now =
      options.wall_now_us != 0 ? options.wall_now_us : realtime_us();
  std::unique_ptr<MmapCacheStore> store(
      new MmapCacheStore(std::move(options)));

  store->fd_ = ::open(store->options_.path.c_str(),
                      O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (store->fd_ < 0) {
    return util::make_error(util::ErrorCode::kIo,
                            "open " + store->options_.path + ": " +
                                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(store->fd_, &st) != 0) return io_error("fstat");
  const std::size_t target =
      std::max(store->options_.file_bytes, kMinFileBytes);
  const auto existing = static_cast<std::size_t>(st.st_size);
  if (existing != target && ::ftruncate(store->fd_, target) != 0) {
    return io_error("ftruncate");
  }
  void* map = ::mmap(nullptr, target, PROT_READ | PROT_WRITE, MAP_SHARED,
                     store->fd_, 0);
  if (map == MAP_FAILED) return io_error("mmap");
  store->map_ = static_cast<uint8_t*>(map);
  store->file_bytes_ = target;

  // Geometry derives from file size alone: half (rounded to a power of
  // two of 512 B slots) for the slot table, the rest for the slab.
  std::size_t slots = kMinSlots;
  while (slots * 2 * kSlotBytes <= (target - kHeaderBytes) / 2) slots *= 2;
  store->slot_count_ = slots;
  store->slab_off_ = kHeaderBytes + slots * kSlotBytes;
  store->slab_bytes_ = target - store->slab_off_;
  store->file_bytes_gauge_.set(static_cast<double>(target));

  util::Status status;
  if (existing == 0) {
    status = store->cold_init("fresh file", wall_now);
  } else if (existing != target) {
    status = store->cold_init("size mismatch", wall_now);
  } else {
    FileHeader hdr{};
    std::memcpy(&hdr, store->map_, sizeof hdr);
    const uint32_t want_crc =
        util::crc32({store->map_, kHeaderCrcOffset});
    if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0) {
      status = store->cold_init("bad magic", wall_now);
    } else if (hdr.version != kFormatVersion) {
      status = store->cold_init("bad version", wall_now);
    } else if (hdr.crc != want_crc) {
      status = store->cold_init("bad header crc", wall_now);
    } else if (hdr.slot_bytes != kSlotBytes ||
               hdr.slot_count != store->slot_count_ ||
               hdr.slab_bytes != store->slab_bytes_ ||
               hdr.file_bytes != target ||
               hdr.slab_used > hdr.slab_bytes) {
      status = store->cold_init("bad geometry", wall_now);
    } else {
      store->slab_used_ = hdr.slab_used;
      store->wall_epoch_us_ = hdr.wall_epoch_us;
      status = store->load_image(wall_now);
    }
  }
  if (!status.ok()) return status.error();
  return store;
}

uint8_t* MmapCacheStore::slot_ptr(uint32_t index) const {
  return map_ + kHeaderBytes + std::size_t{index} * kSlotBytes;
}

void MmapCacheStore::write_header() {
  FileHeader hdr{};
  std::memcpy(hdr.magic, kMagic, sizeof kMagic);
  hdr.version = kFormatVersion;
  hdr.slot_bytes = kSlotBytes;
  hdr.slot_count = slot_count_;
  hdr.slab_bytes = slab_bytes_;
  hdr.slab_used = slab_used_;
  hdr.wall_epoch_us = wall_epoch_us_;
  hdr.file_bytes = file_bytes_;
  std::memcpy(map_, &hdr, sizeof hdr);
  const uint32_t crc = util::crc32({map_, kHeaderCrcOffset});
  std::memcpy(map_ + kHeaderCrcOffset, &crc, sizeof crc);
}

util::Status MmapCacheStore::reset_image(int64_t wall_now) {
  // Truncating to zero and back drops every page of the old image
  // without writing one: the whole table reads as never-used slots
  // again, and a page costs memory only once a slot or slab byte lands
  // in it.  The mapping stays valid across both calls.
  if (::ftruncate(fd_, 0) != 0 ||
      ::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
    return io_error("ftruncate");
  }
  slab_used_ = 0;
  slots_used_ = 0;
  lru_tick_ = 0;
  next_slot_ = 0;
  free_slots_.clear();
  // Anchor: wall_now corresponds to the adopting runtime's options_.now,
  // so SimTime 0 maps to wall_now - now.
  wall_epoch_us_ = wall_now - options_.now;
  write_header();
  slots_used_gauge_.set(0);
  return util::Status::ok_status();
}

util::Status MmapCacheStore::cold_init(const std::string& reason,
                                       int64_t wall_now) {
  load_.cold = true;
  load_.cold_reason = reason;
  ++cold_starts_;
  return reset_image(wall_now);
}

util::Status MmapCacheStore::load_image(int64_t wall_now) {
  // Every persisted SimTime is in the *writer's* clock.  Its wall time is
  // old_epoch + t; in the adopting runtime's clock that instant is
  // t - delta with delta = new_epoch - old_epoch — which includes exactly
  // the downtime, so TTLs keep decaying while the process is dead.
  const int64_t new_epoch = wall_now - options_.now;
  const int64_t delta = std::max<int64_t>(0, new_epoch - wall_epoch_us_);

  struct Loaded {
    server::CacheKey key;
    server::CacheEntry entry;
    uint64_t tick = 0;
  };
  std::vector<Loaded> loaded;

  // Used slots form a prefix of the table: the first never-used slot
  // ends the scan, so a load reads no page past the last record.
  for (uint32_t i = 0; i < slot_count_; ++i) {
    const uint8_t* slot = slot_ptr(i);
    SlotHeader sh{};
    std::memcpy(&sh, slot, sizeof sh);
    if (sh.state == kFree) break;
    if (sh.state != kUsed && sh.state != kZone) continue;
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, slot + kSlotCrcOffset, sizeof stored_crc);
    if (stored_crc != slot_crc(slot) || sh.name_len == 0 ||
        sh.name_len > kMaxNameText) {
      ++load_.torn_dropped;
      continue;
    }
    const std::string text(reinterpret_cast<const char*>(slot + kNameOffset),
                           sh.name_len);
    auto name = dns::Name::parse(text);
    if (!name.ok()) {
      ++load_.torn_dropped;
      continue;
    }

    if (sh.state == kZone) {
      zone_serials_[std::move(name).value()].serial = sh.ttl;
      ++load_.zones_loaded;
      continue;
    }

    server::CacheEntry entry;
    entry.negative = sh.negative != 0;
    entry.negative_rcode = static_cast<dns::Rcode>(sh.negative_rcode);
    entry.inserted_at = sh.inserted_at - delta;
    entry.expiry = sh.expiry - delta;
    entry.rrset.name = name.value();
    entry.rrset.type = static_cast<dns::RRType>(sh.rrtype);
    entry.rrset.rrclass = static_cast<dns::RRClass>(sh.rrclass);
    entry.rrset.ttl = sh.ttl;
    if (sh.slab_len > 0) {
      if (sh.slab_off > slab_bytes_ || sh.slab_len > slab_bytes_ ||
          sh.slab_off + sh.slab_len > slab_used_) {
        ++load_.torn_dropped;
        continue;
      }
      std::span<const uint8_t> payload{map_ + slab_off_ + sh.slab_off,
                                       sh.slab_len};
      if (util::crc32(payload) != sh.slab_crc) {
        ++load_.torn_dropped;
        continue;
      }
      dns::ByteReader reader(payload);
      bool bad = false;
      while (!reader.at_end()) {
        auto rr = dns::decode_record(reader);
        if (!rr.ok()) {
          bad = true;
          break;
        }
        entry.rrset.rdatas.push_back(std::move(rr.value().rdata));
      }
      if (bad || entry.rrset.rdatas.empty()) {
        ++load_.torn_dropped;
        continue;
      }
    }
    if (sh.has_lease != 0) {
      const net::SimTime lease_expiry = sh.lease_expiry - delta;
      if (!options_.keep_leases) {
        ++load_.leases_demoted;
      } else if (lease_expiry > options_.now) {
        entry.lease = server::LeaseState{
            lease_expiry, net::Endpoint{sh.lease_ip, sh.lease_port}};
      }
    }
    if (!entry.fresh(options_.now)) {
      ++load_.expired_dropped;
      continue;
    }
    uint64_t tick = 0;
    std::memcpy(&tick, slot + kTickOffset, sizeof tick);
    loaded.push_back(Loaded{
        server::CacheKey{entry.rrset.name, entry.rrset.type},
        std::move(entry), tick});
  }

  // Adopt into the heap map in LRU-tick order: each insert lands at the
  // LRU front, so ascending ticks leave the most recently used entry at
  // the front, reproducing the pre-restart eviction order.
  std::stable_sort(loaded.begin(), loaded.end(),
                   [](const Loaded& a, const Loaded& b) {
                     return a.tick < b.tick;
                   });
  for (Loaded& item : loaded) {
    bool inserted = false;
    upsert(item.key, inserted) = std::move(item.entry);
  }

  load_.cold = false;
  load_.warm_entries = entries_.size();
  load_.downtime_us = delta;
  warm_entries_gauge_.set(static_cast<double>(entries_.size()));

  // Rewrite the image against the new epoch: all later commits stamp
  // new-clock times, so the old-epoch slots must not survive alongside
  // them.  The rewrite also compacts the slab and clears tombstones;
  // writing least recent first gives the slots ascending ticks again.
  if (auto status = reset_image(wall_now); !status.ok()) return status;
  for (Node* node = least_recent_; node != nullptr; node = node->newer) {
    persist(*node);
  }
  for (auto& [zone, record] : zone_serials_) persist_zone(zone, record);
  return util::Status::ok_status();
}

uint32_t MmapCacheStore::alloc_slot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (next_slot_ < slot_count_) return next_slot_++;
  return kNoSlot;
}

void MmapCacheStore::release_slot(uint32_t* slot) {
  if (*slot == kNoSlot) return;
  // Re-sealed as dead, so no bit flip of the state alone can revive the
  // old record with a matching CRC.
  const uint32_t dead = kDead;
  std::memcpy(slot_ptr(*slot), &dead, sizeof dead);
  seal(slot_ptr(*slot));
  free_slots_.push_back(*slot);
  *slot = kNoSlot;
  --slots_used_;
  slots_used_gauge_.set(static_cast<double>(slots_used_));
}

bool MmapCacheStore::write_slot(uint32_t* slot, std::span<uint8_t> image) {
  uint64_t tick = 0;
  if (*slot == kNoSlot) {
    *slot = alloc_slot();
    if (*slot == kNoSlot) return false;
    tick = ++lru_tick_;
    ++slots_used_;
    slots_used_gauge_.set(static_cast<double>(slots_used_));
  } else {
    std::memcpy(&tick, slot_ptr(*slot) + kTickOffset, sizeof tick);
  }
  std::memcpy(image.data() + kTickOffset, &tick, sizeof tick);
  seal(image.data());
  std::memcpy(slot_ptr(*slot), image.data(), kSlotBytes);
  return true;
}

void MmapCacheStore::to_front(Node& node) {
  HeapCacheStore::to_front(node);
  if (node.slot == kNoSlot) return;
  // Outside the CRC-covered range by design: the per-hit cost is one
  // u64 store, no checksum recomputation.
  const uint64_t tick = ++lru_tick_;
  std::memcpy(slot_ptr(node.slot) + kTickOffset, &tick, sizeof tick);
}

bool MmapCacheStore::slab_append(std::span<const uint8_t> payload,
                                 uint64_t* off) {
  if (payload.size() > slab_bytes_) return false;
  if (slab_used_ + payload.size() > slab_bytes_) {
    compact_slab();
    if (slab_used_ + payload.size() > slab_bytes_) return false;
  }
  *off = slab_used_;
  std::memcpy(map_ + slab_off_ + slab_used_, payload.data(), payload.size());
  slab_used_ += payload.size();
  write_header();
  return true;
}

void MmapCacheStore::compact_slab() {
  struct Region {
    uint32_t slot;
    uint64_t off;
    uint32_t len;
  };
  std::vector<Region> regions;
  for (uint32_t i = 0; i < next_slot_; ++i) {
    SlotHeader sh{};
    std::memcpy(&sh, slot_ptr(i), sizeof sh);
    if (sh.state == kUsed && sh.slab_len > 0) {
      regions.push_back(Region{i, sh.slab_off, sh.slab_len});
    }
  }
  std::sort(regions.begin(), regions.end(),
            [](const Region& a, const Region& b) { return a.off < b.off; });
  uint64_t used = 0;
  for (const Region& r : regions) {
    if (r.off != used) {
      std::memmove(map_ + slab_off_ + used, map_ + slab_off_ + r.off, r.len);
      uint8_t* slot = slot_ptr(r.slot);
      std::memcpy(slot + offsetof(SlotHeader, slab_off), &used, sizeof used);
      seal(slot);
    }
    used += r.len;
  }
  slab_used_ = used;
  write_header();
  ++compactions_;
}

void MmapCacheStore::persist(Node& node) {
  NameText buf;
  const std::string_view text = name_text(node.key->name, buf);
  if (text.empty()) return;

  SlotHeader sh{};
  sh.state = kUsed;
  sh.inserted_at = node.inserted_at;
  sh.expiry = node.expiry;
  sh.ttl = node.rrset.ttl;
  sh.name_len = static_cast<uint16_t>(text.size());
  sh.rrtype = static_cast<uint16_t>(node.key->type);
  sh.rrclass = static_cast<uint16_t>(node.rrset.rrclass);
  sh.negative = node.negative ? 1 : 0;
  sh.negative_rcode = static_cast<uint8_t>(node.negative_rcode);
  if (node.lease.has_value()) {
    sh.has_lease = 1;
    sh.lease_expiry = node.lease->expiry;
    sh.lease_ip = node.lease->authority.ip;
    sh.lease_port = node.lease->authority.port;
  }

  if (!node.negative && !node.rrset.empty()) {
    dns::ByteWriter writer;
    writer.begin_message();
    dns::encode_rrset(node.rrset, writer);
    const std::span<const uint8_t> payload = writer.message();
    uint64_t off = 0;
    if (!slab_append(payload, &off)) {
      // Slab exhausted even after compaction: the entry stays heap-only.
      // If a previous image of it exists, kill that image — serving a
      // stale persisted copy after a restart would be worse than a miss.
      ++persist_failed_slab_;
      release_slot(&node.slot);
      return;
    }
    sh.slab_off = off;
    sh.slab_len = static_cast<uint32_t>(payload.size());
    sh.slab_crc = util::crc32(payload);
  }

  std::array<uint8_t, kSlotBytes> image{};
  std::memcpy(image.data(), &sh, sizeof sh);
  std::memcpy(image.data() + kNameOffset, text.data(), text.size());
  if (!write_slot(&node.slot, image)) ++persist_failed_table_;
}

void MmapCacheStore::persist_zone(const dns::Name& zone, ZoneSerial& record) {
  NameText buf;
  const std::string_view text = name_text(zone, buf);
  if (text.empty()) return;
  SlotHeader sh{};
  sh.state = kZone;
  sh.ttl = record.serial;
  sh.name_len = static_cast<uint16_t>(text.size());
  std::array<uint8_t, kSlotBytes> image{};
  std::memcpy(image.data(), &sh, sizeof sh);
  std::memcpy(image.data() + kNameOffset, text.data(), text.size());
  if (!write_slot(&record.slot, image)) ++persist_failed_table_;
}

void MmapCacheStore::commit(const server::CacheKey& key) {
  if (Node* node = find_node(key)) persist(*node);
}

bool MmapCacheStore::erase(const server::CacheKey& key) {
  Node* node = find_node(key);
  if (node == nullptr) return false;
  release_slot(&node->slot);
  return HeapCacheStore::erase(key);
}

void MmapCacheStore::put_zone_serial(const dns::Name& zone, uint32_t serial) {
  ZoneSerial& record = zone_serials_[zone];
  record.serial = serial;
  persist_zone(zone, record);
}

}  // namespace dnscup::cachestore
