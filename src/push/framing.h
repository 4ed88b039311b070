// Push-plane wire framing: DNS-over-TCP style 2-byte big-endian length
// prefix, then a 1-byte frame kind and the frame body.  The body of a
// PUSH frame is a fully encoded CACHE-UPDATE message (signed when the
// authority signs, byte-identical to what the UDP fallback would carry);
// a PUSH_ACK body is the encoded empty opcode-6 acknowledgement.  The
// SUBSCRIBE handshake carries the cache's lease identity — the UDP
// endpoint its EXT queries (and therefore its track-file tuples) use —
// so one long-lived connection re-adopts the same lease set across
// reconnects.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dns/name.h"
#include "dns/rdata.h"
#include "net/endpoint.h"

namespace dnscup::push {

enum class FrameKind : uint8_t {
  kSubscribe = 1,     ///< cache -> authority: lease identity handshake
  kSubscribeAck = 2,  ///< authority -> cache: zone serial inventory
  kPush = 3,          ///< authority -> cache: encoded CACHE-UPDATE
  kPushAck = 4,       ///< cache -> authority: encoded CACHE-UPDATE ack
  kPing = 5,          ///< either direction: liveness probe
  kPong = 6,          ///< answer to kPing
};

/// Largest frame body (the 2-byte length prefix caps it, like DNS/TCP).
inline constexpr std::size_t kMaxFrameBody = 65534;  // kind byte + body

struct Frame {
  FrameKind kind = FrameKind::kPing;
  std::vector<uint8_t> body;
};

/// Appends one framed message (length prefix + kind + body) to `out`.
/// Returns false (appending nothing) when the body exceeds kMaxFrameBody.
bool encode_frame(FrameKind kind, std::span<const uint8_t> body,
                  std::vector<uint8_t>& out);

/// Incremental decoder for a TCP byte stream: feed whatever arrived,
/// take complete frames out.  A malformed stream (zero-length frame,
/// which cannot even hold the kind byte) poisons the reader — the
/// connection should be closed.
class FrameReader {
 public:
  /// Appends raw stream bytes.
  void append(std::span<const uint8_t> data);

  /// Extracts the next complete frame; false when more bytes are needed.
  bool next(Frame& frame);

  /// True once the stream violated framing; no further frames decode.
  bool corrupt() const { return corrupt_; }

  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<uint8_t> buffer_;
  std::size_t consumed_ = 0;
  bool corrupt_ = false;
};

// SUBSCRIBE body, version 1: version byte, then the lease-holder endpoint
// (4-byte IP + 2-byte port, big endian).
//
// Version 2 (warm restart) appends a survivor inventory: a 2-byte count,
// then per surviving lease a length-prefixed presentation-form name, a
// 2-byte RR type and an 8-byte remaining lease duration in microseconds.
// A warm-restarted cache announces the leases it reloaded from its
// persistent store so the authority can re-register them instead of
// treating the cache as new.  Version-1 peers still interoperate: a v1
// SUBSCRIBE is a v2 SUBSCRIBE with zero survivors, and a v1 ack simply
// carries no verdicts (the cache then demotes its survivors).
inline constexpr uint8_t kPushProtocolVersion = 1;
inline constexpr uint8_t kPushProtocolVersionReadopt = 2;

/// One warm-reloaded lease announced for re-adoption.
struct LeaseSurvivor {
  dns::Name name;
  dns::RRType type = dns::RRType::kA;
  uint64_t remaining_us = 0;  ///< lease time left at announce
};

struct SubscribeInfo {
  uint8_t version = kPushProtocolVersion;
  net::Endpoint identity{};
  std::vector<LeaseSurvivor> survivors;  ///< empty on cold connects
};

std::vector<uint8_t> encode_subscribe(const net::Endpoint& identity);
std::vector<uint8_t> encode_subscribe(const SubscribeInfo& info);
std::optional<SubscribeInfo> parse_subscribe(std::span<const uint8_t> body);

/// How many of `survivors`, taken from the front, one v2 SUBSCRIBE
/// carries: a longer inventory would exceed kMaxFrameBody, and
/// encode_frame would drop the whole frame.
std::size_t survivors_per_subscribe(std::span<const LeaseSurvivor> survivors);

// SUBSCRIBE_ACK body, version 1: version byte, 2-byte zone count, then
// per zone a 4-byte serial and a length-prefixed presentation-form zone
// name.  The reconnecting cache compares these serials with the last
// serial it applied per zone; a gap means pushes were missed while
// disconnected and the leased records must be refetched.
//
// Version 2 (answering a v2 SUBSCRIBE) appends the re-adoption verdict:
// 4-byte resumed count, 4-byte rejected count, a 2-byte echo of the
// announced survivor count and a bitmask (bit i of byte i/8, LSB first)
// with bit i set when announced survivor i was re-adopted.  Per-survivor
// verdicts let the cache demote exactly the rejected leases — never
// serving a record as leased that the authority no longer tracks.
struct ZoneSerial {
  dns::Name zone;
  uint32_t serial = 0;
};

struct SubscribeAck {
  std::vector<ZoneSerial> zones;
  /// True for a v2 ack: resumed/rejected/resumed_bits are meaningful.
  bool has_readoption = false;
  uint32_t resumed = 0;
  uint32_t rejected = 0;
  std::vector<bool> resumed_bits;  ///< indexed like the announced survivors
};

std::vector<uint8_t> encode_subscribe_ack(const std::vector<ZoneSerial>& zones);
std::vector<uint8_t> encode_subscribe_ack(const std::vector<ZoneSerial>& zones,
                                          const std::vector<bool>& resumed_bits);
std::optional<SubscribeAck> parse_subscribe_ack(std::span<const uint8_t> body);

}  // namespace dnscup::push
