// Datagram transport abstraction.  Protocol components (servers, resolvers,
// the DNScup notifier) talk to a Transport and never know whether packets
// travel through the deterministic simulator (SimNetwork) or real UDP
// sockets (UdpTransport) — the paper's prototype/simulation duality.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "net/endpoint.h"
#include "net/time.h"
#include "util/metrics.h"

namespace dnscup::net {

class Transport {
 public:
  /// Invoked for every datagram delivered to this transport.
  using ReceiveHandler =
      std::function<void(const Endpoint& from, std::span<const uint8_t> data)>;

  virtual ~Transport() = default;

  virtual const Endpoint& local_endpoint() const = 0;

  /// Sends one datagram.  Fire-and-forget: loss is a property of the
  /// network, not an error the sender sees (UDP semantics).
  virtual void send(const Endpoint& to, std::span<const uint8_t> data) = 0;

  /// Installs the receive callback (replacing any previous one).
  virtual void set_receive_handler(ReceiveHandler handler) = 0;
};

/// Per-transport traffic counters; the prototype bench uses max_packet_bytes
/// to verify the paper's "all message sizes are far below 512 bytes" claim.
struct TrafficStats {
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  std::size_t max_packet_bytes = 0;
};

/// Registry-backed counterpart of TrafficStats shared by all transports:
/// transport_packets{dir=tx|rx} / transport_bytes{dir=tx|rx} counters, a
/// transport_max_packet_bytes high-water gauge and a transport_batch_slots
/// gauge, all labeled with the local endpoint and the I/O backend that
/// serves it ("portable", "uring", "sim") — a metrics snapshot names the
/// engaged backend and its batch geometry, so BENCH files and scrapes are
/// self-describing.  Detached (registry-invisible) until register_in is
/// called.  Counter/Gauge cells are relaxed atomics, so a backend may bump
/// the rx side from its receiving thread while protocol code bumps tx — no
/// lock is required around increments or snapshot().
struct TrafficInstruments {
  metrics::Counter packets_sent;
  metrics::Counter packets_received;
  metrics::Counter bytes_sent;
  metrics::Counter bytes_received;
  metrics::Gauge max_packet_bytes;
  metrics::Gauge batch_slots;

  void register_in(metrics::MetricsRegistry& registry,
                   const std::string& endpoint, const std::string& backend,
                   std::size_t batch) {
    auto labeled = [&](const char* dir) {
      return metrics::Labels{
          {"backend", backend}, {"dir", dir}, {"endpoint", endpoint}};
    };
    packets_sent = registry.counter("transport_packets", labeled("tx"));
    packets_received = registry.counter("transport_packets", labeled("rx"));
    bytes_sent = registry.counter("transport_bytes", labeled("tx"));
    bytes_received = registry.counter("transport_bytes", labeled("rx"));
    max_packet_bytes = registry.gauge(
        "transport_max_packet_bytes",
        {{"backend", backend}, {"endpoint", endpoint}});
    batch_slots = registry.gauge(
        "transport_batch_slots",
        {{"backend", backend}, {"endpoint", endpoint}});
    batch_slots.set(static_cast<double>(batch));
  }

  TrafficStats snapshot() const {
    return TrafficStats{
        .packets_sent = packets_sent,
        .packets_received = packets_received,
        .bytes_sent = bytes_sent,
        .bytes_received = bytes_received,
        .max_packet_bytes =
            static_cast<std::size_t>(max_packet_bytes.value()),
    };
  }
};

/// Per-channel instruments for the connection-oriented push plane
/// (src/push): connection/subscription occupancy, queued-update depth,
/// coalesced drops and paced write batches, plus a frame/update ledger.
/// Shared by the authority-side PushServer and (the applicable subset)
/// the cache-side PushClient; labeled with a role ("server"/"client")
/// and endpoint so a merged scrape separates the two ends.  Same cell
/// semantics as TrafficInstruments: relaxed atomics, safe to bump from
/// the plane's I/O thread while the protocol thread snapshots.
struct PushChannelInstruments {
  metrics::Gauge connections;        ///< open TCP connections now
  metrics::Gauge subscriptions;      ///< identities with a live channel
  metrics::Gauge queue_depth;        ///< updates queued, not yet written
  metrics::Counter accepts;          ///< push_connects{role,...}
  metrics::Counter disconnects;
  metrics::Counter frames_sent;      ///< push_frames{dir=tx}
  metrics::Counter frames_received;  ///< push_frames{dir=rx}
  metrics::Counter coalesced;        ///< push_coalesced_total
  metrics::Counter paced_batches;    ///< push_paced_batches_total
  metrics::Counter overflows;        ///< queue full -> UDP fallback
  metrics::Counter shutdown_flushed; ///< frames force-drained at stop()

  void register_in(metrics::MetricsRegistry& registry, const std::string& role,
                   const std::string& endpoint) {
    const metrics::Labels base{{"endpoint", endpoint}, {"role", role}};
    auto labeled = [&](const char* key, const char* value) {
      metrics::Labels labels = base;
      labels.emplace_back(key, value);
      return labels;
    };
    connections = registry.gauge("push_connections", base);
    subscriptions = registry.gauge("push_subscriptions", base);
    queue_depth = registry.gauge("push_queue_depth", base);
    accepts = registry.counter("push_connects_total", base);
    disconnects = registry.counter("push_disconnects_total", base);
    frames_sent = registry.counter("push_frames", labeled("dir", "tx"));
    frames_received = registry.counter("push_frames", labeled("dir", "rx"));
    coalesced = registry.counter("push_coalesced_total", base);
    paced_batches = registry.counter("push_paced_batches_total", base);
    overflows = registry.counter("push_overflow_total", base);
    shutdown_flushed = registry.counter("push_shutdown_flushed_total", base);
  }
};

}  // namespace dnscup::net
