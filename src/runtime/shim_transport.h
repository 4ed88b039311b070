// Batching transport facade in front of each worker-pool socket
// (worker_pool.h), under both daemons.  While `batching` is on (a worker
// loop's steady state) sends append into a reusable tx arena and leave as
// one backend batch (sendmmsg / io_uring submit) when the loop calls
// flush(); off the worker thread (and after drain) sends go straight
// through to the underlying datagram backend.
#pragma once

#include <span>
#include <vector>

#include "net/io_backend.h"
#include "net/transport.h"

namespace dnscup::runtime {

class ShimTransport final : public net::Transport {
 public:
  const net::Endpoint& local_endpoint() const override {
    return io->local_endpoint();
  }
  void send(const net::Endpoint& to,
            std::span<const uint8_t> data) override {
    if (!batching) {
      io->send(to, data);
      return;
    }
    const std::size_t offset = tx_arena.size();
    tx_arena.insert(tx_arena.end(), data.begin(), data.end());
    tx_entries.push_back(TxEntry{to, offset, data.size()});
  }
  void set_receive_handler(ReceiveHandler h) override {
    handler = std::move(h);
  }

  /// Sends everything buffered since the last flush as one batch.
  /// Entries carry offsets, not spans: the arena may reallocate while
  /// a batch accumulates, so spans are built only here.  The backend
  /// only borrows the spans until send_batch returns (both backends
  /// wait out their submissions), so the arena reset below is safe.
  void flush() {
    if (tx_entries.empty()) return;
    tx_packets.clear();
    for (const TxEntry& entry : tx_entries) {
      tx_packets.push_back(net::TxPacket{
          entry.to, std::span<const uint8_t>(tx_arena.data() + entry.offset,
                                             entry.len)});
    }
    io->send_batch(tx_packets);
    tx_entries.clear();
    tx_arena.clear();  // keeps capacity: steady state reuses it
  }

  net::IoBackend* io = nullptr;
  ReceiveHandler handler;
  bool batching = false;

 private:
  struct TxEntry {
    net::Endpoint to;
    std::size_t offset = 0;
    std::size_t len = 0;
  };
  std::vector<uint8_t> tx_arena;
  std::vector<TxEntry> tx_entries;
  std::vector<net::TxPacket> tx_packets;
};

}  // namespace dnscup::runtime
