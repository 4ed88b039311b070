// dnsq — a dig-lite client for dnscupd / dnscached (or any DNS-over-UDP
// endpoint speaking this repository's wire format, which is plain
// RFC 1035 unless --ext is given).
//
// Query mode (default):
//   dnsq <ip:port> <name> [type] [--ext [rrc]] [--timeout ms]
//
//   dnsq 127.0.0.1:5300 www.example.com A
//   dnsq 127.0.0.1:5301 www.example.com A --ext 120   # DNScup EXT query
//
// Update mode (--update): sends an RFC 2136 UPDATE repointing the name's
// A RRset to a new address — the paper's canonical zone change, handy for
// poking a running dnscupd and watching the CACHE-UPDATE push reach a
// dnscached:
//   dnsq 127.0.0.1:5300 www.example.com --update 10.9.9.9
//        [--zone example.com] [--ttl 300]
// The zone defaults to the name's parent domain.
//
// Responses are accepted only from the queried server and only when the
// message id echoes the query's — anything else is reported and ignored
// (the wait keeps running until the real answer or the timeout).
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>

#include "dns/message.h"
#include "net/udp_transport.h"
#include "server/update.h"
#include "tool_common.h"

using namespace dnscup;

namespace {

struct Options {
  net::Endpoint server;
  dns::Name name;
  dns::RRType qtype = dns::RRType::kA;
  tools::QueryFlags query;
  // --update mode
  std::optional<dns::Ipv4> update_address;
  std::optional<dns::Name> zone;
  uint32_t update_ttl = 300;
};

int usage() {
  std::fprintf(stderr,
               "usage: dnsq <ip:port> <name> [type] [--ext [rrc]] "
               "[--timeout ms]\n"
               "       dnsq <ip:port> <name> --update <ipv4> "
               "[--zone origin] [--ttl n] [--timeout ms]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opts) {
  if (argc < 3) return false;
  std::string ep_error;
  const auto server = net::parse_endpoint(argv[1], &ep_error);
  if (!server.has_value()) {
    std::fprintf(stderr, "%s\n", ep_error.c_str());
    return false;
  }
  opts.server = *server;
  auto name = dns::Name::parse(argv[2]);
  if (!name.ok()) {
    std::fprintf(stderr, "bad name: %s\n", name.error().to_string().c_str());
    return false;
  }
  opts.name = std::move(name).value();

  for (int i = 3; i < argc; ++i) {
    const char* peek = i + 1 < argc ? argv[i + 1] : nullptr;
    switch (tools::parse_query_flag(
        argv[i], peek, [&]() { return i + 1 < argc ? argv[++i] : nullptr; },
        opts.query)) {
      case tools::FlagParse::kMatched:
        continue;
      case tools::FlagParse::kError:
        return false;
      case tools::FlagParse::kUnmatched:
        break;
    }
    if (std::strcmp(argv[i], "--update") == 0 && i + 1 < argc) {
      auto address = dns::Ipv4::parse(argv[++i]);
      if (!address.ok()) {
        std::fprintf(stderr, "bad address: %s\n",
                     address.error().to_string().c_str());
        return false;
      }
      opts.update_address = address.value();
    } else if (std::strcmp(argv[i], "--zone") == 0 && i + 1 < argc) {
      auto zone = dns::Name::parse(argv[++i]);
      if (!zone.ok()) {
        std::fprintf(stderr, "bad zone: %s\n",
                     zone.error().to_string().c_str());
        return false;
      }
      opts.zone = std::move(zone).value();
    } else if (std::strcmp(argv[i], "--ttl") == 0 && i + 1 < argc) {
      opts.update_ttl = static_cast<uint32_t>(std::atoll(argv[++i]));
    } else {
      auto t = dns::rrtype_from_string(argv[i]);
      if (!t.ok()) {
        std::fprintf(stderr, "bad argument: %s\n", argv[i]);
        return false;
      }
      opts.qtype = t.value();
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) return usage();

  auto transport = net::UdpTransport::bind(0);
  if (!transport.ok()) {
    std::fprintf(stderr, "socket: %s\n",
                 transport.error().to_string().c_str());
    return 1;
  }

  const uint16_t id = static_cast<uint16_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() & 0xFFFF);

  dns::Message query;
  if (opts.update_address.has_value()) {
    const dns::Name zone = opts.zone.has_value() ? *opts.zone
                           : opts.name.is_root() ? opts.name
                                                 : opts.name.parent();
    query = server::UpdateBuilder(zone)
                .replace_a(opts.name, opts.update_ttl, *opts.update_address)
                .build(id);
  } else {
    query.id = id;
    query.flags.opcode = dns::Opcode::kQuery;
    query.flags.rd = true;
    query.flags.ext = opts.query.ext;
    query.questions.push_back(dns::Question{opts.name, opts.qtype,
                                            dns::RRClass::kIN,
                                            opts.query.rrc});
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<dns::Message> response;
  transport.value()->set_receive_handler(
      [&](const net::Endpoint& from, std::span<const uint8_t> data) {
        if (from != opts.server) {
          std::fprintf(stderr, ";; ignored datagram from %s\n",
                       from.to_string().c_str());
          return;
        }
        auto m = dns::Message::decode(data);
        if (!m.ok()) {
          std::fprintf(stderr, ";; ignored undecodable response: %s\n",
                       m.error().to_string().c_str());
          return;
        }
        if (m.value().id != id || !m.value().flags.qr) {
          std::fprintf(stderr, ";; ignored response with id %u (sent %u)\n",
                       m.value().id, id);
          return;
        }
        std::lock_guard lock(mutex);
        response = std::move(m).value();
        cv.notify_all();
      });

  transport.value()->send(opts.server, query.encode());

  std::unique_lock lock(mutex);
  if (!cv.wait_for(lock, std::chrono::milliseconds(opts.query.timeout_ms),
                   [&] { return response.has_value(); })) {
    std::fprintf(stderr, ";; timeout after %d ms\n", opts.query.timeout_ms);
    return 1;
  }
  std::printf("%s", response->to_string().c_str());
  if (response->flags.ext && response->llt > 0) {
    std::printf(";; DNScup lease granted: %llu seconds\n",
                static_cast<unsigned long long>(
                    dns::llt_to_seconds(response->llt)));
  }
  return response->flags.rcode == dns::Rcode::kNoError ? 0 : 1;
}
