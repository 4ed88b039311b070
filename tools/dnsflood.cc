// dnsflood — a UDP load generator for dnscupd (open- and closed-loop).
//
// Drives one or more serving endpoints with a Zipf-popular query stream
// and reports achieved QPS, latency percentiles and loss:
//
//   * N sender sockets (--sockets), each with --concurrency outstanding
//     query slots.  In closed-loop mode (the default, --qps 0) a slot
//     fires its next query from inside the receive callback the moment
//     its answer lands — the client-side twin of the server's
//     lock-free-send hot path.  With --qps the slots instead pace their
//     sends so the aggregate offered load matches the target rate.
//   * Names follow a Zipf(s) popularity law over --names synthetic
//     labels (w0.<origin> most popular), the standard DNS workload
//     shape; --lease-fraction of queries carry the DNScup EXT extension
//     and request a lease.
//   * A slot whose answer misses --timeout is counted lost and re-armed,
//     so a dead or drowning server shows up as loss, not as a stall.
//
// Multiple --server endpoints round-robin across sockets, which is how
// the per-worker-port fallback of the sharded runtime is loaded.
//
// Usage:
//   dnsflood --server 127.0.0.1:5300 [--server ...] --duration 5
//            [--sockets 4] [--concurrency 16] [--qps 0] [--names 1000]
//            [--zipf 1.0] [--lease-fraction 0.2] [--origin example.com]
//            [--timeout-ms 200] [--seed 1] [--workers-label N]
//            [--io-backend portable|uring] [--out bench.json]
//
// --out writes one JSON object (achieved_qps, p50/p95/p99_us, loss_rate,
// io_backend, batch_slots, ...); --workers-label tags it with the
// server's worker count so a scaling sweep can concatenate records.
//
// `dnsflood --probe-io-backend` binds (and immediately tears down) one
// io_uring-backed socket and exits 0 when the kernel supports everything
// the uring backend needs, 3 when it does not — scripts (check.sh
// --io-matrix) use it to decide SKIP vs run.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dns/message.h"
#include "net/io_backend.h"
#include "util/rng.h"

using namespace dnscup;

namespace {

struct Options {
  std::vector<net::Endpoint> servers;
  double duration_s = 5.0;
  int sockets = 4;
  int concurrency = 16;
  double qps = 0.0;  ///< 0 = closed loop
  std::size_t names = 1000;
  double zipf_s = 1.0;
  double lease_fraction = 0.2;
  std::string origin = "example.com";
  int timeout_ms = 200;
  uint64_t seed = 1;
  int workers_label = 0;
  /// Tag recorded verbatim in the JSON "planner" field — what planner
  /// configuration the server under test ran ("off", "storage", ...).
  std::string planner_label = "off";
  net::IoBackendKind io_backend = net::IoBackendKind::kDefault;
  bool probe = false;  ///< --probe-io-backend: report uring support, exit
  std::string out;
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--server") {
      if ((v = next()) == nullptr) return false;
      std::string ep_error;
      auto ep = net::parse_endpoint(v, &ep_error);
      if (!ep.has_value()) {
        std::fprintf(stderr, "--server: %s\n", ep_error.c_str());
        return false;
      }
      opts.servers.push_back(*ep);
    } else if (arg == "--duration") {
      if ((v = next()) == nullptr) return false;
      opts.duration_s = std::atof(v);
    } else if (arg == "--sockets") {
      if ((v = next()) == nullptr) return false;
      opts.sockets = std::atoi(v);
    } else if (arg == "--concurrency") {
      if ((v = next()) == nullptr) return false;
      opts.concurrency = std::atoi(v);
    } else if (arg == "--qps") {
      if ((v = next()) == nullptr) return false;
      opts.qps = std::atof(v);
    } else if (arg == "--names") {
      if ((v = next()) == nullptr) return false;
      opts.names = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--zipf") {
      if ((v = next()) == nullptr) return false;
      opts.zipf_s = std::atof(v);
    } else if (arg == "--lease-fraction") {
      if ((v = next()) == nullptr) return false;
      opts.lease_fraction = std::atof(v);
    } else if (arg == "--origin") {
      if ((v = next()) == nullptr) return false;
      opts.origin = v;
    } else if (arg == "--timeout-ms") {
      if ((v = next()) == nullptr) return false;
      opts.timeout_ms = std::atoi(v);
    } else if (arg == "--seed") {
      if ((v = next()) == nullptr) return false;
      opts.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--workers-label") {
      if ((v = next()) == nullptr) return false;
      opts.workers_label = std::atoi(v);
    } else if (arg == "--planner-label") {
      if ((v = next()) == nullptr) return false;
      opts.planner_label = v;
    } else if (arg == "--io-backend") {
      if ((v = next()) == nullptr) return false;
      const auto kind = net::parse_io_backend_kind(v);
      if (!kind.has_value()) {
        std::fprintf(stderr, "bad --io-backend %s (portable|uring|default)\n",
                     v);
        return false;
      }
      opts.io_backend = *kind;
    } else if (arg == "--probe-io-backend") {
      opts.probe = true;
    } else if (arg == "--out") {
      if ((v = next()) == nullptr) return false;
      opts.out = v;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  if (opts.probe) return true;  // no servers needed for the probe
  return !opts.servers.empty() && opts.duration_s > 0 && opts.sockets > 0 &&
         opts.concurrency > 0 && opts.names > 0;
}

int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Pre-encoded query wire images, two per name (plain / EXT lease
/// request).  Sends only patch the 16-bit id in place — no per-send
/// message building on the load path.
struct QueryTemplates {
  std::vector<std::vector<uint8_t>> plain;
  std::vector<std::vector<uint8_t>> ext;
};

QueryTemplates build_templates(const Options& opts) {
  QueryTemplates templates;
  templates.plain.reserve(opts.names);
  templates.ext.reserve(opts.names);
  for (std::size_t i = 0; i < opts.names; ++i) {
    auto name =
        dns::Name::parse("w" + std::to_string(i) + "." + opts.origin);
    if (!name.ok()) std::abort();
    for (const bool ext : {false, true}) {
      dns::Message query;
      query.flags.opcode = dns::Opcode::kQuery;
      query.flags.rd = true;
      query.flags.ext = ext;
      // RRC: report a nominal 10 q/s so the grant policy sees a popular
      // record worth leasing.
      query.questions.push_back(dns::Question{
          name.value(), dns::RRType::kA, dns::RRClass::kIN,
          ext ? dns::rrc_from_rate(10.0) : static_cast<uint16_t>(0)});
      (ext ? templates.ext : templates.plain).push_back(query.encode());
    }
  }
  return templates;
}

/// One sender socket and its in-flight query slots.  The slot array is
/// fixed; `mutex` guards slot state, the RNG and the latency log (client
/// bookkeeping only — the wire send itself is lock-free).
struct Agent {
  struct Slot {
    bool outstanding = false;
    uint16_t id = 0;
    int64_t sent_at_us = 0;
    int64_t due_us = 0;  ///< open loop: next allowed send
  };

  std::unique_ptr<net::IoBackend> io;
  net::Endpoint server;
  std::unique_ptr<util::Rng> rng;
  std::mutex mutex;
  std::vector<Slot> slots;
  std::vector<uint32_t> latencies_us;
  uint16_t next_seq = 1;
  uint64_t sent = 0;
  uint64_t lost = 0;
  uint64_t mismatched = 0;
  int64_t send_interval_us = 0;  ///< 0 = closed loop
};

struct Load {
  explicit Load(const Options& options)
      : opts(options),
        templates(build_templates(options)),
        zipf(options.names, options.zipf_s) {}

  Options opts;
  QueryTemplates templates;
  util::ZipfDistribution zipf;
  std::atomic<bool> running{true};
  std::atomic<uint64_t> ext_sent{0};
  std::vector<std::unique_ptr<Agent>> agents;
};

/// Fires slot `s`; caller holds agent.mutex.
void send_query(Load& load, Agent& agent, std::size_t s, int64_t now) {
  const std::size_t rank = load.zipf.sample(*agent.rng);
  const bool ext = agent.rng->chance(load.opts.lease_fraction);
  const auto& image =
      ext ? load.templates.ext[rank] : load.templates.plain[rank];
  // id encodes the slot so the response handler can find it without a
  // lookup table: id = seq * concurrency + slot (mod 2^16).
  const uint16_t id = static_cast<uint16_t>(
      agent.next_seq++ * static_cast<unsigned>(agent.slots.size()) + s);
  std::vector<uint8_t> wire = image;
  wire[0] = static_cast<uint8_t>(id >> 8);
  wire[1] = static_cast<uint8_t>(id & 0xFF);
  Agent::Slot& slot = agent.slots[s];
  slot.outstanding = true;
  slot.id = id;
  slot.sent_at_us = now;
  ++agent.sent;
  if (ext) load.ext_sent.fetch_add(1, std::memory_order_relaxed);
  agent.io->send(agent.server, wire);
}

void on_response(Load& load, Agent& agent, std::span<const uint8_t> data) {
  if (data.size() < 3 || (data[2] & 0x80) == 0) return;  // not a response
  const uint16_t id = static_cast<uint16_t>((data[0] << 8) | data[1]);
  const int64_t now = now_us();
  std::lock_guard lock(agent.mutex);
  const std::size_t s = id % agent.slots.size();
  Agent::Slot& slot = agent.slots[s];
  if (!slot.outstanding || slot.id != id) {
    ++agent.mismatched;  // late answer to a slot already re-armed
    return;
  }
  slot.outstanding = false;
  agent.latencies_us.push_back(
      static_cast<uint32_t>(std::max<int64_t>(0, now - slot.sent_at_us)));
  if (!load.running.load(std::memory_order_relaxed)) return;
  if (agent.send_interval_us == 0) {
    // Closed loop: next query leaves from inside the receive callback.
    send_query(load, agent, s, now);
  } else {
    slot.due_us = std::max(now, slot.due_us + agent.send_interval_us);
  }
}

/// Open-loop pacing and timeout sweep for every agent (one thread).
void pace(Load& load) {
  const int64_t timeout_us =
      static_cast<int64_t>(load.opts.timeout_ms) * 1000;
  while (load.running.load(std::memory_order_relaxed)) {
    const int64_t now = now_us();
    for (auto& agent : load.agents) {
      std::lock_guard lock(agent->mutex);
      for (std::size_t s = 0; s < agent->slots.size(); ++s) {
        Agent::Slot& slot = agent->slots[s];
        if (slot.outstanding) {
          if (now - slot.sent_at_us >= timeout_us) {
            ++agent->lost;
            send_query(load, *agent, s, now);  // re-arm after a loss
          }
        } else if (agent->send_interval_us > 0 && now >= slot.due_us) {
          slot.due_us = std::max(now, slot.due_us) + agent->send_interval_us;
          send_query(load, *agent, s, now);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

uint32_t percentile(const std::vector<uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(p * (sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(
        stderr,
        "usage: dnsflood --server ip:port [--server ...] [--duration s]\n"
        "                [--sockets N] [--concurrency N] [--qps N]\n"
        "                [--names N] [--zipf s] [--lease-fraction f]\n"
        "                [--origin name] [--timeout-ms N] [--seed N]\n"
        "                [--workers-label N] [--planner-label tag]\n"
        "                [--io-backend portable|uring]\n"
        "                [--probe-io-backend] [--out file.json]\n");
    return 2;
  }
  if (opts.probe) {
    if (!net::uring_compiled()) {
      std::printf("io_uring: not compiled in\n");
      return 3;
    }
    if (auto status = net::uring_runtime_probe(); !status.ok()) {
      std::printf("io_uring: unavailable (%s)\n",
                  status.error().to_string().c_str());
      return 3;
    }
    std::printf("io_uring: available\n");
    return 0;
  }

  Load load(opts);
  util::Rng seeder(opts.seed);
  const int64_t per_slot_interval_us =
      opts.qps > 0
          ? static_cast<int64_t>(1e6 * opts.sockets * opts.concurrency /
                                 opts.qps)
          : 0;
  const net::IoBackendKind kind =
      net::resolve_io_backend_kind(opts.io_backend);
  for (int i = 0; i < opts.sockets; ++i) {
    auto agent = std::make_unique<Agent>();
    net::IoBackend::Options socket_options;
    socket_options.port = 0;
    socket_options.reuseport = false;
    auto bound = net::bind_io_backend(kind, socket_options);
    if (!bound.ok()) {
      std::fprintf(stderr, "socket: %s\n", bound.error().to_string().c_str());
      return 1;
    }
    agent->io = std::move(bound).value();
    agent->server = opts.servers[i % opts.servers.size()];
    agent->rng = std::make_unique<util::Rng>(seeder.fork());
    agent->slots.resize(opts.concurrency);
    agent->send_interval_us = std::max<int64_t>(1, per_slot_interval_us);
    if (opts.qps <= 0) agent->send_interval_us = 0;
    load.agents.push_back(std::move(agent));
  }
  for (auto& agent : load.agents) {
    Agent* a = agent.get();
    a->io->set_receive_handler(
        [&load, a](const net::Endpoint&, std::span<const uint8_t> data) {
          on_response(load, *a, data);
        });
  }

  // Kick every slot (closed loop: the response stream keeps them firing;
  // open loop: the pacer takes over from `due_us`).
  const int64_t start = now_us();
  for (auto& agent : load.agents) {
    std::lock_guard lock(agent->mutex);
    for (std::size_t s = 0; s < agent->slots.size(); ++s) {
      if (agent->send_interval_us > 0) {
        // Stagger open-loop starts so sends spread over one interval.
        agent->slots[s].due_us =
            start + static_cast<int64_t>(s) * agent->send_interval_us /
                        static_cast<int64_t>(agent->slots.size());
      } else {
        send_query(load, *agent, s, start);
      }
    }
  }
  std::thread pacer([&load] { pace(load); });

  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(opts.duration_s * 1e6)));
  load.running.store(false);
  pacer.join();
  for (auto& agent : load.agents) agent->io->stop_receiving();
  const double elapsed_s = (now_us() - start) / 1e6;

  uint64_t sent = 0, lost = 0, mismatched = 0;
  std::vector<uint32_t> latencies;
  for (auto& agent : load.agents) {
    std::lock_guard lock(agent->mutex);
    sent += agent->sent;
    lost += agent->lost;
    mismatched += agent->mismatched;
    latencies.insert(latencies.end(), agent->latencies_us.begin(),
                     agent->latencies_us.end());
  }
  // Queries still in flight at the deadline are neither answered nor
  // timed out; exclude them from the loss accounting.
  const uint64_t answered = latencies.size();
  const uint64_t accounted = answered + lost;
  const double loss_rate =
      accounted > 0 ? static_cast<double>(lost) / accounted : 0.0;
  std::sort(latencies.begin(), latencies.end());
  const double achieved_qps = answered / elapsed_s;
  const uint32_t p50 = percentile(latencies, 0.50);
  const uint32_t p95 = percentile(latencies, 0.95);
  const uint32_t p99 = percentile(latencies, 0.99);

  // All agents bind through the same resolved kind; any fallback applies
  // to every socket alike.
  const std::string_view backend = load.agents.front()->io->backend_name();
  const std::size_t batch_slots = load.agents.front()->io->batch_slots();

  std::printf(
      "dnsflood: %.1fs %s (io=%.*s), %llu sent, %llu answered (%.0f q/s), "
      "%llu lost (%.3f%%), %llu stray\n"
      "latency p50 %u us, p95 %u us, p99 %u us\n",
      elapsed_s, opts.qps > 0 ? "open-loop" : "closed-loop",
      static_cast<int>(backend.size()), backend.data(),
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(answered), achieved_qps,
      static_cast<unsigned long long>(lost), 100.0 * loss_rate,
      static_cast<unsigned long long>(mismatched), p50, p95, p99);

  if (!opts.out.empty()) {
    std::FILE* f = std::fopen(opts.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", opts.out.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"workers\": %d, \"planner\": \"%s\", \"mode\": \"%s\", "
        "\"io_backend\": \"%.*s\", "
        "\"batch_slots\": %zu, \"target_qps\": %.0f, "
        "\"duration_s\": %.3f, \"sockets\": %d, \"concurrency\": %d, "
        "\"names\": %zu, \"zipf_s\": %.3f, \"lease_fraction\": %.3f, "
        "\"sent\": %llu, \"answered\": %llu, \"lost\": %llu, "
        "\"ext_sent\": %llu, \"achieved_qps\": %.1f, \"p50_us\": %u, "
        "\"p95_us\": %u, \"p99_us\": %u, \"loss_rate\": %.6f}\n",
        opts.workers_label, opts.planner_label.c_str(),
        opts.qps > 0 ? "open" : "closed",
        static_cast<int>(backend.size()), backend.data(), batch_slots,
        opts.qps,
        elapsed_s, opts.sockets, opts.concurrency, opts.names, opts.zipf_s,
        opts.lease_fraction, static_cast<unsigned long long>(sent),
        static_cast<unsigned long long>(answered),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(load.ext_sent.load()), achieved_qps,
        p50, p95, p99, loss_rate);
    std::fclose(f);
  }
  return 0;
}
