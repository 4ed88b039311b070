// dnscupd — a DNScup-enabled authoritative nameserver over real UDP.
//
// Loads one or more zone files and serves them through the sharded
// multi-worker runtime (src/runtime): --workers N worker threads, each
// owning its own event loop, UDP socket (one SO_REUSEPORT group on
// --port, or per-worker ports where the kernel lacks it) and its shard
// of the lease state.  QUERY / UPDATE / NOTIFY / AXFR / IXFR are served
// with the DNScup middleware attached (lease grants on EXT queries,
// CACHE-UPDATE pushes on change).
//
// Usage:
//   dnscupd --port 5300 --zone example.com=example.com.zone
//           [--zone other.org=other.zone] [--workers 4] [--no-reuseport]
//           [--max-lease 3600] [--no-dnscup] [--round-robin] [--verbose]
//           [--rcvbuf bytes] [--sndbuf bytes]
//           [--io-backend portable|uring] [--pin-cpus 0,1,...]
//           [--metrics-out metrics.json] [--metrics-interval 10]
//           [--state-dir dir] [--fsync-policy always|interval|never]
//           [--snapshot-interval 60]
//
// The daemon prints one status line per second with aggregated (all
// workers merged) lease/track-file statistics; SIGINT and SIGTERM both
// run the full shutdown path (graceful drain, journal flush, final state
// snapshot + metrics dump), so process managers stopping the daemon get
// the same durability as Ctrl-C.  With --metrics-out it also dumps a
// JSON snapshot of every registry instrument across all workers and the
// journal writer to the given file every --metrics-interval seconds and
// once at shutdown.
//
// With --state-dir the authority is durable: every shard journals lease
// ops through the runtime's single writer thread into a CRC-framed
// write-ahead log, compacted into snapshots, and recovered (repartitioned
// across the shards) on the next start.
// Pair it with `dnsq` for interactive queries and `dnsflood` for load:
//   dnsq 127.0.0.1:5300 www.example.com A
//   dnsflood --server 127.0.0.1:5300 --duration 5
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dns/zone_text.h"
#include "runtime/runtime.h"
#include "tool_common.h"
#include "util/logging.h"
#include "util/metrics.h"

using namespace dnscup;

namespace {

std::atomic<int> g_signal{0};

/// Upper bounds for the numeric flags: second counts must survive the
/// conversion to microseconds and the addition to a clock reading (a
/// lease's expiry is its grant time plus its length), budgets must be
/// finite, and a planner shard is picked by the pair key's top byte, so
/// more than 256 shards would never all be used.
constexpr int64_t kMaxSeconds =
    std::numeric_limits<int64_t>::max() / net::seconds(1) / 2;
constexpr double kMaxBudget = std::numeric_limits<double>::max();
constexpr int kMaxShards = 256;

void handle_signal(int sig) { g_signal.store(sig); }

struct Options {
  tools::ServingFlags serving{5300};
  std::vector<std::pair<std::string, std::string>> zones;  // origin=path
  int64_t max_lease_s = 3600;
  bool round_robin = false;
  std::string state_dir;  ///< empty: volatile authority
  store::FsyncPolicy fsync = store::FsyncPolicy::kAlways;
  int64_t snapshot_interval_s = 60;

  // Online lease planner (src/planner).  Either budget flag turns the
  // planner on and selects its mode; the remaining knobs tune it.
  bool planner = false;
  double lease_storage_budget = -1;  ///< expected live leases (SLP mode)
  double lease_msg_budget = -1;      ///< msgs/s (deprivation mode)
  int64_t replan_interval_s = 30;
  int64_t planner_capacity = 1 << 21;
  int planner_shards = 4;
};

bool parse_args(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    switch (tools::parse_serving_flag(arg, next, opts.serving)) {
      case tools::FlagParse::kMatched:
        continue;
      case tools::FlagParse::kError:
        return false;
      case tools::FlagParse::kUnmatched:
        break;
    }
    if (arg == "--zone") {
      const char* v = next();
      if (v == nullptr) return false;
      const std::string spec = v;
      const auto eq = spec.find('=');
      if (eq == std::string::npos) return false;
      opts.zones.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--max-lease") {
      if (!tools::parse_number("--max-lease", next(), int64_t{1},
                               kMaxSeconds, opts.max_lease_s)) {
        return false;
      }
    } else if (arg == "--state-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      opts.state_dir = v;
    } else if (arg == "--fsync-policy") {
      const char* v = next();
      if (v == nullptr) return false;
      auto policy = store::fsync_policy_from_string(v);
      if (!policy.ok()) {
        std::fprintf(stderr, "%s\n", policy.error().to_string().c_str());
        return false;
      }
      opts.fsync = policy.value();
    } else if (arg == "--snapshot-interval") {
      if (!tools::parse_number("--snapshot-interval", next(), int64_t{1},
                               kMaxSeconds, opts.snapshot_interval_s)) {
        return false;
      }
    } else if (arg == "--round-robin") {
      opts.round_robin = true;
    } else if (arg == "--lease-storage-budget") {
      if (!tools::parse_number("--lease-storage-budget", next(), 0.0,
                               kMaxBudget, opts.lease_storage_budget)) {
        return false;
      }
      opts.planner = true;
    } else if (arg == "--lease-msg-budget") {
      if (!tools::parse_number("--lease-msg-budget", next(), 0.0, kMaxBudget,
                               opts.lease_msg_budget)) {
        return false;
      }
      opts.planner = true;
    } else if (arg == "--replan-interval") {
      if (!tools::parse_number("--replan-interval", next(), int64_t{0},
                               kMaxSeconds, opts.replan_interval_s)) {
        return false;
      }
    } else if (arg == "--planner-capacity") {
      if (!tools::parse_number("--planner-capacity", next(), int64_t{1},
                               std::numeric_limits<int64_t>::max(),
                               opts.planner_capacity)) {
        return false;
      }
    } else if (arg == "--planner-shards") {
      if (!tools::parse_number("--planner-shards", next(), 1, kMaxShards,
                               opts.planner_shards)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts.zones.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(
        stderr,
        "usage: dnscupd --port N --zone origin=path [--zone ...]\n"
        "%s"
        "               [--max-lease seconds] [--round-robin]\n"
        "               [--state-dir dir] "
        "[--fsync-policy always|interval|never]\n"
        "               [--snapshot-interval seconds]\n"
        "               [--lease-storage-budget N | --lease-msg-budget X]\n"
        "               [--replan-interval seconds] "
        "[--planner-capacity N]\n"
        "               [--planner-shards N]\n",
        tools::kServingUsage);
    return 2;
  }
  if (opts.serving.verbose) util::set_log_level(util::LogLevel::kDebug);

  std::vector<dns::Zone> zones;
  for (const auto& [origin_text, path] : opts.zones) {
    auto origin = dns::Name::parse(origin_text);
    if (!origin.ok()) {
      std::fprintf(stderr, "bad origin %s\n", origin_text.c_str());
      return 1;
    }
    auto zone = dns::load_zone_file(path, origin.value());
    if (!zone.ok()) {
      std::fprintf(stderr, "%s\n", zone.error().to_string().c_str());
      return 1;
    }
    std::printf("loaded zone %s (%zu RRsets, serial %u) from %s\n",
                origin_text.c_str(), zone.value().rrset_count(),
                zone.value().serial(), path.c_str());
    zones.push_back(std::move(zone).value());
  }

  runtime::Config config;
  opts.serving.apply(config);
  config.dnscup = opts.serving.dnscup;
  config.round_robin = opts.round_robin;
  config.max_lease = net::seconds(opts.max_lease_s);
  config.state_dir = config.dnscup ? opts.state_dir : std::string();
  config.fsync = opts.fsync;
  config.push_plane = opts.serving.push_plane;
  config.push_port = opts.serving.push_listen;
  if (opts.planner && config.dnscup) {
    config.planner = true;
    if (opts.lease_msg_budget >= 0) {
      config.planner_config.mode = planner::LeasePlanner::Mode::kComm;
      config.planner_config.message_budget = opts.lease_msg_budget;
    } else {
      config.planner_config.mode = planner::LeasePlanner::Mode::kStorage;
      config.planner_config.storage_budget = opts.lease_storage_budget;
    }
    config.planner_config.replan_interval =
        net::seconds(opts.replan_interval_s);
    config.planner_config.capacity =
        static_cast<std::size_t>(opts.planner_capacity);
    config.planner_config.shards = opts.planner_shards;
  }

  auto started = runtime::ServingRuntime::start(config, std::move(zones));
  if (!started.ok()) {
    std::fprintf(stderr, "runtime start failed: %s\n",
                 started.error().to_string().c_str());
    return 1;
  }
  runtime::ServingRuntime& rt = *started.value();

  if (rt.durable()) {
    const auto& recovery = rt.recovery();
    std::printf(
        "state dir %s (fsync %s): %llu WAL records replayed, %llu torn; "
        "%llu leases restored, %llu expired, %llu zones changed while "
        "down, %llu changes re-pushed\n",
        opts.state_dir.c_str(), store::to_string(opts.fsync),
        static_cast<unsigned long long>(recovery.replayed_records),
        static_cast<unsigned long long>(recovery.torn_records),
        static_cast<unsigned long long>(recovery.leases_restored),
        static_cast<unsigned long long>(recovery.leases_expired),
        static_cast<unsigned long long>(recovery.zones_changed),
        static_cast<unsigned long long>(recovery.changes_pushed));
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  tools::print_listening("dnscupd", rt.reuseport_active(), rt.endpoints(),
                         rt.workers(), config.dnscup, rt.io_backend_name());
  if (rt.push_plane() != nullptr) {
    // Same contract as the banner: tests and scripts scrape this line to
    // learn the (possibly ephemeral) TCP subscription port.
    std::printf("dnscupd push plane listening on %s (TCP)\n",
                rt.push_endpoint().to_string().c_str());
    std::fflush(stdout);
  }
  if (rt.planner() != nullptr) {
    // Scrapeable like the banner: bench_runtime.sh and check.sh read this
    // line to confirm the planner configuration actually in effect.
    const auto& pc = rt.planner()->config();
    const bool storage = pc.mode == planner::LeasePlanner::Mode::kStorage;
    std::printf(
        "dnscup planner: mode=%s %s-budget=%.1f replan=%llds shards=%d "
        "capacity=%zu\n",
        storage ? "storage" : "comm", storage ? "storage" : "msg",
        storage ? pc.storage_budget : pc.message_budget,
        static_cast<long long>(net::to_seconds(pc.replan_interval)),
        pc.shards, pc.capacity);
    std::fflush(stdout);
  }

  auto last_report = std::chrono::steady_clock::now();
  auto last_metrics = last_report;
  auto last_snapshot = last_report;
  while (g_signal.load() == 0) {
    // The workers serve on their own threads; this thread only does the
    // periodic jobs (each fans a command across workers and blocks).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = std::chrono::steady_clock::now();
    if (!opts.serving.metrics_out.empty() &&
        now - last_metrics >=
            std::chrono::seconds(opts.serving.metrics_interval_s)) {
      last_metrics = now;
      tools::dump_metrics(rt.metrics(), opts.serving.metrics_out);
    }
    if (rt.durable() &&
        now - last_snapshot >=
            std::chrono::seconds(opts.snapshot_interval_s)) {
      last_snapshot = now;
      if (auto status = rt.write_snapshot(); !status.ok()) {
        std::fprintf(stderr, "snapshot failed: %s\n",
                     status.error().to_string().c_str());
      }
    }
    if (opts.serving.verbose && now - last_report >= std::chrono::seconds(1)) {
      last_report = now;
      const auto snapshot = rt.metrics();
      std::printf(
          "queries=%llu updates=%llu leases=%zu pushes=%llu acks=%llu "
          "readopt=%llu/%llu (resumed/rejected) rx_overflow=%llu\n",
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "auth_server_requests", "op", "query")),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "auth_server_requests", "op", "update")),
          rt.live_leases(),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "cache_update_messages", "result", "sent")),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "cache_update_messages", "result", "acked")),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "authority_lease_readoptions", "result", "resumed")),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "authority_lease_readoptions", "result", "rejected")),
          static_cast<unsigned long long>(
              tools::counter_sum(snapshot, "udp_rx_overflow")));
    }
  }
  const int sig = g_signal.load();
  std::printf("\nshutting down (%s)\n",
              sig == SIGTERM ? "SIGTERM" : sig == SIGINT ? "SIGINT"
                                                         : "signal");
  // Graceful drain: stop intake, answer what is queued, flush the
  // journal; stop() writes the final compacting snapshot itself.
  rt.stop();
  if (rt.durable()) {
    std::printf("final state snapshot written to %s\n",
                opts.state_dir.c_str());
  }
  if (!opts.serving.metrics_out.empty()) {
    tools::dump_metrics(rt.metrics(), opts.serving.metrics_out);
    std::printf("final metrics snapshot written to %s\n",
                opts.serving.metrics_out.c_str());
  }
  std::printf("final track file:\n%s", rt.serialize_track_files().c_str());
  return 0;
}
