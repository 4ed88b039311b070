// dnscached — a DNScup-enabled caching DNS server over real UDP: the
// paper's "local DNS nameserver", daemonized.
//
// Serves stub clients through the cache-side runtime (src/cachert):
// --workers N worker threads, each owning its own event loop, a
// client-facing UDP socket (one SO_REUSEPORT group on --port, or
// per-worker ports where the kernel lacks it), a private upstream socket,
// a TTL cache slice and — unless --no-dnscup — a lease client that sends
// EXT queries with RRC rate reports, registers LLT leases, consumes
// authenticated CACHE-UPDATE pushes from the configured upstreams and
// acknowledges them.  When the authority goes silent, entries fall back
// to plain TTL freshness.
//
// Usage:
//   dnscached --port 5301 --upstream 127.0.0.1:5300 [--upstream ...]
//             [--workers 4] [--no-reuseport] [--batch N]
//             [--rcvbuf bytes] [--sndbuf bytes] [--no-dnscup]
//             [--io-backend portable|uring] [--pin-cpus 0,1,...]
//             [--cache-capacity N] [--query-timeout-ms N] [--retries N]
//             [--cache-dir DIR] [--cache-file-size bytes]
//             [--metrics-out metrics.json] [--metrics-interval 10]
//             [--verbose]
//
// With --cache-dir the cache persists: each worker mmaps
// DIR/cache-shard-<i> and a restart reloads the surviving entries warm
// (TTLs decayed by the downtime).  With the push plane up, reloaded
// leases are announced for re-adoption so matching zone serials resume
// CACHE-UPDATE delivery without a refetch burst; one SUBSCRIBE frame
// holds about 2,200 of them, and the rest demote to plain TTL entries.
//
// The daemon prints one status line per second (with --verbose)
// aggregating all workers; SIGINT and SIGTERM both run the graceful
// drain and, with --metrics-out, dump a final JSON metrics snapshot.
// Pair with dnscupd as the upstream authority:
//   dnscupd   --port 5300 --zone example.com=example.com.zone
//   dnscached --port 5301 --upstream 127.0.0.1:5300
//   dnsq 127.0.0.1:5301 www.example.com A
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cachert/cache_runtime.h"
#include "tool_common.h"
#include "util/logging.h"
#include "util/metrics.h"

using namespace dnscup;

namespace {

std::atomic<int> g_signal{0};

void handle_signal(int sig) { g_signal.store(sig); }

struct Options {
  tools::ServingFlags serving{5301};
  std::vector<net::Endpoint> upstreams;
  std::size_t cache_capacity = 0;
  std::string cache_dir;
  std::size_t cache_file_bytes = 64ull << 20;
  int64_t query_timeout_ms = 2000;
  int retries = 2;
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
    const char* v = nullptr;
    if (arg == "--upstream") {
      if ((v = next()) == nullptr) return false;
      std::string error;
      auto endpoint = net::parse_endpoint(v, &error);
      if (!endpoint.has_value()) {
        std::fprintf(stderr, "--upstream: %s\n", error.c_str());
        return false;
      }
      opts.upstreams.push_back(*endpoint);
    } else if (arg == "--cache-capacity") {
      if ((v = next()) == nullptr) return false;
      opts.cache_capacity = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--cache-dir") {
      if ((v = next()) == nullptr) return false;
      opts.cache_dir = v;
    } else if (arg == "--cache-file-size") {
      if ((v = next()) == nullptr) return false;
      opts.cache_file_bytes = static_cast<std::size_t>(std::atoll(v));
      if (opts.cache_file_bytes == 0) return false;
    } else if (arg == "--query-timeout-ms") {
      if ((v = next()) == nullptr) return false;
      opts.query_timeout_ms = std::atoll(v);
      if (opts.query_timeout_ms <= 0) return false;
    } else if (arg == "--retries") {
      if (!tools::parse_number("--retries", next(), 0, 100, opts.retries)) {
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return !opts.upstreams.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(
        stderr,
        "usage: dnscached --port N --upstream ip:port [--upstream ...]\n"
        "%s"
        "               [--cache-capacity N] [--query-timeout-ms N]\n"
        "               [--retries N] [--cache-dir DIR]\n"
        "               [--cache-file-size bytes]\n",
        tools::kServingUsage);
    return 2;
  }
  if (opts.serving.verbose) util::set_log_level(util::LogLevel::kDebug);

  if (opts.serving.push_plane && opts.serving.push_authority.port == 0) {
    std::fprintf(stderr,
                 "--push-plane on dnscached needs --push-authority "
                 "a.b.c.d:port (the authority's push listener)\n");
    return 2;
  }

  cachert::Config config;
  opts.serving.apply(config);
  config.upstreams = opts.upstreams;
  config.push_plane = opts.serving.push_plane;
  config.push_authority = opts.serving.push_authority;
  config.cache_capacity = opts.cache_capacity;
  config.cache_dir = opts.cache_dir;
  config.cache_file_bytes = opts.cache_file_bytes;
  config.query_timeout = net::milliseconds(opts.query_timeout_ms);
  config.max_retries = opts.retries;

  auto started = cachert::CacheRuntime::start(config);
  if (!started.ok()) {
    std::fprintf(stderr, "cache runtime start failed: %s\n",
                 started.error().to_string().c_str());
    return 1;
  }
  cachert::CacheRuntime& rt = *started.value();

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  tools::print_listening("dnscached", rt.reuseport_active(), rt.endpoints(),
                         rt.workers(), config.dnscup, rt.io_backend_name());
  std::printf("upstreams:");
  for (const auto& upstream : rt.upstream_endpoints()) {
    std::printf(" %s", upstream.to_string().c_str());
  }
  std::printf(" (worker-local source ports)\n");
  if (config.push_plane) {
    std::printf("push channel -> %s (TCP, per-worker subscriptions)\n",
                config.push_authority.to_string().c_str());
  }
  if (rt.persistent_cache()) {
    uint64_t warm = 0, torn = 0, expired = 0, demoted = 0;
    std::size_t cold = 0;
    std::string cold_reason;
    const auto reports = rt.cache_load_reports();
    for (const auto& report : reports) {
      warm += report.warm_entries;
      torn += report.torn_dropped;
      expired += report.expired_dropped;
      demoted += report.leases_demoted;
      if (report.cold) {
        ++cold;
        cold_reason = report.cold_reason;
      }
    }
    if (cold == reports.size()) {
      std::printf("cache store: %s (cold start: %s)\n",
                  config.cache_dir.c_str(), cold_reason.c_str());
    } else {
      std::printf(
          "cache store: %s (warm restart: %llu entries reloaded, "
          "%llu expired, %llu torn, %llu leases demoted)\n",
          config.cache_dir.c_str(), static_cast<unsigned long long>(warm),
          static_cast<unsigned long long>(expired),
          static_cast<unsigned long long>(torn),
          static_cast<unsigned long long>(demoted));
    }
  }
  std::fflush(stdout);

  auto last_report = std::chrono::steady_clock::now();
  auto last_metrics = last_report;
  while (g_signal.load() == 0) {
    // Workers serve on their own threads; this thread only runs the
    // periodic jobs (each fans a command across workers and blocks).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto now = std::chrono::steady_clock::now();
    if (!opts.serving.metrics_out.empty() &&
        now - last_metrics >=
            std::chrono::seconds(opts.serving.metrics_interval_s)) {
      last_metrics = now;
      tools::dump_metrics(rt.metrics(), opts.serving.metrics_out);
    }
    if (opts.serving.verbose && now - last_report >= std::chrono::seconds(1)) {
      last_report = now;
      const auto snapshot = rt.metrics();
      std::printf(
          "queries=%llu upstream=%llu leases=%zu entries=%zu "
          "updates_applied=%llu acks=%llu rx_overflow=%llu",
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "resolver_queries", "side", "client")),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "resolver_queries", "side", "upstream")),
          rt.live_leases(), rt.cache_entries(),
          static_cast<unsigned long long>(tools::counter_sum(
              snapshot, "lease_client_updates", "result", "applied")),
          static_cast<unsigned long long>(
              tools::counter_sum(snapshot, "lease_client_acks_sent")),
          static_cast<unsigned long long>(
              tools::counter_sum(snapshot, "udp_rx_overflow")));
      if (rt.persistent_cache()) {
        std::printf(
            " store_slots=%llu store_bytes=%llu "
            "readopt=%llu/%llu/%llu (resumed/gap/rejected)",
            static_cast<unsigned long long>(
                tools::gauge_sum(snapshot, "cache_store_slots_used")),
            static_cast<unsigned long long>(
                tools::gauge_sum(snapshot, "cache_store_file_bytes")),
            static_cast<unsigned long long>(tools::counter_sum(
                snapshot, "lease_readoption_total", "result", "resumed")),
            static_cast<unsigned long long>(tools::counter_sum(
                snapshot, "lease_readoption_total", "result", "serial_gap")),
            static_cast<unsigned long long>(tools::counter_sum(
                snapshot, "lease_readoption_total", "result", "rejected")));
      }
      std::printf("\n");
    }
  }
  const int sig = g_signal.load();
  std::printf("\nshutting down (%s)\n",
              sig == SIGTERM ? "SIGTERM" : sig == SIGINT ? "SIGINT"
                                                         : "signal");
  rt.stop();
  if (!opts.serving.metrics_out.empty()) {
    tools::dump_metrics(rt.metrics(), opts.serving.metrics_out);
    std::printf("final metrics snapshot written to %s\n",
                opts.serving.metrics_out.c_str());
  }
  std::printf("final cache: %zu entries, %zu live leases\n",
              rt.cache_entries(), rt.live_leases());
  return 0;
}
