// Shared CLI plumbing for the daemon tools (dnscupd, dnscached) and the
// load generator (dnsflood): the serving flags every daemon grows
// identically (--workers/--batch/--io-backend/--pin-cpus/...), strict
// numeric flag parsing, metrics dump/aggregation helpers, and the
// "listening" banner supervisors and check.sh wait for.  Header-only;
// tools/ is the only consumer.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/endpoint.h"
#include "net/io_backend.h"
#include "runtime/worker_pool.h"
#include "util/metrics.h"

namespace dnscup::tools {

/// Reads the value of a numeric flag strictly: the whole of `text` must
/// be a T within [lo, hi].  Unlike atoi/atof, which read "5k" as 5 and
/// "abc" as 0, an empty, non-numeric, trailing-garbage, out-of-range or
/// overflowing value is rejected (with a message naming the flag) and
/// `out` is left untouched.  A missing value (null `text`) is rejected
/// silently, like every other flag-parse error.
template <typename T>
bool parse_number(const char* flag, const char* text, T lo, T hi, T& out) {
  if (text == nullptr) return false;
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // The negated range test also rejects NaN.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "bad %s value '%s'\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

/// Parses "0,2,4" into CPU ids.  Rejects empty lists, stray characters
/// and negative ids.
inline std::optional<std::vector<int>> parse_pin_cpus(const char* text) {
  std::vector<int> cpus;
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const long cpu = std::strtol(p, &end, 10);
    if (end == p || cpu < 0 || cpu > 4096) return std::nullopt;
    cpus.push_back(static_cast<int>(cpu));
    p = end;
    if (*p == ',') {
      ++p;
      if (*p == '\0') return std::nullopt;  // trailing comma
    } else if (*p != '\0') {
      return std::nullopt;
    }
  }
  if (cpus.empty()) return std::nullopt;
  return cpus;
}

/// Upper bounds of the shared serving flags' values.
inline constexpr int kMaxWorkers = 1024;
inline constexpr int kMaxBatch = 4096;  ///< datagrams per worker iteration
inline constexpr int kMaxSocketBuffer = 1 << 30;  ///< bytes; 0 = OS default
inline constexpr int64_t kMaxMetricsInterval = 86400;  ///< seconds

/// The serving knobs dnscupd and dnscached share verbatim.  Each tool
/// embeds one (with its own default port), feeds unrecognised args to
/// parse_serving_flag() first, and copies the result into its runtime
/// Config via apply().
struct ServingFlags {
  explicit ServingFlags(uint16_t default_port) : port(default_port) {}

  uint16_t port;
  int workers = 1;
  bool reuseport = true;
  int batch = 32;  ///< datagrams served per worker iteration / tx flush
  int rcvbuf = 1 << 20;
  int sndbuf = 1 << 20;
  net::IoBackendKind io_backend = net::IoBackendKind::kDefault;
  std::vector<int> pin_cpus;
  bool dnscup = true;
  bool verbose = false;
  std::string metrics_out;  ///< empty: no metrics dumps
  int64_t metrics_interval_s = 10;

  // Connection-oriented push plane (src/push).  --push-plane enables it
  // on either daemon; dnscupd additionally honours --push-listen (its
  // TCP subscription port, 0 = ephemeral) and dnscached --push-authority
  // (the authority's push listener, printed in dnscupd's banner).  These
  // are wired per daemon, not via apply(): the config fields differ.
  bool push_plane = false;
  uint16_t push_listen = 0;
  net::Endpoint push_authority{};

  /// Copies the worker-pool settings into either daemon's runtime
  /// Config; each daemon copies `dnscup` itself.
  void apply(runtime::PoolConfig& config) const {
    config.port = port;
    config.workers = workers;
    config.reuseport = reuseport;
    config.batch_size = static_cast<std::size_t>(batch);
    config.rcvbuf_bytes = rcvbuf;
    config.sndbuf_bytes = sndbuf;
    config.io_backend = io_backend;
    config.pin_cpus = pin_cpus;
  }
};

enum class FlagParse {
  kMatched,    ///< consumed (possibly with its value argument)
  kError,      ///< matched but the value is missing/invalid
  kUnmatched,  ///< not a shared flag; the tool should try its own
};

/// Tries `arg` against the shared serving flags.  `next` yields the next
/// argv entry (consuming it) or nullptr — the same closure the tools
/// already use for their private flags.  Numeric values parse strictly
/// (parse_number): "--port 70000" or "--batch 32x" is an error, never a
/// wrapped or truncated value.
inline FlagParse parse_serving_flag(const std::string& arg,
                                    const std::function<const char*()>& next,
                                    ServingFlags& flags) {
  const char* v = nullptr;
  if (arg == "--port") {
    int port = 0;
    if (!parse_number("--port", next(), 0, 65535, port)) {
      return FlagParse::kError;
    }
    flags.port = static_cast<uint16_t>(port);
  } else if (arg == "--workers") {
    if (!parse_number("--workers", next(), 1, kMaxWorkers, flags.workers)) {
      return FlagParse::kError;
    }
  } else if (arg == "--no-reuseport") {
    flags.reuseport = false;
  } else if (arg == "--batch") {
    if (!parse_number("--batch", next(), 1, kMaxBatch, flags.batch)) {
      return FlagParse::kError;
    }
  } else if (arg == "--rcvbuf") {
    if (!parse_number("--rcvbuf", next(), 0, kMaxSocketBuffer, flags.rcvbuf)) {
      return FlagParse::kError;
    }
  } else if (arg == "--sndbuf") {
    if (!parse_number("--sndbuf", next(), 0, kMaxSocketBuffer, flags.sndbuf)) {
      return FlagParse::kError;
    }
  } else if (arg == "--io-backend") {
    if ((v = next()) == nullptr) return FlagParse::kError;
    const auto kind = net::parse_io_backend_kind(v);
    if (!kind.has_value()) {
      std::fprintf(stderr, "bad --io-backend %s (portable|uring|default)\n",
                   v);
      return FlagParse::kError;
    }
    flags.io_backend = *kind;
  } else if (arg == "--pin-cpus") {
    if ((v = next()) == nullptr) return FlagParse::kError;
    const auto cpus = parse_pin_cpus(v);
    if (!cpus.has_value()) {
      std::fprintf(stderr, "bad --pin-cpus %s (want e.g. 0,1,2)\n", v);
      return FlagParse::kError;
    }
    flags.pin_cpus = *cpus;
  } else if (arg == "--no-dnscup") {
    flags.dnscup = false;
  } else if (arg == "--metrics-out") {
    if ((v = next()) == nullptr) return FlagParse::kError;
    flags.metrics_out = v;
  } else if (arg == "--metrics-interval") {
    if (!parse_number("--metrics-interval", next(), int64_t{1},
                      kMaxMetricsInterval, flags.metrics_interval_s)) {
      return FlagParse::kError;
    }
  } else if (arg == "--push-plane") {
    flags.push_plane = true;
  } else if (arg == "--push-listen") {
    int port = 0;
    if (!parse_number("--push-listen", next(), 0, 65535, port)) {
      return FlagParse::kError;
    }
    flags.push_listen = static_cast<uint16_t>(port);
    flags.push_plane = true;
  } else if (arg == "--push-authority") {
    if ((v = next()) == nullptr) return FlagParse::kError;
    std::string error;
    const auto endpoint = net::parse_endpoint(v, &error);
    if (!endpoint.has_value()) {
      std::fprintf(stderr, "--push-authority: %s\n", error.c_str());
      return FlagParse::kError;
    }
    flags.push_authority = *endpoint;
    flags.push_plane = true;
  } else if (arg == "--verbose") {
    flags.verbose = true;
  } else {
    return FlagParse::kUnmatched;
  }
  return FlagParse::kMatched;
}

/// dnsq's query flags.
struct QueryFlags {
  bool ext = false;
  uint16_t rrc = 0;  ///< whole queries per hour; 0 = "no demand"
  int timeout_ms = 2000;
};

/// Tries `arg` against dnsq's query flags.  `peek` is the argv entry
/// after `arg` (nullptr at the end) and `next` consumes it.  `--ext`
/// takes an optional RRC, consumed only when the next entry starts with
/// a digit (so `--ext A` still reads A as the query type); the RRC and
/// `--timeout` parse strictly, so `--ext 0.5` is an error, not RRC 0.
inline FlagParse parse_query_flag(const std::string& arg, const char* peek,
                                  const std::function<const char*()>& next,
                                  QueryFlags& flags) {
  if (arg == "--ext") {
    flags.ext = true;
    if (peek != nullptr && *peek >= '0' && *peek <= '9' &&
        !parse_number("--ext", next(), uint16_t{0}, uint16_t{65535},
                      flags.rrc)) {
      return FlagParse::kError;
    }
  } else if (arg == "--timeout") {
    if (!parse_number("--timeout", next(), 1, 3600 * 1000,
                      flags.timeout_ms)) {
      return FlagParse::kError;
    }
  } else {
    return FlagParse::kUnmatched;
  }
  return FlagParse::kMatched;
}

/// Usage text for the shared flags (one fragment both daemons print).
inline constexpr const char* kServingUsage =
    "               [--workers N] [--no-reuseport] [--batch N]\n"
    "               [--rcvbuf bytes] [--sndbuf bytes]\n"
    "               [--io-backend portable|uring] [--pin-cpus 0,1,...]\n"
    "               [--no-dnscup] [--verbose]\n"
    "               [--metrics-out file] [--metrics-interval seconds]\n"
    "               [--push-plane] [--push-listen port]\n"
    "               [--push-authority a.b.c.d:port]\n";

/// Writes the snapshot JSON to `path` (truncate + replace).
inline void dump_metrics(const metrics::Snapshot& snapshot,
                         const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "metrics dump failed: cannot open %s\n",
                 path.c_str());
    return;
  }
  const std::string json = snapshot.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

/// Sum of all counters named `name` whose labels contain (key, value);
/// any (key, value) when key is null.  Collapses per-worker instances.
inline uint64_t counter_sum(const metrics::Snapshot& snapshot,
                            const char* name, const char* key = nullptr,
                            const char* value = nullptr) {
  uint64_t total = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.kind != metrics::InstrumentKind::kCounter) continue;
    if (entry.name != name) continue;
    if (key != nullptr) {
      bool match = false;
      for (const auto& [k, v] : entry.labels) {
        if (k == key && v == value) {
          match = true;
          break;
        }
      }
      if (!match) continue;
    }
    total += entry.counter_value;
  }
  return total;
}

/// Sum of all gauges named `name`, collapsing per-worker instances
/// (e.g. cache_store_slots_used across shard files).
inline double gauge_sum(const metrics::Snapshot& snapshot, const char* name) {
  double total = 0;
  for (const auto& entry : snapshot.entries) {
    if (entry.kind != metrics::InstrumentKind::kGauge) continue;
    if (entry.name != name) continue;
    total += entry.gauge_value;
  }
  return total;
}

/// The "listening" banner.  Supervisors (and check.sh) wait for this
/// line; both daemons print the same shape, including the I/O backend
/// actually serving (after any uring→portable fallback).
inline void print_listening(const char* daemon, bool reuseport_active,
                            const std::vector<net::Endpoint>& endpoints,
                            int workers, bool dnscup,
                            std::string_view backend) {
  const char* mode = dnscup ? "DNScup enabled" : "plain TTL";
  if (reuseport_active) {
    std::printf("%s listening on %s, %d workers (SO_REUSEPORT; %s; io=%.*s)\n",
                daemon, endpoints[0].to_string().c_str(), workers, mode,
                static_cast<int>(backend.size()), backend.data());
  } else {
    std::printf("%s: %d workers on per-worker ports (%s; io=%.*s):\n", daemon,
                workers, mode, static_cast<int>(backend.size()),
                backend.data());
    for (const auto& endpoint : endpoints) {
      std::printf("  %s\n", endpoint.to_string().c_str());
    }
  }
  // Make the banner visible even when stdout is a pipe or file (fully
  // buffered).
  std::fflush(stdout);
}

}  // namespace dnscup::tools
