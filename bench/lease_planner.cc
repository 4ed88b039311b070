// Online lease-planner bench (src/planner): the storage/communication
// tradeoff at nameserver scale plus the cost of keeping the plan fresh.
//
// Per scale (default 1M and 10M (cache, record) pairs):
//
//   * demand table  — grow a sharded DemandShard from empty to every
//     pair and measure writer upsert (index rebuilds included) and reader
//     probe throughput (the workers' hazard-slot probe), plus the bytes
//     per pair the table holds: memory follows the pairs, reads take no
//     lock.
//   * tradeoff curves — sweep the storage budget (fraction of the pair
//     count) through plan_storage_constrained and the message budget
//     (fraction of the polling maximum Σλ) through plan_comm_constrained,
//     recording the paper's §5.1.2 relative metrics.  Polling and a
//     fixed-length lease ride along as baselines.
//   * incremental vs full replan — build IncrementalSlp /
//     IncrementalDeprivation one update at a time, then measure the
//     latency of random single-pair updates (p50/p99) against the cost
//     of a full batch replan over the same entries.  The ratio is the
//     case for incremental maintenance: a replan at 10M pairs costs
//     seconds, a single-pair repair costs microseconds.
//
// Demand synthesis: λ log-uniform over [1e-4, 10] q/s (the trace-derived
// spread between one-lookup-a-few-hours resolvers and hot shared caches);
// maximal leases follow the paper's record-stability mix — 90% stable
// records (6-day horizon), 5% volatile (200 s), 5% in between (6000 s).
//
// Usage: lease_planner [--pairs 1000000,10000000] [--updates 200000]
//                      [--seed 42] [--out BENCH_lease_planner.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/dynamic_lease.h"
#include "planner/demand_table.h"
#include "planner/incremental_plan.h"
#include "util/rng.h"

namespace dnscup {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Demands {
  std::vector<core::DemandEntry> entries;
  double total_rate = 0.0;
};

double sample_rate(util::Rng& rng) {
  return std::exp(rng.uniform_real(std::log(1e-4), std::log(10.0)));
}

double sample_max_lease(util::Rng& rng) {
  const double mix = rng.uniform_real(0.0, 1.0);
  if (mix < 0.90) return 518400.0;  // stable record, 6-day horizon
  if (mix < 0.95) return 200.0;     // volatile record
  return 6000.0;
}

Demands make_demands(std::size_t pairs, util::Rng& rng) {
  Demands d;
  d.entries.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    core::DemandEntry entry;
    entry.record = i;
    entry.cache = i;
    entry.rate = sample_rate(rng);
    entry.max_lease = sample_max_lease(rng);
    d.entries.push_back(entry);
    d.total_rate += entry.rate;
  }
  return d;
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// Demand-table leg: growth from empty + lock-free probe throughput.
std::string bench_table(std::size_t pairs, util::Rng& rng) {
  const int shards = 8;
  // Keys split binomially over the shards; the ceiling allocates
  // nothing, so every shard may take them all.
  std::vector<std::unique_ptr<planner::DemandShard>> table;
  for (int s = 0; s < shards; ++s) {
    table.push_back(std::make_unique<planner::DemandShard>(pairs));
  }
  std::vector<uint64_t> keys;
  keys.reserve(pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    keys.push_back(
        static_cast<uint64_t>(rng.uniform_int(1, INT64_MAX)));
  }

  const auto t0 = Clock::now();
  std::size_t inserted_count = 0;
  for (uint64_t key : keys) {
    bool inserted = false;
    planner::DemandShard& shard = *table[(key >> 56) % shards];
    const uint32_t id = shard.upsert(key, &inserted);
    if (id != planner::DemandShard::kNoPair && inserted) {
      shard.set_planned(id, 0);
      ++inserted_count;
    }
  }
  const double populate_s = seconds_since(t0);
  for (auto& shard : table) shard->collect({});

  // Reader probes over existing keys, in a scrambled order so the probe
  // pattern is cache-hostile like a live worker's.
  const std::size_t probes = std::min<std::size_t>(pairs, 2'000'000);
  planner::DemandShard::HazardSlot hazard{nullptr};
  uint64_t found = 0;
  const auto t1 = Clock::now();
  for (std::size_t i = 0; i < probes; ++i) {
    const uint64_t key = keys[(i * 0x9E3779B97F4A7C15ull) % keys.size()];
    found += table[(key >> 56) % shards]->find(key, hazard) !=
             planner::kUnplannedBits;
  }
  const double probe_s = seconds_since(t1);

  std::size_t bytes = 0;
  for (const auto& shard : table) bytes += shard->bytes();
  const double per_pair =
      static_cast<double>(bytes) / static_cast<double>(inserted_count);
  std::printf("  table: %zu pairs in %d shards (%.0f MiB, %.1f B/pair): "
              "%.2fM upserts/s, %.2fM finds/s\n",
              inserted_count, shards, static_cast<double>(bytes) / (1 << 20),
              per_pair, inserted_count / populate_s / 1e6,
              probes / probe_s / 1e6);
  std::string json = "      \"table\": {\"shards\": 8";
  json += ", \"inserted\": " + std::to_string(inserted_count);
  json += ", \"table_bytes\": " + std::to_string(bytes);
  json += ", \"bytes_per_pair\": " + fmt("%.1f", per_pair);
  json += ", \"upserts_per_s\": " + fmt("%.0f", inserted_count / populate_s);
  json += ", \"finds_per_s\": " + fmt("%.0f", probes / probe_s);
  json += ", \"found\": " + std::to_string(found) + "}";
  return json;
}

/// One batch-planner sweep; returns the JSON array of curve points.
std::string sweep(const Demands& d, bool storage_mode,
                  const std::vector<double>& fractions) {
  std::string json = "[\n";
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double frac = fractions[i];
    const double budget =
        storage_mode ? frac * static_cast<double>(d.entries.size())
                     : frac * d.total_rate;
    const auto t0 = Clock::now();
    const core::LeasePlan plan =
        storage_mode ? core::plan_storage_constrained(d.entries, budget)
                     : core::plan_comm_constrained(d.entries, budget);
    const double plan_s = seconds_since(t0);
    std::printf("  %s frac %.2f: storage %6.2f%%  messages %6.2f%% "
                "(batch plan %.2f s)\n",
                storage_mode ? "storage" : "   comm", frac,
                plan.storage_percentage, plan.query_rate_percentage, plan_s);
    json += "        {\"budget_frac\": " + fmt("%.2f", frac);
    json += ", \"budget\": " + fmt("%.4f", budget);
    json += ", \"storage_pct\": " + fmt("%.4f", plan.storage_percentage);
    json += ", \"message_pct\": " + fmt("%.4f", plan.query_rate_percentage);
    json += ", \"message_rate\": " + fmt("%.4f", plan.total_message_rate);
    json += ", \"plan_s\": " + fmt("%.4f", plan_s) + "}";
    if (i + 1 < fractions.size()) json += ",";
    json += "\n";
  }
  json += "      ]";
  return json;
}

/// Incremental-planner leg: build cost, single-update p50/p99, replan.
std::string bench_incremental(const Demands& d, bool storage_mode,
                              std::size_t updates, util::Rng& rng) {
  const double budget =
      storage_mode ? 0.2 * static_cast<double>(d.entries.size())
                   : 0.5 * d.total_rate;
  std::unique_ptr<planner::IncrementalPlanner> inc;
  if (storage_mode) {
    inc = std::make_unique<planner::IncrementalSlp>(d.entries.size(), budget);
  } else {
    inc = std::make_unique<planner::IncrementalDeprivation>(d.entries.size(),
                                                            budget);
  }

  std::vector<uint32_t> dirty;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < d.entries.size(); ++i) {
    dirty.clear();
    inc->update(static_cast<uint32_t>(i), d.entries[i].rate,
                d.entries[i].max_lease, &dirty);
  }
  const double build_s = seconds_since(t0);

  // Random single-pair demand changes against the fully loaded planner.
  std::vector<int64_t> latencies_ns;
  latencies_ns.reserve(updates);
  for (std::size_t i = 0; i < updates; ++i) {
    const auto id = static_cast<uint32_t>(
        rng.uniform_int(0, static_cast<int64_t>(d.entries.size()) - 1));
    const double rate = sample_rate(rng);
    const double max_lease = d.entries[id].max_lease;
    dirty.clear();
    const auto start = Clock::now();
    inc->update(id, rate, max_lease, &dirty);
    latencies_ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  }
  std::sort(latencies_ns.begin(), latencies_ns.end());
  const int64_t p50 = latencies_ns[latencies_ns.size() / 2];
  const int64_t p99 = latencies_ns[latencies_ns.size() * 99 / 100];

  const auto t1 = Clock::now();
  inc->replan();
  const double replan_s = seconds_since(t1);

  std::printf("  incremental %s: build %.2f s, update p50 %lld ns "
              "p99 %lld ns, full replan %.2f s (%.0fx a p99 update)\n",
              storage_mode ? "slp" : "deprivation", build_s,
              static_cast<long long>(p50), static_cast<long long>(p99),
              replan_s, replan_s * 1e9 / static_cast<double>(p99));
  std::string json = "{";
  json += "\"budget\": " + fmt("%.4f", budget);
  json += ", \"build_s\": " + fmt("%.4f", build_s);
  json += ", \"updates\": " + std::to_string(updates);
  json += ", \"update_p50_ns\": " + std::to_string(p50);
  json += ", \"update_p99_ns\": " + std::to_string(p99);
  json += ", \"replan_s\": " + fmt("%.4f", replan_s);
  json += ", \"granted\": " + std::to_string(inc->granted());
  json += ", \"cost_used\": " + fmt("%.4f", inc->cost_used()) + "}";
  return json;
}

}  // namespace
}  // namespace dnscup

int main(int argc, char** argv) {
  using namespace dnscup;

  std::vector<std::size_t> scales = {1'000'000, 10'000'000};
  std::size_t updates = 200'000;
  uint64_t seed = 42;
  std::string out_path = "BENCH_lease_planner.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--pairs") == 0) {
      scales.clear();
      const char* p = argv[i + 1];
      while (*p != '\0') {
        scales.push_back(static_cast<std::size_t>(std::atoll(p)));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--updates") == 0) {
      updates = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = argv[i + 1];
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  bench::heading("online lease planner: table, tradeoff curves, "
                 "incremental vs replan");
  const std::vector<double> fractions = {0.02, 0.05, 0.1, 0.2,
                                         0.4,  0.6,  0.8};

  std::string json = "{\n  \"bench\": \"lease_planner\",\n";
  json += "  \"seed\": " + std::to_string(seed) + ",\n";
  json += "  \"rate_distribution\": \"log-uniform 1e-4..10 qps\",\n";
  json += "  \"max_lease_mix\": \"90% 518400s, 5% 200s, 5% 6000s\",\n";
  json += "  \"scales\": [\n";

  bool first = true;
  for (std::size_t pairs : scales) {
    bench::subheading(std::to_string(pairs) + " pairs");
    util::Rng rng(seed);
    const Demands d = make_demands(pairs, rng);
    std::printf("  Σλ = %.0f q/s over %zu pairs\n", d.total_rate,
                d.entries.size());

    if (!first) json += ",\n";
    first = false;
    json += "    {\n      \"pairs\": " + std::to_string(pairs) + ",\n";
    json += "      \"total_rate_qps\": " + fmt("%.2f", d.total_rate) + ",\n";
    json += bench_table(pairs, rng) + ",\n";
    json += "      \"storage_curve\": " + sweep(d, true, fractions) + ",\n";
    json += "      \"comm_curve\": " + sweep(d, false, fractions) + ",\n";

    const core::LeasePlan polling = core::plan_polling(d.entries);
    const core::LeasePlan fixed = core::plan_fixed(d.entries, 3600.0);
    std::printf("  baselines: polling %.0f msg/s; fixed 3600 s storage "
                "%.2f%% messages %.2f%%\n",
                polling.total_message_rate, fixed.storage_percentage,
                fixed.query_rate_percentage);
    json += "      \"polling_message_rate\": " +
            fmt("%.4f", polling.total_message_rate) + ",\n";
    json += "      \"fixed_3600\": {\"storage_pct\": " +
            fmt("%.4f", fixed.storage_percentage) + ", \"message_pct\": " +
            fmt("%.4f", fixed.query_rate_percentage) + "},\n";

    json += "      \"incremental_slp\": " +
            bench_incremental(d, true, updates, rng) + ",\n";
    json += "      \"incremental_deprivation\": " +
            bench_incremental(d, false, updates, rng) + "\n    }";
  }
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nresult written to %s\n", out_path.c_str());
  return 0;
}
