// leaseplan — offline dynamic-lease planning from observed query rates.
//
// An operator feeds the per-(cache, record) query rates observed at an
// authoritative nameserver (one line each: "<name> <cache> <rate_qps>
// <max_lease_s>") and a budget; the tool runs the paper's §4.2 greedy
// optimizers and prints the lease assignment plus aggregate costs.
//
// Usage:
//   leaseplan --storage-budget 1000  < rates.txt   # §4.2.1 (SLP)
//   leaseplan --message-budget 50    < rates.txt   # §4.2.2
//   leaseplan --fixed 3600           < rates.txt   # fixed-length baseline
//   leaseplan --compare 1000         < rates.txt   # dynamic vs fixed table
//
// With `--metrics-out file` every evaluated scheme's aggregate costs are
// also published as leaseplan_* gauges and written as a JSON metrics
// snapshot (timestamp 0: the tool is offline, there is no clock).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/dynamic_lease.h"
#include "util/metrics.h"

using namespace dnscup;

namespace {

struct Input {
  std::vector<std::string> names;
  std::vector<core::DemandEntry> demands;
};

bool read_rates(std::istream& in, Input& input) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name;
    std::size_t cache = 0;
    core::DemandEntry d;
    if (!(is >> name >> cache >> d.rate >> d.max_lease)) {
      std::fprintf(stderr, "bad input line %zu: %s\n", lineno, line.c_str());
      return false;
    }
    d.record = input.names.size();
    d.cache = cache;
    input.names.push_back(name);
    input.demands.push_back(d);
  }
  return !input.demands.empty();
}

/// Publishes one scheme's aggregate costs into the snapshot registry.
void record_plan(metrics::MetricsRegistry& registry, const char* scheme,
                 const core::LeasePlan& plan) {
  const metrics::Labels labels{{"scheme", scheme}};
  registry.gauge("leaseplan_total_storage_leases", labels)
      .set(plan.total_storage);
  registry.gauge("leaseplan_storage_pct", labels)
      .set(plan.storage_percentage);
  registry.gauge("leaseplan_message_rate_per_s", labels)
      .set(plan.total_message_rate);
  registry.gauge("leaseplan_query_rate_pct", labels)
      .set(plan.query_rate_percentage);
}

void print_plan(const Input& input, const core::LeasePlan& plan) {
  std::printf("%-32s %-7s %-12s %-12s\n", "name", "cache", "rate q/s",
              "lease s");
  for (std::size_t i = 0; i < input.demands.size(); ++i) {
    std::printf("%-32s %-7zu %-12.4f %-12.0f\n", input.names[i].c_str(),
                input.demands[i].cache, input.demands[i].rate,
                plan.lengths[i]);
  }
  std::printf(
      "\ntotals: storage %.1f leases (%.1f%%), messages %.3f/s "
      "(%.1f%% of polling)\n",
      plan.total_storage, plan.storage_percentage, plan.total_message_rate,
      plan.query_rate_percentage);
}

}  // namespace

int main(int argc, char** argv) {
  double storage_budget = -1;
  double message_budget = -1;
  double fixed = -1;
  double compare = -1;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() { return i + 1 < argc ? std::atof(argv[++i]) : -1.0; };
    if (std::strcmp(argv[i], "--storage-budget") == 0) {
      storage_budget = next();
    } else if (std::strcmp(argv[i], "--message-budget") == 0) {
      message_budget = next();
    } else if (std::strcmp(argv[i], "--fixed") == 0) {
      fixed = next();
    } else if (std::strcmp(argv[i], "--compare") == 0) {
      compare = next();
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (storage_budget < 0 && message_budget < 0 && fixed < 0 && compare < 0) {
    std::fprintf(
        stderr,
        "usage: leaseplan --storage-budget N | --message-budget N |"
        " --fixed T | --compare N\n"
        "                 [--metrics-out file] < rates.txt\n"
        "input lines: <name> <cache-id> <rate_qps> <max_lease_s>\n");
    return 2;
  }

  metrics::MetricsRegistry registry;

  Input input;
  if (!read_rates(std::cin, input)) return 1;

  registry.counter("leaseplan_demand_pairs") += input.demands.size();

  if (storage_budget >= 0) {
    std::printf("# storage-constrained dynamic lease (budget %.1f)\n",
                storage_budget);
    const auto plan =
        core::plan_storage_constrained(input.demands, storage_budget);
    record_plan(registry, "storage_constrained", plan);
    print_plan(input, plan);
  } else if (message_budget >= 0) {
    std::printf("# communication-constrained dynamic lease (budget %.3f/s)\n",
                message_budget);
    const auto plan =
        core::plan_comm_constrained(input.demands, message_budget);
    record_plan(registry, "comm_constrained", plan);
    print_plan(input, plan);
  } else if (fixed >= 0) {
    std::printf("# fixed-length lease (%.0f s)\n", fixed);
    const auto plan = core::plan_fixed(input.demands, fixed);
    record_plan(registry, "fixed", plan);
    print_plan(input, plan);
  } else {
    const auto dynamic =
        core::plan_storage_constrained(input.demands, compare);
    std::printf("# dynamic vs fixed at equal storage (%.1f leases)\n\n",
                compare);
    std::printf("%-28s %-12s %-12s %-12s\n", "scheme", "storage",
                "messages/s", "query %");
    auto row = [](const char* name, const core::LeasePlan& plan) {
      std::printf("%-28s %-12.1f %-12.3f %-12.1f\n", name,
                  plan.total_storage, plan.total_message_rate,
                  plan.query_rate_percentage);
    };
    const auto polling = core::plan_polling(input.demands);
    row("polling (TTL only)", polling);
    record_plan(registry, "polling", polling);
    // A fixed lease tuned to land on the same storage budget.
    double lo = 1.0;
    double hi = 1e7;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = std::sqrt(lo * hi);
      if (core::plan_fixed(input.demands, mid).total_storage < compare) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const auto fixed_plan = core::plan_fixed(input.demands, lo);
    row("fixed (equal storage)", fixed_plan);
    record_plan(registry, "fixed_equal_storage", fixed_plan);
    row("dynamic (storage-constr.)", dynamic);
    record_plan(registry, "storage_constrained", dynamic);
  }

  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    const std::string json = registry.snapshot(0).to_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  return 0;
}
