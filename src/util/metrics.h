// Unified telemetry layer (the repository's observability backbone).
//
// Every module publishes its counters through a MetricsRegistry instead of
// ad-hoc `struct Stats` fields.  The design follows three constraints:
//
//  * hot-path increments are relaxed atomic bumps behind an inline handle —
//    no locks: Counter and Gauge cells are lock-free atomics so the sharded
//    runtime's worker threads and the push and control threads can bump
//    (and a scraper can read) the same cell without a data race.  Histograms stay
//    single-threaded by design (multi-threaded components snapshot them on
//    their owning thread and merge the snapshots);
//  * instruments are *registry-owned cells*; handles (Counter, Gauge,
//    HistogramMetric) are cheap shared references, so a module's public
//    `Stats` accessor can materialize a value snapshot without the module
//    holding any standalone counter field;
//  * snapshots are deterministic: entries are sorted by (name, labels) and
//    doubles are serialized with shortest-round-trip formatting, so two
//    identical seeded simulation runs produce byte-identical output.
//
// Naming convention (see DESIGN.md "Observability"):
//   <scope>_<quantity>[_<unit>]{label="value",...}
// with an "instance" label distinguishing multiple instances of a module
// (assigned in construction order via MetricsRegistry::next_instance) and
// label families for related outcomes, e.g.
//   cache_update_messages{result="sent"|"retransmit"|"acked"|"failed"}.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/stats.h"

namespace dnscup::metrics {

/// Label set of one instrument.  Kept sorted by key on registration so the
/// same labels in any order address the same instrument.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class InstrumentKind { kCounter, kGauge, kHistogram };

/// Optional fixed-bin bucketing for a HistogramMetric.  With bins == 0 the
/// instrument tracks running moments only (count/sum/mean/stddev/min/max).
struct HistogramOptions {
  double lo = 0.0;
  double hi = 0.0;
  std::size_t bins = 0;

  bool bucketed() const { return bins > 0; }
};

namespace detail {

// Counter/Gauge cells are relaxed atomics: increments never synchronize
// anything (they are pure telemetry), they only need to be free of data
// races when a worker thread and another thread (a transport's
// receive-handler thread, the push plane, a scraper) touch the same
// registry.
struct CounterCell {
  std::atomic<uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<double> value{0.0};
};

struct HistogramCell {
  util::RunningStats moments;
  std::optional<util::Histogram> buckets;
  HistogramOptions options;
};

}  // namespace detail

/// Monotonically increasing event count.  Default-constructed handles own a
/// private detached cell (usable, but invisible to any registry); handles
/// obtained from MetricsRegistry::counter share the registry's cell.
class Counter {
 public:
  Counter() : cell_(std::make_shared<detail::CounterCell>()) {}

  void inc(uint64_t n = 1) {
    cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    return cell_->value.load(std::memory_order_relaxed);
  }

  Counter& operator++() {
    inc();
    return *this;
  }
  Counter& operator+=(uint64_t n) {
    inc(n);
    return *this;
  }
  operator uint64_t() const { return value(); }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::shared_ptr<detail::CounterCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<detail::CounterCell> cell_;
};

/// Point-in-time value (occupancy, budget, high-water mark).
class Gauge {
 public:
  Gauge() : cell_(std::make_shared<detail::GaugeCell>()) {}

  void set(double v) { cell_->value.store(v, std::memory_order_relaxed); }
  void add(double d) {
    // CAS loop instead of fetch_add: atomic<double>::fetch_add is C++20
    // but not universally lock-free; this compiles to the same loop.
    double cur = cell_->value.load(std::memory_order_relaxed);
    while (!cell_->value.compare_exchange_weak(cur, cur + d,
                                               std::memory_order_relaxed)) {
    }
  }
  /// High-water-mark update: keeps the maximum of all observed values.
  void set_max(double v) {
    double cur = cell_->value.load(std::memory_order_relaxed);
    while (cur < v && !cell_->value.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const {
    return cell_->value.load(std::memory_order_relaxed);
  }
  operator double() const { return value(); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::shared_ptr<detail::GaugeCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<detail::GaugeCell> cell_;
};

/// Distribution instrument: running moments via util::RunningStats, plus
/// optional fixed bins (util::Histogram) for Prometheus bucket output.
class HistogramMetric {
 public:
  HistogramMetric() : cell_(std::make_shared<detail::HistogramCell>()) {}

  void add(double x) {
    cell_->moments.add(x);
    if (cell_->buckets.has_value()) cell_->buckets->add(x);
  }

  std::size_t count() const { return cell_->moments.count(); }
  double sum() const { return cell_->moments.sum(); }
  double mean() const { return cell_->moments.mean(); }
  double stddev() const { return cell_->moments.stddev(); }
  double min() const { return cell_->moments.min(); }
  double max() const { return cell_->moments.max(); }

  const util::RunningStats& moments() const { return cell_->moments; }
  const util::Histogram* buckets() const {
    return cell_->buckets.has_value() ? &*cell_->buckets : nullptr;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramMetric(std::shared_ptr<detail::HistogramCell> cell)
      : cell_(std::move(cell)) {}
  std::shared_ptr<detail::HistogramCell> cell_;
};

/// Immutable, sim-time-stamped export of a registry's instruments.
/// Entries are sorted by (name, labels), making every serialization
/// deterministic for a deterministic run.
struct Snapshot {
  struct HistogramData {
    uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// Bucketed form; empty when the instrument tracks moments only.
    double lo = 0.0;
    double hi = 0.0;
    std::vector<uint64_t> bucket_counts;

    bool operator==(const HistogramData&) const = default;
  };

  struct Entry {
    std::string name;
    Labels labels;
    InstrumentKind kind = InstrumentKind::kCounter;
    uint64_t counter_value = 0;
    double gauge_value = 0.0;
    HistogramData histogram;

    bool operator==(const Entry&) const = default;
  };

  int64_t timestamp_us = 0;  ///< sim time at capture (window end for diffs)
  std::vector<Entry> entries;

  bool operator==(const Snapshot&) const = default;

  /// Entry lookup by exact name + labels; nullptr when absent.
  const Entry* find(std::string_view name, const Labels& labels = {}) const;

  /// Sum of counter_value over all entries of `name` (any labels), e.g.
  /// collapsing a label family to its total.
  uint64_t counter_total(std::string_view name) const;

  /// Per-window delta `after - before`: counters and histogram counts/sums
  /// subtract (clamped at zero), gauges and distribution moments
  /// (stddev/min/max) keep the `after` value.  Entries absent from `before`
  /// are copied from `after` unchanged.
  static Snapshot diff(const Snapshot& before, const Snapshot& after);

  /// Aggregates `other` into this snapshot (shard merging): counters and
  /// gauges add, histogram moments merge exactly (Welford), bucket counts
  /// add when shapes match.  Entries new in `other` are inserted.
  void merge(const Snapshot& other);

  std::string to_json() const;
  std::string to_prometheus() const;

  /// Parses exactly the schema to_json emits (round-trip safe).
  static util::Result<Snapshot> from_json(std::string_view text);
};

/// Central instrument registry.  Registering the same (name, labels) twice
/// returns a handle to the same cell, so independent modules may share an
/// aggregate family; per-instance metrics disambiguate with an "instance"
/// label (next_instance).  Not thread-safe by design — registration and
/// snapshotting happen on the protocol thread.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(std::string_view name, Labels labels = {});
  Gauge gauge(std::string_view name, Labels labels = {});
  HistogramMetric histogram(std::string_view name, Labels labels = {},
                            HistogramOptions options = {});

  /// Sequential instance id per scope ("auth_server" -> "0", "1", ...),
  /// deterministic under deterministic construction order.
  std::string next_instance(std::string_view scope);

  Snapshot snapshot(int64_t timestamp_us = 0) const;

  std::size_t instrument_count() const { return instruments_.size(); }

 private:
  struct Instrument {
    InstrumentKind kind = InstrumentKind::kCounter;
    std::shared_ptr<detail::CounterCell> counter;
    std::shared_ptr<detail::GaugeCell> gauge;
    std::shared_ptr<detail::HistogramCell> histogram;
  };

  std::map<std::pair<std::string, Labels>, Instrument> instruments_;
  std::map<std::string, uint64_t, std::less<>> instance_counters_;
};

/// Process-wide fallback registry used by modules constructed without an
/// explicit registry (tests, small examples).  Simulations that need
/// isolated, reproducible snapshots own their registry and pass it down.
MetricsRegistry& default_registry();

inline MetricsRegistry& resolve(MetricsRegistry* registry) {
  return registry != nullptr ? *registry : default_registry();
}

}  // namespace dnscup::metrics
