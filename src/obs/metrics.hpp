// Scoped metrics: typed counters, gauges, and histograms.
//
// A registry is the sink for every quantitative observation the library
// makes about itself (cache hits, nets extracted, anneal moves, pool
// jobs...). Registries are *instances* — one per ObsScope (obs/scope.hpp)
// — so concurrent sessions in one process observe into disjoint stores;
// `MetricsRegistry::instance()` resolves to the current scope's registry,
// which for unscoped code is the process-wide default. Design
// constraints, in order:
//
//   * Hot-path writes are lock-free: counter/histogram updates land in a
//     per-(thread, registry) shard (plain relaxed atomics the owning
//     thread never contends on); snapshot() merges the shards. Shards are
//     owned by the registry, so nothing is lost when a thread exits and
//     everything is freed when the registry (its scope / session) dies.
//   * Metric *names* live in one process-global name table shared by all
//     registries: the per-call-site `static const int id` the macros
//     cache is a name-table index, valid against any registry.
//   * Zero overhead when disabled: every instrumentation macro first
//     reads one atomic flag and touches nothing else — no clock, no
//     registration, no thread-local setup, no allocation
//     (tests/obs_test.cpp pins the no-allocation guarantee).
//   * Fixed capacity: metric slots are preallocated arrays, so shard
//     updates never race a container growth. Exceeding a capacity throws
//     at registration time (a programming error, not a runtime state).
//
// Naming convention (DESIGN.md §7): lowercase dotted paths, subsystem
// first — "extract.geometry.builds", "ndr.exact_cache.hits",
// "anneal.proposed", "pool.jobs". Hot loops that cannot afford even a
// relaxed atomic per event keep a local plain counter and flush the
// delta at a natural boundary (see AssignmentState::flush_metrics).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sndr::obs {

/// Global metrics switch (default: on). Disabling makes every macro and
/// registry write below a single relaxed load + branch.
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// hits/total-style ratio that reports 0.0 instead of dividing by zero
/// (greedy models-mode flows legitimately make zero exact evals).
inline double safe_ratio(std::int64_t num, std::int64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

class MetricsRegistry {
 public:
  // Capacities are deliberate hard caps: shards are fixed arrays so the
  // lock-free write path never races a resize.
  static constexpr int kMaxCounters = 256;
  static constexpr int kMaxGauges = 128;
  static constexpr int kMaxHistograms = 64;
  /// Power-of-two histogram buckets: bucket i spans [2^(i-kBucketBias),
  /// 2^(i+1-kBucketBias)); index 0 also absorbs zero/negative/underflow.
  static constexpr int kHistBuckets = 96;
  static constexpr int kBucketBias = 80;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The current scope's registry (ObsScope::current().metrics()); the
  /// process-wide default when no scope is bound to this thread.
  static MetricsRegistry& instance();

  /// Register-or-lookup by name in the process-global name table; returns
  /// a stable id valid for the write calls on *any* registry instance. A
  /// name is bound to one type — reusing it with another type throws.
  int counter(const std::string& name);
  int gauge(const std::string& name);
  int histogram(const std::string& name);

  void add(int counter_id, std::int64_t delta);
  void set(int gauge_id, double value);
  void observe(int histogram_id, double value);

  struct HistogramSnapshot {
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< meaningful only when count > 0.
    double max = 0.0;
    /// Sparse nonzero buckets as (lower bound, count), ascending.
    std::vector<std::pair<double, std::int64_t>> buckets;
  };

  /// Folds a whole histogram into histogram `histogram_id`: counts and
  /// buckets add, the sum adds once, min/max combine. A no-op when empty.
  void merge(int histogram_id, const HistogramSnapshot& hs);

  /// A merged, name-sorted view of every registered metric.
  struct Snapshot {
    std::vector<std::pair<std::string, std::int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

    /// Counter value by name (0 when absent) — convenient for tests.
    std::int64_t counter(const std::string& name) const;
    double gauge(const std::string& name) const;
    /// Histogram by name, or null when absent (tests asserting the
    /// per-job serve histograms / DSE reuse distributions).
    const HistogramSnapshot* histogram(const std::string& name) const;
  };
  Snapshot snapshot() const;

  /// Folds another registry's snapshot into this one: counters add,
  /// histograms merge (count/sum/min/max/buckets), gauges last-write-wins.
  /// This is how a server aggregates per-job scopes into one server-level
  /// registry — take each finished job's snapshot and accumulate it; the
  /// union is then visible through this registry's own snapshot().
  void accumulate(const Snapshot& snap);

  /// Zeroes every value in this registry (name registrations are global
  /// and survive). Testing / run isolation only; concurrent writers may
  /// leak observations into the new epoch.
  void reset();

  /// Inclusive lower bound of histogram bucket `i`.
  static double bucket_lower_bound(int i);
  /// The bucket observe() files `value` under.
  static int bucket_index(double value);

  // Implementation detail (defined in metrics.cpp); public only so the
  // thread-local shard cache can hold Shard pointers.
  struct Shard;

 private:
  Shard* local_shard();

  const std::uint64_t uid_;  ///< process-unique, never reused.
  mutable std::mutex mutex_;  ///< shard list, snapshot, reset.
  /// One shard per writing thread, owned here (freed with the registry).
  std::vector<std::pair<std::thread::id, std::unique_ptr<Shard>>> shards_;
  std::array<std::atomic<double>, kMaxGauges> gauges_{};
};

/// A histogram one owner fills with plain arithmetic and merges into a
/// registry once (SNDR_HISTOGRAM_MERGE), for loops where even a relaxed
/// atomic per observation shows in a profile. It keeps what observe()
/// keeps (count, sum in observation order, min, max, buckets), so merged
/// into an empty histogram it reads exactly as per-value observations.
class LocalHistogram {
 public:
  void observe(double value) {
    ++count_;
    sum_ += value;
    if (value < min_) min_ = value;
    if (value > max_) max_ = value;
    ++buckets_[MetricsRegistry::bucket_index(value)];
  }

  MetricsRegistry::HistogramSnapshot snapshot() const;

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  std::array<std::int64_t, MetricsRegistry::kHistBuckets> buckets_{};
};

}  // namespace sndr::obs

// Instrumentation macros. `name` must be a string literal (or otherwise
// live forever); the registry id resolves once per call site and is valid
// for every registry instance (global name table).
#define SNDR_OBS_CONCAT2(a, b) a##b
#define SNDR_OBS_CONCAT(a, b) SNDR_OBS_CONCAT2(a, b)

#define SNDR_COUNTER_ADD(name, delta)                                     \
  do {                                                                    \
    if (::sndr::obs::metrics_enabled()) {                                 \
      static const int SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__) =          \
          ::sndr::obs::MetricsRegistry::instance().counter(name);         \
      ::sndr::obs::MetricsRegistry::instance().add(                       \
          SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__), (delta));              \
    }                                                                     \
  } while (0)

#define SNDR_GAUGE_SET(name, value)                                       \
  do {                                                                    \
    if (::sndr::obs::metrics_enabled()) {                                 \
      static const int SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__) =          \
          ::sndr::obs::MetricsRegistry::instance().gauge(name);           \
      ::sndr::obs::MetricsRegistry::instance().set(                       \
          SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__), (value));              \
    }                                                                     \
  } while (0)

#define SNDR_HISTOGRAM_OBSERVE(name, value)                               \
  do {                                                                    \
    if (::sndr::obs::metrics_enabled()) {                                 \
      static const int SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__) =          \
          ::sndr::obs::MetricsRegistry::instance().histogram(name);       \
      ::sndr::obs::MetricsRegistry::instance().observe(                   \
          SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__), (value));              \
    }                                                                     \
  } while (0)

#define SNDR_HISTOGRAM_MERGE(name, local)                                 \
  do {                                                                    \
    if (::sndr::obs::metrics_enabled()) {                                 \
      static const int SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__) =          \
          ::sndr::obs::MetricsRegistry::instance().histogram(name);       \
      ::sndr::obs::MetricsRegistry::instance().merge(                     \
          SNDR_OBS_CONCAT(sndr_obs_id_, __LINE__), (local).snapshot());   \
    }                                                                     \
  } while (0)
