#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "obs/scope.hpp"

namespace sndr::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

/// Relaxed add for atomic<double> via CAS (portable across libstdc++
/// versions that predate floating fetch_add).
void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// One thread's lock-free slice of every metric in one registry. All slots
/// are atomics so snapshot() may read them from another thread; the owning
/// thread is the only writer (except reset(), which is test-only by
/// contract).
struct MetricsRegistry::Shard {
  std::array<std::atomic<std::int64_t>, kMaxCounters> counters{};
  struct Hist {
    std::atomic<std::int64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
    std::array<std::atomic<std::int64_t>, kHistBuckets> buckets{};
  };
  std::array<Hist, kMaxHistograms> hists;

  void zero() {
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0.0, std::memory_order_relaxed);
      h.min.store(std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      h.max.store(-std::numeric_limits<double>::infinity(),
                  std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
};

namespace {

/// The process-global name table shared by every registry instance. Lives
/// in one leaked block so registration can happen at any point of static
/// construction/destruction.
struct NameTable {
  std::mutex mutex;
  std::map<std::string, int> counter_ids;
  std::map<std::string, int> gauge_ids;
  std::map<std::string, int> hist_ids;
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
};

NameTable& names() {
  static NameTable* t = new NameTable();  // leaked: see comment above.
  return *t;
}

int register_name(std::map<std::string, int>& ids,
                  std::vector<std::string>& names_out,
                  const std::string& name, int cap, const char* kind,
                  const NameTable& table) {
  const auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  // One name, one type: collisions across kinds are programming errors.
  const int in_others = (table.counter_ids.count(name) ? 1 : 0) +
                        (table.gauge_ids.count(name) ? 1 : 0) +
                        (table.hist_ids.count(name) ? 1 : 0);
  if (in_others > 0) {
    throw std::logic_error("obs: metric '" + name +
                           "' already registered with another type");
  }
  if (static_cast<int>(names_out.size()) >= cap) {
    throw std::runtime_error(std::string("obs: too many ") + kind +
                             " metrics (cap reached)");
  }
  const int id = static_cast<int>(names_out.size());
  names_out.push_back(name);
  ids.emplace(name, id);
  return id;
}

std::atomic<std::uint64_t> g_next_registry_uid{1};

/// One-entry per-thread cache of the last (registry, shard) pair this
/// thread wrote to. Validated by registry uid (uids are never reused), so
/// a stale entry for a destroyed registry can never be dereferenced. No
/// destructor: shards are registry-owned, thread exit needs no hook.
struct TlsShardCache {
  std::uint64_t uid = 0;
  MetricsRegistry::Shard* shard = nullptr;
};
thread_local TlsShardCache t_shard_cache;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : uid_(g_next_registry_uid.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  return ObsScope::current().metrics();
}

MetricsRegistry::Shard* MetricsRegistry::local_shard() {
  if (t_shard_cache.uid == uid_) return t_shard_cache.shard;
  std::lock_guard<std::mutex> lock(mutex_);
  const std::thread::id tid = std::this_thread::get_id();
  Shard* shard = nullptr;
  for (const auto& [id, s] : shards_) {
    if (id == tid) {
      shard = s.get();
      break;
    }
  }
  if (shard == nullptr) {
    shards_.emplace_back(tid, std::make_unique<Shard>());
    shard = shards_.back().second.get();
  }
  t_shard_cache = {uid_, shard};
  return shard;
}

int MetricsRegistry::counter(const std::string& name) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mutex);
  return register_name(t.counter_ids, t.counter_names, name, kMaxCounters,
                       "counter", t);
}

int MetricsRegistry::gauge(const std::string& name) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mutex);
  return register_name(t.gauge_ids, t.gauge_names, name, kMaxGauges, "gauge",
                       t);
}

int MetricsRegistry::histogram(const std::string& name) {
  NameTable& t = names();
  std::lock_guard<std::mutex> lock(t.mutex);
  return register_name(t.hist_ids, t.hist_names, name, kMaxHistograms,
                       "histogram", t);
}

void MetricsRegistry::add(int counter_id, std::int64_t delta) {
  if (!metrics_enabled()) return;
  if (counter_id < 0 || counter_id >= kMaxCounters) return;
  local_shard()->counters[counter_id].fetch_add(delta,
                                                std::memory_order_relaxed);
}

void MetricsRegistry::set(int gauge_id, double value) {
  if (!metrics_enabled()) return;
  if (gauge_id < 0 || gauge_id >= kMaxGauges) return;
  gauges_[gauge_id].store(value, std::memory_order_relaxed);
}

double MetricsRegistry::bucket_lower_bound(int i) {
  return std::ldexp(1.0, i - kBucketBias);
}

int MetricsRegistry::bucket_index(double value) {
  if (!(value > 0.0) || !std::isfinite(value)) {
    return 0;  // zero / negative / non-finite land in bucket 0.
  }
  return std::clamp(std::ilogb(value) + kBucketBias, 0, kHistBuckets - 1);
}

void MetricsRegistry::observe(int histogram_id, double value) {
  if (!metrics_enabled()) return;
  if (histogram_id < 0 || histogram_id >= kMaxHistograms) return;
  Shard::Hist& h = local_shard()->hists[histogram_id];
  h.count.fetch_add(1, std::memory_order_relaxed);
  atomic_add(h.sum, value);
  // min/max: the owning thread is the only writer, plain RMW is safe.
  if (value < h.min.load(std::memory_order_relaxed)) {
    h.min.store(value, std::memory_order_relaxed);
  }
  if (value > h.max.load(std::memory_order_relaxed)) {
    h.max.store(value, std::memory_order_relaxed);
  }
  h.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::merge(int histogram_id, const HistogramSnapshot& hs) {
  if (!metrics_enabled() || hs.count == 0) return;
  if (histogram_id < 0 || histogram_id >= kMaxHistograms) return;
  Shard::Hist& h = local_shard()->hists[histogram_id];
  h.count.fetch_add(hs.count, std::memory_order_relaxed);
  atomic_add(h.sum, hs.sum);
  if (hs.min < h.min.load(std::memory_order_relaxed)) {
    h.min.store(hs.min, std::memory_order_relaxed);
  }
  if (hs.max > h.max.load(std::memory_order_relaxed)) {
    h.max.store(hs.max, std::memory_order_relaxed);
  }
  for (const auto& [lower, count] : hs.buckets) {
    // Snapshot buckets carry their exact power-of-two lower bound, so
    // the index recovers losslessly: i = ilogb(lower) + bias.
    const int b =
        std::clamp(std::ilogb(lower) + kBucketBias, 0, kHistBuckets - 1);
    h.buckets[b].fetch_add(count, std::memory_order_relaxed);
  }
}

MetricsRegistry::HistogramSnapshot LocalHistogram::snapshot() const {
  MetricsRegistry::HistogramSnapshot hs;
  hs.count = count_;
  hs.sum = sum_;
  if (count_ > 0) {
    hs.min = min_;
    hs.max = max_;
  }
  for (int b = 0; b < MetricsRegistry::kHistBuckets; ++b) {
    if (buckets_[b] != 0) {
      hs.buckets.emplace_back(MetricsRegistry::bucket_lower_bound(b),
                              buckets_[b]);
    }
  }
  return hs;
}

std::int64_t MetricsRegistry::Snapshot::counter(
    const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

double MetricsRegistry::Snapshot::gauge(const std::string& name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return v;
  }
  return 0.0;
}

const MetricsRegistry::HistogramSnapshot* MetricsRegistry::Snapshot::histogram(
    const std::string& name) const {
  for (const auto& [n, v] : histograms) {
    if (n == name) return &v;
  }
  return nullptr;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  NameTable& t = names();
  // Lock order everywhere: name table, then registry.
  std::lock_guard<std::mutex> names_lock(t.mutex);
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot out;

  // std::map iteration gives name order directly.
  for (const auto& [name, id] : t.counter_ids) {
    std::int64_t total = 0;
    for (const auto& [tid, s] : shards_) {
      total += s->counters[id].load(std::memory_order_relaxed);
    }
    out.counters.emplace_back(name, total);
  }
  for (const auto& [name, id] : t.gauge_ids) {
    out.gauges.emplace_back(name,
                            gauges_[id].load(std::memory_order_relaxed));
  }
  for (const auto& [name, id] : t.hist_ids) {
    HistogramSnapshot hs;
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    std::array<std::int64_t, kHistBuckets> buckets{};
    for (const auto& [tid, s] : shards_) {
      const Shard::Hist& h = s->hists[id];
      hs.count += h.count.load(std::memory_order_relaxed);
      hs.sum += h.sum.load(std::memory_order_relaxed);
      lo = std::min(lo, h.min.load(std::memory_order_relaxed));
      hi = std::max(hi, h.max.load(std::memory_order_relaxed));
      for (int b = 0; b < kHistBuckets; ++b) {
        buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
    if (hs.count > 0) {
      hs.min = lo;
      hs.max = hi;
    }
    for (int b = 0; b < kHistBuckets; ++b) {
      if (buckets[b] != 0) {
        hs.buckets.emplace_back(bucket_lower_bound(b), buckets[b]);
      }
    }
    out.histograms.emplace_back(name, std::move(hs));
  }
  return out;
}

void MetricsRegistry::accumulate(const Snapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    add(counter(name), value);
  }
  for (const auto& [name, value] : snap.gauges) {
    set(gauge(name), value);
  }
  for (const auto& [name, hs] : snap.histograms) {
    if (hs.count > 0) merge(histogram(name), hs);
  }
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tid, s] : shards_) s->zero();
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

}  // namespace sndr::obs
