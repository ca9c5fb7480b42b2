// Shared pieces of the end-to-end benchmark: options, the result report,
// order statistics, bitwise result comparison and the harness span log.
//
// Every job is configured through flow::FlowConfig::set(key, value) only
// (make_config below), so the benchmark never depends on option-struct
// fields or on keys the library may retire.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dse/explorer.hpp"
#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "obs/trace.hpp"
#include "serve/submit.hpp"

namespace perfbench {

// The benchmark drives the library's public API throughout.
using namespace sndr;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 9;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch for every generated file.
  bool tiny = false;     ///< smoke-test sizes.
  /// Fault injection for the negative test: "flip-rule" flips one rule of
  /// the reference assignment, so every comparison against it must fail.
  std::string fault;
};

/// Lane count for the `threads = nproc` runs and the N-worker server.
int nproc();

/// Builds a job config from `key = value` pairs through FlowConfig::set.
/// Throws std::runtime_error naming the key when the library rejects one.
flow::FlowConfig make_config(
    const std::vector<std::pair<std::string, std::string>>& keys);

/// Order statistics over a sample (linear interpolation between ranks).
double percentile(std::vector<double> v, double p);
double median(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Collects metrics, operation counts and failed checks; prints the
/// human-readable lines and, last, the one-line JSON result.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One attempted operation; a false `ok` counts it failed and logs `what`.
  void op(bool ok, const std::string& what);
  /// A whole-run check that is not tied to one operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);
  /// Prints everything; returns the process exit code (0 iff correct).
  int finish() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::string> notes_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool checks_ok_ = true;
};

// Bitwise result identity: the settled assignment plus the exact power,
// cap and per-sink arrival words (the repository's determinism contract).
bool same_eval(const ndr::FlowEvaluation& a, const ndr::FlowEvaluation& b);
bool same_flow(const flow::FlowResult& a, const flow::FlowResult& b);
bool same_sweep(const dse::SweepResult& a, const dse::SweepResult& b);
bool same_point(const dse::PointResult& p, const flow::FlowResult& r);
/// A job outcome that ran to completion and equals the reference bitwise.
bool same_job(const serve::JobOutcome& out, const flow::FlowResult& ref);
bool same_job(const serve::JobOutcome& out, const dse::SweepResult& ref);

/// Applies Options::fault to a reference result (negative test).
void inject_fault(const Options& opt, flow::FlowResult& ref);
void inject_fault(const Options& opt, dse::SweepResult& ref);

class SpanLog;

/// The per-layer metrics of the traced run. Every workload prints every
/// name (0 where the workload does not exercise the layer), so one table
/// of names and units serves all three.
class LayerTable {
 public:
  LayerTable();
  void set(const std::string& name, double value);
  void add(const std::string& name, double value);
  double get(const std::string& name) const;

  /// Optimizer training/greedy seconds and anneal moves of one composed
  /// pass (layers.hpp); call once per composed job.
  void from_composed(const flow::FlowResult& composed);
  /// Layer seconds from the span log of every composed pass, per-call
  /// evaluate time, and the anneal move rate; call once, last.
  void from_layers(const SpanLog& log);
  /// Work counts from a traced job's metrics registry.
  void from_registry(const obs::MetricsRegistry::Snapshot& snap);
  /// Lane count and the (scheduling-dependent) share of pool chunks run on
  /// workers, from a traced nproc-lane job's registry.
  void from_parallel(const obs::MetricsRegistry::Snapshot& snap);
  /// Stage records of a traced job; the residual against its wall time
  /// accumulates into flow.unattributed_s.
  void from_stages(const std::vector<obs::StageInfo>& stages, double wall_s);

  void emit(Report& report) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows_;
  std::size_t index(const std::string& name) const;
  double composed_moves_ = 0.0;  ///< anneal proposals of composed passes.
};

/// Harness-side spans around the calls into each layer: name, start, end,
/// parent span and job id, kept in memory and written at exit. Times use
/// the library's trace clock, so the library's own stage-grained spans
/// (collected from an ObsScope) merge into the same tree.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    int job = 0;
    bool library = false;  ///< recorded by the library, not the harness.
    int tid = -1;          ///< library spans: obs thread id.
    int depth = 0;         ///< library spans: nesting depth on that thread.
  };

  int open(const std::string& name, int job);
  void close(int id);
  template <class F>
  auto time(const std::string& name, int job, F&& body) {
    const int id = open(name, job);
    struct Closer {
      SpanLog* log;
      int id;
      ~Closer() { log->close(id); }
    } closer{this, id};
    return body();
  }

  /// Adopts the library's spans recorded into `sink`, parenting each under
  /// the innermost span that contains it (same thread first, then the
  /// harness span around the call).
  void adopt_library_spans(const obs::TraceSink& sink, int job);

  /// Total and self seconds per span name. Self time is a span's duration
  /// minus the part of it that its child spans cover.
  struct Row {
    std::string name;
    int count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Row> rollup() const;
  double total(const std::string& name) const;
  int count(const std::string& name) const;

  /// Chrome-trace JSON (Perfetto loads it); args carry id/parent/job.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
