// Loop shapes shared by the workloads: the closed-loop lane alternation,
// the traced-vs-untraced overhead pairs, and the traced pass's epilogue.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Minimum timed repetitions, whatever --seconds says.
constexpr int kMinPairs = 2;

/// Switches the library's tracing and metrics together.
void set_obs(bool on);

struct LaneSamples {
  std::vector<double> t1;  ///< walls at one lane (or one worker).
  std::vector<double> tn;  ///< walls at nproc lanes (or workers).
};

/// Closed loop: runs `job(lanes)` alternately at 1 and `n`, flipping which
/// goes first every pair so drift hits both alike, until `seconds` pass
/// (and at least kMinPairs pairs ran). `job` returns its wall seconds.
template <class Job>
LaneSamples alternate_lanes(int n, double seconds, Job&& job) {
  LaneSamples s;
  const auto t0 = Clock::now();
  for (int pair = 0; pair < kMinPairs || seconds_since(t0) < seconds;
       ++pair) {
    const int order[2] = {pair % 2 == 0 ? 1 : n, pair % 2 == 0 ? n : 1};
    for (const int lanes : order) {
      const double wall = job(lanes);
      (lanes == 1 ? s.t1 : s.tn).push_back(wall);
    }
  }
  return s;
}

/// obs.overhead_frac: alternates untraced and traced runs of `job` (which
/// returns its wall seconds) until `seconds` pass; median traced wall over
/// median untraced wall, minus one. Leaves obs off.
template <class Job>
double obs_overhead(double seconds, Job&& job) {
  std::vector<double> off, on;
  const auto t0 = Clock::now();
  for (int i = 0; i < kMinPairs || seconds_since(t0) < seconds; ++i) {
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      set_obs(traced);
      (traced ? on : off).push_back(job());
    }
  }
  set_obs(false);
  return median(on) / median(off) - 1.0;
}

/// The end-to-end metrics, in BENCHMARK.json order. The closed-loop
/// workloads have one job per operation: latency is the job wall over
/// both lane counts, throughput is jobs over their summed walls.
struct EndToEnd {
  std::vector<double> setup;
  LaneSamples runs;
  double power_mw = 0.0;
  double jobs_per_run = 1.0;  ///< jobs in one timed operation.
  std::vector<double> latency;
};
void emit_end_to_end(Report& report, const EndToEnd& e2e);

/// Writes the span dump under the work dir, prints the self-time table,
/// emits the per-layer metrics and finishes the report.
int finish_traced(Report& report, const LayerTable& table, const SpanLog& log,
                  const Options& opt);

}  // namespace perfbench
