// Fig. 7 — optimizer scalability and the value of the learned models.
//
// Runs smart NDR across design sizes in three candidate-scoring modes:
//   models    — learned per-rule impact models (the paper's method),
//   exact-net — exact per-net re-extraction per candidate,
//   full-STA  — complete extraction + timing + variation + EM per candidate
//               (the naive signoff-in-the-loop flow the paper's runtime
//               argument targets; only run on the smaller designs).
// Expected shape: all three land on (nearly) the same power; full-STA
// runtime explodes quadratically and is orders of magnitude slower than the
// model-guided flow, whose cost is dominated by the one-time training.
//
// A second section measures the parallel evaluation engine: wall time of
// evaluate() and 5-corner evaluate_corners() at 1/2/4/N threads (results
// are bit-identical at every point of the ladder), plus the exact-eval
// cache hit-rate of the optimizer. Both tables also go to CSV under results/.
#include <chrono>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "tech/corners.hpp"

namespace {

using namespace sndr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Five-corner signoff set: the standard three plus two derate extremes.
std::vector<tech::Corner> five_corners() {
  std::vector<tech::Corner> corners = tech::standard_corners();
  corners.push_back({"slow_hot", 1.25, 1.12, 0.88, 1.30});
  corners.push_back({"fast_cold", 0.80, 0.92, 1.10, 0.78});
  return corners;
}

/// Hardware concurrency with the zero-means-unknown quirk folded away.
int host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// The 1/2/4/N thread ladder (N = hardware concurrency, when above 4).
/// Rungs above host_cpus() stay in the ladder (same rows on every host)
/// but are skipped via ladder_skipped() — oversubscribed timings are
/// noise, not speedups.
std::vector<int> thread_ladder() {
  std::vector<int> ladder = {1, 2, 4};
  if (host_cpus() > 4) ladder.push_back(host_cpus());
  return ladder;
}

bool ladder_skipped(int threads) { return threads > host_cpus(); }

}  // namespace

int main() {
  using namespace sndr::bench;

  report::Table t({"sinks", "mode", "P (mW)", "saving", "net evals",
                   "full evals", "train (s)", "total (s)"});
  for (const int sinks : {1024, 4096, 16384, 32768}) {
    workload::DesignSpec spec;
    spec.name = "scale_" + std::to_string(sinks);
    spec.num_sinks = sinks;
    spec.dist = workload::SinkDistribution::kMixed;
    spec.seed = 77;
    const Flow f = build_flow(spec);
    const auto blanket = eval_uniform(f, f.tech.rules.blanket_index());

    for (const ndr::Scoring mode :
         {ndr::Scoring::kModels, ndr::Scoring::kExactNet,
          ndr::Scoring::kFullSta}) {
      if (mode == ndr::Scoring::kFullSta && sinks > 4096) {
        t.add_row({std::to_string(sinks), "full-STA", "-", "-", "-", "-",
                   "-", "(skipped: ~minutes+)"});
        continue;
      }
      ndr::OptimizerOptions opt;
      opt.scoring = mode;
      const auto t0 = Clock::now();
      const ndr::SmartNdrResult smart =
          ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, opt);
      const double total = seconds_since(t0);
      const char* name = mode == ndr::Scoring::kModels ? "models"
                         : mode == ndr::Scoring::kExactNet ? "exact-net"
                                                           : "full-STA";
      t.add_row({std::to_string(sinks), name,
                 report::fmt(units::to_mW(smart.final_eval.power.total_power),
                             2),
                 report::fmt_pct(smart.final_eval.power.total_power /
                                     blanket.power.total_power -
                                 1.0),
                 std::to_string(smart.stats.exact_net_evals),
                 std::to_string(smart.stats.full_evals),
                 report::fmt(smart.stats.train_seconds, 2),
                 report::fmt(total, 2)});
    }
  }
  finish(t, "Fig. 7: scaling and scoring-mode runtime comparison",
         "fig7_runtime_scaling.csv");

  // --- Parallel evaluation engine: thread-scaling + cache hit-rate ------
  {
    workload::DesignSpec spec;
    spec.name = "threads_4096";
    spec.num_sinks = 4096;
    spec.dist = workload::SinkDistribution::kMixed;
    spec.seed = 77;
    const Flow f = build_flow(spec);
    const ndr::RuleAssignment blanket =
        ndr::assign_all(f.nets, f.tech.rules.blanket_index());
    const std::vector<tech::Corner> corners = five_corners();

    report::Table ts({"stage", "threads", "time (s)", "speedup"});
    double eval_serial = 0.0;
    double corners_serial = 0.0;
    for (const int threads : thread_ladder()) {
      if (ladder_skipped(threads)) {
        ts.add_row({"evaluate", std::to_string(threads), "skipped", "-"});
        ts.add_row({"evaluate_corners_x5", std::to_string(threads),
                    "skipped", "-"});
        continue;
      }
      common::set_thread_count(threads);
      auto t0 = Clock::now();
      ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket);
      const double eval_s = seconds_since(t0);
      t0 = Clock::now();
      ndr::evaluate_corners(f.cts.tree, f.design, f.tech, f.nets, blanket,
                            corners);
      const double corners_s = seconds_since(t0);
      if (threads == 1) {
        eval_serial = eval_s;
        corners_serial = corners_s;
      }
      ts.add_row({"evaluate", std::to_string(threads),
                  report::fmt(eval_s, 3),
                  report::fmt(eval_serial / eval_s, 2) + "x"});
      ts.add_row({"evaluate_corners_x5", std::to_string(threads),
                  report::fmt(corners_s, 3),
                  report::fmt(corners_serial / corners_s, 2) + "x"});
    }
    common::set_thread_count(-1);

    // Exact-eval cache hit-rate of the exact-scoring optimizer (the memo
    // cache's prime consumer together with the annealer).
    ndr::OptimizerOptions opt;
    opt.scoring = ndr::Scoring::kExactNet;
    const auto t0 = Clock::now();
    const ndr::SmartNdrResult smart =
        ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, opt);
    ts.add_row({"optimize_exact_net (cache " +
                    report::fmt_pct(smart.stats.exact_cache_hit_rate()) +
                    " hit)",
                std::to_string(smart.stats.threads_used),
                report::fmt(seconds_since(t0), 3), "-"});
    std::cout << "\n";
    finish(ts, "Fig. 7b: evaluation-engine thread scaling (4096 sinks)",
           "fig7_thread_scaling.csv");
  }
  return 0;
}
