// Smart non-default-rule assignment: the paper's core contribution.
//
// Starting from the conventional blanket NDR (every clock net at 2W2S), the
// optimizer walks the nets greedily, moving each to the cheapest rule that
// still satisfies every constraint:
//
//   * slew      — PERI(driver output slew, wire step slew) <= max_slew;
//   * skew      — each sink's latency must stay inside a window of width
//                 max_skew centered on the blanket-NDR latency spread;
//   * variation — 3*sigma + crosstalk accumulated to each sink stays below
//                 max_uncertainty;
//   * EM        — RMS current density under the rule's width stays below
//                 the layer limit;
//   * resources — per-region routing capacity is never exceeded.
//
// Candidate scoring uses the learned per-rule models (plus exact analytic
// capacitance and EM bounds); a commit is validated with an exact per-net
// re-extraction and applied to the incremental state, which stays bitwise
// equal to a full analysis (AssignmentState::apply_move). Full extraction
// and timing run only at the start, after a repair, and on the final
// assignment. `Scoring::kExactNet` degenerates to exact re-extraction
// scoring, the slow flow the paper compares against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/cancel.hpp"
#include "ndr/evaluation.hpp"
#include "ndr/net_eval.hpp"
#include "ndr/predictor.hpp"
#include "obs/metrics.hpp"

namespace sndr::extract {
class GeometryCache;  // net_geometry.hpp
}  // namespace sndr::extract

namespace sndr::ndr {

struct MemoSnapshot;  // assignment_state.hpp

/// How candidate (net, rule) moves are scored before the commit validation.
enum class Scoring {
  kModels,    ///< learned per-rule models (the paper's method).
  kExactNet,  ///< exact per-net re-extraction per candidate.
  kFullSta,   ///< full extraction + STA per candidate (the naive flow the
              ///< paper's runtime comparison is against; very slow).
};

struct OptimizerOptions {
  Scoring scoring = Scoring::kModels;
  int training_samples = 400;

  /// Parallelism for the evaluation engine: -1 inherits the process-wide
  /// setting (default: hardware concurrency), 0/1 force the serial
  /// fallback, N uses N lanes. Applied via common::set_thread_count at
  /// flow entry. Results are bit-identical at any value.
  int threads = -1;

  // Guard bands, as fractions of each constraint kept in reserve by the
  // estimate-driven loop (the final exact verification uses the raw limits).
  double slew_margin = 0.05;
  double uncertainty_margin = 0.05;
  double em_margin = 0.05;
  double skew_margin = 0.10;

  /// Byte budget for the shared GeometryCache (0 = unbounded). Under a
  /// budget the cache LRU-evicts cold net geometries and rebuilds them on
  /// demand; results stay bit-identical, only peak memory and the build
  /// count change. See DESIGN.md "Memory budget".
  std::size_t geometry_budget_bytes = 0;

  int max_passes = 4;          ///< greedy sweeps until quiescence.
  int max_repair_rounds = 8;

  // ECO / incremental mode. A warm start re-optimizes from a previous
  // assignment instead of the blanket (e.g. after a constraint change or a
  // local tree edit); `focus_nets` restricts the greedy sweeps to the nets
  // affected by the change (repair may still touch others to restore
  // feasibility). Empty = full optimization from blanket.
  RuleAssignment initial_assignment;
  std::vector<int> focus_nets;

  /// Cooperative cancellation: checked between nets in the greedy sweeps,
  /// between passes, and between repair rounds. On cancel the optimizer
  /// unwinds with common::Cancelled (no partial result is returned); the
  /// flow boundary classifies it as kCancelled. A default token is never
  /// cancelled, so standalone callers pay one relaxed load per net.
  common::CancelToken cancel;

  /// Pre-trained predictor to reuse instead of training in-run (the serve
  /// layer's SharedCache hands these out). Training is deterministic in
  /// (tree, design, tech, nets, analysis, training_samples, geometry), so
  /// a cache hit is bitwise-identical to training fresh. Ignored when
  /// scoring != kModels. Null = train here.
  std::shared_ptr<const RuleImpactPredictor> shared_predictor;

  /// Objective weight on switched capacitance. The greedy objective is
  /// pure min-cap per net, which is scale-invariant — this knob does NOT
  /// change the greedy result; it exists so one FlowConfig carries the
  /// weight to the annealer (where it scales the Metropolis energy) and
  /// the DSE sweep can treat it as an axis. Must be > 0.
  double power_weight = 1.0;

  /// Borrow an externally owned GeometryCache instead of building one.
  /// The cache is a pure function of (tree, design, nets, budget,
  /// extract options), so sharing it across searches over the same tree is
  /// value-neutral: results are bitwise identical to building fresh. The
  /// pointer must outlive the run; geometry_budget_bytes is ignored when
  /// set. Null = build here (the historical mode).
  const extract::GeometryCache* shared_geometry = nullptr;

  /// Cross-run memo transplant (DSE warm reuse). `memo_in` donates warm
  /// exact-eval rows: a row is adopted only where the net's evaluation
  /// context (today: driver resistance) is bitwise unchanged, so adopted
  /// values equal what a cold eval would compute — value-neutral by the
  /// exact_eval memo contract. `memo_out` receives this run's final warm
  /// rows for the next point. Both may be null (standalone runs).
  const MemoSnapshot* memo_in = nullptr;
  MemoSnapshot* memo_out = nullptr;

  timing::AnalysisOptions analysis;
};

struct OptimizerStats {
  int commits = 0;
  int candidates_scored = 0;
  int exact_net_evals = 0;  ///< exact_eval calls (cache hits included).
  int full_evals = 0;
  int repair_upgrades = 0;
  int passes = 0;
  double train_seconds = 0.0;
  double optimize_seconds = 0.0;

  /// exact_eval memo-cache counters (AssignmentState).
  std::int64_t exact_cache_hits = 0;
  std::int64_t exact_cache_misses = 0;
  double exact_cache_hit_rate() const {
    return obs::safe_ratio(exact_cache_hits,
                           exact_cache_hits + exact_cache_misses);
  }
  int threads_used = 0;  ///< resolved lane count the flow ran with.
};

struct SmartNdrResult {
  RuleAssignment assignment;
  FlowEvaluation final_eval;  ///< exact signoff of the final assignment.
  OptimizerStats stats;
  TrainReport train_report;   ///< empty unless scoring == kModels.
  /// Histogram: rule_count[rule] = number of nets on that rule.
  std::vector<int> rule_histogram;
  /// The predictor this run scored with (trained here, or the shared one
  /// passed in) — harvestable into a serve::SharedCache so later jobs on
  /// the same (design, tech, samples) skip training. Null when
  /// scoring != kModels.
  std::shared_ptr<const RuleImpactPredictor> trained_predictor;
};

/// Runs the full smart-NDR flow on a synthesized tree.
SmartNdrResult optimize_smart_ndr(const netlist::ClockTree& tree,
                                  const netlist::Design& design,
                                  const tech::Technology& tech,
                                  const netlist::NetList& nets,
                                  const OptimizerOptions& options = {});

}  // namespace sndr::ndr
