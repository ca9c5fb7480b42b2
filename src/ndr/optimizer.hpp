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
// equal to a full analysis (AssignmentState::apply_move). Whole-tree
// signoff runs only at the start (unless the caller hands in its
// evaluation, SearchContext::start_eval), after a repair, and on the final
// assignment, and it reads the state's memo rows instead of re-extracting
// (evaluate(state, ...)). `Scoring::kExactNet` degenerates to exact
// re-extraction scoring, the slow flow the paper compares against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ndr/evaluation.hpp"
#include "ndr/net_eval.hpp"
#include "ndr/predictor.hpp"
#include "ndr/search_context.hpp"
#include "obs/metrics.hpp"

namespace sndr::ndr {

/// How candidate (net, rule) moves are scored before the commit validation.
enum class Scoring {
  kModels,    ///< learned per-rule models (the paper's method).
  kExactNet,  ///< exact per-net re-extraction per candidate.
  kFullSta,   ///< full extraction + STA per candidate (the naive flow the
              ///< paper's runtime comparison is against; very slow).
};

struct OptimizerOptions {
  /// Guard bands, borrowed geometry, memo transplant and cancel token,
  /// shared with the annealer (search_context.hpp). The cancel token is
  /// checked between nets in the greedy sweeps, between passes and between
  /// repair rounds.
  SearchContext search;

  Scoring scoring = Scoring::kModels;
  int training_samples = 400;
  int max_passes = 4;          ///< greedy sweeps until quiescence.
  int max_repair_rounds = 8;

  // ECO / incremental mode. A warm start re-optimizes from a previous
  // assignment instead of the blanket (e.g. after a constraint change or a
  // local tree edit); `focus_nets` restricts the greedy sweeps to the nets
  // affected by the change (repair may still touch others to restore
  // feasibility). Empty = full optimization from blanket.
  RuleAssignment initial_assignment;
  std::vector<int> focus_nets;

  /// Pre-trained predictor to reuse instead of training in-run (the serve
  /// layer's SharedCache hands these out). Training is deterministic in
  /// (tree, design, tech, nets, training_samples, geometry), so a cache
  /// hit is bitwise-identical to training fresh. Ignored when
  /// scoring != kModels. Null = train here.
  std::shared_ptr<const RuleImpactPredictor> shared_predictor;
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
  int threads_used = 0;  ///< process lane count the search ran with.
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
