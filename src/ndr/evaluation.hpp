// Full "signoff" evaluation of a clock tree under a rule assignment:
// extraction, timing, variation, EM, power, and routing-resource checks in
// one call. This is the ground truth every optimizer variant is validated
// against, and the engine behind all reported tables.
//
// Each whole-tree pass is one recurrence over per-net terms (moments and
// driver load, per-load sigma / crosstalk, cap totals, peak EM density),
// and the terms have two sources. evaluate() and evaluate_with_parasitics()
// solve them from extracted RC trees. evaluate(state, assignment) reads
// them from a search state's exact-eval memo rows, which hold the same
// values bitwise, so inside a search a signoff costs the recurrences and
// the routing-usage total, not an extraction.
//
// The per-net RC parasitics are transient: they live only inside
// evaluate() / evaluate_with_parasitics() and are freed before either
// returns. A FlowEvaluation keeps the signoff numbers they produced, and
// the timing report carries the per-load wire terms a search reseeds its
// delta timer from. A caller that needs the RC trees themselves (the SPEF
// writer) re-extracts the assignment with extract::Extractor::extract_all,
// which the geometry-cache contract makes bit-identical.
#pragma once

#include <vector>

#include "extract/extractor.hpp"
#include "extract/net_geometry.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "power/clock_power.hpp"
#include "power/em.hpp"
#include "report/inter_clock.hpp"
#include "tech/technology.hpp"
#include "timing/tree_timing.hpp"
#include "timing/variation.hpp"

namespace sndr::ndr {

class AssignmentState;  // assignment_state.hpp

/// A rule assignment: rule index (into Technology::rules) per net id.
using RuleAssignment = std::vector<int>;

/// Every net gets the same rule.
RuleAssignment assign_all(const netlist::NetList& nets, int rule);

/// The industry middle-ground baseline: nets in the top `wide_levels` of the
/// buffer hierarchy (depth < wide_levels) get `wide_rule`; the rest get
/// `narrow_rule`.
RuleAssignment assign_level_based(const netlist::NetList& nets,
                                  int wide_levels, int wide_rule,
                                  int narrow_rule);

struct FlowEvaluation {
  RuleAssignment assignment;
  timing::TimingReport timing;
  timing::VariationReport variation;
  power::PowerReport power;
  power::EmReport em;
  /// Domain-pair skew signoff; empty/disabled without clock domains.
  report::InterClockReport inter_clock;

  double max_track_util = 0.0;
  int overflow_cells = 0;

  int slew_violations = 0;
  int uncertainty_violations = 0;
  int em_violations = 0;
  /// Sinks outside their useful-skew window (0 when windows are disabled).
  int window_violations = 0;
  /// Domain pairs over their inter-clock budget (0 without domains).
  int inter_clock_violations = 0;
  bool skew_ok = true;

  bool feasible() const {
    return slew_violations == 0 && uncertainty_violations == 0 &&
           em_violations == 0 && skew_ok && window_violations == 0 &&
           inter_clock_violations == 0 && overflow_cells == 0;
  }
};

/// Runs the whole analysis stack. `nets` must come from build_nets(tree).
/// Pass a `geometry` cache built for the same tree/congestion state to skip
/// the per-net geometry walk during extraction and the grid walk of the
/// routing-usage total (bit-identical results); geometry is
/// corner-invariant, so the same cache serves derated `tech` clones too.
FlowEvaluation evaluate(const netlist::ClockTree& tree,
                        const netlist::Design& design,
                        const tech::Technology& tech,
                        const netlist::NetList& nets,
                        const RuleAssignment& assignment,
                        const timing::AnalysisOptions& options = {},
                        const extract::GeometryCache* geometry = nullptr);

/// evaluate() with the extraction stage already done: `parasitics` (one
/// entry per net, read but not kept) must be what extract_all would
/// produce for (tree, nets, assignment) under `tech` — then the result is
/// bit-identical to evaluate(). Lets callers that already hold per-net
/// parasitics (e.g. corner signoff, which batch-materializes all corners
/// from one geometry pass) skip re-extraction. `geometry` (built for the
/// same tree/congestion state) supplies the routing footprint.
FlowEvaluation evaluate_with_parasitics(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const RuleAssignment& assignment,
    const std::vector<extract::NetParasitics>& parasitics,
    const extract::GeometryCache& geometry,
    const timing::AnalysisOptions& options = {});

/// Memo-fed signoff: bitwise evaluate(state.tree(), state.design(),
/// state.tech(), state.nets(), assignment, state.analysis(),
/// &state.geometry_cache()), with every per-net term read from the state's
/// memo rows. Cold rows are filled first (warm_all_rows, one miss each);
/// warm reads count nothing. Routing usage still reads the footprint.
/// Counts one ndr.evaluations and one ndr.memo_signoffs.
FlowEvaluation evaluate(const AssignmentState& state,
                        const RuleAssignment& assignment);

}  // namespace sndr::ndr
