// Exact and analytic per-net evaluation under a candidate rule.
//
// These are the net-local quantities the optimizer needs when it considers
// re-assigning one net's rule. Everything here is independent of the rest of
// the tree given the driver's resistance and output slew, which is what
// makes per-net rule optimization tractable:
//
//  * switched capacitance  — analytic (exact) from net length statistics;
//  * EM current density    — analytic conservative bound from total cap;
//  * worst step slew, process sigma, crosstalk delta — exact via per-net
//    re-extraction (used to label model training data and to validate
//    commits), or predicted by the learned models (used for fast scoring).
//
// Exact evaluation has two forms that agree bit for bit: the scalar
// evaluate_net_exact (one net, one rule), which is the reference the tests
// compare against, and the lane-batched evaluate_nets_exact_* (any mix of
// same-shaped nets, technologies and rules in one pass), which the
// optimizer, the annealer's memo and predictor labelling run. The batched
// form can also hand back the per-load terms it solved — (m1, m2), process
// sigma and crosstalk delta per load — and every NetExact carries the
// net's cap totals and driver load, so a search memo row holds everything
// a whole-tree signoff reads of the net: an accepted move is timed, and a
// search's evaluate() is signed off, without re-extracting anything.
#pragma once

#include "common/arena.hpp"
#include "extract/batch.hpp"
#include "extract/extractor.hpp"
#include "extract/net_geometry.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"
#include "timing/variation.hpp"

namespace sndr::ndr {

/// Rule-independent summary of one net's geometry and loads; all analytic
/// per-rule quantities derive from it.
struct NetSummary {
  double wirelength = 0.0;  ///< um.
  double occ_length = 0.0;  ///< um, occupancy-weighted wirelength.
  double max_path = 0.0;    ///< um, driver -> farthest load along the route.
  double load_cap = 0.0;    ///< F, sum of load pin caps.
  int load_count = 0;
  double driver_res = 0.0;  ///< ohm.
  int depth = 0;            ///< buffer depth of the net.
};

/// O(net wires + walk steps + loads): occupancy comes from the net's
/// recorded grid walk in `footprint` (recorded for this tree and
/// design.congestion, e.g. GeometryCache::footprint()), and path lengths
/// are kept in a per-thread buffer that grows to the largest tree seen and
/// is never cleared, so no call allocates or fills anything proportional
/// to the tree once that buffer is warm.
NetSummary summarize_net(const netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const netlist::Net& net,
                         const netlist::RoutingFootprint& footprint,
                         const timing::AnalysisOptions& options);

/// Exact switched capacitance of the net under `rule` (power accounting,
/// with the average Miller factor on coupling).
double net_cap_under_rule(const NetSummary& s, const tech::Technology& tech,
                          const tech::RoutingRule& rule);

/// Conservative (driver-piece) EM RMS current density bound under `rule`.
double net_em_bound(const NetSummary& s, const tech::Technology& tech,
                    const tech::RoutingRule& rule, double freq);

/// Exact net-local metrics under `rule`: scalars only, so a memo slot or a
/// snapshot row stays a few doubles. The moment-derived fields
/// (step_slew_worst, wire_delay_*, driver_load) are at Miller 1.0 here; a
/// search memo row holds them at its state's timing Miller factor.
struct NetExact {
  double cap_switched = 0.0;    ///< F.
  double step_slew_worst = 0.0; ///< s, worst load step slew (pre-PERI).
  double sigma_worst = 0.0;     ///< s.
  double xtalk_worst = 0.0;     ///< s.
  double em_peak = 0.0;         ///< A/um.
  double wire_delay_mean = 0.0; ///< s, mean D2M wire delay over loads.
  double wire_delay_worst = 0.0;///< s.
  // Signoff terms (the power pass and the timing report read them):
  // bitwise the NetParasitics totals and the moment solve's down[0].
  double wire_cap_gnd = 0.0;    ///< F, wire area + fringe cap.
  double wire_cap_cpl = 0.0;    ///< F, raw wire coupling cap.
  double load_cap = 0.0;        ///< F, load pin caps.
  double driver_load = 0.0;     ///< F, cap the net's driver sees.
};

/// Per-load terms a batched evaluation can hand back, per lane and per
/// load in Net::loads order: a lane's block of kLoadTerms * loads doubles
/// holds the (m1, m2) pairs, then every load's process sigma, then every
/// load's crosstalk delta — bitwise RcTree::moments at Miller 1.0 and
/// timing::net_variation's load_sigma / load_xtalk.
inline constexpr int kLoadTerms = 4;

/// Derives step_slew_worst, wire_delay_worst and wire_delay_mean of `out`
/// from per-load (m1, m2) pairs, `n_loads` of them, with the kernels'
/// per-load scan (the scalar form of the batch kernel's lane loop).
void scan_load_moments(const double* m12, int n_loads, NetExact& out);

NetExact evaluate_net_exact(const netlist::ClockTree& tree,
                            const netlist::Design& design,
                            const tech::Technology& tech,
                            const netlist::Net& net,
                            const tech::RoutingRule& rule, double driver_res,
                            double freq);

/// Reusable buffers for the geometry-based evaluate_net_exact overload:
/// the materialized parasitics, the fused moment scratch, the EM downstream
/// sweep, and the variation scratch. One warm instance makes repeated
/// per-(net, rule) exact evaluation allocation-free.
struct NetEvalScratch {
  extract::NetParasitics par;
  extract::RcMoments moments;
  std::vector<double> m12;         ///< per-load (m1, m2) pairs.
  std::vector<double> down_power;  ///< downstream cap at miller_power (EM).
  timing::VariationScratch variation;
  timing::NetVariationDetail detail;
};

/// Exact evaluation from pre-built rule-independent geometry: materializes
/// parasitics for `rule` and runs the fused moment / variation / EM kernels
/// entirely in `scratch`. Results are bit-identical to the fresh overload
/// above (which delegates here); the materialized parasitics stay in
/// `scratch.par` for callers that want them.
NetExact evaluate_net_exact(const extract::NetGeometry& geom,
                            const tech::Technology& tech,
                            const tech::RoutingRule& rule, double driver_res,
                            double freq, NetEvalScratch& scratch);

/// Batched exact evaluation: lanes are (net geometry, tech, rule) triples
/// over SAME-SHAPED nets (see extract::bucket_nets_by_shape) with per-lane
/// driver resistance, scored in one fused pass (materialize_nets_batch +
/// one EM sweep + one moment solve + three perturbed Elmore solves, lane
/// loop innermost). out[l] is bit-identical to the scalar scratch overload
/// called with lane l's net and context. All scratch is carved from
/// `arena` WITHOUT resetting it (so callers may keep lane arrays there).
///
/// `load_terms`, when non-null, receives every lane's per-load terms
/// (kLoadTerms): lane l's block starts at load_terms + kLoadTerms * l *
/// loads, and its moments are at the lane's driver resistance. Callers
/// that need no per-load terms pass null.
void evaluate_nets_exact_batch(const extract::NetLane* lanes, int n_lanes,
                               const double* driver_res, double freq,
                               common::Arena& arena, NetExact* out,
                               double* load_terms = nullptr);

/// Rule-sweep entry point: resets `arena`, then evaluates each of the
/// `n_nets` same-shaped geometries under EVERY rule of `tech` in one batch
/// (lanes net-outer × rule-inner). out[i * R + r] is geoms[i] under
/// tech.rules[r], bit-identical to the scalar evaluate_net_exact. With one
/// net this is the memo-row fill of an AssignmentState miss; with several
/// it is how warm-row prefetches and predictor labelling fill the SIMD
/// lanes that one net's rule sweep leaves mostly empty. `load_terms` is
/// the batch kernel's per-load output, so net i's [rule] blocks start at
/// load_terms + kLoadTerms * i * R * loads.
void evaluate_nets_exact_all_rules(const extract::NetGeometry* const* geoms,
                                   const double* driver_res, int n_nets,
                                   const tech::Technology& tech, double freq,
                                   common::Arena& arena, NetExact* out,
                                   double* load_terms = nullptr);

}  // namespace sndr::ndr
