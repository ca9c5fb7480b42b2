// Delay-variation analysis: process-induced sigma and crosstalk-induced
// delta-delay of clock paths.
//
// This is the analysis that justifies non-default rules in the first place:
//
//  * Process: wire width varies by sigma_width (absolute) and thickness by
//    sigma_thickness (relative). Narrow wires have proportionally larger
//    resistance variation, so *wider* rules shrink the delay sigma.
//  * Crosstalk: a toggling neighbor injects up to (miller_delay - 1) extra
//    coupling charge; *wider spacing* shrinks the coupling and with it the
//    delta-delay window.
//
// Per-load responses are computed by re-evaluating Elmore on a perturbed
// copy of the net's RC tree (the provenance fields of RcNode make the
// perturbation exact without re-extraction). Path uncertainty accumulates
// RSS for the random process part and linearly for the crosstalk bound:
//     U(sink) = 3 * sqrt(sum sigma_net^2) + sum xtalk_net.
#pragma once

#include <functional>
#include <vector>

#include "timing/tree_timing.hpp"

namespace sndr::timing {

/// Per-load variation responses of one net.
struct NetVariationDetail {
  std::vector<double> load_sigma;  ///< s, 1-sigma process delay variation.
  std::vector<double> load_xtalk;  ///< s, expected crosstalk delta-delay.

  double worst_sigma() const;
  double worst_xtalk() const;
};

/// Reusable buffers for the scratch-based net_variation overload: one
/// perturbed copy of the node array (reused for both process corners), the
/// Elmore kernel outputs, and the per-load delay responses. Warm buffers
/// make repeated per-net variation analysis allocation-free.
struct VariationScratch {
  std::vector<extract::RcNode> perturbed;
  std::vector<double> down;    ///< kernel scratch.
  std::vector<double> m1;      ///< kernel scratch.
  std::vector<double> base;    ///< per-load nominal Elmore delay.
  std::vector<double> w_pert;  ///< per-load delay, width +1 sigma.
  std::vector<double> t_pert;  ///< per-load delay, thickness +1 sigma.
  std::vector<double> x_pert;  ///< per-load delay, aggressor Miller charge.
};

/// Variation of one extracted net routed with `rule`, given its driver's
/// linearized resistance.
NetVariationDetail net_variation(const extract::NetParasitics& par,
                                 const tech::Technology& tech,
                                 const tech::RoutingRule& rule,
                                 double driver_res);

/// Scratch-based overload: identical arithmetic (bit-identical results),
/// writing into `out` and reusing `scratch` instead of copying the RC tree
/// and allocating result vectors on every call.
void net_variation(const extract::NetParasitics& par,
                   const tech::Technology& tech,
                   const tech::RoutingRule& rule, double driver_res,
                   VariationScratch& scratch, NetVariationDetail& out);

struct VariationReport {
  // Per net id (worst load of the net).
  std::vector<double> net_sigma;
  std::vector<double> net_xtalk;

  // Per design sink id, accumulated along the source->sink path.
  std::vector<double> sink_sigma;        ///< RSS of per-net sigmas.
  std::vector<double> sink_xtalk;        ///< linear sum of xtalk bounds.
  std::vector<double> sink_uncertainty;  ///< 3*sigma + xtalk.

  double max_uncertainty = 0.0;

  int violations(double max_allowed) const {
    int n = 0;
    for (const double u : sink_uncertainty) {
      if (u > max_allowed) ++n;
    }
    return n;
  }
};

/// One net's terms in the variation recurrence: per-load process sigma
/// and crosstalk delta, in Net::loads order (NetVariationDetail's arrays).
struct NetLoadVariation {
  const double* sigma = nullptr;
  const double* xtalk = nullptr;
};

/// Hands analyze_variation() net `net_id`'s terms. Called once per net,
/// root-first; the arrays must stay readable until the next call.
using NetVariationSource = std::function<NetLoadVariation(int net_id)>;

/// Accumulates per-net load terms into the whole-tree report: the one
/// variation recurrence, whatever solved the terms (the overload below,
/// or a search state's memo rows). A net's sigma / xtalk is its worst
/// load's.
VariationReport analyze_variation(const netlist::ClockTree& tree,
                                  const netlist::Design& design,
                                  const netlist::NetList& nets,
                                  const NetVariationSource& terms);

/// Every net's load terms from extracted parasitics (`rule_of_net[i]`
/// indexes tech.rules), indexed by net id. The three perturbed RC solves
/// per net run in parallel into per-net slots, so the result is identical
/// at any thread count.
std::vector<NetVariationDetail> net_variations(
    const netlist::ClockTree& tree, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net, const AnalysisOptions& options);

/// A NetVariationSource reading `details` (borrowed, indexed by net id).
NetVariationSource variation_source(
    const std::vector<NetVariationDetail>& details);

/// Whole-tree variation analysis from extracted parasitics: the recurrence
/// above over net_variations().
VariationReport analyze_variation(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net, const AnalysisOptions& options = {});

/// Linearized output resistance of the net's driver (source or buffer).
double net_driver_res(const netlist::ClockTree& tree,
                      const tech::Technology& tech, const netlist::Net& net,
                      const AnalysisOptions& options);

}  // namespace sndr::timing
