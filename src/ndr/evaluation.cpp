#include "ndr/evaluation.hpp"

#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
#include "ndr/assignment_state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/congestion_route.hpp"

namespace sndr::ndr {

RuleAssignment assign_all(const netlist::NetList& nets, int rule) {
  return RuleAssignment(static_cast<std::size_t>(nets.size()), rule);
}

RuleAssignment assign_level_based(const netlist::NetList& nets,
                                  int wide_levels, int wide_rule,
                                  int narrow_rule) {
  RuleAssignment a(static_cast<std::size_t>(nets.size()), narrow_rule);
  for (const netlist::Net& net : nets.nets) {
    if (net.depth < wide_levels) a[net.id] = wide_rule;
  }
  return a;
}

namespace {

/// The per-net terms one evaluation reads, from a single source: the
/// parasitics path solves them from extracted RC trees, the memo path
/// reads them from a search state's rows.
struct NetTerms {
  timing::NetMomentSource moments;
  timing::NetVariationSource variation;
  power::NetCapSource caps;
  power::NetDensitySource em_density;
};

/// Everything downstream of the per-net terms: the whole-tree passes, in
/// their fixed order, over `terms`. Routing usage reads the cache's
/// footprint, or a temporary one recorded here when there is no cache.
FlowEvaluation finish_evaluation(const netlist::ClockTree& tree,
                                 const netlist::Design& design,
                                 const tech::Technology& tech,
                                 const netlist::NetList& nets,
                                 const RuleAssignment& assignment,
                                 const NetTerms& terms,
                                 const timing::AnalysisOptions& options,
                                 const extract::GeometryCache* geometry) {
  FlowEvaluation ev;
  ev.assignment = assignment;
  ev.timing = timing::analyze(tree, design, tech, nets, terms.moments,
                              options);
  ev.variation =
      timing::analyze_variation(tree, design, nets, terms.variation);
  // Power, EM, and routing usage read only frozen per-net terms and the
  // assignment; they write disjoint reports, so they can run concurrently.
  netlist::RoutingUsage usage(&design.congestion);
  common::parallel_invoke(
      [&] {
        ev.power = power::analyze_power(tree, design, tech, nets, terms.caps);
      },
      [&] { ev.em = power::analyze_em(tech, nets, terms.em_density); },
      [&] {
        if (geometry != nullptr) {
          usage = route::compute_usage(geometry->footprint(), nets,
                                       assignment, tech, design.congestion);
        } else {
          usage = route::compute_usage(
              netlist::RoutingFootprint(tree, nets, design.congestion), nets,
              assignment, tech, design.congestion);
        }
      });
  ev.max_track_util = usage.max_utilization();
  ev.overflow_cells = usage.overflow_cells();

  const netlist::ClockConstraints& c = design.constraints;
  ev.slew_violations = ev.timing.slew_violations(c.max_slew);
  ev.uncertainty_violations = ev.variation.violations(c.max_uncertainty);
  ev.em_violations = ev.em.violations();
  // Inter-clock (domain-pair) signoff; a disabled map returns an empty
  // report with zero violations, leaving single-domain results untouched.
  ev.inter_clock =
      report::check_inter_clock(tree, design, ev.timing, ev.variation);
  ev.inter_clock_violations = ev.inter_clock.violations;
  if (ev.inter_clock.enabled) {
    SNDR_GAUGE_SET("ndr.inter_clock.pairs",
                   static_cast<double>(ev.inter_clock.pairs.size()));
    SNDR_GAUGE_SET("ndr.inter_clock.worst_skew", ev.inter_clock.worst_skew);
    SNDR_GAUGE_SET("ndr.inter_clock.violations",
                   static_cast<double>(ev.inter_clock.violations));
  }
  if (design.useful_skew.enabled()) {
    // Useful-skew mode: per-sink windows around the mean latency replace
    // the global skew bound.
    const auto& lat = ev.timing.sink_arrival;
    const double mean =
        lat.empty() ? 0.0
                    : std::accumulate(lat.begin(), lat.end(), 0.0) /
                          static_cast<double>(lat.size());
    for (std::size_t s = 0; s < lat.size(); ++s) {
      const double off = lat[s] - mean;
      if (off < design.useful_skew.lo.at(s) ||
          off > design.useful_skew.hi.at(s)) {
        ++ev.window_violations;
      }
    }
    ev.skew_ok = true;  // the window check subsumes the global bound.
  } else {
    ev.skew_ok = ev.timing.skew() <= c.max_skew;
  }
  return ev;
}

/// finish_evaluation with every per-net term solved from `parasitics`
/// (what extract_all produced for the assignment), which the result does
/// not keep.
FlowEvaluation evaluate_parasitics(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const RuleAssignment& assignment,
    const std::vector<extract::NetParasitics>& parasitics,
    const timing::AnalysisOptions& options,
    const extract::GeometryCache* geometry) {
  const std::vector<timing::NetVariationDetail> details =
      timing::net_variations(tree, tech, nets, parasitics, assignment,
                             options);
  NetTerms terms;
  terms.moments =
      timing::moment_source(tree, tech, nets, parasitics, options);
  terms.variation = timing::variation_source(details);
  terms.caps = power::cap_source(parasitics);
  terms.em_density =
      power::density_source(design, tech, nets, parasitics, assignment);
  return finish_evaluation(tree, design, tech, nets, assignment, terms,
                           options, geometry);
}

}  // namespace

FlowEvaluation evaluate(const netlist::ClockTree& tree,
                        const netlist::Design& design,
                        const tech::Technology& tech,
                        const netlist::NetList& nets,
                        const RuleAssignment& assignment,
                        const timing::AnalysisOptions& options,
                        const extract::GeometryCache* geometry) {
  if (assignment.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("ndr::evaluate: assignment size mismatch");
  }
  SNDR_TRACE_SPAN("evaluate");
  SNDR_COUNTER_ADD("ndr.evaluations", 1);
  const extract::Extractor extractor(tech, design);
  return evaluate_parasitics(
      tree, design, tech, nets, assignment,
      extractor.extract_all(tree, nets, assignment, geometry), options,
      geometry);
}

FlowEvaluation evaluate_with_parasitics(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const RuleAssignment& assignment,
    const std::vector<extract::NetParasitics>& parasitics,
    const extract::GeometryCache& geometry,
    const timing::AnalysisOptions& options) {
  if (assignment.size() != static_cast<std::size_t>(nets.size()) ||
      parasitics.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument(
        "ndr::evaluate_with_parasitics: per-net input size mismatch");
  }
  SNDR_TRACE_SPAN("evaluate");
  SNDR_COUNTER_ADD("ndr.evaluations", 1);
  return evaluate_parasitics(tree, design, tech, nets, assignment,
                             parasitics, options, &geometry);
}

FlowEvaluation evaluate(const AssignmentState& state,
                        const RuleAssignment& assignment) {
  const netlist::NetList& nets = state.nets();
  if (assignment.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("ndr::evaluate: assignment size mismatch");
  }
  SNDR_TRACE_SPAN("evaluate");
  SNDR_COUNTER_ADD("ndr.evaluations", 1);
  SNDR_COUNTER_ADD("ndr.memo_signoffs", 1);
  // Cold rows are filled first, in cross-net batches (one miss each), so
  // every read below is a plain warm read — also from the concurrent
  // power / EM passes.
  state.warm_all_rows();
  NetTerms terms;
  terms.moments = [&](int id) {
    const int r = assignment[id];
    return timing::NetMoments{state.signoff_row(id, r).driver_load,
                              state.load_moments(id, r).data()};
  };
  terms.variation = [&](int id) {
    return timing::NetLoadVariation{
        state.load_sigma(id, assignment[id]).data(),
        state.load_xtalk(id, assignment[id]).data()};
  };
  terms.caps = [&](int id) {
    const NetExact& row = state.signoff_row(id, assignment[id]);
    return power::NetCaps{row.wire_cap_gnd, row.wire_cap_cpl, row.load_cap};
  };
  terms.em_density = [&](int id) {
    return state.signoff_row(id, assignment[id]).em_peak;
  };
  return finish_evaluation(state.tree(), state.design(), state.tech(), nets,
                           assignment, terms, state.analysis(),
                           &state.geometry_cache());
}

}  // namespace sndr::ndr
