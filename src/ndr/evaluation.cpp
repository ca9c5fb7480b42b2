#include "ndr/evaluation.hpp"

#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"
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

/// Everything downstream of extraction, read from `parasitics`, which the
/// result does not keep. Routing usage reads the cache's footprint, or a
/// temporary one recorded here when there is no cache.
FlowEvaluation finish_evaluation(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const RuleAssignment& assignment,
    const std::vector<extract::NetParasitics>& parasitics,
    const timing::AnalysisOptions& options,
    const extract::GeometryCache* geometry) {
  FlowEvaluation ev;
  ev.assignment = assignment;
  ev.timing = timing::analyze(tree, design, tech, nets, parasitics, options);
  ev.variation = timing::analyze_variation(tree, design, tech, nets,
                                           parasitics, assignment, options);
  // Power, EM, and routing usage read only the (now frozen) parasitics and
  // assignment; they write disjoint reports, so they can run concurrently.
  netlist::RoutingUsage usage(&design.congestion);
  common::parallel_invoke(
      [&] {
        ev.power = power::analyze_power(tree, design, tech, nets, parasitics);
      },
      [&] {
        ev.em = power::analyze_em(design, tech, nets, parasitics, assignment);
      },
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
  return finish_evaluation(
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
  return finish_evaluation(tree, design, tech, nets, assignment, parasitics,
                           options, &geometry);
}

}  // namespace sndr::ndr
