// Variation & signoff deep-dive: what the robustness constraints actually
// look like on a design, and how each rule attacks them.
//
// Walks one design through:
//   1. per-net variation anatomy (process sigma vs crosstalk) at each rule,
//   2. the per-sink uncertainty distribution under default/blanket/smart,
//   3. EM current-density margins per rule on the heaviest nets.
//
// Usage: variation_analysis [sinks] [seed]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "ndr/smart_ndr.hpp"
#include "report/table.hpp"
#include "route/congestion_route.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace sndr;
  using units::to_ps;

  workload::DesignSpec spec;
  spec.name = "variation_analysis";
  spec.num_sinks = argc > 1 ? std::atoi(argv[1]) : 1024;
  spec.dist = workload::SinkDistribution::kClustered;
  spec.seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 19;
  netlist::Design design = workload::make_design(spec);
  const tech::Technology tech = tech::Technology::make_default_45nm();

  cts::CtsResult cts = cts::synthesize(design, tech);
  route::reroute_for_congestion(cts.tree, design.congestion);
  cts::refine_skew(cts.tree, design, tech);
  const netlist::NetList nets = netlist::build_nets(cts.tree);
  const netlist::RoutingFootprint footprint(cts.tree, nets, design.congestion);
  const timing::AnalysisOptions aopt;

  // --- 1. Variation anatomy of a trunk net and a leaf net, per rule.
  std::cout << "1. Per-net variation anatomy (sigma / xtalk / EM, per rule)\n\n";
  report::Table anatomy({"net", "rule", "cap (fF)", "sigma (ps)",
                         "xtalk (ps)", "EM (mA/um)", "step slew (ps)"});
  const int trunk = 1;
  const int leaf = nets.size() - 1;
  for (const int net_id : {trunk, leaf}) {
    const ndr::NetSummary s =
        ndr::summarize_net(cts.tree, design, tech, nets[net_id], footprint,
                           aopt);
    for (int r = 0; r < tech.rules.size(); ++r) {
      const ndr::NetExact e = ndr::evaluate_net_exact(
          cts.tree, design, tech, nets[net_id], tech.rules[r], s.driver_res,
          design.constraints.clock_freq);
      anatomy.add_row({(net_id == trunk ? "trunk#" : "leaf#") +
                           std::to_string(net_id),
                       tech.rules[r].name,
                       report::fmt(units::to_fF(e.cap_switched), 1),
                       report::fmt(to_ps(e.sigma_worst), 2),
                       report::fmt(to_ps(e.xtalk_worst), 2),
                       report::fmt(units::to_mA(e.em_peak), 2),
                       report::fmt(to_ps(e.step_slew_worst), 1)});
    }
  }
  anatomy.print(std::cout);

  // --- 2. Uncertainty distribution across sinks.
  std::cout << "\n2. Per-sink uncertainty (3*sigma + crosstalk) distribution\n\n";
  report::Table dist({"flow", "p50 (ps)", "p90 (ps)", "max (ps)",
                      "budget (ps)", "violations"});
  const auto add_dist = [&](const char* name,
                            const ndr::FlowEvaluation& ev) {
    std::vector<double> u = ev.variation.sink_uncertainty;
    std::sort(u.begin(), u.end());
    const auto pct = [&](double p) {
      return u[static_cast<std::size_t>(p * (u.size() - 1))];
    };
    dist.add_row({name, report::fmt(to_ps(pct(0.5)), 1),
                  report::fmt(to_ps(pct(0.9)), 1),
                  report::fmt(to_ps(u.back()), 1),
                  report::fmt(to_ps(design.constraints.max_uncertainty), 0),
                  std::to_string(ev.uncertainty_violations)});
  };
  add_dist("all-default", ndr::evaluate(cts.tree, design, tech, nets,
                                        ndr::assign_all(nets, 0)));
  add_dist("blanket-NDR",
           ndr::evaluate(cts.tree, design, tech, nets,
                         ndr::assign_all(nets, tech.rules.blanket_index())));
  const ndr::SmartNdrResult smart =
      ndr::optimize_smart_ndr(cts.tree, design, tech, nets);
  add_dist("smart-NDR", smart.final_eval);
  dist.print(std::cout);

  // --- 3. EM margins on the heaviest nets under the smart assignment.
  std::cout << "\n3. EM signoff: tightest current-density margins (smart)\n\n";
  std::vector<int> order(nets.size());
  for (int i = 0; i < nets.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return smart.final_eval.em.net_slack[a] < smart.final_eval.em.net_slack[b];
  });
  report::Table em({"net", "rule", "peak J (mA/um)", "limit", "margin"});
  for (int k = 0; k < std::min(5, nets.size()); ++k) {
    const int id = order[k];
    em.add_row({std::to_string(id),
                tech.rules[smart.assignment[id]].name,
                report::fmt(units::to_mA(
                                smart.final_eval.em.net_peak_density[id]), 2),
                report::fmt(units::to_mA(tech.clock_layer.em_jmax), 2),
                report::fmt_pct(smart.final_eval.em.net_slack[id] /
                                tech.clock_layer.em_jmax)});
  }
  em.print(std::cout);
  std::cout << "\nsmart NDR is " << (smart.final_eval.feasible() ? "" : "NOT ")
            << "feasible on all robustness constraints\n";
  return 0;
}
