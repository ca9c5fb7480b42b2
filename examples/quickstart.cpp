// Quickstart: the whole smart-NDR flow on a 200-sink design in ~40 lines.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "ndr/smart_ndr.hpp"
#include "report/table.hpp"
#include "route/congestion_route.hpp"
#include "tech/technology.hpp"
#include "workload/generator.hpp"

int main() {
  using namespace sndr;
  using units::to_fF;
  using units::to_ps;
  using units::to_uW;

  // 1. A design: 200 sinks, uniform spread (swap in your own Design here).
  const netlist::Design design =
      workload::make_design(workload::quickstart_spec());
  const tech::Technology tech = tech::Technology::make_default_45nm();

  // 2. Clock tree synthesis (topology + balanced embedding + buffering).
  cts::CtsResult cts = cts::synthesize(design, tech);
  route::reroute_for_congestion(cts.tree, design.congestion);
  cts::refine_skew(cts.tree, design, tech);
  const netlist::NetList nets = netlist::build_nets(cts.tree);
  std::cout << "CTS: " << cts.buffers << " buffers, " << nets.size()
            << " nets, " << units::to_mm(cts.wirelength) << " mm wire\n\n";

  // 3. Baselines: every net on the default rule / on the blanket NDR.
  const auto all_default =
      ndr::evaluate(cts.tree, design, tech, nets,
                    ndr::assign_all(nets, tech.rules.default_index()));
  const auto blanket =
      ndr::evaluate(cts.tree, design, tech, nets,
                    ndr::assign_all(nets, tech.rules.blanket_index()));

  // 4. Smart NDR.
  const ndr::SmartNdrResult smart =
      ndr::optimize_smart_ndr(cts.tree, design, tech, nets);

  // 5. Compare.
  report::Table t({"flow", "clk power (uW)", "switched cap (fF)",
                   "skew (ps)", "max slew (ps)", "slew viol", "EM viol",
                   "unc viol", "feasible"});
  const auto row = [&](const char* name, const ndr::FlowEvaluation& ev) {
    t.add_row({name, report::fmt(to_uW(ev.power.total_power)),
               report::fmt(to_fF(ev.power.switched_cap)),
               report::fmt(to_ps(ev.timing.skew())),
               report::fmt(to_ps(ev.timing.max_slew)),
               std::to_string(ev.slew_violations),
               std::to_string(ev.em_violations),
               std::to_string(ev.uncertainty_violations),
               ev.feasible() ? "yes" : "NO"});
  };
  row("all-default", all_default);
  row("blanket-NDR", blanket);
  row("smart-NDR", smart.final_eval);
  t.print(std::cout);

  const double save = 1.0 - smart.final_eval.power.total_power /
                                blanket.power.total_power;
  std::cout << "\nSmart NDR saves " << report::fmt_pct(save)
            << " clock power vs blanket NDR ("
            << nets.size() - smart.rule_histogram[tech.rules.blanket_index()]
            << " rule changes, "
            << smart.stats.exact_net_evals << " exact net evals)\n";
  std::cout << "Rule mix:";
  for (int r = 0; r < tech.rules.size(); ++r) {
    std::cout << ' ' << tech.rules[r].name << '='
              << smart.rule_histogram[r];
  }
  std::cout << '\n';
  return 0;
}
