// Exporting the flow's artifacts: SPEF parasitics for a downstream signoff
// tool, and SVG renderings of the blanket vs smart rule assignments.
//
// Usage: export_artifacts [sinks] [out_prefix]
// Writes <prefix>.spef, <prefix>_blanket.svg, <prefix>_smart.svg.
#include <cstdlib>
#include <iostream>
#include <string>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "io/spef.hpp"
#include "io/svg.hpp"
#include "ndr/smart_ndr.hpp"
#include "route/congestion_route.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace sndr;

  workload::DesignSpec spec;
  spec.name = "export_artifacts";
  spec.num_sinks = argc > 1 ? std::atoi(argv[1]) : 512;
  spec.dist = workload::SinkDistribution::kClustered;
  spec.seed = 19;
  const std::string prefix = argc > 2 ? argv[2] : "clock_tree";

  const netlist::Design design = workload::make_design(spec);
  const tech::Technology tech = tech::Technology::make_default_45nm();
  cts::CtsResult cts = cts::synthesize(design, tech);
  route::reroute_for_congestion(cts.tree, design.congestion);
  cts::refine_skew(cts.tree, design, tech);
  const netlist::NetList nets = netlist::build_nets(cts.tree);

  const ndr::SmartNdrResult smart =
      ndr::optimize_smart_ndr(cts.tree, design, tech, nets);

  // SPEF of the final (smart) parasitics — ready for an external STA.
  // Evaluations keep no parasitics, so extract the final assignment here.
  const std::vector<extract::NetParasitics> parasitics =
      extract::Extractor(tech, design)
          .extract_all(cts.tree, nets, smart.assignment);
  io::write_spef_file(prefix + ".spef", cts.tree, design, nets, parasitics);
  std::cout << "wrote " << prefix << ".spef (" << nets.size() << " nets)\n";

  // Round-trip sanity so the example doubles as a self-check.
  const io::SpefFile back = io::read_spef_file(prefix + ".spef");
  double written = 0.0;
  for (const auto& par : parasitics) {
    written += par.switched_cap(1.0);
  }
  double reread = 0.0;
  for (const auto& n : back.nets) reread += n.cap_sum();
  std::cout << "round-trip cap: written " << units::to_fF(written)
            << " fF, re-read " << units::to_fF(reread) << " fF\n";

  // SVGs: same tree, blanket vs smart coloring.
  io::write_svg_file(prefix + "_blanket.svg", cts.tree, design, tech, nets,
                     ndr::assign_all(nets, tech.rules.blanket_index()));
  io::write_svg_file(prefix + "_smart.svg", cts.tree, design, tech, nets,
                     smart.assignment);
  std::cout << "wrote " << prefix << "_blanket.svg and " << prefix
            << "_smart.svg (open in a browser)\n";

  std::cout << "smart rule mix:";
  for (int r = 0; r < tech.rules.size(); ++r) {
    std::cout << ' ' << tech.rules[r].name << '=' << smart.rule_histogram[r];
  }
  std::cout << '\n';
  return 0;
}
