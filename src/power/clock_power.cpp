#include "power/clock_power.hpp"

#include <stdexcept>

namespace sndr::power {

PowerReport analyze_power(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("analyze_power: parasitics size mismatch");
  }
  return analyze_power(tree, design, tech, nets, cap_source(parasitics));
}

NetCapSource cap_source(
    const std::vector<extract::NetParasitics>& parasitics) {
  return [&parasitics](int net_id) {
    const extract::NetParasitics& par = parasitics[net_id];
    return NetCaps{par.wire_cap_gnd, par.wire_cap_cpl, par.load_cap};
  };
}

PowerReport analyze_power(const netlist::ClockTree& tree,
                          const netlist::Design& design,
                          const tech::Technology& tech,
                          const netlist::NetList& nets,
                          const NetCapSource& caps) {
  const double freq = design.constraints.clock_freq;
  const double vdd2 = tech.vdd * tech.vdd;

  const netlist::ClockDomainMap& domains = design.clock_domains;

  PowerReport rep;
  rep.net_switched_cap.assign(nets.size(), 0.0);
  rep.net_power.assign(nets.size(), 0.0);
  rep.net_toggle_weight.assign(nets.size(), 1.0);

  for (const netlist::Net& net : nets.nets) {
    const NetCaps c = caps(net.id);
    const double c_sw =
        c.wire_cap_gnd + c.load_cap + tech.miller_power * c.wire_cap_cpl;
    const double w = domains.node_toggle_weight(net.driver);
    rep.net_switched_cap[net.id] = c_sw;
    rep.net_toggle_weight[net.id] = w;
    rep.net_power[net.id] = c_sw * vdd2 * freq * w;
    rep.wire_cap_gnd += c.wire_cap_gnd;
    rep.wire_cap_cpl += c.wire_cap_cpl;
    rep.pin_cap += c.load_cap;
    rep.switched_cap += c_sw;
    rep.weighted_switched_cap += c_sw * w;
    rep.net_switching_power += rep.net_power[net.id];
  }

  for (int v = 0; v < tree.size(); ++v) {
    const netlist::TreeNode& n = tree.node(v);
    if (n.kind == netlist::NodeKind::kBuffer) {
      rep.buffer_internal_power += tech.buffers[n.cell].internal_energy *
                                   freq * domains.node_toggle_weight(v);
    }
  }
  rep.total_power = rep.net_switching_power + rep.buffer_internal_power;
  return rep;
}

}  // namespace sndr::power
