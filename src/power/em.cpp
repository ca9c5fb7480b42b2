#include "power/em.hpp"

#include <algorithm>
#include <stdexcept>

namespace sndr::power {

double net_peak_current_density(const extract::NetParasitics& par,
                                const tech::Technology& tech,
                                const tech::RoutingRule& rule, double freq) {
  const std::vector<double> down =
      par.rc.downstream_cap(tech.miller_power);
  return net_peak_current_density(par, down.data(), tech, rule, freq);
}

double net_peak_current_density(const extract::NetParasitics& par,
                                const double* down,
                                const tech::Technology& tech,
                                const tech::RoutingRule& rule, double freq) {
  const double width = tech.clock_layer.min_width * rule.width_mult;
  double worst = 0.0;
  for (int i = 0; i < par.rc.size(); ++i) {
    const extract::RcNode& n = par.rc.node(i);
    if (n.wire_len <= 0.0) continue;
    // Current through this piece charges everything at and below it.
    const double i_avg = freq * tech.vdd * down[i];
    const double i_rms = tech.em_crest_factor * i_avg;
    worst = std::max(worst, i_rms / width);
  }
  return worst;
}

EmReport analyze_em(const netlist::Design& design,
                    const tech::Technology& tech,
                    const netlist::NetList& nets,
                    const std::vector<extract::NetParasitics>& parasitics,
                    const std::vector<int>& rule_of_net) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size()) ||
      rule_of_net.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("analyze_em: per-net input size mismatch");
  }
  return analyze_em(
      tech, nets, density_source(design, tech, nets, parasitics, rule_of_net));
}

NetDensitySource density_source(
    const netlist::Design& design, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net) {
  // Domain-aware RMS scaling: the base density is computed at the root
  // rate and scaled afterwards (never by folding the scale into `freq`),
  // so the incremental searches' post-multiplied exact_eval values match
  // this signoff bit for bit — and a neutral scale (1.0) is an identity.
  return [&design, &tech, &nets, &parasitics, &rule_of_net](int net_id) {
    return net_peak_current_density(parasitics[net_id], tech,
                                    tech.rules[rule_of_net[net_id]],
                                    design.constraints.clock_freq) *
           design.clock_domains.node_em_scale(nets.nets[net_id].driver);
  };
}

EmReport analyze_em(const tech::Technology& tech,
                    const netlist::NetList& nets,
                    const NetDensitySource& density) {
  const double jmax = tech.clock_layer.em_jmax;

  EmReport rep;
  rep.net_peak_density.assign(nets.size(), 0.0);
  rep.net_slack.assign(nets.size(), 0.0);
  for (const netlist::Net& net : nets.nets) {
    const double j = density(net.id);
    rep.net_peak_density[net.id] = j;
    rep.net_slack[net.id] = jmax - j;
    if (j > rep.worst_density) {
      rep.worst_density = j;
      rep.worst_net = net.id;
    }
  }
  return rep;
}

}  // namespace sndr::power
