#include "timing/variation.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"

namespace sndr::timing {

using netlist::NodeKind;

double NetVariationDetail::worst_sigma() const {
  double w = 0.0;
  for (const double s : load_sigma) w = std::max(w, s);
  return w;
}

double NetVariationDetail::worst_xtalk() const {
  double w = 0.0;
  for (const double x : load_xtalk) w = std::max(w, x);
  return w;
}

double net_driver_res(const netlist::ClockTree& tree,
                      const tech::Technology& tech, const netlist::Net& net,
                      const AnalysisOptions& options) {
  const netlist::TreeNode& drv = tree.node(net.driver);
  return drv.kind == NodeKind::kSource ? options.source_drive_res
                                       : tech.buffers[drv.cell].drive_res;
}

namespace {

/// Elmore delay at each load for the given node array, through the shared
/// scratch kernels (no allocation once the scratch has warmed up).
void load_elmore(const extract::RcNode* nodes, int n,
                 const std::vector<int>& load_rc_index, double driver_res,
                 double miller, VariationScratch& scratch,
                 std::vector<double>& out) {
  scratch.down.resize(static_cast<std::size_t>(n));
  scratch.m1.resize(static_cast<std::size_t>(n));
  extract::rc_elmore(nodes, n, driver_res, miller, scratch.down.data(),
                     scratch.m1.data());
  out.resize(load_rc_index.size());
  for (std::size_t i = 0; i < load_rc_index.size(); ++i) {
    out[i] = scratch.m1[load_rc_index[i]];
  }
}

}  // namespace

void net_variation(const extract::NetParasitics& par,
                   const tech::Technology& tech,
                   const tech::RoutingRule& rule, double driver_res,
                   VariationScratch& scratch, NetVariationDetail& out) {
  const tech::MetalLayer& layer = tech.clock_layer;
  const double width = layer.min_width * rule.width_mult;
  const double d_w = layer.sigma_width;        // um, 1 sigma.
  const double d_t = layer.sigma_thickness;    // fraction, 1 sigma.

  const extract::RcNode* nodes = par.rc.data();
  const int n = par.rc.size();

  load_elmore(nodes, n, par.load_rc_index, driver_res, 1.0, scratch,
              scratch.base);

  // Width +1 sigma: R scales W/(W+dW); area cap grows by c_area*dW per um.
  scratch.perturbed.assign(par.rc.nodes().begin(), par.rc.nodes().end());
  for (extract::RcNode& pn : scratch.perturbed) {
    if (pn.wire_len <= 0.0) continue;
    pn.res *= width / (width + d_w);
    pn.cap_gnd += layer.c_area * d_w * pn.wire_len;
  }
  load_elmore(scratch.perturbed.data(), n, par.load_rc_index, driver_res, 1.0,
              scratch, scratch.w_pert);

  // Thickness +1 sigma: R scales 1/(1+dT); coupling scales (1+dT).
  scratch.perturbed.assign(par.rc.nodes().begin(), par.rc.nodes().end());
  for (extract::RcNode& pn : scratch.perturbed) {
    if (pn.wire_len <= 0.0) continue;
    pn.res /= 1.0 + d_t;
    pn.cap_cpl *= 1.0 + d_t;
  }
  load_elmore(scratch.perturbed.data(), n, par.load_rc_index, driver_res, 1.0,
              scratch, scratch.t_pert);

  // Crosstalk: extra Miller charge on coupling caps, weighted by the
  // probability that the neighbor actually switches against us.
  load_elmore(nodes, n, par.load_rc_index, driver_res, tech.miller_delay,
              scratch, scratch.x_pert);

  out.load_sigma.resize(scratch.base.size());
  out.load_xtalk.resize(scratch.base.size());
  for (std::size_t i = 0; i < scratch.base.size(); ++i) {
    const double dw = scratch.w_pert[i] - scratch.base[i];
    const double dt = scratch.t_pert[i] - scratch.base[i];
    out.load_sigma[i] = std::sqrt(dw * dw + dt * dt);
    out.load_xtalk[i] = tech.aggressor_activity *
                        std::max(0.0, scratch.x_pert[i] - scratch.base[i]);
  }
}

NetVariationDetail net_variation(const extract::NetParasitics& par,
                                 const tech::Technology& tech,
                                 const tech::RoutingRule& rule,
                                 double driver_res) {
  VariationScratch scratch;
  NetVariationDetail out;
  net_variation(par, tech, rule, driver_res, scratch, out);
  return out;
}

std::vector<NetVariationDetail> net_variations(
    const netlist::ClockTree& tree, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net, const AnalysisOptions& options) {
  std::vector<NetVariationDetail> details(nets.size());
  common::parallel_for(nets.size(), /*grain=*/8, /*est_us_per_item=*/2.0,
                       [&](std::int64_t i) {
    thread_local VariationScratch scratch;  // reused across nets per worker.
    const netlist::Net& net = nets.nets[static_cast<std::size_t>(i)];
    net_variation(parasitics[net.id], tech, tech.rules[rule_of_net[net.id]],
                  net_driver_res(tree, tech, net, options), scratch,
                  details[i]);
  });
  return details;
}

NetVariationSource variation_source(
    const std::vector<NetVariationDetail>& details) {
  return [&details](int net_id) {
    const NetVariationDetail& d = details[net_id];
    return NetLoadVariation{d.load_sigma.data(), d.load_xtalk.data()};
  };
}

VariationReport analyze_variation(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net, const AnalysisOptions& options) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size()) ||
      rule_of_net.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument(
        "analyze_variation: per-net input size mismatch");
  }
  const std::vector<NetVariationDetail> details =
      net_variations(tree, tech, nets, parasitics, rule_of_net, options);
  return analyze_variation(tree, design, nets, variation_source(details));
}

VariationReport analyze_variation(const netlist::ClockTree& tree,
                                  const netlist::Design& design,
                                  const netlist::NetList& nets,
                                  const NetVariationSource& terms) {
  VariationReport rep;
  rep.net_sigma.assign(nets.size(), 0.0);
  rep.net_xtalk.assign(nets.size(), 0.0);
  rep.sink_sigma.assign(design.sinks.size(), 0.0);
  rep.sink_xtalk.assign(design.sinks.size(), 0.0);
  rep.sink_uncertainty.assign(design.sinks.size(), 0.0);

  // Accumulators at driver inputs (tree node id -> path variance / xtalk).
  std::vector<double> node_var(tree.size(), 0.0);
  std::vector<double> node_xtalk(tree.size(), 0.0);

  for (const netlist::Net& net : nets.nets) {
    const NetLoadVariation load = terms(net.id);
    const double up_var = node_var[net.driver];
    const double up_xtalk = node_xtalk[net.driver];
    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      const double sigma_li = load.sigma[li];
      const double xtalk_li = load.xtalk[li];
      rep.net_sigma[net.id] = std::max(rep.net_sigma[net.id], sigma_li);
      rep.net_xtalk[net.id] = std::max(rep.net_xtalk[net.id], xtalk_li);
      const int ld = net.loads[li];
      node_var[ld] = up_var + sigma_li * sigma_li;
      node_xtalk[ld] = up_xtalk + xtalk_li;
      const netlist::TreeNode& ln = tree.node(ld);
      if (ln.kind == NodeKind::kSink) {
        const double sigma = std::sqrt(node_var[ld]);
        rep.sink_sigma[ln.sink] = sigma;
        rep.sink_xtalk[ln.sink] = node_xtalk[ld];
        rep.sink_uncertainty[ln.sink] = 3.0 * sigma + node_xtalk[ld];
        rep.max_uncertainty =
            std::max(rep.max_uncertainty, rep.sink_uncertainty[ln.sink]);
      }
    }
  }
  return rep;
}

}  // namespace sndr::timing
