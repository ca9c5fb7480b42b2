#include "timing/tree_timing.hpp"

#include <algorithm>
#include <stdexcept>

#include "timing/delay_metrics.hpp"
#include "timing/variation.hpp"

namespace sndr::timing {

using netlist::NodeKind;

NetMomentSource moment_source(
    const netlist::ClockTree& tree, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const AnalysisOptions& options) {
  // One moment scratch and one gather buffer serve every net.
  return [&tree, &tech, &nets, &parasitics, options,
          moments = extract::RcMoments{},
          m12 = std::vector<double>{}](int net_id) mutable {
    const netlist::Net& net = nets.nets[net_id];
    const extract::NetParasitics& par = parasitics[net_id];
    // Fused kernel: down-cap, m1 and m2 in two sweeps, no allocation.
    par.rc.moments(net_driver_res(tree, tech, net, options),
                   options.timing_miller, moments);
    m12.resize(2 * net.loads.size());
    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      m12[2 * li] = moments.m1[par.load_rc_index[li]];
      m12[2 * li + 1] = moments.m2[par.load_rc_index[li]];
    }
    return NetMoments{moments.down[0], m12.data()};
  };
}

TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const std::vector<extract::NetParasitics>& parasitics,
                     const AnalysisOptions& options) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("timing::analyze: parasitics size mismatch");
  }
  return analyze(tree, design, tech, nets,
                 moment_source(tree, tech, nets, parasitics, options),
                 options);
}

TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const NetMomentSource& moments,
                     const AnalysisOptions& options) {
  TimingReport rep;
  rep.sink_arrival.assign(design.sinks.size(), 0.0);
  rep.sink_slew.assign(design.sinks.size(), 0.0);
  rep.node_arrival.assign(tree.size(), 0.0);
  rep.node_slew.assign(tree.size(), 0.0);
  rep.node_wire_delay.assign(tree.size(), 0.0);
  rep.node_step_slew.assign(tree.size(), 0.0);
  rep.net_max_load_slew.assign(nets.size(), 0.0);
  rep.net_driver_load.assign(nets.size(), 0.0);
  rep.net_wire_delay_worst.assign(nets.size(), 0.0);

  rep.min_latency = std::numeric_limits<double>::infinity();
  rep.max_latency = -std::numeric_limits<double>::infinity();

  // Nets are root-first, so the driver's input arrival/slew are final by the
  // time its net is processed.
  for (const netlist::Net& net : nets.nets) {
    const netlist::TreeNode& drv = tree.node(net.driver);

    // Driver stage. The driver's resistive R*C contribution is carried by
    // the RC-tree moments (driver_res enters the Elmore recursion), so the
    // cell itself only contributes its intrinsic delay and the input-slew
    // sensitivity — adding BufferCell::delay here would double-count R*C.
    double out_arrival = 0.0;
    double out_slew = 0.0;  // transition at the driver output, pre-wire.
    if (drv.kind == NodeKind::kSource) {
      out_arrival = 0.0;
      out_slew = options.source_slew;
    } else {
      const tech::BufferCell& cell = tech.buffers[drv.cell];
      const double in_arrival = rep.node_arrival[net.driver];
      const double in_slew = rep.node_slew[net.driver];
      out_arrival = in_arrival + cell.intrinsic_delay +
                    cell.slew_sensitivity * in_slew;
      out_slew = 0.4 * cell.intrinsic_delay;  // regenerated edge.
    }

    const NetMoments terms = moments(net.id);
    rep.net_driver_load[net.id] = terms.driver_load;

    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      const int load = net.loads[li];
      const double m1 = terms.m12[2 * li];
      const double m2 = terms.m12[2 * li + 1];
      const double d2m = delay_d2m(m1, m2);
      const double wire_delay = options.use_d2m ? d2m : delay_elmore(m1);
      const double wire_slew = step_slew(m1, m2);
      const double arrival = out_arrival + wire_delay;
      const double slew = peri_slew(out_slew, wire_slew);
      rep.node_wire_delay[load] = wire_delay;
      rep.node_step_slew[load] = wire_slew;
      rep.net_wire_delay_worst[net.id] =
          std::max(rep.net_wire_delay_worst[net.id], d2m);
      rep.node_arrival[load] = arrival;
      rep.node_slew[load] = slew;
      rep.net_max_load_slew[net.id] =
          std::max(rep.net_max_load_slew[net.id], slew);
      rep.max_slew = std::max(rep.max_slew, slew);

      const netlist::TreeNode& ln = tree.node(load);
      if (ln.kind == NodeKind::kSink) {
        rep.sink_arrival[ln.sink] = arrival;
        rep.sink_slew[ln.sink] = slew;
        rep.min_latency = std::min(rep.min_latency, arrival);
        rep.max_latency = std::max(rep.max_latency, arrival);
      }
    }
  }

  if (design.sinks.empty()) {
    rep.min_latency = rep.max_latency = 0.0;
  }
  return rep;
}

}  // namespace sndr::timing
