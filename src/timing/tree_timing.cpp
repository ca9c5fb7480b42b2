#include "timing/tree_timing.hpp"

#include <algorithm>
#include <stdexcept>

#include "timing/delay_metrics.hpp"

namespace sndr::timing {

using netlist::NodeKind;

TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const std::vector<extract::NetParasitics>& parasitics,
                     const AnalysisOptions& options) {
  if (parasitics.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("timing::analyze: parasitics size mismatch");
  }
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
  // time its net is processed. One moment scratch serves every net.
  extract::RcMoments moments;
  for (const netlist::Net& net : nets.nets) {
    const extract::NetParasitics& par = parasitics[net.id];
    const netlist::TreeNode& drv = tree.node(net.driver);

    const double miller = options.timing_miller;

    // Driver stage. The driver's resistive R*C contribution is carried by
    // the RC-tree moments (driver_res enters the Elmore recursion), so the
    // cell itself only contributes its intrinsic delay and the input-slew
    // sensitivity — adding BufferCell::delay here would double-count R*C.
    double out_arrival = 0.0;
    double out_slew = 0.0;  // transition at the driver output, pre-wire.
    double driver_res = 0.0;
    if (drv.kind == NodeKind::kSource) {
      driver_res = options.source_drive_res;
      out_arrival = 0.0;
      out_slew = options.source_slew;
    } else {
      const tech::BufferCell& cell = tech.buffers[drv.cell];
      driver_res = cell.drive_res;
      const double in_arrival = rep.node_arrival[net.driver];
      const double in_slew = rep.node_slew[net.driver];
      out_arrival = in_arrival + cell.intrinsic_delay +
                    cell.slew_sensitivity * in_slew;
      out_slew = 0.4 * cell.intrinsic_delay;  // regenerated edge.
    }

    // Fused kernel: down-cap, m1 and m2 in two sweeps, no allocation.
    par.rc.moments(driver_res, miller, moments);
    const std::vector<double>& m1 = moments.m1;
    const std::vector<double>& m2 = moments.m2;
    rep.net_driver_load[net.id] = moments.down[0];

    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      const int load = net.loads[li];
      const int rc = par.load_rc_index[li];
      const double d2m = delay_d2m(m1[rc], m2[rc]);
      const double wire_delay =
          options.use_d2m ? d2m : delay_elmore(m1[rc]);
      const double wire_slew = step_slew(m1[rc], m2[rc]);
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
