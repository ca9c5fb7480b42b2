#include "timing/delta_timing.hpp"

#include <algorithm>
#include <stdexcept>

#include "timing/delay_metrics.hpp"
#include "timing/variation.hpp"

namespace sndr::timing {

using netlist::NodeKind;

DeltaTimer::DeltaTimer(const netlist::ClockTree& tree,
                       const netlist::Design& design,
                       const tech::Technology& tech,
                       const netlist::NetList& nets,
                       const AnalysisOptions& options)
    : tree_(&tree), tech_(&tech), nets_(&nets), options_(options) {
  child_nets_.assign(nets.size(), {});
  for (const netlist::Net& net : nets.nets) {
    for (const int load : net.loads) {
      const int child = nets.net_driven[load];
      if (child >= 0) child_nets_[net.id].push_back(child);
    }
  }
  node_arrival_.assign(tree.size(), 0.0);
  node_slew_.assign(tree.size(), 0.0);
  sink_arrival_.assign(design.sinks.size(), 0.0);
  sink_slew_.assign(design.sinks.size(), 0.0);
}

void DeltaTimer::rebuild(const TimingReport& report) {
  if (report.node_wire_delay.size() != node_arrival_.size() ||
      report.net_wire_delay_worst.size() != child_nets_.size()) {
    throw std::invalid_argument("DeltaTimer::rebuild: report size mismatch");
  }
  node_arrival_ = report.node_arrival;
  node_slew_ = report.node_slew;
  sink_arrival_ = report.sink_arrival;
  sink_slew_ = report.sink_slew;
  wire_delay_ = report.node_wire_delay;
  step_slew_ = report.node_step_slew;
  wd_worst_ = report.net_wire_delay_worst;
  subtree_.clear();
  synced_ = true;
}

void DeltaTimer::apply_net_change(int net_id,
                                  const extract::NetParasitics& par) {
  if (!synced_) {
    throw std::logic_error("DeltaTimer::apply_net_change before rebuild");
  }
  const netlist::Net& changed = nets_->nets[static_cast<std::size_t>(net_id)];
  const double driver_res =
      net_driver_res(*tree_, *tech_, changed, options_);
  par.rc.moments(driver_res, options_.timing_miller, moments_);
  // analyze()'s per-load wire terms, in its op order.
  double worst = 0.0;
  for (std::size_t li = 0; li < changed.loads.size(); ++li) {
    const int load = changed.loads[li];
    const int rc = par.load_rc_index[li];
    const double d2m = delay_d2m(moments_.m1[rc], moments_.m2[rc]);
    wire_delay_[load] =
        options_.use_d2m ? d2m : delay_elmore(moments_.m1[rc]);
    step_slew_[load] = step_slew(moments_.m1[rc], moments_.m2[rc]);
    worst = std::max(worst, d2m);
  }
  wd_worst_[net_id] = worst;

  // Collect the descendant net subtree, then process in ascending id order:
  // net ids are depth-monotonic, so ascending order visits parents first and
  // every driver's input arrival/slew is final before its net is replayed.
  subtree_.clear();
  subtree_.push_back(net_id);
  for (std::size_t head = 0; head < subtree_.size(); ++head) {
    for (const int child : child_nets_[subtree_[head]]) {
      subtree_.push_back(child);
    }
  }
  std::sort(subtree_.begin(), subtree_.end());
  for (const int id : subtree_) {
    propagate_net(nets_->nets[static_cast<std::size_t>(id)]);
  }
}

void DeltaTimer::propagate_net(const netlist::Net& net) {
  const netlist::TreeNode& drv = tree_->node(net.driver);
  double out_arrival = 0.0;
  double out_slew = 0.0;
  if (drv.kind == NodeKind::kSource) {
    out_arrival = 0.0;
    out_slew = options_.source_slew;
  } else {
    const tech::BufferCell& cell = tech_->buffers[drv.cell];
    const double in_arrival = node_arrival_[net.driver];
    const double in_slew = node_slew_[net.driver];
    out_arrival = in_arrival + cell.intrinsic_delay +
                  cell.slew_sensitivity * in_slew;
    out_slew = 0.4 * cell.intrinsic_delay;  // regenerated edge.
  }

  for (const int load : net.loads) {
    const double arrival = out_arrival + wire_delay_[load];
    const double slew = peri_slew(out_slew, step_slew_[load]);
    node_arrival_[load] = arrival;
    node_slew_[load] = slew;
    const netlist::TreeNode& ln = tree_->node(load);
    if (ln.kind == NodeKind::kSink) {
      sink_arrival_[ln.sink] = arrival;
      sink_slew_[ln.sink] = slew;
    }
  }
}

}  // namespace sndr::timing
