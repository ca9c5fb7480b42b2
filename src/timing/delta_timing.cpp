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
  // Depth-first preorder from every root net: a net's position opens its
  // slice and the ~net marker, popped after all of its descendants, closes
  // it.
  const int n_nets = nets.size();
  order_.reserve(static_cast<std::size_t>(n_nets));
  pos_.assign(n_nets, 0);
  end_.assign(n_nets, 0);
  std::vector<int> stack;
  for (const netlist::Net& root : nets.nets) {
    if (nets.net_of_edge[root.driver] >= 0) continue;
    stack.push_back(root.id);
    while (!stack.empty()) {
      const int id = stack.back();
      stack.pop_back();
      if (id < 0) {
        end_[~id] = static_cast<int>(order_.size());
        continue;
      }
      pos_[id] = static_cast<int>(order_.size());
      order_.push_back(id);
      stack.push_back(~id);
      const std::vector<int>& loads = nets.nets[id].loads;
      for (auto it = loads.rbegin(); it != loads.rend(); ++it) {
        const int child = nets.net_driven[*it];
        if (child >= 0) stack.push_back(child);
      }
    }
  }
  if (static_cast<int>(order_.size()) != n_nets) {
    throw std::invalid_argument("DeltaTimer: nets do not form a forest");
  }

  std::size_t n_loads = 0;
  for (const netlist::Net& net : nets.nets) n_loads += net.loads.size();
  driver_.resize(order_.size());
  load_lo_.reserve(order_.size() + 1);
  load_node_.reserve(n_loads);
  load_sink_.reserve(n_loads);
  for (std::size_t p = 0; p < order_.size(); ++p) {
    const netlist::Net& net = nets.nets[order_[p]];
    const netlist::TreeNode& drv = tree.node(net.driver);
    Driver& d = driver_[p];
    if (drv.kind == NodeKind::kSource) {
      d.out_slew = options_.source_slew;
    } else {
      const tech::BufferCell& cell = tech.buffers[drv.cell];
      d.node = net.driver;
      d.intrinsic = cell.intrinsic_delay;
      d.sensitivity = cell.slew_sensitivity;
      d.out_slew = 0.4 * cell.intrinsic_delay;  // regenerated edge.
    }
    load_lo_.push_back(static_cast<int>(load_node_.size()));
    for (const int load : net.loads) {
      const netlist::TreeNode& ln = tree.node(load);
      load_node_.push_back(load);
      load_sink_.push_back(ln.kind == NodeKind::kSink ? ln.sink : -1);
    }
  }
  load_lo_.push_back(static_cast<int>(load_node_.size()));

  wire_delay_.assign(load_node_.size(), 0.0);
  step_slew_.assign(load_node_.size(), 0.0);
  node_arrival_.assign(tree.size(), 0.0);
  node_slew_.assign(tree.size(), 0.0);
  sink_arrival_.assign(design.sinks.size(), 0.0);
  sink_slew_.assign(design.sinks.size(), 0.0);
}

void DeltaTimer::rebuild(const TimingReport& report) {
  if (report.node_wire_delay.size() != node_arrival_.size() ||
      report.net_wire_delay_worst.size() != pos_.size()) {
    throw std::invalid_argument("DeltaTimer::rebuild: report size mismatch");
  }
  node_arrival_ = report.node_arrival;
  node_slew_ = report.node_slew;
  sink_arrival_ = report.sink_arrival;
  sink_slew_ = report.sink_slew;
  for (std::size_t k = 0; k < load_node_.size(); ++k) {
    wire_delay_[k] = report.node_wire_delay[load_node_[k]];
    step_slew_[k] = report.node_step_slew[load_node_[k]];
  }
  wd_worst_ = report.net_wire_delay_worst;
  last_lo_ = last_hi_ = 0;
  synced_ = true;
}

double DeltaTimer::out_arrival(int p) const {
  // analyze()'s driver stage, in its op order; the source launches at 0.
  const Driver& d = driver_[p];
  if (d.node < 0) return 0.0;
  return node_arrival_[d.node] + d.intrinsic +
         d.sensitivity * node_slew_[d.node];
}

void DeltaTimer::apply_net_change(int net_id, const double* m12) {
  if (!synced_) {
    throw std::logic_error("DeltaTimer::apply_net_change before rebuild");
  }
  const int p0 = pos_[net_id];
  const int lo = load_lo_[p0];
  const int hi = load_lo_[p0 + 1];
  // analyze()'s per-load wire terms, in its op order.
  double worst = 0.0;
  for (int k = lo; k < hi; ++k) {
    const double m1 = m12[2 * (k - lo)];
    const double m2 = m12[2 * (k - lo) + 1];
    const double d2m = delay_d2m(m1, m2);
    wire_delay_[k] = options_.use_d2m ? d2m : delay_elmore(m1);
    step_slew_[k] = step_slew(m1, m2);
    worst = std::max(worst, d2m);
  }
  wd_worst_[net_id] = worst;

  // The changed net's loads: new arrivals and new slews.
  const double arrival0 = out_arrival(p0);
  const double out_slew = driver_[p0].out_slew;
  for (int k = lo; k < hi; ++k) {
    const double arrival = arrival0 + wire_delay_[k];
    const double slew = peri_slew(out_slew, step_slew_[k]);
    node_arrival_[load_node_[k]] = arrival;
    node_slew_[load_node_[k]] = slew;
    if (load_sink_[k] >= 0) {
      sink_arrival_[load_sink_[k]] = arrival;
      sink_slew_[load_sink_[k]] = slew;
    }
  }
  // Descendant nets, parents first: only arrivals move (see the header).
  const int p_end = end_[net_id];
  for (int p = p0 + 1; p < p_end; ++p) {
    const double arrival_p = out_arrival(p);
    for (int k = load_lo_[p]; k < load_lo_[p + 1]; ++k) {
      const double arrival = arrival_p + wire_delay_[k];
      node_arrival_[load_node_[k]] = arrival;
      if (load_sink_[k] >= 0) sink_arrival_[load_sink_[k]] = arrival;
    }
  }
  last_lo_ = p0;
  last_hi_ = p_end;
}

void DeltaTimer::apply_net_change(int net_id,
                                  const extract::NetParasitics& par) {
  const netlist::Net& changed = nets_->nets[static_cast<std::size_t>(net_id)];
  par.rc.moments(net_driver_res(*tree_, *tech_, changed, options_),
                 options_.timing_miller, moments_);
  m12_.resize(2 * changed.loads.size());
  for (std::size_t li = 0; li < changed.loads.size(); ++li) {
    const int rc = par.load_rc_index[li];
    m12_[2 * li] = moments_.m1[rc];
    m12_[2 * li + 1] = moments_.m2[rc];
  }
  apply_net_change(net_id, m12_.data());
}

}  // namespace sndr::timing
