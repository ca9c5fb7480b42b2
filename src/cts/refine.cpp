#include "cts/refine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "extract/extractor.hpp"

namespace sndr::cts {

namespace {

/// Mean sink latency under every tree node (NaN-free: nodes without sinks
/// get 0 and a count of 0).
struct SubtreeLatency {
  std::vector<double> sum;
  std::vector<int> count;
};

SubtreeLatency subtree_latency(const netlist::ClockTree& tree,
                               const std::vector<int>& order,
                               const timing::TimingReport& rep) {
  SubtreeLatency s;
  s.sum.assign(tree.size(), 0.0);
  s.count.assign(tree.size(), 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int id = *it;
    const netlist::TreeNode& n = tree.node(id);
    if (n.kind == netlist::NodeKind::kSink) {
      s.sum[id] = rep.sink_arrival[n.sink];
      s.count[id] = 1;
    }
    if (n.parent >= 0) {
      s.sum[n.parent] += s.sum[id];
      s.count[n.parent] += s.count[id];
    }
  }
  return s;
}

}  // namespace

RefineResult refine_skew(netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const netlist::NetList& nets,
                         extract::GeometryCache& geometry,
                         const RefineOptions& options) {
  if (geometry.net_count() != nets.size()) {
    throw std::invalid_argument(
        "refine_skew: geometry cache covers a different net list");
  }
  RefineResult result;
  const int rule_idx = options.planning_rule >= 0
                           ? options.planning_rule
                           : tech.rules.blanket_index();
  const tech::RoutingRule& rule = tech.rules[rule_idx];
  const double skew_goal =
      options.target_fraction * design.constraints.max_skew;

  std::vector<extract::NetParasitics> parasitics =
      extract::Extractor(tech, design)
          .extract_all(tree, nets,
                       std::vector<int>(static_cast<std::size_t>(nets.size()),
                                        rule_idx),
                       &geometry);
  // Nets loaded by a buffer the previous pass resized: the only parasitics
  // a resize changes (the buffer's input cap).
  std::vector<int> stale;
  // Resizing never changes the topology: one root-first order serves
  // every pass, bottom-up and top-down.
  const std::vector<int> order = tree.topological_order();

  // Pass `max_iterations` only measures what the last sizing pass left.
  for (int iter = 0;; ++iter) {
    for (const int net : stale) {
      geometry.refresh_load_cells(net);
      extract::materialize(*geometry.pinned(net), tech, rule,
                           parasitics[static_cast<std::size_t>(net)]);
    }
    const timing::TimingReport rep = timing::analyze(
        tree, design, tech, nets, parasitics, options.analysis);
    result.final_skew = rep.skew();
    if (iter == options.max_iterations) break;
    if (iter == 0) result.initial_skew = rep.skew();
    result.iterations = iter;
    if (rep.skew() <= skew_goal) break;

    const SubtreeLatency sub = subtree_latency(tree, order, rep);
    const double target = sub.count[tree.root()] > 0
                              ? sub.sum[tree.root()] / sub.count[tree.root()]
                              : 0.0;

    // Top-down: each buffer corrects the residual error of its subtree that
    // ancestors have not already corrected.
    std::vector<double> corrected(tree.size(), 0.0);
    stale.clear();
    for (const int id : order) {
      const netlist::TreeNode& n = tree.node(id);
      if (n.parent >= 0) corrected[id] = corrected[n.parent];
      if (n.kind != netlist::NodeKind::kBuffer || sub.count[id] == 0) {
        continue;
      }
      const double err =
          sub.sum[id] / sub.count[id] - target + corrected[id];
      // err > 0: subtree too slow -> need a faster (bigger) cell.
      const double load = rep.net_driver_load[nets.net_driven[id]];
      if (load <= 0.0) continue;
      const tech::BufferCell& cur = tech.buffers[n.cell];
      int best = n.cell;
      double best_gap = std::abs(err);  // delta achieved by not resizing: 0.
      for (int cc = 0; cc < tech.buffers.size(); ++cc) {
        if (cc == n.cell) continue;
        const tech::BufferCell& cand = tech.buffers[cc];
        if (load > cand.max_cap ||
            cand.output_slew(load) > options.max_output_slew) {
          continue;
        }
        // Latency change if swapped: intrinsic + R*C through the wire m1.
        const double delta = (cand.intrinsic_delay - cur.intrinsic_delay) +
                             (cand.drive_res - cur.drive_res) * load;
        const double gap = std::abs(err - (-delta));
        // We want delta ~ -err (slow down fast subtrees: err<0 => delta>0).
        if (gap + 1e-15 < best_gap) {
          best_gap = gap;
          best = cc;
        }
      }
      if (best != n.cell) {
        const double delta =
            (tech.buffers[best].intrinsic_delay - cur.intrinsic_delay) +
            (tech.buffers[best].drive_res - cur.drive_res) * load;
        tree.set_cell(id, best);
        corrected[id] += delta;
        stale.push_back(nets.net_of_edge[id]);
        ++result.resizes;
      }
    }
    if (stale.empty()) break;
    std::sort(stale.begin(), stale.end());
    stale.erase(std::unique(stale.begin(), stale.end()), stale.end());
  }
  return result;
}

RefineResult refine_skew(netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const RefineOptions& options) {
  const netlist::NetList nets = netlist::build_nets(tree);
  extract::GeometryCache geometry(tree, design, nets);
  return refine_skew(tree, design, tech, nets, geometry, options);
}

}  // namespace sndr::cts
