#include "route/congestion_route.hpp"

#include <stdexcept>

namespace sndr::route {

int reroute_for_congestion(netlist::ClockTree& tree,
                           const netlist::CongestionMap& map) {
  if (!map.valid()) return 0;
  int changed = 0;
  for (const int id : tree.topological_order()) {
    const netlist::TreeNode& n = tree.node(id);
    if (n.parent < 0) continue;
    const geom::Point a = tree.loc(n.parent);
    const geom::Point b = n.loc;
    if (a.x == b.x || a.y == b.y) continue;  // straight, nothing to choose.
    // Skip edges that are not plain Ls (detoured edges carry balance).
    const double direct = geom::manhattan(a, b);
    if (n.path.size() >= 2 &&
        geom::path_length(n.path) > direct + 1e-9) {
      continue;
    }
    const geom::Path hv = geom::l_path(a, b, true);
    const geom::Path vh = geom::l_path(a, b, false);
    const double occ_hv = map.avg_occupancy(hv);
    const double occ_vh = map.avg_occupancy(vh);
    const geom::Path& pick = occ_hv <= occ_vh ? hv : vh;
    if (n.path.size() < 2 || pick != n.path) {
      tree.set_path(id, pick);
      ++changed;
    }
  }
  return changed;
}

netlist::RoutingUsage compute_usage(const netlist::RoutingFootprint& footprint,
                                    const netlist::NetList& nets,
                                    const std::vector<int>& rule_of_net,
                                    const tech::Technology& tech,
                                    const netlist::CongestionMap& map) {
  if (rule_of_net.size() != static_cast<std::size_t>(nets.size())) {
    throw std::invalid_argument("compute_usage: rule assignment mismatch");
  }
  if (footprint.net_count() != nets.size()) {
    throw std::invalid_argument("compute_usage: footprint/net list mismatch");
  }
  netlist::RoutingUsage usage(&map);
  const double width_frac = tech.clock_layer.width_frac();
  for (const netlist::Net& net : nets.nets) {
    usage.add_steps(footprint.net_steps(net.id),
                    tech.rules[rule_of_net[net.id]].pitch_mult(width_frac));
  }
  return usage;
}

}  // namespace sndr::route
