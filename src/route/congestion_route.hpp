// Congestion-aware finishing passes over a synthesized clock tree, and the
// routing-resource accounting the NDR optimizer checks against.
#pragma once

#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/congestion.hpp"
#include "tech/technology.hpp"

namespace sndr::route {

/// For every plain two-bend candidate edge (an L), picks the orientation
/// (HV vs VH) whose route crosses lower-occupancy cells, without changing
/// wirelength (so the CTS delay balance is preserved). Edges carrying
/// detours (snaking) are left untouched. Returns the number of edges
/// re-oriented.
int reroute_for_congestion(netlist::ClockTree& tree,
                           const netlist::CongestionMap& map);

/// Accumulates per-cell clock routing usage of the whole tree under a rule
/// assignment (`rule_of_net[i]` indexes tech.rules): one pass over the
/// recorded walk steps, net by net in id order, each adding
/// `pitch_mult * len`. `footprint` must be recorded for (tree, nets, map),
/// e.g. extract::GeometryCache::footprint().
netlist::RoutingUsage compute_usage(const netlist::RoutingFootprint& footprint,
                                    const netlist::NetList& nets,
                                    const std::vector<int>& rule_of_net,
                                    const tech::Technology& tech,
                                    const netlist::CongestionMap& map);

}  // namespace sndr::route
