// Shared fixtures/helpers for the test suite.
#pragma once

#include <map>
#include <utility>

#include "cts/embedding.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"
#include "workload/generator.hpp"

namespace sndr::test {

/// A small deterministic design for fast tests.
inline netlist::Design small_design(int sinks = 64, std::uint64_t seed = 3) {
  workload::DesignSpec spec;
  spec.name = "test";
  spec.num_sinks = sinks;
  spec.seed = seed;
  return workload::make_design(spec);
}

/// Synthesized tree + nets for a small design.
struct Flow {
  netlist::Design design;
  tech::Technology tech;
  cts::CtsResult cts;
  netlist::NetList nets;
};

inline Flow synthesize_flow(netlist::Design design) {
  Flow f;
  f.design = std::move(design);
  f.tech = tech::Technology::make_default_45nm();
  f.cts = cts::synthesize(f.design, f.tech);
  f.nets = netlist::build_nets(f.cts.tree);
  return f;
}

inline Flow small_flow(int sinks = 64, std::uint64_t seed = 3) {
  return synthesize_flow(small_design(sinks, seed));
}

/// A design whose clock routing capacity binds: high signal occupancy and
/// a 10% clock track share, so widening moves both fit and overflow.
inline Flow congested_flow(int sinks = 160, std::uint64_t seed = 41) {
  workload::DesignSpec spec;
  spec.name = "congested";
  spec.num_sinks = sinks;
  spec.seed = seed;
  spec.occupancy_base = 0.6;
  spec.hotspot_occupancy = 0.3;
  spec.clock_track_fraction = 0.10;
  return synthesize_flow(workload::make_design(spec));
}

/// The historical per-path capacity check: each crossed cell's demand
/// summed in a per-cell std::map (in walk order, from 0.0), then compared.
inline bool map_fits(const netlist::RoutingUsage& u,
                     const netlist::CongestionMap& m, const geom::Path& path,
                     double pitch_mult) {
  std::map<int, double> extra;
  m.for_each_cell(path,
                  [&](int idx, double len) { extra[idx] += pitch_mult * len; });
  for (const auto& [idx, demand] : extra) {
    if (u.used_cell(idx) + demand > m.capacity_cell(idx)) return false;
  }
  return true;
}

/// The path the routing-usage walk reads for wire `v`: its routed path,
/// else the straight link from its parent.
inline geom::Path wire_path(const netlist::ClockTree& tree, int v) {
  const netlist::TreeNode& n = tree.node(v);
  if (n.path.size() >= 2) return n.path;
  return {tree.loc(n.parent), n.loc};
}

}  // namespace sndr::test
