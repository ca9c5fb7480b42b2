#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "route/congestion_route.hpp"
#include "route/steiner.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sndr::route {
namespace {

TEST(ClosestOnPath, HorizontalSegment) {
  const geom::Path p{{0, 0}, {10, 0}};
  EXPECT_EQ(closest_on_path(p, {5, 3}).first, (geom::Point{5, 0}));
  EXPECT_DOUBLE_EQ(closest_on_path(p, {5, 3}).second, 3.0);
  EXPECT_EQ(closest_on_path(p, {-4, 0}).first, (geom::Point{0, 0}));
  EXPECT_EQ(closest_on_path(p, {14, 2}).first, (geom::Point{10, 0}));
}

TEST(ClosestOnPath, LShapedPath) {
  const geom::Path p{{0, 0}, {10, 0}, {10, 10}};
  EXPECT_EQ(closest_on_path(p, {8, 6}).first, (geom::Point{10, 6}));
  EXPECT_EQ(closest_on_path(p, {3, 1}).first, (geom::Point{3, 0}));
}

TEST(Rsmt, SingleTerminal) {
  const SteinerTree t = build_rsmt({{5, 5}});
  EXPECT_EQ(t.size(), 1);
  EXPECT_DOUBLE_EQ(t.length(), 0.0);
  EXPECT_EQ(t.terminal_node[0], 0);
}

TEST(Rsmt, EmptyThrows) {
  EXPECT_THROW(build_rsmt({}), std::invalid_argument);
}

TEST(Rsmt, TwoTerminals) {
  const SteinerTree t = build_rsmt({{0, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(t.length(), 7.0);
}

TEST(Rsmt, SteinerPointSavesWire) {
  // Three terminals in a T: the Steiner tree should reuse the trunk.
  const SteinerTree t = build_rsmt({{0, 0}, {10, 0}, {5, 5}});
  // MST cost would be 10 + 10 = 20; Steiner cost 10 + 5 = 15.
  EXPECT_DOUBLE_EQ(t.length(), 15.0);
  EXPECT_EQ(t.size(), 4);  // 3 terminals + 1 split point.
}

TEST(Rsmt, AllTerminalsConnected) {
  workload::Rng rng(7);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 30; ++i) {
    pts.push_back({rng.uniform(0, 100), rng.uniform(0, 100)});
  }
  const SteinerTree t = build_rsmt(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const int node = t.terminal_node[i];
    ASSERT_GE(node, 0);
    EXPECT_TRUE(geom::almost_equal(t.points[node], pts[i]));
    // Walk to root.
    int v = node;
    int hops = 0;
    while (t.parent[v] >= 0 && hops < t.size()) {
      v = t.parent[v];
      ++hops;
    }
    EXPECT_EQ(v, 0);
  }
}

TEST(Rsmt, NoLongerThanStarTopology) {
  workload::Rng rng(13);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 20; ++i) {
    pts.push_back({rng.uniform(0, 200), rng.uniform(0, 200)});
  }
  const SteinerTree t = build_rsmt(pts);
  double star = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    star += geom::manhattan(pts[0], pts[i]);
  }
  EXPECT_LT(t.length(), star);
}

TEST(Rsmt, Deterministic) {
  const std::vector<geom::Point> pts{{0, 0}, {7, 3}, {2, 9}, {8, 8}, {4, 4}};
  const SteinerTree a = build_rsmt(pts);
  const SteinerTree b = build_rsmt(pts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.length(), b.length());
}

TEST(Rsmt, DuplicateTerminals) {
  const SteinerTree t = build_rsmt({{1, 1}, {1, 1}, {1, 1}});
  EXPECT_DOUBLE_EQ(t.length(), 0.0);
  EXPECT_EQ(t.terminal_node[2], 2);
}

TEST(RerouteForCongestion, PreservesLengthAndValidity) {
  test::Flow f = test::small_flow(64, 21);
  const double before = f.cts.tree.total_wirelength();
  const int changed = reroute_for_congestion(f.cts.tree, f.design.congestion);
  EXPECT_GE(changed, 0);
  EXPECT_NEAR(f.cts.tree.total_wirelength(), before, 1e-6);
  EXPECT_NO_THROW(f.cts.tree.validate(64));
}

TEST(RerouteForCongestion, PicksLowerOccupancySide) {
  // Two-cell map: HV route crosses the hot cell, VH the cool one.
  netlist::CongestionMap map(geom::BBox(0, 0, 100, 100), 2, 2, 0.1, 1e9);
  map.set_occupancy_cell(1, 0.9);  // cell (1,0): lower-right.
  netlist::ClockTree tree;
  const int src = tree.add_source({10, 10});
  tree.add_sink({90, 90}, src, 0);
  tree.ensure_default_paths();
  reroute_for_congestion(tree, map);
  // VH route avoids lower-right: corner at (10,90).
  ASSERT_EQ(tree.node(1).path.size(), 3u);
  EXPECT_EQ(tree.node(1).path[1], (geom::Point{10, 90}));
}

TEST(ComputeUsage, ScalesWithRulePitch) {
  test::Flow f = test::small_flow(48, 3);
  const netlist::RoutingFootprint fp(f.cts.tree, f.nets, f.design.congestion);
  const auto def = compute_usage(
      fp, f.nets,
      std::vector<int>(f.nets.size(), 0), f.tech, f.design.congestion);
  const auto ndr = compute_usage(
      fp, f.nets,
      std::vector<int>(f.nets.size(), f.tech.rules.blanket_index()), f.tech,
      f.design.congestion);
  EXPECT_NEAR(ndr.max_utilization(), 2.0 * def.max_utilization(), 1e-9);
}

// The footprint total must equal, cell by cell and bitwise, the per-wire
// add(path, pitch) replay it replaced (nets in id order, wires in order).
TEST(ComputeUsage, FootprintMatchesPerWireAddReplay) {
  for (const test::Flow& f : {test::congested_flow(), test::small_flow(600)}) {
    const netlist::CongestionMap& map = f.design.congestion;
    const netlist::RoutingFootprint fp(f.cts.tree, f.nets, map);
    const double width_frac = f.tech.clock_layer.width_frac();
    workload::Rng rng(11);
    std::vector<int> random(static_cast<std::size_t>(f.nets.size()));
    for (int& r : random) {
      r = static_cast<int>(rng.uniform_int(f.tech.rules.size()));
    }
    const std::vector<std::vector<int>> assignments = {
        std::vector<int>(f.nets.size(), 0),
        std::vector<int>(f.nets.size(), f.tech.rules.blanket_index()),
        random};
    for (const std::vector<int>& a : assignments) {
      netlist::RoutingUsage ref(&map);
      for (const netlist::Net& net : f.nets.nets) {
        const double pitch = f.tech.rules[a[net.id]].pitch_mult(width_frac);
        for (const int v : net.wires) {
          ref.add(test::wire_path(f.cts.tree, v), pitch);
        }
      }
      const netlist::RoutingUsage got =
          compute_usage(fp, f.nets, a, f.tech, map);
      for (int c = 0; c < map.cell_count(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.used_cell(c)),
                  std::bit_cast<std::uint64_t>(ref.used_cell(c)))
            << "cell " << c;
      }
      EXPECT_GT(got.max_utilization(), 0.0);
    }
  }
}

TEST(ComputeUsage, ValidatesAssignment) {
  test::Flow f = test::small_flow(8);
  const netlist::RoutingFootprint fp(f.cts.tree, f.nets, f.design.congestion);
  EXPECT_THROW(compute_usage(fp, f.nets, {0}, f.tech, f.design.congestion),
               std::invalid_argument);
}

}  // namespace
}  // namespace sndr::route
