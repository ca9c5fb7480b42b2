#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/congestion.hpp"
#include "netlist/design.hpp"
#include "test_util.hpp"
#include "workload/rng.hpp"

namespace sndr::netlist {
namespace {

ClockTree two_level_tree() {
  // source -> buffer -> (steiner -> sink0, sink1)
  ClockTree t;
  const int src = t.add_source({0, 0});
  const int buf = t.add_buffer({10, 0}, src, 0);
  const int st = t.add_steiner({20, 0}, buf);
  t.add_sink({20, 10}, st, 0);
  t.add_sink({30, 0}, st, 1);
  return t;
}

/// The (cell, length) steps for_each_cell visits along `path`, in order.
std::vector<CellStep> walk(const CongestionMap& m, const geom::Path& path) {
  std::vector<CellStep> steps;
  m.for_each_cell(path,
                  [&](int cell, double len) { steps.push_back({cell, len}); });
  return steps;
}

TEST(ClockTree, Construction) {
  const ClockTree t = two_level_tree();
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.count(NodeKind::kSink), 2);
  EXPECT_EQ(t.count(NodeKind::kBuffer), 1);
  EXPECT_EQ(t.count(NodeKind::kSteiner), 1);
  EXPECT_NO_THROW(t.validate(2));
}

TEST(ClockTree, SecondSourceThrows) {
  ClockTree t;
  t.add_source({0, 0});
  EXPECT_THROW(t.add_source({1, 1}), std::logic_error);
}

TEST(ClockTree, InvalidParentThrows) {
  ClockTree t;
  t.add_source({0, 0});
  EXPECT_THROW(t.add_steiner({1, 1}, 7), std::logic_error);
  EXPECT_THROW(t.add_steiner({1, 1}, -1), std::logic_error);
}

TEST(ClockTree, SinkCannotHaveChildren) {
  ClockTree t;
  const int src = t.add_source({0, 0});
  const int sink = t.add_sink({1, 0}, src, 0);
  EXPECT_THROW(t.add_steiner({2, 0}, sink), std::logic_error);
}

TEST(ClockTree, ValidateCatchesMissingSink) {
  const ClockTree t = two_level_tree();
  EXPECT_THROW(t.validate(3), std::logic_error);  // sink 2 missing.
}

TEST(ClockTree, ValidateCatchesDuplicateSink) {
  ClockTree t;
  const int src = t.add_source({0, 0});
  t.add_sink({1, 0}, src, 0);
  t.add_sink({2, 0}, src, 0);
  EXPECT_THROW(t.validate(1), std::logic_error);
  EXPECT_THROW(t.validate(2), std::logic_error);  // also: sink 1 missing.
}

TEST(ClockTree, TopologicalOrderParentsFirst) {
  const ClockTree t = two_level_tree();
  const auto order = t.topological_order();
  ASSERT_EQ(order.size(), 5u);
  std::vector<int> pos(t.size());
  for (int i = 0; i < t.size(); ++i) pos[order[i]] = i;
  for (int id = 0; id < t.size(); ++id) {
    if (t.node(id).parent >= 0) {
      EXPECT_LT(pos[t.node(id).parent], pos[id]);
    }
  }
}

TEST(ClockTree, BufferDepth) {
  const ClockTree t = two_level_tree();
  EXPECT_EQ(t.buffer_depth(0), 0);  // source.
  EXPECT_EQ(t.buffer_depth(1), 1);  // the buffer itself.
  EXPECT_EQ(t.buffer_depth(3), 1);  // sink below one buffer.
  EXPECT_EQ(t.max_buffer_depth(), 1);
}

TEST(ClockTree, EdgeLengthDefaultsToManhattan) {
  const ClockTree t = two_level_tree();
  EXPECT_DOUBLE_EQ(t.edge_length(1), 10.0);
  EXPECT_DOUBLE_EQ(t.edge_length(3), 10.0);
  EXPECT_DOUBLE_EQ(t.edge_length(0), 0.0);  // root has no edge.
  EXPECT_DOUBLE_EQ(t.total_wirelength(), 40.0);
}

TEST(ClockTree, SetPathValidatesEndpoints) {
  ClockTree t = two_level_tree();
  EXPECT_NO_THROW(t.set_path(1, {{0, 0}, {5, 0}, {5, 5}, {10, 5}, {10, 0}}));
  EXPECT_DOUBLE_EQ(t.edge_length(1), 20.0);
  EXPECT_THROW(t.set_path(1, {{0, 0}, {9, 0}}), std::logic_error);
  EXPECT_THROW(t.set_path(1, {{0, 0}}), std::logic_error);
  EXPECT_THROW(t.set_path(0, {{0, 0}, {1, 1}}), std::logic_error);
}

TEST(ClockTree, EnsureDefaultPaths) {
  ClockTree t = two_level_tree();
  t.ensure_default_paths();
  for (int id = 1; id < t.size(); ++id) {
    EXPECT_GE(t.node(id).path.size(), 2u);
  }
  EXPECT_NO_THROW(t.validate(2));
}

TEST(ClockTree, SetCellOnlyOnBuffers) {
  ClockTree t = two_level_tree();
  t.set_cell(1, 3);
  EXPECT_EQ(t.node(1).cell, 3);
  EXPECT_THROW(t.set_cell(2, 1), std::logic_error);
}

TEST(ClockTree, MoveNodeClearsIncidentPaths) {
  ClockTree t = two_level_tree();
  t.ensure_default_paths();
  t.move_node(2, {25, 5});
  EXPECT_TRUE(t.node(2).path.empty());
  EXPECT_TRUE(t.node(3).path.empty());
  EXPECT_TRUE(t.node(4).path.empty());
  EXPECT_FALSE(t.node(1).path.empty());
}

TEST(ClockNets, TwoLevelDecomposition) {
  const ClockTree t = two_level_tree();
  const NetList nets = build_nets(t);
  ASSERT_EQ(nets.size(), 2);
  // Net 0: source -> buffer input.
  EXPECT_EQ(nets[0].driver, 0);
  EXPECT_EQ(nets[0].depth, 0);
  ASSERT_EQ(nets[0].loads.size(), 1u);
  EXPECT_EQ(nets[0].loads[0], 1);
  // Net 1: buffer -> both sinks through the steiner node.
  EXPECT_EQ(nets[1].driver, 1);
  EXPECT_EQ(nets[1].depth, 1);
  EXPECT_EQ(nets[1].loads.size(), 2u);
  EXPECT_EQ(nets[1].wires.size(), 3u);  // steiner + 2 sinks.
  // Edge mapping.
  EXPECT_EQ(nets.net_of_edge[0], -1);
  EXPECT_EQ(nets.net_of_edge[1], 0);
  EXPECT_EQ(nets.net_of_edge[2], 1);
  EXPECT_EQ(nets.net_driven[0], 0);
  EXPECT_EQ(nets.net_driven[1], 1);
  EXPECT_EQ(nets.net_driven[2], -1);
}

TEST(ClockNets, WirelengthSplitsAcrossNets) {
  const ClockTree t = two_level_tree();
  const NetList nets = build_nets(t);
  EXPECT_DOUBLE_EQ(net_wirelength(t, nets[0]), 10.0);
  EXPECT_DOUBLE_EQ(net_wirelength(t, nets[1]), 30.0);
}

TEST(ClockNets, DepthIncreasesThroughBufferChain) {
  ClockTree t;
  int n = t.add_source({0, 0});
  n = t.add_buffer({1, 0}, n, 0);
  n = t.add_buffer({2, 0}, n, 0);
  t.add_sink({3, 0}, n, 0);
  const NetList nets = build_nets(t);
  ASSERT_EQ(nets.size(), 3);
  EXPECT_EQ(nets[0].depth, 0);
  EXPECT_EQ(nets[1].depth, 1);
  EXPECT_EQ(nets[2].depth, 2);
}

TEST(CongestionMap, CellIndexing) {
  const CongestionMap m(geom::BBox(0, 0, 100, 100), 10, 10, 0.5, 1.0);
  EXPECT_EQ(m.cell_count(), 100);
  EXPECT_EQ(m.cell_index({5, 5}), 0);
  EXPECT_EQ(m.cell_index({95, 95}), 99);
  EXPECT_EQ(m.cell_index({-100, -100}), 0);    // clamped.
  EXPECT_EQ(m.cell_index({1000, 1000}), 99);   // clamped.
  const geom::BBox cell = m.cell_box(11);
  EXPECT_EQ(cell.lo(), (geom::Point{10, 10}));
  EXPECT_EQ(cell.hi(), (geom::Point{20, 20}));
}

TEST(CongestionMap, InvalidArgsThrow) {
  EXPECT_THROW(CongestionMap(geom::BBox(0, 0, 1, 1), 0, 5, 0.5, 1.0),
               std::invalid_argument);
  EXPECT_THROW(CongestionMap(geom::BBox{}, 2, 2, 0.5, 1.0),
               std::invalid_argument);
}

TEST(CongestionMap, AvgOccupancyWeighted) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 2, 1, 0.0, 1.0);
  m.set_occupancy_cell(0, 0.2);
  m.set_occupancy_cell(1, 0.8);
  // 50um in each cell: exact despite step quantization.
  EXPECT_NEAR(m.avg_occupancy({{0, 50}, {100, 50}}), 0.5, 1e-9);
  // Off-grid span: correct within the documented step quantization.
  EXPECT_NEAR(m.avg_occupancy({{20, 50}, {80, 50}}), 0.5, 0.15);
  // Entirely inside cell 0.
  EXPECT_NEAR(m.avg_occupancy({{0, 50}, {40, 50}}), 0.2, 1e-9);
}

TEST(CongestionMap, ForEachCellLengthsSumToPathLength) {
  const CongestionMap m(geom::BBox(0, 0, 100, 100), 7, 3, 0.5, 1.0);
  const geom::Path path{{3, 7}, {88, 7}, {88, 93}, {15, 93}};
  double total = 0.0;
  m.for_each_cell(path, [&](int, double len) { total += len; });
  EXPECT_NEAR(total, geom::path_length(path), 1e-9);
}

TEST(CongestionMap, UniformCapacityDerivation) {
  const CongestionMap m = CongestionMap::uniform(
      geom::BBox(0, 0, 100, 100), 10, 10, 0.3, 0.28, 0.5);
  // Cell 10x10 um => 100/0.28 track-um * 0.5.
  EXPECT_NEAR(m.capacity_cell(0), 100.0 / 0.28 * 0.5, 1e-6);
  EXPECT_DOUBLE_EQ(m.occupancy_at({50, 50}), 0.3);
}

TEST(RoutingUsage, AddAndOverflow) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 1, 1, 0.5, 100.0);
  RoutingUsage u(&m);
  EXPECT_EQ(u.overflow_cells(), 0);
  u.add({{0, 50}, {50, 50}}, 1.0);
  EXPECT_NEAR(u.used_cell(0), 50.0, 1e-9);
  EXPECT_NEAR(u.max_utilization(), 0.5, 1e-9);
  EXPECT_TRUE(u.fits_steps(walk(m, {{0, 60}, {40, 60}}), 1.0));
  EXPECT_FALSE(u.fits_steps(walk(m, {{0, 60}, {60, 60}}), 1.0));
  u.add({{0, 60}, {60, 60}}, 1.0);
  EXPECT_EQ(u.overflow_cells(), 1);
  // Negative delta (rule downgrade) releases capacity.
  u.add({{0, 60}, {60, 60}}, -1.0);
  EXPECT_EQ(u.overflow_cells(), 0);
}

/// Replays for_each_cell over every wire of every net, in net and wire
/// order, and requires the footprint's steps to be that walk exactly: same
/// cells, bitwise-equal lengths, same order, one path per wire. The
/// footprint is recorded at 1 lane and at 8 (parallel gate off, so its
/// per-net count and fill passes really run concurrently).
void expect_footprint_is_walk(const ClockTree& tree, const NetList& nets,
                              const CongestionMap& map) {
  common::set_parallel_min_us(0.0);
  common::set_thread_count(1);
  const RoutingFootprint fp(tree, nets, map);
  common::set_thread_count(8);
  const RoutingFootprint fp8(tree, nets, map);
  common::set_thread_count(-1);
  common::set_parallel_min_us(-1.0);
  EXPECT_TRUE(fp8 == fp);
  ASSERT_EQ(fp.net_count(), nets.size());
  std::size_t total = 0;
  for (const Net& net : nets.nets) {
    ASSERT_EQ(fp.path_count(net.id), static_cast<int>(net.wires.size()));
    std::vector<CellStep> net_walk;
    for (std::size_t k = 0; k < net.wires.size(); ++k) {
      const std::vector<CellStep> want =
          walk(map, test::wire_path(tree, net.wires[k]));
      const auto got = fp.path_steps(net.id, static_cast<int>(k));
      ASSERT_EQ(got.size(), want.size()) << "net " << net.id << " wire " << k;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].cell, want[i].cell);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].len),
                  std::bit_cast<std::uint64_t>(want[i].len));
      }
      net_walk.insert(net_walk.end(), want.begin(), want.end());
    }
    const auto all = fp.net_steps(net.id);
    ASSERT_EQ(all.size(), net_walk.size());
    EXPECT_TRUE(std::equal(all.begin(), all.end(), net_walk.begin()));
    total += net_walk.size();
  }
  EXPECT_GT(total, nets.nets.size());  // the walk really crossed cells.
}

TEST(RoutingFootprint, MatchesPathWalkOnCongestedDesign) {
  const test::Flow f = test::congested_flow();
  expect_footprint_is_walk(f.cts.tree, f.nets, f.design.congestion);
}

TEST(RoutingFootprint, MatchesPathWalkOn3000Sinks) {
  const test::Flow f = test::small_flow(3000, 5);
  expect_footprint_is_walk(f.cts.tree, f.nets, f.design.congestion);
}

TEST(RoutingUsage, FitsStepsMatchesMapReferenceOnRevisitingPaths) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 10, 10, 0.5, 1.0);
  const std::vector<geom::Path> paths = {
      // A U-jog 3 um deep inside cell (2, 0): out-and-back over one cell.
      geom::detour_path({3, 5}, {47, 5}, 50.0, true),
      // A diagonal link, walked as an L (horizontal first).
      {{3, 3}, {47, 68}},
      // Leaves cells and comes back to them on the return leg.
      {{5, 5}, {45, 5}, {45, 8}, {5, 8}},
  };
  ASSERT_EQ(paths[0].size(), 5u);  // the jog really is in the path.
  workload::Rng rng(17);
  int verdicts[2] = {0, 0};
  for (int trial = 0; trial < 400; ++trial) {
    for (int c = 0; c < m.cell_count(); ++c) {
      m.set_capacity_cell(c, 5.0 + 40.0 * rng.uniform());
    }
    RoutingUsage u(&m);
    u.add({{0, 5}, {100, 5}}, 2.0 * rng.uniform());
    u.add({{0, 7}, {60, 7}, {60, 60}}, 2.0 * rng.uniform());
    const double pitch = 0.25 + 3.0 * rng.uniform();
    for (const geom::Path& p : paths) {
      const bool want = test::map_fits(u, m, p, pitch);
      EXPECT_EQ(u.fits_steps(walk(m, p), pitch), want) << "trial " << trial;
      ++verdicts[want ? 1 : 0];
    }
  }
  EXPECT_GT(verdicts[0], 0);  // both answers exercised.
  EXPECT_GT(verdicts[1], 0);
}

TEST(RoutingUsage, FitsStepsAtExactCapacity) {
  CongestionMap m(geom::BBox(0, 0, 100, 100), 1, 1, 0.5, 1e9);
  RoutingUsage u(&m);
  u.add({{0, 30}, {70, 30}}, 1.3);
  // Three steps in the one cell, with lengths whose demand sum rounds
  // differently in reverse order: only the step-order sum is exact here.
  const geom::Path path{{1.6, 50}, {41.5, 50}, {41.5, 59.8}, {11.8, 59.8}};
  const std::vector<CellStep> steps = walk(m, path);
  ASSERT_EQ(steps.size(), 3u);
  const double pitch = 1.91;
  double demand = 0.0;
  for (const CellStep& st : steps) demand += pitch * st.len;
  double reversed = 0.0;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    reversed += pitch * it->len;
  }
  const double exact = u.used_cell(0) + demand;
  ASSERT_NE(exact, u.used_cell(0) + reversed);
  m.set_capacity_cell(0, exact);
  EXPECT_TRUE(u.fits_steps(steps, pitch));
  EXPECT_TRUE(test::map_fits(u, m, path, pitch));
  // One ulp less capacity: the same demand now overflows.
  m.set_capacity_cell(0, std::nextafter(exact, 0.0));
  EXPECT_FALSE(u.fits_steps(steps, pitch));
  EXPECT_FALSE(test::map_fits(u, m, path, pitch));
}

TEST(Design, TotalSinkCap) {
  Design d;
  d.sinks.push_back({"a", {0, 0}, 2e-15});
  d.sinks.push_back({"b", {1, 1}, 3e-15});
  EXPECT_DOUBLE_EQ(d.total_sink_cap(), 5e-15);
}

}  // namespace
}  // namespace sndr::netlist
