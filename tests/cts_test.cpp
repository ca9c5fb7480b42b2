#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "cts/embedding.hpp"
#include "cts/topology.hpp"
#include "extract/extractor.hpp"
#include "tech/units.hpp"
#include "test_util.hpp"
#include "timing/tree_timing.hpp"

namespace sndr::cts {
namespace {

using units::ps;

TEST(Topology, SingleSink) {
  const std::vector<netlist::Sink> sinks{{"s", {5, 5}, 2e-15}};
  const Topology topo = build_topology_mmm(sinks);
  EXPECT_EQ(topo.size(), 1);
  EXPECT_TRUE(topo[topo.root].is_leaf());
  EXPECT_EQ(topo.leaf_count(), 1);
}

TEST(Topology, EmptyThrows) {
  EXPECT_THROW(build_topology_mmm({}), std::invalid_argument);
}

TEST(Topology, LeavesMatchSinks) {
  const netlist::Design d = test::small_design(37);
  const Topology topo = build_topology_mmm(d.sinks);
  EXPECT_EQ(topo.leaf_count(), 37);
  // Binary: n leaves -> n-1 internal nodes.
  EXPECT_EQ(topo.size(), 2 * 37 - 1);
  // Every sink appears exactly once.
  std::vector<int> seen(37, 0);
  for (const TopoNode& n : topo.nodes) {
    if (n.is_leaf()) ++seen[n.sink];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(Topology, BalancedDepth) {
  const netlist::Design d = test::small_design(64);
  const Topology topo = build_topology_mmm(d.sinks);
  // Median splits: leaf depth within [log2 n, log2 n + 1].
  std::vector<int> depth(topo.size(), 0);
  int max_depth = 0;
  // Root-last construction: walk from root recursively.
  std::function<void(int, int)> walk = [&](int id, int dep) {
    max_depth = std::max(max_depth, dep);
    const TopoNode& n = topo[id];
    if (!n.is_leaf()) {
      walk(n.left, dep + 1);
      walk(n.right, dep + 1);
    }
  };
  walk(topo.root, 0);
  EXPECT_EQ(max_depth, 6);  // 64 = 2^6, exactly balanced.
}

TEST(Topology, CollinearAndDuplicateSinks) {
  std::vector<netlist::Sink> sinks;
  for (int i = 0; i < 9; ++i) {
    sinks.push_back({"s", {static_cast<double>(i % 3), 0.0}, 2e-15});
  }
  const Topology topo = build_topology_mmm(sinks);
  EXPECT_EQ(topo.leaf_count(), 9);
}

TEST(Synthesize, ProducesValidTree) {
  const test::Flow f = test::small_flow(50);
  EXPECT_NO_THROW(f.cts.tree.validate(50));
  EXPECT_GT(f.cts.buffers, 0);
  EXPECT_EQ(f.cts.merges, 49);
  EXPECT_GT(f.cts.wirelength, 0.0);
  EXPECT_GE(f.cts.elongation, 0.0);
  EXPECT_GT(f.cts.planned_latency, 0.0);
}

TEST(Synthesize, SingleSinkDesign) {
  const test::Flow f = test::small_flow(1);
  EXPECT_NO_THROW(f.cts.tree.validate(1));
  EXPECT_EQ(f.cts.tree.count(netlist::NodeKind::kSink), 1);
}

TEST(Synthesize, TwoSinks) {
  const test::Flow f = test::small_flow(2);
  EXPECT_NO_THROW(f.cts.tree.validate(2));
  EXPECT_EQ(f.nets.size(), f.cts.buffers + 1);
}

TEST(Synthesize, EmptyDesignThrows) {
  netlist::Design d;
  EXPECT_THROW(synthesize(d, tech::Technology::make_default_45nm()),
               std::invalid_argument);
}

TEST(Synthesize, Deterministic) {
  const test::Flow a = test::small_flow(40, 9);
  const test::Flow b = test::small_flow(40, 9);
  ASSERT_EQ(a.cts.tree.size(), b.cts.tree.size());
  EXPECT_DOUBLE_EQ(a.cts.wirelength, b.cts.wirelength);
  for (int i = 0; i < a.cts.tree.size(); ++i) {
    EXPECT_TRUE(geom::almost_equal(a.cts.tree.loc(i), b.cts.tree.loc(i)));
  }
}

TEST(Synthesize, ElongationIsBounded) {
  // Stage alignment keeps snaking modest (< 25% of total wire).
  const test::Flow f = test::small_flow(256, 17);
  EXPECT_LT(f.cts.elongation, 0.25 * f.cts.wirelength);
}

TEST(Synthesize, RespectsCapBudget) {
  const test::Flow f = test::small_flow(128, 5);
  const CtsOptions opt;  // defaults used by small_flow.
  const extract::Extractor ex(f.tech, f.design);
  for (const auto& net : f.nets.nets) {
    const auto par = ex.extract_net(f.cts.tree, net,
                                    f.tech.rules.blanket_rule());
    // Planned with the blanket rule: the threshold is checked per merge,
    // so a net can gain up to one more merge level of wire and sibling cap
    // before its buffer lands - bounded by ~2x the budget.
    EXPECT_LT(par.switched_cap(1.0), 2.0 * opt.max_unbuffered_cap);
  }
}

TEST(Synthesize, EveryBufferDepthEqualPerSink) {
  // Stage alignment: every source->sink path crosses the same number of
  // buffers (this is what keeps skew small under rule changes).
  const test::Flow f = test::small_flow(96, 11);
  int expected = -1;
  for (int id = 0; id < f.cts.tree.size(); ++id) {
    if (f.cts.tree.node(id).kind != netlist::NodeKind::kSink) continue;
    const int depth = f.cts.tree.buffer_depth(id);
    if (expected < 0) expected = depth;
    EXPECT_EQ(depth, expected);
  }
  EXPECT_GT(expected, 0);
}

class SkewAcrossSizes : public ::testing::TestWithParam<int> {};

TEST_P(SkewAcrossSizes, MeetsBudget) {
  const test::Flow f = test::small_flow(GetParam(), 29);
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_all(
      f.cts.tree, f.nets,
      std::vector<int>(f.nets.size(), f.tech.rules.blanket_index()));
  const auto rep =
      timing::analyze(f.cts.tree, f.design, f.tech, f.nets, par);
  EXPECT_LE(rep.skew(), f.design.constraints.max_skew)
      << "sinks=" << GetParam();
  // Latency sane: under 2 ns for these sizes.
  EXPECT_LT(rep.max_latency, 2000 * ps);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SkewAcrossSizes,
                         ::testing::Values(8, 32, 128, 512, 1024));

TEST(HybridTopology, LeavesMatchSinks) {
  const netlist::Design d = test::small_design(100, 7);
  const Topology topo = build_topology_hybrid(d.sinks, d.core, 5);
  EXPECT_EQ(topo.leaf_count(), 100);
  EXPECT_EQ(topo.size(), 2 * 100 - 1);
  std::vector<int> seen(100, 0);
  for (const TopoNode& n : topo.nodes) {
    if (n.is_leaf()) ++seen[n.sink];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

TEST(HybridTopology, ZeroLevelsEqualsMmm) {
  const netlist::Design d = test::small_design(64, 9);
  const Topology a = build_topology_hybrid(d.sinks, d.core, 0);
  const Topology b = build_topology_mmm(d.sinks);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.leaf_count(), b.leaf_count());
}

TEST(HybridTopology, DegenerateClusterStillBalanced) {
  // Every sink in one corner: center cuts all degenerate, median fallback
  // must keep the recursion finite and the tree complete.
  std::vector<netlist::Sink> sinks;
  for (int i = 0; i < 33; ++i) {
    sinks.push_back({"s", {1.0 + 0.001 * i, 1.0}, 2e-15});
  }
  const Topology topo =
      build_topology_hybrid(sinks, geom::BBox(0, 0, 1000, 1000), 8);
  EXPECT_EQ(topo.leaf_count(), 33);
}

TEST(HybridTopology, EmptyThrows) {
  EXPECT_THROW(build_topology_hybrid({}, geom::BBox(0, 0, 1, 1), 4),
               std::invalid_argument);
}

TEST(HybridTopology, FullFlowFeasible) {
  const netlist::Design d = test::small_design(256, 17);
  const tech::Technology t = tech::Technology::make_default_45nm();
  CtsOptions opt;
  opt.topology = TopologyMode::kHybridHtree;
  const CtsResult r = synthesize(d, t, opt);
  EXPECT_NO_THROW(r.tree.validate(256));
  const auto nets = netlist::build_nets(r.tree);
  const extract::Extractor ex(t, d);
  const auto par = ex.extract_all(
      r.tree, nets, std::vector<int>(nets.size(), t.rules.blanket_index()));
  const auto rep = timing::analyze(r.tree, d, t, nets, par);
  EXPECT_LE(rep.skew(), d.constraints.max_skew);
}

TEST(Synthesize, PlanningRuleOverride) {
  const netlist::Design d = test::small_design(64);
  const tech::Technology t = tech::Technology::make_default_45nm();
  CtsOptions opt;
  opt.planning_rule = 0;  // plan at 1W1S instead of the blanket.
  const CtsResult r = synthesize(d, t, opt);
  EXPECT_NO_THROW(r.tree.validate(64));
}

TEST(Synthesize, NoRootBufferOption) {
  const netlist::Design d = test::small_design(4);
  const tech::Technology t = tech::Technology::make_default_45nm();
  CtsOptions opt;
  opt.buffer_root = false;
  const CtsResult r = synthesize(d, t, opt);
  EXPECT_NO_THROW(r.tree.validate(4));
}

// ---- Fork-join construction ----------------------------------------------
//
// The topology builder splits the top levels serially and builds the
// subtrees below the fork depth concurrently; the embedder builds each
// fork-level subtree in its own part and splices the parts back in the
// order the one recursion creates nodes; emission fills DFS-preorder ids
// in place. None of it may show: the tree and every CtsResult field are
// bitwise the same at 1 and 8 lanes, and equal the pinned fingerprint of
// the single-recursion construction they replaced.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_cts(const CtsResult& got, const CtsResult& want) {
  const netlist::ClockTree& a = got.tree;
  const netlist::ClockTree& b = want.tree;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.root(), b.root());
  for (int id = 0; id < a.size(); ++id) {
    const netlist::TreeNode& x = a.node(id);
    const netlist::TreeNode& y = b.node(id);
    SCOPED_TRACE(testing::Message() << "node " << id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(bits(x.loc.x), bits(y.loc.x));
    EXPECT_EQ(bits(x.loc.y), bits(y.loc.y));
    EXPECT_EQ(x.parent, y.parent);
    EXPECT_EQ(x.children, y.children);
    EXPECT_EQ(x.cell, y.cell);
    EXPECT_EQ(x.sink, y.sink);
    ASSERT_EQ(x.path.size(), y.path.size());
    for (std::size_t k = 0; k < x.path.size(); ++k) {
      EXPECT_EQ(bits(x.path[k].x), bits(y.path[k].x));
      EXPECT_EQ(bits(x.path[k].y), bits(y.path[k].y));
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_EQ(got.buffers, want.buffers);
  EXPECT_EQ(got.merges, want.merges);
  EXPECT_EQ(bits(got.wirelength), bits(want.wirelength));
  EXPECT_EQ(bits(got.elongation), bits(want.elongation));
  EXPECT_EQ(bits(got.residual_imbalance), bits(want.residual_imbalance));
  EXPECT_EQ(bits(got.planned_latency), bits(want.planned_latency));
}

/// FNV-1a over every field expect_same_cts compares.
std::uint64_t fingerprint(const CtsResult& r) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  const auto mix_int = [&mix](long long v) {
    mix(static_cast<std::uint64_t>(v));
  };
  mix_int(r.tree.size());
  mix_int(r.tree.root());
  for (const netlist::TreeNode& n : r.tree.nodes()) {
    mix_int(static_cast<int>(n.kind));
    mix(bits(n.loc.x));
    mix(bits(n.loc.y));
    mix_int(n.parent);
    mix_int(static_cast<long long>(n.children.size()));
    for (const int c : n.children) mix_int(c);
    mix_int(n.cell);
    mix_int(n.sink);
    mix_int(static_cast<long long>(n.path.size()));
    for (const geom::Point& p : n.path) {
      mix(bits(p.x));
      mix(bits(p.y));
    }
  }
  mix_int(r.buffers);
  mix_int(r.merges);
  mix(bits(r.wirelength));
  mix(bits(r.elongation));
  mix(bits(r.residual_imbalance));
  mix(bits(r.planned_latency));
  return h;
}

/// Emission contract: ids are the DFS preorder of the tree, children in
/// creation (left, right) order — child k of `id` starts right after the
/// subtrees of children 0..k-1.
void expect_dfs_preorder_ids(const netlist::ClockTree& tree) {
  std::vector<int> size(static_cast<std::size_t>(tree.size()), 1);
  for (int id = tree.size() - 1; id > 0; --id) {
    const int parent = tree.node(id).parent;
    ASSERT_GE(parent, 0);
    ASSERT_LT(parent, id) << "node " << id << " precedes its parent";
    size[static_cast<std::size_t>(parent)] +=
        size[static_cast<std::size_t>(id)];
  }
  ASSERT_EQ(tree.root(), 0);
  EXPECT_EQ(size[0], tree.size());
  for (int id = 0; id < tree.size(); ++id) {
    int next = id + 1;
    for (const int c : tree.node(id).children) {
      ASSERT_EQ(c, next) << "child of node " << id;
      next += size[static_cast<std::size_t>(c)];
    }
  }
}

netlist::Design line_design(std::vector<geom::Point> locs) {
  netlist::Design d;
  d.name = "line";
  for (std::size_t i = 0; i < locs.size(); ++i) {
    d.sinks.push_back({"s" + std::to_string(i), locs[i], 2e-15});
    d.core.extend(locs[i]);
  }
  d.core.inflate(50.0);
  d.clock_root = d.core.lo();
  return d;
}

netlist::Design generated(int sinks, std::uint64_t seed) {
  workload::DesignSpec spec;
  spec.name = "fork";
  spec.num_sinks = sinks;
  spec.dist = workload::SinkDistribution::kMixed;
  spec.seed = seed;
  return workload::make_design(spec);
}

struct LaneCase {
  std::string name;
  netlist::Design design;
  TopologyMode mode;
  std::uint64_t pinned;  ///< fingerprint of the construction at 1 lane.
};

/// Synthesizes `c` at 1 and at 8 lanes (parallel gate at `min_us`),
/// requires the two bitwise equal, preorder ids, and the pinned
/// fingerprint.
void expect_lane_identity(const LaneCase& c, double min_us) {
  SCOPED_TRACE(c.name);
  const tech::Technology tech = tech::Technology::make_default_45nm();
  CtsOptions opt;
  opt.topology = c.mode;
  common::set_parallel_min_us(min_us);
  common::set_thread_count(1);
  const CtsResult one = synthesize(c.design, tech, opt);
  common::set_thread_count(8);
  const CtsResult eight = synthesize(c.design, tech, opt);
  common::set_thread_count(-1);
  common::set_parallel_min_us(-1.0);
  expect_same_cts(eight, one);
  expect_dfs_preorder_ids(one.tree);
  EXPECT_EQ(fingerprint(one), c.pinned)
      << std::hex << "fingerprint 0x" << fingerprint(one);
}

TEST(ForkJoin, TinyAndDegenerateDesignsMatchAcrossLanes) {
  std::vector<geom::Point> collinear;
  std::vector<geom::Point> duplicates;
  for (int i = 0; i < 40; ++i) {
    collinear.push_back({100.0 + 37.0 * i, 200.0});
    duplicates.push_back({300.0 + 150.0 * (i % 3), 400.0});
  }
  const std::vector<LaneCase> cases = {
      {"1 sink", test::small_design(1), TopologyMode::kMmm,
       0x8495fc4f6f6abf86},
      {"2 sinks", test::small_design(2), TopologyMode::kMmm,
       0x24d35521cb84f592},
      {"3 sinks", test::small_design(3), TopologyMode::kMmm,
       0x1f664e9a5913f67f},
      {"3 sinks hybrid", test::small_design(3), TopologyMode::kHybridHtree,
       0x1f664e9a5913f67f},
      {"collinear", line_design(collinear), TopologyMode::kMmm,
       0x81da2beee16e67c8},
      {"collinear hybrid", line_design(collinear),
       TopologyMode::kHybridHtree, 0x70a116b9cdeecb36},
      {"duplicates", line_design(duplicates), TopologyMode::kMmm,
       0xd1fdb614ff27f826},
      {"duplicates hybrid", line_design(duplicates),
       TopologyMode::kHybridHtree, 0x5fc469fb0a96081f},
  };
  for (const LaneCase& c : cases) {
    expect_lane_identity(c, 0.0);
    if (HasFailure()) return;
  }
}

// 3000 sinks sit below the default parallel gate; with the gate off every
// fork-level part runs on its own lane.
TEST(ForkJoin, ThreeThousandSinksMatchAcrossLanesWithGateOff) {
  const netlist::Design d = generated(3000, 9);
  expect_lane_identity({"3000 mmm", d, TopologyMode::kMmm, 0x623dba40d62d34de},
                       0.0);
  expect_lane_identity(
      {"3000 hybrid", d, TopologyMode::kHybridHtree, 0x2a750edffa27a68b},
      0.0);
}

// 20k sinks carry enough work to pass the default gate.
TEST(ForkJoin, TwentyThousandSinksMatchAcrossLanesAtDefaultGate) {
  const netlist::Design d = generated(20000, 9);
  expect_lane_identity(
      {"20000 mmm", d, TopologyMode::kMmm, 0x9e2f2601ee8d6792}, -1.0);
  expect_lane_identity(
      {"20000 hybrid", d, TopologyMode::kHybridHtree, 0x8db73d9287b238ca},
      -1.0);
}

}  // namespace
}  // namespace sndr::cts
