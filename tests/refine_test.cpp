#include <gtest/gtest.h>

#include "cts/refine.hpp"
#include "extract/extractor.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/evaluation.hpp"
#include "tech/units.hpp"
#include "test_util.hpp"

namespace sndr::cts {
namespace {

using units::ps;

double measured_skew(const test::Flow& f, const netlist::ClockTree& tree) {
  const netlist::NetList nets = netlist::build_nets(tree);
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_all(
      tree, nets,
      std::vector<int>(nets.size(), f.tech.rules.blanket_index()));
  return timing::analyze(tree, f.design, f.tech, nets, par).skew();
}

TEST(RefineSkew, NeverDegradesBeyondBudgetAndUsuallyImproves) {
  for (const int sinks : {256, 1024}) {
    test::Flow f = test::small_flow(sinks, 29);
    const double before = measured_skew(f, f.cts.tree);
    const RefineResult r = refine_skew(f.cts.tree, f.design, f.tech);
    const double after = measured_skew(f, f.cts.tree);
    EXPECT_NEAR(r.final_skew, after, 1e-15);
    EXPECT_NEAR(r.initial_skew, before, 1e-15);
    EXPECT_LE(after, std::max(before, f.design.constraints.max_skew))
        << "sinks=" << sinks;
  }
}

TEST(RefineSkew, LargeTreeSkewHalvedOrBetter) {
  // The pass exists for big trees where planning error accumulates; on a
  // 2048-sink clustered design it should remove most of the skew or already
  // find the goal met.
  workload::DesignSpec spec;
  spec.num_sinks = 2048;
  spec.dist = workload::SinkDistribution::kClustered;
  spec.seed = 53;
  test::Flow f;
  f.design = workload::make_design(spec);
  f.tech = tech::Technology::make_default_45nm();
  f.cts = synthesize(f.design, f.tech);
  const RefineResult r = refine_skew(f.cts.tree, f.design, f.tech);
  const double goal = 0.6 * f.design.constraints.max_skew;
  EXPECT_TRUE(r.final_skew <= goal || r.final_skew <= 0.6 * r.initial_skew)
      << "initial=" << units::to_ps(r.initial_skew)
      << " final=" << units::to_ps(r.final_skew);
}

TEST(RefineSkew, PreservesTreeStructure) {
  test::Flow f = test::small_flow(512, 7);
  const int nodes_before = f.cts.tree.size();
  const double wl_before = f.cts.tree.total_wirelength();
  refine_skew(f.cts.tree, f.design, f.tech);
  EXPECT_EQ(f.cts.tree.size(), nodes_before);
  EXPECT_DOUBLE_EQ(f.cts.tree.total_wirelength(), wl_before);
  EXPECT_NO_THROW(
      f.cts.tree.validate(static_cast<int>(f.design.sinks.size())));
}

TEST(RefineSkew, RespectsSlewCeiling) {
  test::Flow f = test::small_flow(512, 7);
  RefineOptions opt;
  refine_skew(f.cts.tree, f.design, f.tech, opt);
  const netlist::NetList nets = netlist::build_nets(f.cts.tree);
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_all(
      f.cts.tree, nets,
      std::vector<int>(nets.size(), f.tech.rules.blanket_index()));
  const auto rep = timing::analyze(f.cts.tree, f.design, f.tech, nets, par);
  EXPECT_LE(rep.max_slew, f.design.constraints.max_slew);
}

TEST(RefineSkew, Deterministic) {
  test::Flow a = test::small_flow(512, 11);
  test::Flow b = test::small_flow(512, 11);
  refine_skew(a.cts.tree, a.design, a.tech);
  refine_skew(b.cts.tree, b.design, b.tech);
  for (int i = 0; i < a.cts.tree.size(); ++i) {
    EXPECT_EQ(a.cts.tree.node(i).cell, b.cts.tree.node(i).cell);
  }
}

TEST(RefineSkew, SingleSinkNoop) {
  test::Flow f = test::small_flow(1);
  const RefineResult r = refine_skew(f.cts.tree, f.design, f.tech);
  EXPECT_DOUBLE_EQ(r.final_skew, 0.0);
  EXPECT_EQ(r.resizes, 0);
}

// ---- incremental refinement ---------------------------------------------

constexpr std::size_t kTightBudget = 64 * 1024;

/// Bitwise equality of two materializations (every RC node field).
void expect_same_parasitics(const extract::NetParasitics& a,
                            const extract::NetParasitics& b, int net) {
  ASSERT_EQ(a.rc.size(), b.rc.size()) << "net " << net;
  for (int i = 0; i < a.rc.size(); ++i) {
    const extract::RcNode& na = a.rc.node(i);
    const extract::RcNode& nb = b.rc.node(i);
    EXPECT_EQ(na.parent, nb.parent) << "net " << net;
    EXPECT_EQ(na.res, nb.res) << "net " << net;
    EXPECT_EQ(na.cap_gnd, nb.cap_gnd) << "net " << net << " node " << i;
    EXPECT_EQ(na.cap_cpl, nb.cap_cpl) << "net " << net;
    EXPECT_EQ(na.tree_node, nb.tree_node) << "net " << net;
  }
  EXPECT_EQ(a.load_rc_index, b.load_rc_index) << "net " << net;
  EXPECT_EQ(a.wire_cap_gnd, b.wire_cap_gnd) << "net " << net;
  EXPECT_EQ(a.wire_cap_cpl, b.wire_cap_cpl) << "net " << net;
  EXPECT_EQ(a.load_cap, b.load_cap) << "net " << net;
}

/// After resizing buffers and refreshing only the nets they load, a cache
/// in either mode materializes exactly what a cache built fresh on the
/// resized tree does, for every net and rule.
TEST(GeometryRefresh, ResizeThenRefreshMatchesFreshCacheInBothModes) {
  for (const std::size_t budget : {std::size_t{0}, kTightBudget}) {
    test::Flow f = test::small_flow(1024, 7);
    extract::GeometryCache cache(f.cts.tree, f.design, f.nets, budget,
                                 extract::ExtractOptions{});
    // Touch every net first so the budgeted cache holds some resized
    // nets' entries (updated in place) and has evicted others (rebuilt
    // lazily).
    for (int n = 0; n < f.nets.size(); ++n) (void)cache.pinned(n);
    std::vector<int> stale;
    int resized = 0;
    for (int id = 0; id < f.cts.tree.size(); ++id) {
      const netlist::TreeNode& node = f.cts.tree.node(id);
      if (node.kind != netlist::NodeKind::kBuffer || id % 3 != 0) continue;
      f.cts.tree.set_cell(id, (node.cell + 1) % f.tech.buffers.size());
      stale.push_back(f.nets.net_of_edge[id]);
      ++resized;
    }
    ASSERT_GT(resized, 4);
    const std::int64_t builds = cache.builds();
    for (const int n : stale) cache.refresh_load_cells(n);
    EXPECT_EQ(cache.builds(), builds) << "a refresh never walks a net";
    if (budget > 0) {
      EXPECT_GT(cache.evictions(), 0);
    }

    const extract::GeometryCache fresh(f.cts.tree, f.design, f.nets);
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      for (int n = 0; n < f.nets.size(); ++n) {
        extract::NetParasitics got;
        extract::NetParasitics want;
        extract::materialize(*cache.pinned(n), f.tech, f.tech.rules[r], got);
        extract::materialize(fresh.geometry(n), f.tech, f.tech.rules[r],
                             want);
        expect_same_parasitics(got, want, n);
      }
    }
  }
}

TEST(RefineSkew, SessionCacheOverloadMatchesWrapperUnderTightBudget) {
  for (const int sinks : {1024, 2048}) {
    test::Flow a = test::small_flow(sinks, 29);
    test::Flow b = test::small_flow(sinks, 29);
    RefineOptions opt;
    opt.target_fraction = 0.2;  // keep resizing for several passes.
    const RefineResult want = refine_skew(a.cts.tree, a.design, a.tech, opt);
    extract::GeometryCache cache(b.cts.tree, b.design, b.nets, kTightBudget,
                                 extract::ExtractOptions{});
    const RefineResult got =
        refine_skew(b.cts.tree, b.design, b.tech, b.nets, cache, opt);
    EXPECT_GT(want.resizes, 0) << "sinks=" << sinks;
    EXPECT_EQ(got.initial_skew, want.initial_skew);
    EXPECT_EQ(got.final_skew, want.final_skew);
    EXPECT_EQ(got.resizes, want.resizes);
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(a.cts.tree.size(), b.cts.tree.size());
    for (int i = 0; i < a.cts.tree.size(); ++i) {
      EXPECT_EQ(a.cts.tree.node(i).cell, b.cts.tree.node(i).cell) << i;
    }
    // The closing skew is a fresh extraction and analysis of the result.
    EXPECT_EQ(got.final_skew, measured_skew(b, b.cts.tree));
    // The budgeted cache ends up current with the resized cells.
    const extract::GeometryCache fresh(b.cts.tree, b.design, b.nets);
    const tech::RoutingRule& rule =
        b.tech.rules[b.tech.rules.blanket_index()];
    for (int n = 0; n < b.nets.size(); ++n) {
      extract::NetParasitics got_p;
      extract::NetParasitics want_p;
      extract::materialize(*cache.pinned(n), b.tech, rule, got_p);
      extract::materialize(fresh.geometry(n), b.tech, rule, want_p);
      expect_same_parasitics(got_p, want_p, n);
    }
  }
}

TEST(RefineSkew, ZeroIterationsOnlyMeasures) {
  test::Flow f = test::small_flow(512, 11);
  RefineOptions opt;
  opt.max_iterations = 0;
  const RefineResult r = refine_skew(f.cts.tree, f.design, f.tech, opt);
  EXPECT_EQ(r.resizes, 0);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.initial_skew, 0.0);
  EXPECT_EQ(r.final_skew, measured_skew(f, f.cts.tree));
}

TEST(RefineSkew, RejectsCacheOverADifferentNetList) {
  test::Flow f = test::small_flow(256, 5);
  const test::Flow other = test::small_flow(64, 5);
  extract::GeometryCache cache(other.cts.tree, other.design, other.nets);
  EXPECT_THROW(
      refine_skew(f.cts.tree, f.design, f.tech, f.nets, cache),
      std::invalid_argument);
}

}  // namespace
}  // namespace sndr::cts
