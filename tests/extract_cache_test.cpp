// Equivalence contract of two-phase extraction: parasitics materialized
// from a rule-independent GeometryCache must be bit-identical to fresh
// extraction — across every rule, every process corner, after rebuild()
// churn, and at any thread count — and the fused moment kernel must agree
// with the legacy three-pass entry points.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/corner_eval.hpp"
#include "tech/corners.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

/// Restores the global thread budget on scope exit so tests stay isolated.
struct ThreadGuard {
  ~ThreadGuard() { common::set_thread_count(-1); }
};

/// Bitwise comparison of complete parasitics (every node field included).
void expect_parasitics_identical(const extract::NetParasitics& a,
                                 const extract::NetParasitics& b) {
  ASSERT_EQ(a.rc.size(), b.rc.size());
  for (int i = 0; i < a.rc.size(); ++i) {
    const extract::RcNode& na = a.rc.node(i);
    const extract::RcNode& nb = b.rc.node(i);
    EXPECT_EQ(na.parent, nb.parent);
    EXPECT_EQ(na.res, nb.res);
    EXPECT_EQ(na.cap_gnd, nb.cap_gnd);
    EXPECT_EQ(na.cap_cpl, nb.cap_cpl);
    EXPECT_EQ(na.tree_node, nb.tree_node);
    EXPECT_EQ(na.wire_len, nb.wire_len);
    EXPECT_EQ(na.occupancy, nb.occupancy);
  }
  EXPECT_EQ(a.load_rc_index, b.load_rc_index);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.wire_cap_gnd, b.wire_cap_gnd);
  EXPECT_EQ(a.wire_cap_cpl, b.wire_cap_cpl);
  EXPECT_EQ(a.load_cap, b.load_cap);
}

void expect_extractions_identical(
    const std::vector<extract::NetParasitics>& a,
    const std::vector<extract::NetParasitics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_parasitics_identical(a[i], b[i]);
  }
}

void expect_evaluations_identical(const ndr::FlowEvaluation& a,
                                  const ndr::FlowEvaluation& b) {
  ASSERT_EQ(a.timing.sink_arrival.size(), b.timing.sink_arrival.size());
  for (std::size_t i = 0; i < a.timing.sink_arrival.size(); ++i) {
    EXPECT_EQ(a.timing.sink_arrival[i], b.timing.sink_arrival[i]);
    EXPECT_EQ(a.timing.sink_slew[i], b.timing.sink_slew[i]);
  }
  ASSERT_EQ(a.variation.net_sigma.size(), b.variation.net_sigma.size());
  for (std::size_t i = 0; i < a.variation.net_sigma.size(); ++i) {
    EXPECT_EQ(a.variation.net_sigma[i], b.variation.net_sigma[i]);
    EXPECT_EQ(a.variation.net_xtalk[i], b.variation.net_xtalk[i]);
  }
  EXPECT_EQ(a.variation.max_uncertainty, b.variation.max_uncertainty);
  EXPECT_EQ(a.power.total_power, b.power.total_power);
  EXPECT_EQ(a.power.switched_cap, b.power.switched_cap);
  EXPECT_EQ(a.em.worst_density, b.em.worst_density);
  EXPECT_EQ(a.timing.max_slew, b.timing.max_slew);
  EXPECT_EQ(a.timing.skew(), b.timing.skew());
  EXPECT_EQ(a.max_track_util, b.max_track_util);
  // The delta-timer seed arrays.
  EXPECT_EQ(a.timing.node_wire_delay, b.timing.node_wire_delay);
  EXPECT_EQ(a.timing.node_step_slew, b.timing.node_step_slew);
  EXPECT_EQ(a.timing.net_wire_delay_worst, b.timing.net_wire_delay_worst);
}

class ExtractCacheFixture : public ::testing::Test {
 protected:
  ExtractCacheFixture() : f(test::small_flow(48, 7)) {}

  test::Flow f;
};

TEST_F(ExtractCacheFixture, MaterializeMatchesFreshExtractionForEveryRule) {
  const extract::Extractor extractor(f.tech, f.design);
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  ASSERT_EQ(cache.net_count(), f.nets.size());
  EXPECT_EQ(cache.builds(), f.nets.size());

  extract::NetParasitics cached;  // reused across nets: warm-buffer path.
  for (const netlist::Net& net : f.nets.nets) {
    for (const tech::RoutingRule& rule : f.tech.rules) {
      const extract::NetParasitics fresh =
          extractor.extract_net(f.cts.tree, net, rule);
      extract::materialize(cache.geometry(net.id), f.tech, rule, cached);
      expect_parasitics_identical(fresh, cached);
    }
  }
  // Nothing above re-walked any geometry.
  EXPECT_EQ(cache.builds(), f.nets.size());
}

TEST_F(ExtractCacheFixture, OneCacheServesEveryProcessCorner) {
  // Corner derating rescales electrical coefficients only, so the same
  // geometry must reproduce fresh extraction under every derated clone.
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  extract::NetParasitics cached;
  for (const tech::Corner& corner : tech::standard_corners()) {
    const tech::Technology cornered = tech::apply_corner(f.tech, corner);
    const extract::Extractor extractor(cornered, f.design);
    for (const netlist::Net& net : f.nets.nets) {
      for (const tech::RoutingRule& rule : cornered.rules) {
        const extract::NetParasitics fresh =
            extractor.extract_net(f.cts.tree, net, rule);
        extract::materialize(cache.geometry(net.id), cornered, rule, cached);
        expect_parasitics_identical(fresh, cached);
      }
    }
  }
  EXPECT_EQ(cache.builds(), f.nets.size());
}

TEST_F(ExtractCacheFixture, FusedMomentsMatchLegacyEntryPoints) {
  const extract::Extractor extractor(f.tech, f.design);
  const double driver_res = 150.0;
  extract::RcMoments scratch;
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetParasitics par =
        extractor.extract_net(f.cts.tree, net, f.tech.rules[0]);
    for (const double miller : {1.0, 2.0}) {
      par.rc.moments(driver_res, miller, scratch);
      const std::vector<double> down = par.rc.downstream_cap(miller);
      const std::vector<double> m1 = par.rc.elmore_delay(driver_res, miller);
      const std::vector<double> m2 =
          par.rc.second_moment(driver_res, miller);
      ASSERT_EQ(static_cast<int>(scratch.m2.size()), par.rc.size());
      for (int i = 0; i < par.rc.size(); ++i) {
        EXPECT_EQ(scratch.down[i], down[i]);
        EXPECT_EQ(scratch.m1[i], m1[i]);
        EXPECT_EQ(scratch.m2[i], m2[i]);
      }

      // Independent reference: the historical three-pass m2 algorithm
      // (accumulate C*m1 downstream, prefix-sum R along paths). The fused
      // kernel associates differently, so compare to relative precision.
      std::vector<double> weighted(par.rc.size(), 0.0);
      for (int i = par.rc.size() - 1; i >= 0; --i) {
        weighted[i] += par.rc.node(i).cap_total(miller) * m1[i];
        const int p = par.rc.node(i).parent;
        if (p >= 0) weighted[p] += weighted[i];
      }
      std::vector<double> ref(par.rc.size(), 0.0);
      ref[0] = driver_res * weighted[0];
      for (int i = 1; i < par.rc.size(); ++i) {
        ref[i] = ref[par.rc.node(i).parent] + par.rc.node(i).res * weighted[i];
      }
      for (int i = 0; i < par.rc.size(); ++i) {
        EXPECT_NEAR(scratch.m2[i], ref[i], 1e-12 * std::abs(ref[i]) + 1e-40);
      }
    }
  }
}

TEST_F(ExtractCacheFixture, EvaluateBitIdenticalWithAndWithoutCache) {
  ThreadGuard guard;
  const ndr::RuleAssignment blanket = ndr::assign_all(f.nets, 0);
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  for (const int threads : {1, 8}) {
    common::set_thread_count(threads);
    const ndr::FlowEvaluation fresh =
        ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket);
    const ndr::FlowEvaluation cached = ndr::evaluate(
        f.cts.tree, f.design, f.tech, f.nets, blanket, {}, &cache);
    expect_evaluations_identical(fresh, cached);
    // Evaluations keep no parasitics: compare the extractions directly.
    const extract::Extractor extractor(f.tech, f.design);
    expect_extractions_identical(
        extractor.extract_all(f.cts.tree, f.nets, blanket),
        extractor.extract_all(f.cts.tree, f.nets, blanket, &cache));
  }
  EXPECT_EQ(cache.builds(), f.nets.size());
}

TEST_F(ExtractCacheFixture, ExactEvalMissesNeverRewalkGeometry) {
  ThreadGuard guard;
  for (const int threads : {1, 8}) {
    common::set_thread_count(threads);
    ndr::AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, {});
    // The state builds its shared cache exactly once per net up front...
    EXPECT_EQ(state.geometry_cache().builds(), f.nets.size());

    const ndr::RuleAssignment blanket = ndr::assign_all(f.nets, 0);
    const ndr::FlowEvaluation ev =
        ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, {},
                      &state.geometry_cache());
    state.rebuild(blanket, ev);

    // ...and every exact-eval miss across every (net, rule), every full
    // evaluation, every corner of signoff, and rebuild() churn shares it.
    const double freq = f.design.constraints.clock_freq;
    for (const netlist::Net& net : f.nets.nets) {
      for (int r = 0; r < f.tech.rules.size(); ++r) {
        const ndr::NetExact cached = state.exact_eval(net.id, r);
        const ndr::NetExact fresh = ndr::evaluate_net_exact(
            f.cts.tree, f.design, f.tech, net, f.tech.rules[r],
            state.summary(net.id).driver_res, freq);
        EXPECT_EQ(cached.cap_switched, fresh.cap_switched);
        EXPECT_EQ(cached.step_slew_worst, fresh.step_slew_worst);
        EXPECT_EQ(cached.sigma_worst, fresh.sigma_worst);
        EXPECT_EQ(cached.xtalk_worst, fresh.xtalk_worst);
        EXPECT_EQ(cached.em_peak, fresh.em_peak);
        EXPECT_EQ(cached.wire_delay_mean, fresh.wire_delay_mean);
        EXPECT_EQ(cached.wire_delay_worst, fresh.wire_delay_worst);
      }
    }
    state.rebuild(blanket, ev);
    const ndr::MultiCornerReport corners = ndr::evaluate_corners(
        f.cts.tree, f.design, f.tech, f.nets, blanket,
        tech::standard_corners(), {}, &state.geometry_cache());
    ASSERT_FALSE(corners.corners.empty());
    EXPECT_EQ(state.geometry_cache().builds(), f.nets.size());
  }
}

TEST_F(ExtractCacheFixture, InvalidateFollowsCongestionChange) {
  extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  // Perturb the congestion map: the cached occupancies are now stale until
  // invalidate() re-walks the nets.
  netlist::CongestionMap& cong = f.design.congestion;
  ASSERT_TRUE(cong.valid());
  for (int c = 0; c < cong.cell_count(); ++c) {
    cong.set_occupancy_cell(c, 0.5 * cong.occupancy_cell(c) + 0.25);
  }
  cache.invalidate();
  EXPECT_EQ(cache.builds(), 2 * f.nets.size());

  const extract::Extractor extractor(f.tech, f.design);
  extract::NetParasitics cached;
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetParasitics fresh =
        extractor.extract_net(f.cts.tree, net,
                              f.tech.rules[f.tech.rules.size() - 1]);
    extract::materialize(cache.geometry(net.id), f.tech, f.tech.rules[f.tech.rules.size() - 1], cached);
    expect_parasitics_identical(fresh, cached);
  }
}

// The cache's routing footprint is the whole tree's grid walk: a buffer
// resize (refresh_load_cells) moves no wire and leaves it as it is; a
// ClockTree::set_path edit leaves it stale until invalidate() re-records
// it from the edited tree.
TEST_F(ExtractCacheFixture, FootprintFollowsWireEditsNotResizes) {
  netlist::ClockTree& tree = f.cts.tree;
  const netlist::CongestionMap& map = f.design.congestion;
  extract::GeometryCache cache(tree, f.design, f.nets);
  const netlist::RoutingFootprint before = cache.footprint();
  EXPECT_EQ(before, netlist::RoutingFootprint(tree, f.nets, map));

  int buffer = -1;
  int wire = -1;
  for (int id = 0; id < tree.size(); ++id) {
    const netlist::TreeNode& n = tree.node(id);
    if (n.kind == netlist::NodeKind::kBuffer && buffer < 0) buffer = id;
    if (n.path.size() == 3 &&
        (wire < 0 || tree.edge_length(id) > tree.edge_length(wire))) {
      wire = id;  // the longest two-bend L.
    }
  }
  ASSERT_GE(buffer, 0);
  ASSERT_GE(wire, 0);
  tree.set_cell(buffer, (tree.node(buffer).cell + 1) % f.tech.buffers.size());
  cache.refresh_load_cells(f.nets.net_of_edge[buffer]);
  EXPECT_EQ(cache.footprint(), before);

  const geom::Point a = tree.loc(tree.node(wire).parent);
  const geom::Point b = tree.node(wire).loc;
  const bool horizontal_first = tree.node(wire).path[1].y == a.y;
  tree.set_path(wire, geom::l_path(a, b, !horizontal_first));
  const netlist::RoutingFootprint edited(tree, f.nets, map);
  ASSERT_NE(edited, before);      // the flipped L crosses other cells.
  EXPECT_EQ(cache.footprint(), before);  // stale until invalidated.
  cache.invalidate();
  EXPECT_EQ(cache.footprint(), edited);
}

}  // namespace
}  // namespace sndr
