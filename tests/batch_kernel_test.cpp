// Bit-identity contract of the batched kernels (extract/batch.hpp,
// ndr/net_eval.hpp) on one-geometry batches: every lane of the batched
// materialize / moments / exact evaluation must equal the scalar reference
// path bit for bit — across every rule, every process corner, at 1 and 8
// threads — with all scratch carved from a common::Arena that is reused
// (reset, not reallocated) across nets.
// This is what lets the optimizer's memo warm whole rule rows and the corner
// signoff share one extraction batch without any tolerance-based checking.
#include <gtest/gtest.h>

#include <vector>

#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "extract/batch.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/corner_eval.hpp"
#include "ndr/net_eval.hpp"
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

/// Bitwise comparison of the scalar NetExact metrics (par is not filled by
/// the batched path and is excluded by contract).
void expect_exact_identical(const ndr::NetExact& a, const ndr::NetExact& b) {
  EXPECT_EQ(a.cap_switched, b.cap_switched);
  EXPECT_EQ(a.step_slew_worst, b.step_slew_worst);
  EXPECT_EQ(a.sigma_worst, b.sigma_worst);
  EXPECT_EQ(a.xtalk_worst, b.xtalk_worst);
  EXPECT_EQ(a.em_peak, b.em_peak);
  EXPECT_EQ(a.wire_delay_mean, b.wire_delay_mean);
  EXPECT_EQ(a.wire_delay_worst, b.wire_delay_worst);
}

class BatchKernelFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(48, 7);
  extract::GeometryCache cache{f.cts.tree, f.design, f.nets};
  ThreadGuard guard;
};

TEST_F(BatchKernelFixture, MaterializeLanesBitIdenticalToScalarPerRule) {
  // One arena for ALL nets: reset-and-reuse is the production lifetime, so
  // any cross-net contamination through kept blocks would surface here.
  common::Arena arena;
  extract::NetParasitics scalar;
  extract::NetParasitics scattered;
  const int R = f.tech.rules.size();
  std::vector<extract::NetLane> lanes(static_cast<std::size_t>(R));
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetGeometry& geom = cache.geometry(net.id);
    for (int r = 0; r < R; ++r) lanes[r] = {&geom, &f.tech, &f.tech.rules[r]};
    arena.reset();
    extract::BatchParasitics bp;
    extract::materialize_nets_batch(lanes.data(), R, arena, bp);
    ASSERT_EQ(bp.lanes, R);
    for (int r = 0; r < R; ++r) {
      extract::materialize(geom, f.tech, f.tech.rules[r], scalar);
      extract::scatter_lane(geom, bp, r, scattered);
      expect_parasitics_identical(scattered, scalar);
    }
  }
}

TEST_F(BatchKernelFixture, MomentsLanesBitIdenticalToScalarFusedKernel) {
  common::Arena arena;
  extract::NetParasitics scalar;
  extract::RcMoments scalar_moments;
  const double driver_res = 140.0;
  const int L = f.tech.rules.size();
  std::vector<extract::NetLane> lanes(static_cast<std::size_t>(L));
  const std::vector<double> dres(static_cast<std::size_t>(L), driver_res);
  const std::vector<double> miller(static_cast<std::size_t>(L), 1.0);
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetGeometry& geom = cache.geometry(net.id);
    for (int l = 0; l < L; ++l) lanes[l] = {&geom, &f.tech, &f.tech.rules[l]};
    arena.reset();
    extract::BatchParasitics bp;
    extract::materialize_nets_batch(lanes.data(), L, arena, bp);
    const std::int64_t plane = static_cast<std::int64_t>(bp.nodes) * L;
    double* down = arena.alloc<double>(plane);
    double* subtree = arena.alloc<double>(plane);
    double* m1 = arena.alloc<double>(plane);
    double* m2 = arena.alloc<double>(plane);
    extract::rc_moments_batch(bp.nodes, L, bp.parent, bp.res, bp.cap_gnd,
                              bp.cap_cpl, dres.data(), miller.data(), down,
                              subtree, m1, m2);
    for (int r = 0; r < L; ++r) {
      extract::materialize(geom, f.tech, f.tech.rules[r], scalar);
      scalar.rc.moments(driver_res, 1.0, scalar_moments);
      for (int i = 0; i < bp.nodes; ++i) {
        EXPECT_EQ(m1[bp.at(i, r)], scalar_moments.m1[i]);
        EXPECT_EQ(m2[bp.at(i, r)], scalar_moments.m2[i]);
      }
    }
  }
}

/// One net's rule sweep through the batched entry point: a one-net batch.
void sweep_one_net(const extract::NetGeometry& geom,
                   const tech::Technology& tech, double driver_res,
                   double freq, common::Arena& arena, ndr::NetExact* out) {
  const extract::NetGeometry* geoms[] = {&geom};
  ndr::evaluate_nets_exact_all_rules(geoms, &driver_res, 1, tech, freq,
                                     arena, out);
}

TEST_F(BatchKernelFixture, ExactAllRulesBitIdenticalToScalarSweep) {
  common::Arena arena;
  std::vector<ndr::NetExact> row(static_cast<std::size_t>(
      f.tech.rules.size()));
  ndr::NetEvalScratch scratch;
  const double driver_res = 150.0;
  const double freq = f.design.constraints.clock_freq;
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetGeometry& geom = cache.geometry(net.id);
    sweep_one_net(geom, f.tech, driver_res, freq, arena, row.data());
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      const ndr::NetExact scalar = ndr::evaluate_net_exact(
          geom, f.tech, f.tech.rules[r], driver_res, freq, scratch);
      expect_exact_identical(row[static_cast<std::size_t>(r)], scalar);
    }
  }
}

TEST_F(BatchKernelFixture, ArenaReuseLeavesEarlierResultsReproducible) {
  // Evaluate the first net, churn the arena with every other net (growing
  // and rewinding it arbitrarily), then re-evaluate the first net in the
  // same arena: bitwise-equal results prove reset() gives a clean slate
  // and capacity reuse never leaks state between nets.
  common::Arena arena;
  const double driver_res = 150.0;
  const double freq = f.design.constraints.clock_freq;
  const int n_rules = f.tech.rules.size();
  std::vector<ndr::NetExact> first(static_cast<std::size_t>(n_rules));
  std::vector<ndr::NetExact> again(static_cast<std::size_t>(n_rules));
  const extract::NetGeometry& geom0 = cache.geometry(f.nets[0].id);
  sweep_one_net(geom0, f.tech, driver_res, freq, arena, first.data());
  const std::size_t grown = arena.capacity();
  std::vector<ndr::NetExact> scratch_row(static_cast<std::size_t>(n_rules));
  for (const netlist::Net& net : f.nets.nets) {
    sweep_one_net(cache.geometry(net.id), f.tech, driver_res, freq, arena,
                  scratch_row.data());
  }
  EXPECT_GE(arena.capacity(), grown);
  sweep_one_net(geom0, f.tech, driver_res, freq, arena, again.data());
  for (int r = 0; r < n_rules; ++r) {
    expect_exact_identical(again[static_cast<std::size_t>(r)],
                           first[static_cast<std::size_t>(r)]);
  }
}

TEST_F(BatchKernelFixture, CornerLanesBitIdenticalToPerCornerExtraction) {
  // The corner-signoff batch: lanes are derated technology clones with the
  // net's assigned rule, all on the net's geometry. Each scattered lane
  // must equal the parasitics the per-corner extract_all used to produce.
  // A second batch mixes every corner with every rule.
  const auto corners = tech::standard_corners();
  const auto assignment =
      ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  std::vector<tech::Technology> cornered;
  for (const tech::Corner& c : corners) {
    cornered.push_back(tech::apply_corner(f.tech, c));
  }
  common::Arena arena;
  extract::NetParasitics scattered;
  extract::NetParasitics scalar;
  std::vector<extract::NetLane> lanes;
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetGeometry& geom = cache.geometry(net.id);
    for (const bool mix_rules : {false, true}) {
      lanes.clear();
      for (const tech::Technology& t : cornered) {
        if (!mix_rules) {
          lanes.push_back({&geom, &t, &t.rules[assignment[net.id]]});
          continue;
        }
        for (int r = 0; r < t.rules.size(); ++r) {
          lanes.push_back({&geom, &t, &t.rules[r]});
        }
      }
      const int L = static_cast<int>(lanes.size());
      arena.reset();
      extract::BatchParasitics bp;
      extract::materialize_nets_batch(lanes.data(), L, arena, bp);
      for (int l = 0; l < L; ++l) {
        extract::materialize(geom, *lanes[l].tech, *lanes[l].rule, scalar);
        extract::scatter_lane(geom, bp, l, scattered);
        expect_parasitics_identical(scattered, scalar);
      }
    }
  }
}

TEST_F(BatchKernelFixture, CornerSignoffBitIdenticalAtOneAndEightThreads) {
  const auto assignment =
      ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  common::set_thread_count(1);
  const ndr::MultiCornerReport serial = ndr::evaluate_corners(
      f.cts.tree, f.design, f.tech, f.nets, assignment);
  common::set_thread_count(8);
  const ndr::MultiCornerReport parallel = ndr::evaluate_corners(
      f.cts.tree, f.design, f.tech, f.nets, assignment);
  ASSERT_EQ(serial.corners.size(), parallel.corners.size());
  for (std::size_t c = 0; c < serial.corners.size(); ++c) {
    const ndr::FlowEvaluation& a = serial.corners[c].eval;
    const ndr::FlowEvaluation& b = parallel.corners[c].eval;
    // Corner evaluations keep no parasitics: extract the corner's clone
    // from the cache at both thread counts and compare those directly.
    const tech::Technology cornered =
        tech::apply_corner(f.tech, serial.corners[c].corner);
    const extract::Extractor extractor(cornered, f.design);
    common::set_thread_count(1);
    const std::vector<extract::NetParasitics> pa =
        extractor.extract_all(f.cts.tree, f.nets, assignment, &cache);
    common::set_thread_count(8);
    const std::vector<extract::NetParasitics> pb =
        extractor.extract_all(f.cts.tree, f.nets, assignment, &cache);
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i) {
      expect_parasitics_identical(pa[i], pb[i]);
    }
    EXPECT_EQ(a.timing.node_wire_delay, b.timing.node_wire_delay);
    EXPECT_EQ(a.timing.node_step_slew, b.timing.node_step_slew);
    EXPECT_EQ(a.timing.net_wire_delay_worst, b.timing.net_wire_delay_worst);
    EXPECT_EQ(a.timing.max_slew, b.timing.max_slew);
    EXPECT_EQ(a.variation.max_uncertainty, b.variation.max_uncertainty);
    EXPECT_EQ(a.power.total_power, b.power.total_power);
    EXPECT_EQ(a.em.worst_density, b.em.worst_density);
  }
}

TEST_F(BatchKernelFixture, MemoRowWarmFillMatchesScalarAtBothThreadCounts) {
  // AssignmentState's first miss on a (net, rule) warms the whole rule row
  // via the batched sweep: exactly one miss per net, and every returned
  // entry equals the scalar reference evaluation.
  const timing::AnalysisOptions aopt;
  const auto blanket = ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  const double freq = f.design.constraints.clock_freq;
  for (const int threads : {1, 8}) {
    common::set_thread_count(threads);
    ndr::AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
    state.rebuild(blanket, ndr::evaluate(f.cts.tree, f.design, f.tech,
                                         f.nets, blanket, aopt));
    for (int net = 0; net < f.nets.size(); net += 5) {
      const auto misses_before = state.exact_cache_misses();
      const ndr::NetExact head = state.exact_eval(net, 1);
      EXPECT_EQ(state.exact_cache_misses(), misses_before + 1);
      // The rest of the row is warm: no further misses for ANY rule.
      for (int r = 0; r < f.tech.rules.size(); ++r) {
        const ndr::NetExact cached = state.exact_eval(net, r);
        EXPECT_EQ(state.exact_cache_misses(), misses_before + 1);
        const ndr::NetExact fresh = ndr::evaluate_net_exact(
            f.cts.tree, f.design, f.tech, f.nets[net], f.tech.rules[r],
            state.summary(net).driver_res, freq);
        expect_exact_identical(cached, fresh);
        if (r == 1) expect_exact_identical(cached, head);
      }
    }
  }
}

}  // namespace
}  // namespace sndr
