// Pins the delta-timing contract of PR 6: a single-net parasitic change
// replayed by timing::DeltaTimer — and a whole move applied by
// AssignmentState::apply_move — leaves every maintained array BITWISE
// identical to a fresh full analysis / rebuild() of the same assignment,
// and the result is independent of the worker thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "route/congestion_route.hpp"
#include "state_compare.hpp"
#include "test_util.hpp"
#include "timing/delay_metrics.hpp"
#include "timing/delta_timing.hpp"
#include "timing/variation.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {
namespace {

TEST(DeltaTimer, SingleNetChangeMatchesFreshAnalysis) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation ev =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);

  timing::DeltaTimer dt(f.cts.tree, f.design, f.tech, f.nets, aopt);
  dt.rebuild(ev.timing);
  ASSERT_TRUE(dt.synced());
  EXPECT_EQ(dt.sink_arrival(), ev.timing.sink_arrival);
  EXPECT_EQ(dt.node_slew(), ev.timing.node_slew);

  // Change a mid-tree net's rule and replay the subtree.
  const int net_id = f.nets.size() / 2;
  const int rule = 1;  // 1W2S.
  ASSERT_NE(rule, a[net_id]);
  extract::NetParasitics par;
  extract::materialize(cache.geometry(net_id), f.tech, f.tech.rules[rule],
                       par);
  dt.apply_net_change(net_id, par);

  a[net_id] = rule;
  const FlowEvaluation ev2 =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  EXPECT_EQ(dt.sink_arrival(), ev2.timing.sink_arrival);
  EXPECT_EQ(dt.sink_slew(), ev2.timing.sink_slew);
  EXPECT_EQ(dt.node_arrival(), ev2.timing.node_arrival);
  EXPECT_EQ(dt.node_slew(), ev2.timing.node_slew);

  // The touched slice is exactly the changed net plus its descendants,
  // each net after its parent net (depth-first, so not in id order).
  const std::span<const int> touched = dt.last_updated_nets();
  ASSERT_FALSE(touched.empty());
  EXPECT_EQ(touched.front(), net_id);
  std::vector<int> below = {net_id};
  for (std::size_t head = 0; head < below.size(); ++head) {
    for (const int load : f.nets.nets[below[head]].loads) {
      const int child = f.nets.net_driven[load];
      if (child >= 0) below.push_back(child);
    }
  }
  std::vector<int> got(touched.begin(), touched.end());
  std::sort(got.begin(), got.end());
  std::sort(below.begin(), below.end());
  EXPECT_EQ(got, below);
  for (std::size_t i = 1; i < touched.size(); ++i) {
    const int parent = f.nets.net_of_edge[f.nets.nets[touched[i]].driver];
    EXPECT_NE(std::find(touched.begin(), touched.begin() + i, parent),
              touched.begin() + i)
        << "net " << touched[i] << " before its parent " << parent;
  }
  EXPECT_LT(static_cast<int>(touched.size()), f.nets.size());
  EXPECT_TRUE(std::equal(touched.begin(), touched.end(),
                         dt.subtree(net_id).begin(), dt.subtree(net_id).end()));
}

TEST(DeltaTimer, RootNetChangeReachesEverySink) {
  test::Flow f = test::small_flow(64, 3);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation ev =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  timing::DeltaTimer dt(f.cts.tree, f.design, f.tech, f.nets, aopt);
  dt.rebuild(ev.timing);

  extract::NetParasitics par;
  extract::materialize(cache.geometry(0), f.tech, f.tech.rules[2], par);
  dt.apply_net_change(0, par);
  a[0] = 2;
  const FlowEvaluation ev2 =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt, &cache);
  EXPECT_EQ(dt.sink_arrival(), ev2.timing.sink_arrival);
  EXPECT_EQ(dt.sink_slew(), ev2.timing.sink_slew);
  // The root drives everything: the whole net list is replayed.
  EXPECT_EQ(static_cast<int>(dt.last_updated_nets().size()), f.nets.size());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The delta timer reseeds from the TimingReport alone, so analyze() must
/// record, per load, exactly the wire delay / step slew — and per net the
/// worst D2M delay — that a separate moment solve over extract_all's
/// parasitics gives. Checked bitwise on a random mixed assignment.
void expect_seed_arrays_match_moments(const test::Flow& f,
                                      const timing::AnalysisOptions& aopt) {
  workload::Rng rng(31);
  RuleAssignment a(static_cast<std::size_t>(f.nets.size()));
  for (int& r : a) r = static_cast<int>(rng.uniform_int(f.tech.rules.size()));
  const FlowEvaluation ev =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt);
  const std::vector<extract::NetParasitics> par =
      extract::Extractor(f.tech, f.design).extract_all(f.cts.tree, f.nets, a);
  const timing::TimingReport& t = ev.timing;
  ASSERT_EQ(t.node_wire_delay.size(), f.cts.tree.size());
  ASSERT_EQ(t.node_step_slew.size(), f.cts.tree.size());
  ASSERT_EQ(t.net_wire_delay_worst.size(), f.nets.nets.size());
  extract::RcMoments m;
  for (const netlist::Net& net : f.nets.nets) {
    const extract::NetParasitics& p = par[net.id];
    p.rc.moments(timing::net_driver_res(f.cts.tree, f.tech, net, aopt),
                 aopt.timing_miller, m);
    double worst = 0.0;
    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      const int load = net.loads[li];
      const int rc = p.load_rc_index[li];
      const double d2m = timing::delay_d2m(m.m1[rc], m.m2[rc]);
      const double delay = aopt.use_d2m ? d2m : timing::delay_elmore(m.m1[rc]);
      ASSERT_EQ(bits(t.node_wire_delay[load]), bits(delay)) << "load " << load;
      ASSERT_EQ(bits(t.node_step_slew[load]),
                bits(timing::step_slew(m.m1[rc], m.m2[rc])))
          << "load " << load;
      worst = std::max(worst, d2m);
    }
    ASSERT_EQ(bits(t.net_wire_delay_worst[net.id]), bits(worst))
        << "net " << net.id;
  }
  // A timer seeded from the report mirrors it exactly.
  timing::DeltaTimer dt(f.cts.tree, f.design, f.tech, f.nets, aopt);
  dt.rebuild(t);
  EXPECT_EQ(dt.node_arrival(), t.node_arrival);
  EXPECT_EQ(dt.sink_slew(), t.sink_slew);
  for (const netlist::Net& net : f.nets.nets) {
    EXPECT_EQ(bits(dt.net_wire_delay_worst(net.id)),
              bits(t.net_wire_delay_worst[net.id]));
  }
}

std::vector<timing::AnalysisOptions> seed_option_grid() {
  std::vector<timing::AnalysisOptions> grid;
  for (const bool d2m : {true, false}) {
    for (const double miller : {1.0, 1.7}) {
      timing::AnalysisOptions o;
      o.use_d2m = d2m;
      o.timing_miller = miller;
      grid.push_back(o);
    }
  }
  return grid;
}

TEST(DeltaTimerSeed, ReportArraysMatchMomentSolveOnCongestedDesign) {
  const test::Flow f = test::congested_flow();
  for (const timing::AnalysisOptions& aopt : seed_option_grid()) {
    SCOPED_TRACE(testing::Message() << "use_d2m=" << aopt.use_d2m
                                    << " miller=" << aopt.timing_miller);
    expect_seed_arrays_match_moments(f, aopt);
  }
}

TEST(DeltaTimerSeed, ReportArraysMatchMomentSolveOn3000Sinks) {
  const test::Flow f = test::small_flow(3000, 9);
  for (const timing::AnalysisOptions& aopt : seed_option_grid()) {
    SCOPED_TRACE(testing::Message() << "use_d2m=" << aopt.use_d2m
                                    << " miller=" << aopt.timing_miller);
    expect_seed_arrays_match_moments(f, aopt);
  }
}

// A state reseeded from a report and then churned through 2000 feasible
// moves still equals a fresh rebuild (the report seed drifts nowhere).
TEST(DeltaTimerSeed, ReportSeededStateStaysEqualOverFeasibleMoves) {
  const test::Flow f = test::congested_flow();
  timing::AnalysisOptions aopt;
  aopt.timing_miller = 1.3;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  state.rebuild(blanket, evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                  blanket, aopt, &state.geometry_cache()));
  test::expect_matches_fresh_rebuild(state);

  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const MoveMargins margins;
  workload::Rng rng(5);
  int applied = 0;
  for (int proposal = 0; applied < 2000 && proposal < 100000; ++proposal) {
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const NetExact& exact = state.exact_eval(net_id, rule);
    const NetImpact impact{exact.step_slew_worst, exact.sigma_worst,
                           exact.xtalk_worst, exact.wire_delay_worst};
    if (!state.check_move(net_id, rule, impact, margins)) continue;
    state.apply_move(net_id, rule);
    if (++applied % 250 == 0) {
      SCOPED_TRACE("after " + std::to_string(applied) + " moves");
      test::expect_matches_fresh_rebuild(state);
      if (HasFailure()) return;
    }
  }
  EXPECT_EQ(applied, 2000);
}

TEST(DeltaTimingChurn, RandomMovesStayBitwiseIdenticalToRebuild) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  const RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  state.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                            &state.geometry_cache()));

  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  workload::Rng rng(20260809);
  for (int move = 0; move < 32; ++move) {
    SCOPED_TRACE("move " + std::to_string(move));
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    state.apply_move(net_id, rule);
    test::expect_matches_fresh_rebuild(state);
  }
}

// Routing usage is the one accumulator apply_move maintains with +=
// deltas, so it can drift from a fresh compute_usage() by FP rounding;
// nothing re-syncs it mid-search. On a design where capacity binds, every
// proposal's check_move() verdict must still equal the verdict of a state
// freshly rebuilt from a full evaluation of the same assignment.
TEST(DeltaTimingChurn, CongestedCheckMoveMatchesFreshRebuild) {
  const test::Flow f = test::congested_flow();
  ASSERT_TRUE(f.design.congestion.valid());

  const timing::AnalysisOptions aopt;
  const MoveMargins margins{0.05, 0.05, 0.05, 0.10};
  RuleAssignment a = assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  state.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                            &state.geometry_cache()));

  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const double width_frac = f.tech.clock_layer.width_frac();
  workload::Rng rng(7);
  int verdicts[2] = {0, 0};
  int widening[2] = {0, 0};  // [fits capacity?] over pitch-widening moves.
  for (int move = 0; move < 200; ++move) {
    SCOPED_TRACE("proposal " + std::to_string(move));
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const NetExact exact = state.exact_eval(net_id, rule);
    NetImpact impact;
    impact.step_slew = exact.step_slew_worst;
    impact.sigma = exact.sigma_worst;
    impact.xtalk = exact.xtalk_worst;
    impact.delay = exact.wire_delay_worst;

    AssignmentState fresh(f.cts.tree, f.design, f.tech, f.nets, aopt,
                          &state.geometry_cache());
    fresh.rebuild(a, evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                              &state.geometry_cache()));
    const bool ok = state.check_move(net_id, rule, impact, margins);
    EXPECT_EQ(ok, fresh.check_move(net_id, rule, impact, margins));
    ++verdicts[ok ? 1 : 0];
    const double d_pitch =
        f.tech.rules[rule].pitch_mult(width_frac) -
        f.tech.rules[state.rule_of(net_id)].pitch_mult(width_frac);
    if (d_pitch > 0.0) {
      const netlist::RoutingFootprint& fp =
          state.geometry_cache().footprint();
      const netlist::RoutingUsage usage = route::compute_usage(
          fp, f.nets, a, f.tech, f.design.congestion);
      bool fits = true;
      for (int k = 0; k < fp.path_count(net_id); ++k) {
        fits = fits && usage.fits_steps(fp.path_steps(net_id, k), d_pitch);
      }
      ++widening[fits ? 1 : 0];
    }

    // Churn through rejected moves too, so usage keeps moving both ways.
    state.apply_move(net_id, rule);
    a[net_id] = rule;
  }
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
  // Capacity binds both ways: some widening moves fit, some do not.
  EXPECT_GT(widening[0], 0);
  EXPECT_GT(widening[1], 0);
  test::expect_matches_fresh_rebuild(state);
}

TEST(DeltaTimingChurn, ChurnIsThreadCountInvariant) {
  test::Flow f = test::small_flow(96, 23);
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();

  // Prewarm (parallel batched kernels) + serial churn, at a given thread
  // count. Batch composition and memo contents must not depend on it.
  const auto churn = [&](int threads) {
    common::set_thread_count(threads);
    AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
    const FlowEvaluation ev = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                       blanket, aopt,
                                       &state.geometry_cache());
    state.rebuild(blanket, ev);
    state.warm_all_rows();
    workload::Rng rng(99);
    for (int move = 0; move < 24; ++move) {
      const int net_id = static_cast<int>(rng.uniform_int(n_nets));
      int rule = static_cast<int>(rng.uniform_int(n_rules));
      if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
      state.apply_move(net_id, rule);
    }
    test::StateSnapshot s = test::snapshot(state);
    common::set_thread_count(-1);
    return s;
  };

  const test::StateSnapshot one = churn(1);
  const test::StateSnapshot eight = churn(8);
  test::expect_bitwise_eq(eight, one);
}

}  // namespace
}  // namespace sndr::ndr
