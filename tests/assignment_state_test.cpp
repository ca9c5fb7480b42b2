#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/thread_pool.hpp"
#include "fuzz_util.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "state_compare.hpp"
#include "test_util.hpp"
#include "timing/delay_metrics.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {
namespace {

class StateFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    f = test::small_flow(96, 23);
    blanket = assign_all(f.nets, f.tech.rules.blanket_index());
    state = std::make_unique<AssignmentState>(f.cts.tree, f.design, f.tech,
                                              f.nets, aopt);
    ev = evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt);
    state->rebuild(blanket, ev);
  }

  test::Flow f;
  timing::AnalysisOptions aopt;
  RuleAssignment blanket;
  std::unique_ptr<AssignmentState> state;
  FlowEvaluation ev;
};

TEST_F(StateFixture, RebuildMatchesEvaluation) {
  EXPECT_EQ(state->assignment(), blanket);
  double cap = 0.0;
  for (int i = 0; i < f.nets.size(); ++i) {
    EXPECT_DOUBLE_EQ(state->net_cap(i), ev.power.net_switched_cap[i]);
    cap += state->net_cap(i);
  }
  EXPECT_NEAR(state->total_cap(), cap, 1e-18);
  EXPECT_NEAR(state->total_cap(), ev.power.switched_cap, 1e-18);
}

TEST_F(StateFixture, SinkNetMappingsAreConsistent) {
  // Every sink's path nets contain it in their sinks_under set, and the
  // root net covers every sink.
  for (int s = 0; s < static_cast<int>(f.design.sinks.size()); ++s) {
    for (const int net : state->nets_on_path(s)) {
      const auto& under = state->sinks_under(net);
      EXPECT_NE(std::find(under.begin(), under.end(), s), under.end());
    }
  }
  EXPECT_EQ(state->sinks_under(0).size(), f.design.sinks.size());
}

TEST_F(StateFixture, ApplyMoveTracksIncrementalCap) {
  const int net_id = f.nets.size() - 1;
  const int rule = 1;  // 1W2S.
  const NetExact exact = state->exact_eval(net_id, rule);
  const double before = state->total_cap();
  state->apply_move(net_id, rule);
  EXPECT_EQ(state->rule_of(net_id), rule);
  EXPECT_NEAR(state->total_cap(),
              before + exact.cap_switched - ev.power.net_switched_cap[net_id],
              1e-20);
}

TEST_F(StateFixture, IncrementalStateMatchesFreshRebuildAfterMoves) {
  // Apply a handful of moves incrementally, then compare against a full
  // evaluation of the same assignment: apply_move is exact (a delta-timing
  // replay plus accumulators with rebuild()'s summation definitions), so
  // the agreement is BITWISE, not approximate.
  RuleAssignment a = blanket;
  for (const int net_id :
       {1, f.nets.size() / 2, f.nets.size() - 2, f.nets.size() - 1}) {
    state->apply_move(net_id, 1);
    a[net_id] = 1;
  }
  const FlowEvaluation ev2 = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                      a, aopt, &state->geometry_cache());
  for (int i = 0; i < f.nets.size(); ++i) {
    EXPECT_EQ(state->net_cap(i), ev2.power.net_switched_cap[i]);
  }
  for (std::size_t s = 0; s < ev2.timing.sink_arrival.size(); ++s) {
    EXPECT_EQ(state->sink_latency(static_cast<int>(s)),
              ev2.timing.sink_arrival[s]);
  }
  test::expect_matches_fresh_rebuild(*state);
}

// The widest and the narrowest move: the root net has every sink under it
// (its latency run spans the whole sum tree and every net's path prefix is
// recomputed); the deepest leaf net has no descendant nets at all.
void move_root_then_deepest_leaf(const netlist::ClockTree& tree,
                                 const netlist::Design& design,
                                 const tech::Technology& tech,
                                 const netlist::NetList& nets, int threads) {
  common::set_thread_count(threads);
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket = assign_all(nets, tech.rules.blanket_index());
  AssignmentState state(tree, design, tech, nets, aopt);
  state.rebuild(blanket, evaluate(tree, design, tech, nets, blanket, aopt,
                                  &state.geometry_cache()));
  ASSERT_EQ(state.sinks_under(0).size(), design.sinks.size());
  int deepest = 0;
  for (const netlist::Net& net : nets.nets) {
    if (net.depth >= nets.nets[deepest].depth) deepest = net.id;
  }
  ASSERT_GT(deepest, 0);
  for (const int net_id : {0, deepest}) {
    const int rule = (state.rule_of(net_id) + 1) % tech.rules.size();
    state.apply_move(net_id, rule);
    test::expect_matches_fresh_rebuild(state);
  }
}

TEST(StateMoves, RootAndDeepestLeafMatchFreshRebuild) {
  const test::Flow small = test::small_flow(96, 23);
  const workload::DomainWorkload domains =
      test::fuzz::build(test::fuzz::make_scenario(5), small.tech);
  ASSERT_TRUE(domains.design.clock_domains.enabled());
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    move_root_then_deepest_leaf(small.cts.tree, small.design, small.tech,
                                small.nets, threads);
    move_root_then_deepest_leaf(domains.tree, domains.design, small.tech,
                                domains.nets, threads);
  }
  common::set_thread_count(-1);
}

// 2000 feasible moves on a design where capacity binds. After each one,
// every cell's usage must equal, bitwise, a replay of the per-path
// add(path, d_pitch) bookkeeping the footprint replaced, and every
// check_move verdict must be the per-path std::map capacity check combined
// with the other constraints. Those come from a twin state that makes the
// same moves on an uncapped copy of the map.
TEST(StateMoves, UsageReplaysPerPathBookkeepingOverFeasibleMoves) {
  const test::Flow f = test::congested_flow();
  const netlist::CongestionMap& map = f.design.congestion;
  netlist::Design uncapped = f.design;
  for (int c = 0; c < map.cell_count(); ++c) {
    uncapped.congestion.set_capacity_cell(c, 1e18);
  }
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  AssignmentState twin(f.cts.tree, uncapped, f.tech, f.nets, aopt);
  state.rebuild(blanket, evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                  blanket, aopt, &state.geometry_cache()));
  twin.rebuild(blanket, evaluate(f.cts.tree, uncapped, f.tech, f.nets,
                                 blanket, aopt, &twin.geometry_cache()));

  const double width_frac = f.tech.clock_layer.width_frac();
  const auto pitch = [&](int rule) {
    return f.tech.rules[rule].pitch_mult(width_frac);
  };
  netlist::RoutingUsage ref(&map);
  for (const netlist::Net& net : f.nets.nets) {
    for (const int v : net.wires) {
      ref.add(test::wire_path(f.cts.tree, v), pitch(blanket[net.id]));
    }
  }
  const auto expect_usage_matches = [&] {
    for (int c = 0; c < map.cell_count(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(state.usage().used_cell(c)),
                std::bit_cast<std::uint64_t>(ref.used_cell(c)))
          << "cell " << c;
    }
  };
  expect_usage_matches();

  const int n_nets = f.nets.size();
  const int n_rules = f.tech.rules.size();
  const MoveMargins margins;
  workload::Rng rng(5);
  int applied = 0;
  int capacity_vetoes = 0;
  for (int proposal = 0; applied < 2000 && proposal < 100000; ++proposal) {
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const NetExact& exact = state.exact_eval(net_id, rule);
    const NetImpact impact{exact.step_slew_worst, exact.sigma_worst,
                           exact.xtalk_worst, exact.wire_delay_worst};
    const netlist::Net& net = f.nets[net_id];
    const double d_pitch = pitch(rule) - pitch(state.rule_of(net_id));
    bool fits = true;
    if (d_pitch > 0.0) {
      for (const int v : net.wires) {
        fits = fits && test::map_fits(ref, map, test::wire_path(f.cts.tree, v),
                                      d_pitch);
      }
    }
    capacity_vetoes += fits ? 0 : 1;
    const bool ok = state.check_move(net_id, rule, impact, margins);
    ASSERT_EQ(ok, fits && twin.check_move(net_id, rule, impact, margins))
        << "proposal " << proposal;
    if (!ok) continue;
    state.apply_move(net_id, rule);
    twin.apply_move(net_id, rule);
    if (d_pitch != 0.0) {
      for (const int v : net.wires) {
        ref.add(test::wire_path(f.cts.tree, v), d_pitch);
      }
    }
    ++applied;
    expect_usage_matches();
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(applied, 2000);
  EXPECT_GT(capacity_vetoes, 0);
}

TEST_F(StateFixture, CheckMoveRejectsObviousViolations) {
  const int net_id = f.nets.size() - 1;
  NetImpact impossible;
  impossible.step_slew = 1.0;  // one second of slew.
  EXPECT_FALSE(state->check_move(net_id, 0, impossible, {}));

  NetImpact benign;  // zero impact: strictly better everywhere.
  EXPECT_TRUE(state->check_move(net_id, 1, benign, {}));

  NetImpact huge_delay;
  huge_delay.delay = 1.0;  // shifts sinks out of any window.
  EXPECT_FALSE(state->check_move(net_id, 1, huge_delay, {}));
}

TEST_F(StateFixture, MarginsTightenChecks) {
  const int net_id = f.nets.size() - 1;
  const NetExact exact = state->exact_eval(net_id, 0);  // 1W1S.
  NetImpact impact;
  impact.step_slew = exact.step_slew_worst;
  impact.sigma = exact.sigma_worst;
  impact.xtalk = exact.xtalk_worst;
  impact.delay = exact.wire_delay_worst;
  // With absurd margins nothing passes.
  MoveMargins crushing;
  crushing.slew = 0.999;
  EXPECT_FALSE(state->check_move(net_id, 0, impact, crushing));
}

TEST_F(StateFixture, ExactEvalUsesDriverModel) {
  // The root (source-driven) net and a buffer-driven net get different
  // driver resistances; both evaluations must be self-consistent.
  const NetExact root = state->exact_eval(0, 0);
  EXPECT_GT(root.cap_switched, 0.0);
  EXPECT_GT(root.step_slew_worst, 0.0);
  const NetExact leaf = state->exact_eval(f.nets.size() - 1, 0);
  EXPECT_GT(leaf.cap_switched, 0.0);
}

/// check_move as one loop over the sinks under the net, every constraint
/// tested sink by sink from the state's accessors: the reference for the
/// per-leaf-net uncertainty test. `unc_only` flags a rejection that the
/// uncertainty bound alone made, so callers can see that test bind.
struct RefVerdict {
  bool ok = true;
  bool unc_only = false;
};

RefVerdict reference_check_move(const AssignmentState& st, int net_id,
                                int rule_idx, const NetImpact& impact,
                                const MoveMargins& margins) {
  const netlist::Design& d = st.design();
  const tech::Technology& tech = st.tech();
  const netlist::ClockConstraints& c = d.constraints;
  const tech::RoutingRule& rule = tech.rules[rule_idx];
  if (st.slew_at_loads(net_id, impact.step_slew) >
      c.max_slew * (1.0 - margins.slew)) {
    return {false, false};
  }
  const int driver = st.nets().nets[net_id].driver;
  if (net_em_bound(st.summary(net_id), tech, rule, c.clock_freq) *
          d.clock_domains.node_em_scale(driver) >
      tech.clock_layer.em_jmax * (1.0 - margins.em)) {
    return {false, false};
  }
  const double width_frac = tech.clock_layer.width_frac();
  const double d_pitch =
      rule.pitch_mult(width_frac) -
      tech.rules[st.rule_of(net_id)].pitch_mult(width_frac);
  if (d_pitch > 0.0) {
    const netlist::RoutingFootprint& fp = st.geometry_cache().footprint();
    for (int k = 0; k < fp.path_count(net_id); ++k) {
      if (!st.usage().fits_steps(fp.path_steps(net_id, k), d_pitch)) {
        return {false, false};
      }
    }
  }
  const double d_delay = impact.delay - st.net_wire_delay(net_id);
  const std::span<const int> under = st.sinks_under(net_id);
  const int n_sinks = static_cast<int>(d.sinks.size());
  const double new_mean =
      (st.latency_sum() + d_delay * static_cast<double>(under.size())) /
      std::max(1, n_sinks);
  const double sigma = st.net_sigma(net_id);
  const double d_var = impact.sigma * impact.sigma - sigma * sigma;
  const double d_xtalk = impact.xtalk - st.net_xtalk_of(net_id);
  const double max_unc = c.max_uncertainty * (1.0 - margins.uncertainty);
  const double win_scale = 1.0 - margins.skew;
  bool skew_ok = true;
  bool unc_ok = true;
  for (const int s : under) {
    const double lo = d.useful_skew.enabled() ? d.useful_skew.lo[s]
                                              : -0.5 * c.max_skew;
    const double hi =
        d.useful_skew.enabled() ? d.useful_skew.hi[s] : 0.5 * c.max_skew;
    const double off = st.sink_latency(s) + d_delay - new_mean;
    if (off < lo * win_scale || off > hi * win_scale) skew_ok = false;
    const double var = std::max(0.0, st.sink_var(s) + d_var);
    const double unc = 3.0 * std::sqrt(var) + st.sink_xtalk(s) + d_xtalk;
    if (unc > max_unc) unc_ok = false;
  }
  return {skew_ok && unc_ok, skew_ok && !unc_ok};
}

/// 2000 random proposals, each judged by check_move and by the reference
/// under the default guard bands and under uncertainty margins that put
/// the bound at (and halfway to) the start state's worst sink, so it
/// binds whatever the design's own limit is. Moves the default bands
/// accept are applied, so the path prefixes the verdicts read keep
/// changing.
///
/// With `aopt` at another timing Miller factor, the reference judges each
/// proposal on an impact solved by the scalar kernels at that factor —
/// the delays the state's own delta timer uses — while check_move gets
/// the memo row's impact, so the two must agree on one Miller factor.
NetImpact own_miller_impact(const AssignmentState& st, int net_id,
                            int rule_idx) {
  const tech::Technology& tech = st.tech();
  const netlist::Net& net = st.nets().nets[net_id];
  const double dres = st.summary(net_id).driver_res;
  extract::NetParasitics par;
  extract::materialize(st.geometry_cache().geometry(net_id), tech,
                       tech.rules[rule_idx], par);
  extract::RcMoments m;
  par.rc.moments(dres, st.analysis().timing_miller, m);
  NetImpact impact;
  for (std::size_t li = 0; li < net.loads.size(); ++li) {
    const int rc = par.load_rc_index[li];
    impact.step_slew =
        std::max(impact.step_slew, timing::step_slew(m.m1[rc], m.m2[rc]));
    impact.delay =
        std::max(impact.delay, timing::delay_d2m(m.m1[rc], m.m2[rc]));
  }
  const timing::NetVariationDetail v =
      timing::net_variation(par, tech, tech.rules[rule_idx], dres);
  impact.sigma = v.worst_sigma();
  impact.xtalk = v.worst_xtalk();
  return impact;
}

void expect_check_move_matches_reference(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const timing::AnalysisOptions& aopt = {}) {
  const RuleAssignment blanket = assign_all(nets, tech.rules.blanket_index());
  AssignmentState state(tree, design, tech, nets, aopt);
  state.rebuild(blanket, evaluate(tree, design, tech, nets, blanket, aopt,
                                  &state.geometry_cache()));
  double worst_unc = 0.0;
  for (int s = 0; s < static_cast<int>(design.sinks.size()); ++s) {
    worst_unc = std::max(worst_unc, 3.0 * std::sqrt(state.sink_var(s)) +
                                        state.sink_xtalk(s));
  }
  const double at_worst = std::clamp(
      1.0 - worst_unc / design.constraints.max_uncertainty, 0.0, 0.99);
  // Likewise a skew band that puts the window edge at (and halfway to)
  // the start state's worst sink offset, as a fraction of its window.
  const int n_sinks = static_cast<int>(design.sinks.size());
  const double mean = state.latency_sum() / std::max(1, n_sinks);
  double worst_frac = 0.0;
  for (int s = 0; s < n_sinks; ++s) {
    const double lo = design.useful_skew.enabled()
                          ? design.useful_skew.lo[s]
                          : -0.5 * design.constraints.max_skew;
    const double hi = design.useful_skew.enabled()
                          ? design.useful_skew.hi[s]
                          : 0.5 * design.constraints.max_skew;
    const double off = state.sink_latency(s) - mean;
    worst_frac = std::max({worst_frac, off / hi, off / lo});
  }
  const double skew_at_worst = std::clamp(1.0 - worst_frac, 0.0, 0.99);
  const MoveMargins bands[] = {{},
                               {0.05, at_worst, 0.05, 0.10},
                               {0.05, 0.5 * at_worst, 0.05, 0.10},
                               {0.05, 0.05, 0.05, skew_at_worst},
                               {0.05, 0.05, 0.05, 0.5 * skew_at_worst}};
  const int n_nets = nets.size();
  const int n_rules = tech.rules.size();
  workload::Rng rng(2026);
  int verdicts[2] = {0, 0};
  int unc_only = 0;
  for (int proposal = 0; proposal < 2000; ++proposal) {
    const int net_id = static_cast<int>(rng.uniform_int(n_nets));
    int rule = static_cast<int>(rng.uniform_int(n_rules));
    if (rule == state.rule_of(net_id)) rule = (rule + 1) % n_rules;
    const NetExact& exact = state.exact_eval(net_id, rule);
    const NetImpact impact{exact.step_slew_worst, exact.sigma_worst,
                           exact.xtalk_worst, exact.wire_delay_worst};
    const NetImpact ref_impact = aopt.timing_miller == 1.0
                                     ? impact
                                     : own_miller_impact(state, net_id, rule);
    for (const MoveMargins& m : bands) {
      const RefVerdict want =
          reference_check_move(state, net_id, rule, ref_impact, m);
      ASSERT_EQ(state.check_move(net_id, rule, impact, m), want.ok)
          << "proposal " << proposal << " net " << net_id << " rule "
          << rule << " uncertainty margin " << m.uncertainty;
      ++verdicts[want.ok ? 1 : 0];
      unc_only += want.unc_only ? 1 : 0;
    }
    if (state.check_move(net_id, rule, impact, bands[0])) {
      state.apply_move(net_id, rule);
    }
  }
  EXPECT_GT(verdicts[0], 0);
  EXPECT_GT(verdicts[1], 0);
  EXPECT_GT(unc_only, 0);
}

TEST(CheckMove, MatchesPerSinkReferenceOnCongestedDesign) {
  const test::Flow f = test::congested_flow();
  expect_check_move_matches_reference(f.cts.tree, f.design, f.tech, f.nets);
}

TEST(CheckMove, MatchesPerSinkReferenceWithUsefulSkewWindows) {
  netlist::Design d = test::small_design(256, 7);
  workload::attach_useful_skew(d, 0.3, 10.0, 40.0);
  const test::Flow f = test::synthesize_flow(std::move(d));
  ASSERT_TRUE(f.design.useful_skew.enabled());
  expect_check_move_matches_reference(f.cts.tree, f.design, f.tech, f.nets);
}

// A state timed at Miller 1.3 judges the skew window on wire delays at
// 1.3: its memo rows' moment-derived scalars are solved at its own factor,
// not at the batch kernel's 1.0.
TEST(CheckMove, MatchesOwnMillerReferenceAtMiller13) {
  const test::Flow f = test::congested_flow();
  timing::AnalysisOptions aopt;
  aopt.timing_miller = 1.3;
  expect_check_move_matches_reference(f.cts.tree, f.design, f.tech, f.nets,
                                      aopt);
}

TEST(CheckMove, MatchesPerSinkReferenceOnMultiDomainScenario) {
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const workload::DomainWorkload w =
      test::fuzz::build(test::fuzz::make_scenario(5), tech);
  ASSERT_TRUE(w.design.clock_domains.enabled());
  expect_check_move_matches_reference(w.tree, w.design, tech, w.nets);
}

}  // namespace
}  // namespace sndr::ndr
