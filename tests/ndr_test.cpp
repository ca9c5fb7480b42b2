#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "ndr/smart_ndr.hpp"
#include "tech/units.hpp"
#include "test_util.hpp"

namespace sndr::ndr {
namespace {

using units::GHz;
using units::ps;

TEST(Assignments, AllAndLevelBased) {
  const test::Flow f = test::small_flow(32);
  const RuleAssignment all = assign_all(f.nets, 3);
  EXPECT_EQ(all.size(), static_cast<std::size_t>(f.nets.size()));
  for (const int r : all) EXPECT_EQ(r, 3);

  const RuleAssignment lvl = assign_level_based(f.nets, 1, 4, 0);
  for (const auto& net : f.nets.nets) {
    EXPECT_EQ(lvl[net.id], net.depth < 1 ? 4 : 0);
  }
}

TEST(SolveSpd, Identity) {
  const auto x = solve_spd({1, 0, 0, 1}, {3, 4}, 2);
  EXPECT_DOUBLE_EQ(x[0], 3);
  EXPECT_DOUBLE_EQ(x[1], 4);
}

TEST(SolveSpd, KnownSystem) {
  // [[4,2],[2,3]] x = [10, 9] -> x = [1.5, 2].
  const auto x = solve_spd({4, 2, 2, 3}, {10, 9}, 2);
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveSpd, RejectsIndefinite) {
  EXPECT_THROW(solve_spd({1, 2, 2, 1}, {1, 1}, 2), std::runtime_error);
}

TEST(Ridge, RecoversLinearFunction) {
  // y = 3 + 2 a - 5 b, noise-free.
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double a = 0.1 * i;
    const double b = std::sin(i * 0.7);
    x.push_back({a, b});
    y.push_back(3 + 2 * a - 5 * b);
  }
  RidgeRegression m;
  m.fit(x, y, 1e-9);
  EXPECT_NEAR(m.predict({1.0, 0.5}), 3 + 2 - 2.5, 1e-5);
  EXPECT_NEAR(m.predict({0.0, 0.0}), 3.0, 1e-5);
}

TEST(Ridge, HandlesConstantFeature) {
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({1.0, static_cast<double>(i)});
    y.push_back(2.0 * i);
  }
  RidgeRegression m;
  EXPECT_NO_THROW(m.fit(x, y));
  EXPECT_NEAR(m.predict({1.0, 10.0}), 20.0, 0.5);
}

TEST(Ridge, ShapeErrors) {
  RidgeRegression m;
  EXPECT_THROW(m.fit({}, {}), std::invalid_argument);
  EXPECT_THROW(m.fit({{1, 2}}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(m.fit({{1, 2}, {1}}, {1, 2}), std::invalid_argument);
  m.fit({{1, 2}, {2, 3}, {3, 5}}, {1, 2, 3});
  EXPECT_THROW(m.predict({1.0}), std::invalid_argument);
}

TEST(Metrics, MaeAndR2) {
  const std::vector<double> truth{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean_abs_error(truth, truth), 0.0);
  EXPECT_DOUBLE_EQ(r_squared(truth, truth), 1.0);
  const std::vector<double> off{2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean_abs_error(truth, off), 1.0);
  EXPECT_LT(r_squared(truth, off), 1.0);
}

TEST(Metrics, SpearmanPerfectAndInverse) {
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1, 2, 3}, {10, 20, 30}), 1.0);
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1, 2, 3}, {9, 5, 1}), -1.0);
  // Monotone transform invariant.
  EXPECT_DOUBLE_EQ(
      spearman_rank_correlation({1, 2, 3, 4}, {1, 100, 10000, 1e6}), 1.0);
  // Constant input: defined as 0.
  EXPECT_DOUBLE_EQ(spearman_rank_correlation({1, 1, 1}, {1, 2, 3}), 0.0);
}

class NetEvalFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(64, 13);
  netlist::RoutingFootprint fp{f.cts.tree, f.nets, f.design.congestion};
  timing::AnalysisOptions aopt;
};

// Analytic switched cap must match extraction for every rule and net.
class AnalyticCapSweep : public ::testing::TestWithParam<int> {};

TEST_P(AnalyticCapSweep, MatchesExtraction) {
  static test::Flow f = test::small_flow(48, 19);
  const int rule_idx = GetParam();
  const timing::AnalysisOptions aopt;
  const extract::Extractor ex(f.tech, f.design);
  const netlist::RoutingFootprint fp(f.cts.tree, f.nets, f.design.congestion);
  for (int i = 0; i < f.nets.size(); i += 3) {
    const NetSummary s = summarize_net(f.cts.tree, f.design, f.tech,
                                       f.nets[i], fp, aopt);
    const auto par =
        ex.extract_net(f.cts.tree, f.nets[i], f.tech.rules[rule_idx]);
    const double analytic =
        net_cap_under_rule(s, f.tech, f.tech.rules[rule_idx]);
    const double exact = par.switched_cap(f.tech.miller_power);
    // Analytic and extracted occupancy sampling quantize differently; the
    // optimizer only needs candidate ordering, so ~5% agreement suffices.
    EXPECT_NEAR(analytic, exact, 0.05 * exact + 0.5e-15) << "net " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Rules, AnalyticCapSweep, ::testing::Range(0, 5));

TEST_F(NetEvalFixture, EmBoundIsConservative) {
  const double freq = 1 * GHz;
  for (int i = 0; i < f.nets.size(); i += 5) {
    const NetSummary s =
        summarize_net(f.cts.tree, f.design, f.tech, f.nets[i], fp, aopt);
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      const NetExact exact = evaluate_net_exact(
          f.cts.tree, f.design, f.tech, f.nets[i], f.tech.rules[r],
          s.driver_res, freq);
      EXPECT_GE(net_em_bound(s, f.tech, f.tech.rules[r], freq) + 1e-12,
                exact.em_peak);
    }
  }
}

TEST_F(NetEvalFixture, SummaryFieldsSane) {
  for (const auto& net : f.nets.nets) {
    const NetSummary s =
        summarize_net(f.cts.tree, f.design, f.tech, net, fp, aopt);
    EXPECT_GT(s.driver_res, 0.0);
    EXPECT_GE(s.wirelength, 0.0);
    EXPECT_LE(s.occ_length, s.wirelength + 1e-9);
    EXPECT_LE(s.max_path, s.wirelength + 1e-9);
    EXPECT_EQ(s.load_count, static_cast<int>(net.loads.size()));
    EXPECT_EQ(s.depth, net.depth);
  }
}

// summarize_net reads occupancy from the footprint; every wire's term must
// equal, bitwise, the path walk it replaced: avg_occupancy of the wire's
// path times its edge length, summed in wire order.
TEST(NetSummary, OccupancyMatchesPathWalk) {
  for (const test::Flow& f : {test::congested_flow(), test::small_flow(600)}) {
    const netlist::RoutingFootprint fp(f.cts.tree, f.nets,
                                       f.design.congestion);
    const timing::AnalysisOptions aopt;
    for (const netlist::Net& net : f.nets.nets) {
      double occ_length = 0.0;
      for (const int v : net.wires) {
        occ_length +=
            f.design.congestion.avg_occupancy(test::wire_path(f.cts.tree, v)) *
            f.cts.tree.edge_length(v);
      }
      const NetSummary s =
          summarize_net(f.cts.tree, f.design, f.tech, net, fp, aopt);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.occ_length),
                std::bit_cast<std::uint64_t>(occ_length))
          << "net " << net.id;
    }
  }
}

TEST_F(NetEvalFixture, ExactEvalConsistentWithRuleDirection) {
  // With a strong driver (wire-resistance-dominated regime), widening the
  // wires lowers worst step slew; spacing lowers crosstalk; width lowers the
  // EM density (more cross-section).
  const auto& net = f.nets[f.nets.size() - 1];
  const double driver_res = 30.0;  // strong driver isolates wire effects.
  const auto e_def = evaluate_net_exact(f.cts.tree, f.design, f.tech, net,
                                        f.tech.rules[0], driver_res, 1e9);
  const auto e_2w = evaluate_net_exact(f.cts.tree, f.design, f.tech, net,
                                       f.tech.rules[2], driver_res, 1e9);
  const auto e_2s = evaluate_net_exact(f.cts.tree, f.design, f.tech, net,
                                       f.tech.rules[1], driver_res, 1e9);
  EXPECT_LT(e_2w.step_slew_worst, e_def.step_slew_worst);
  EXPECT_LT(e_2s.xtalk_worst, e_def.xtalk_worst);
  EXPECT_LT(e_2w.em_peak, e_def.em_peak);
}

TEST(Predictor, HoldoutQualityIsHigh) {
  const test::Flow f = test::small_flow(512, 7);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const RuleImpactPredictor pred = RuleImpactPredictor::train(
      f.cts.tree, f.design, f.tech, f.nets, cache, aopt, 200);
  const TrainReport& rep = pred.report();
  EXPECT_GT(rep.train_samples, 50);
  EXPECT_GT(rep.holdout_samples, 10);
  ASSERT_EQ(rep.quality.size(),
            static_cast<std::size_t>(f.tech.rules.size()));
  for (const auto& per_rule : rep.quality) {
    for (const ModelQuality& q : per_rule) {
      // The optimizer needs ordering more than absolute accuracy.
      EXPECT_GT(q.rank_corr, 0.7);
      EXPECT_GT(q.r2, 0.5);
    }
  }
}

TEST(Predictor, PredictionsNonNegative) {
  const test::Flow f = test::small_flow(128, 3);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const RuleImpactPredictor pred = RuleImpactPredictor::train(
      f.cts.tree, f.design, f.tech, f.nets, cache, aopt, 100);
  for (const auto& net : f.nets.nets) {
    const NetSummary s = summarize_net(f.cts.tree, f.design, f.tech, net,
                                       cache.footprint(), aopt);
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      const NetImpact i = pred.predict(s, r);
      EXPECT_GE(i.step_slew, 0.0);
      EXPECT_GE(i.sigma, 0.0);
      EXPECT_GE(i.xtalk, 0.0);
      EXPECT_GE(i.delay, 0.0);
    }
  }
}

TEST(Evaluate, ValidatesAssignmentSize) {
  const test::Flow f = test::small_flow(16);
  EXPECT_THROW(evaluate(f.cts.tree, f.design, f.tech, f.nets, {0}),
               std::invalid_argument);
}

TEST(Evaluate, BlanketBeatsDefaultOnRobustness) {
  const test::Flow f = test::small_flow(256, 31);
  const auto def = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                            assign_all(f.nets, 0));
  const auto blk = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                            assign_all(f.nets, f.tech.rules.blanket_index()));
  EXPECT_LT(blk.timing.max_slew, def.timing.max_slew);
  EXPECT_LT(blk.variation.max_uncertainty, def.variation.max_uncertainty);
  EXPECT_LT(blk.timing.skew(), def.timing.skew());
}

class OptimizerFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(256, 31);
};

TEST_F(OptimizerFixture, FinalAssignmentIsFeasible) {
  const SmartNdrResult r = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  EXPECT_TRUE(r.final_eval.feasible());
  EXPECT_EQ(r.final_eval.slew_violations, 0);
  EXPECT_EQ(r.final_eval.em_violations, 0);
  EXPECT_EQ(r.final_eval.uncertainty_violations, 0);
  EXPECT_TRUE(r.final_eval.skew_ok);
  EXPECT_EQ(r.final_eval.overflow_cells, 0);
}

TEST_F(OptimizerFixture, PowerNeverAboveBlanket) {
  const auto blanket = evaluate(
      f.cts.tree, f.design, f.tech, f.nets,
      assign_all(f.nets, f.tech.rules.blanket_index()));
  const SmartNdrResult r = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  EXPECT_LE(r.final_eval.power.total_power, blanket.power.total_power);
  // And meaningfully below it for this design family.
  EXPECT_LT(r.final_eval.power.total_power,
            0.98 * blanket.power.total_power);
}

TEST_F(OptimizerFixture, Deterministic) {
  const SmartNdrResult a = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  const SmartNdrResult b = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_DOUBLE_EQ(a.final_eval.power.total_power,
                   b.final_eval.power.total_power);
}

TEST_F(OptimizerFixture, HistogramMatchesAssignment) {
  const SmartNdrResult r = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  ASSERT_EQ(r.rule_histogram.size(),
            static_cast<std::size_t>(f.tech.rules.size()));
  std::vector<int> counted(f.tech.rules.size(), 0);
  for (const int rule : r.assignment) ++counted[rule];
  for (int i = 0; i < f.tech.rules.size(); ++i) {
    EXPECT_EQ(counted[i], r.rule_histogram[i]);
  }
}

TEST_F(OptimizerFixture, ExactModeMatchesModelModeClosely) {
  OptimizerOptions model_opt;
  OptimizerOptions exact_opt;
  exact_opt.scoring = Scoring::kExactNet;
  const SmartNdrResult m = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets, model_opt);
  const SmartNdrResult e = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets, exact_opt);
  EXPECT_TRUE(e.final_eval.feasible());
  // Model-guided power within 3% of the exact-search power.
  EXPECT_NEAR(m.final_eval.power.total_power,
              e.final_eval.power.total_power,
              0.03 * e.final_eval.power.total_power);
  // Exact mode evaluates every candidate it scores; model mode only
  // validates predicted winners. (Not strictly greater on tiny designs:
  // exact scoring reuses its scoring evaluation for the commit, so both
  // modes can land on one evaluation per committed move.)
  EXPECT_GE(e.stats.exact_net_evals, m.stats.exact_net_evals);
  EXPECT_GE(e.stats.candidates_scored, m.stats.commits);
}

TEST_F(OptimizerFixture, FullStaScoringAgreesOnSmallDesign) {
  // The naive signoff-in-the-loop flow must land on a feasible assignment
  // with power close to the model-guided one (it is the oracle the models
  // approximate), at vastly higher full-evaluation counts.
  test::Flow g = test::small_flow(64, 31);
  OptimizerOptions model_opt;
  OptimizerOptions sta_opt;
  sta_opt.scoring = Scoring::kFullSta;
  const SmartNdrResult m =
      optimize_smart_ndr(g.cts.tree, g.design, g.tech, g.nets, model_opt);
  const SmartNdrResult e =
      optimize_smart_ndr(g.cts.tree, g.design, g.tech, g.nets, sta_opt);
  EXPECT_TRUE(e.final_eval.feasible());
  EXPECT_NEAR(m.final_eval.power.total_power,
              e.final_eval.power.total_power,
              0.05 * e.final_eval.power.total_power);
  EXPECT_GT(e.stats.full_evals, 5 * m.stats.full_evals);
}

TEST_F(OptimizerFixture, StatsPopulated) {
  const SmartNdrResult r = optimize_smart_ndr(f.cts.tree, f.design, f.tech,
                                              f.nets);
  EXPECT_GT(r.stats.commits, 0);
  EXPECT_GT(r.stats.candidates_scored, 0);
  EXPECT_GT(r.stats.full_evals, 0);
  EXPECT_GE(r.stats.passes, 1);
  EXPECT_GT(r.train_report.train_samples, 0);
}

TEST(Optimizer, HighFrequencyForcesWideRules) {
  // At 4 GHz EM dominates: the optimizer must keep (or upgrade to) wide
  // rules on heavy nets; result remains EM-clean.
  test::Flow f = test::small_flow(256, 31);
  f.design.constraints.clock_freq = 2.5 * GHz;
  const SmartNdrResult hi =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  EXPECT_EQ(hi.final_eval.em_violations, 0);

  test::Flow g = test::small_flow(256, 31);
  const SmartNdrResult lo =
      optimize_smart_ndr(g.cts.tree, g.design, g.tech, g.nets);
  // Narrow rules (width_mult 1) are rarer at 4 GHz.
  const int narrow_hi = hi.rule_histogram[0] + hi.rule_histogram[1];
  const int narrow_lo = lo.rule_histogram[0] + lo.rule_histogram[1];
  EXPECT_LT(narrow_hi, narrow_lo);
}

TEST(Optimizer, TightSlewLimitReducesSavings) {
  test::Flow f = test::small_flow(256, 31);
  const auto blanket = evaluate(
      f.cts.tree, f.design, f.tech, f.nets,
      assign_all(f.nets, f.tech.rules.blanket_index()));
  const SmartNdrResult loose =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);

  f.design.constraints.max_slew =
      1.05 * blanket.timing.max_slew;  // just above blanket's worst.
  const SmartNdrResult tight =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  EXPECT_GE(tight.final_eval.power.total_power,
            loose.final_eval.power.total_power - 1e-9);
  EXPECT_LE(tight.final_eval.timing.max_slew,
            f.design.constraints.max_slew);
  (void)blanket;
}

TEST(Optimizer, EcoWarmStartConvergesInstantly) {
  // Re-running from a converged assignment must find nothing to do.
  test::Flow f = test::small_flow(128, 31);
  const SmartNdrResult first =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  OptimizerOptions eco;
  eco.initial_assignment = first.assignment;
  const SmartNdrResult second =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, eco);
  EXPECT_EQ(second.assignment, first.assignment);
  EXPECT_EQ(second.stats.commits, 0);
  EXPECT_EQ(second.stats.passes, 1);
}

TEST(Optimizer, EcoFocusRestrictsSweep) {
  test::Flow f = test::small_flow(128, 31);
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  OptimizerOptions eco;
  eco.initial_assignment = blanket;
  // Only the two deepest nets may be revisited.
  eco.focus_nets = {f.nets.size() - 1, f.nets.size() - 2};
  const SmartNdrResult r =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, eco);
  EXPECT_TRUE(r.final_eval.feasible());
  for (int i = 0; i < f.nets.size() - 2; ++i) {
    EXPECT_EQ(r.assignment[i], blanket[i]) << "net " << i;
  }
  // The focus nets actually moved (they are cheap leaf nets).
  EXPECT_LE(r.final_eval.power.total_power,
            evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket)
                .power.total_power);
}

TEST(Optimizer, EcoValidatesInputs) {
  test::Flow f = test::small_flow(16);
  OptimizerOptions bad_size;
  bad_size.initial_assignment = {0};
  EXPECT_THROW(
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, bad_size),
      std::invalid_argument);
  OptimizerOptions bad_focus;
  bad_focus.focus_nets = {9999};
  EXPECT_THROW(
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, bad_focus),
      std::invalid_argument);
}

TEST(Optimizer, InfeasibleStartIsRepairedOrReported) {
  // Absurd frequency: even 3W3S trunks violate EM; the optimizer must not
  // crash and must report the residual violations honestly.
  test::Flow f = test::small_flow(64, 5);
  f.design.constraints.clock_freq = 20 * GHz;
  const SmartNdrResult r =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  EXPECT_GE(r.final_eval.em_violations, 0);  // completes without throwing.
}

}  // namespace
}  // namespace sndr::ndr
