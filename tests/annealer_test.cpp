#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "ndr/smart_ndr.hpp"
#include "test_util.hpp"

namespace sndr::ndr {
namespace {

class AnnealerFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(128, 31);
};

TEST_F(AnnealerFixture, NeverWorseThanStartAndFeasible) {
  const SmartNdrResult greedy =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  AnnealOptions opt;
  opt.iterations = 4000;
  const AnnealResult sa = anneal_rules(f.cts.tree, f.design, f.tech, f.nets,
                                       greedy.assignment, opt);
  EXPECT_TRUE(sa.final_eval.feasible());
  EXPECT_LE(sa.final_eval.power.switched_cap,
            greedy.final_eval.power.switched_cap + 1e-18);
  EXPECT_LE(sa.end_cap, sa.start_cap + 1e-18);
  EXPECT_GT(sa.proposed, 0);
}

TEST_F(AnnealerFixture, ImprovesFromBlanketStart) {
  // Starting from blanket (not the greedy optimum), annealing must find
  // substantial savings on its own.
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AnnealOptions opt;
  opt.iterations = 6000;
  const AnnealResult sa =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  EXPECT_TRUE(sa.final_eval.feasible());
  EXPECT_LT(sa.end_cap, 0.97 * sa.start_cap);
  EXPECT_GT(sa.accepted, 0);
}

TEST_F(AnnealerFixture, Deterministic) {
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AnnealOptions opt;
  opt.iterations = 2000;
  const AnnealResult a =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  const AnnealResult b =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.accepted, b.accepted);
}

TEST_F(AnnealerFixture, SeedChangesTrajectoryNotFeasibility) {
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AnnealOptions opt;
  opt.iterations = 2000;
  opt.seed = 2;
  const AnnealResult a =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  opt.seed = 3;
  const AnnealResult b =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  EXPECT_TRUE(a.final_eval.feasible());
  EXPECT_TRUE(b.final_eval.feasible());
  EXPECT_NE(a.accepted, b.accepted);
}

TEST_F(AnnealerFixture, ZeroIterationsIsIdentity) {
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  AnnealOptions opt;
  opt.iterations = 0;
  const AnnealResult sa =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  EXPECT_EQ(sa.assignment, blanket);
  EXPECT_EQ(sa.proposed, 0);
}

TEST_F(AnnealerFixture, AcceptedPlusRejectedEqualsProposed) {
  // Every proposed move is decided exactly once, whichever of the three
  // rejection gates (Metropolis, EM bound, incremental constraint check)
  // fires — across seeds so all gates get exercised.
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  for (const std::uint64_t seed : {1u, 7u, 23u, 101u}) {
    AnnealOptions opt;
    opt.iterations = 1500;
    opt.seed = seed;
    const AnnealResult sa =
        anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
    EXPECT_EQ(sa.proposed, opt.iterations) << "seed " << seed;
    EXPECT_EQ(sa.accepted + sa.rejected, sa.proposed) << "seed " << seed;
    EXPECT_GE(sa.rejected, 0) << "seed " << seed;
  }
}

TEST_F(AnnealerFixture, ZeroEvalHitRateIsZeroNotNaN) {
  // Regression: with zero exact evals the hit rate must report 0.0
  // (hits/total used to be an unguarded division).
  AnnealOptions opt;
  opt.iterations = 0;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const AnnealResult sa =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  EXPECT_EQ(sa.exact_cache_hits + sa.exact_cache_misses, 0);
  EXPECT_EQ(sa.exact_cache_hit_rate(), 0.0);
  EXPECT_FALSE(std::isnan(sa.exact_cache_hit_rate()));
  EXPECT_EQ(AnnealResult{}.exact_cache_hit_rate(), 0.0);
  EXPECT_EQ(OptimizerStats{}.exact_cache_hit_rate(), 0.0);
}

// A borrowed start evaluation replaces each search's own: the results
// are bitwise those of a search that evaluates its start itself, with one
// full evaluation fewer each.
TEST_F(AnnealerFixture, BorrowedStartEvalIsValueNeutral) {
  const FlowEvaluation blanket_eval =
      evaluate(f.cts.tree, f.design, f.tech, f.nets,
               assign_all(f.nets, f.tech.rules.blanket_index()));
  const SmartNdrResult own =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  OptimizerOptions o;
  o.search.start_eval = &blanket_eval;
  const SmartNdrResult borrowed =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, o);
  EXPECT_EQ(borrowed.assignment, own.assignment);
  EXPECT_EQ(borrowed.final_eval.power.total_power,
            own.final_eval.power.total_power);
  EXPECT_EQ(borrowed.stats.commits, own.stats.commits);
  EXPECT_EQ(borrowed.stats.full_evals, own.stats.full_evals - 1);

  AnnealOptions a;
  a.iterations = 2000;
  const AnnealResult sa_own = anneal_rules(f.cts.tree, f.design, f.tech,
                                           f.nets, own.assignment, a);
  a.search.start_eval = &own.final_eval;
  const AnnealResult sa_borrowed = anneal_rules(
      f.cts.tree, f.design, f.tech, f.nets, own.assignment, a);
  EXPECT_EQ(sa_borrowed.assignment, sa_own.assignment);
  EXPECT_EQ(sa_borrowed.start_cap, sa_own.start_cap);
  EXPECT_EQ(sa_borrowed.end_cap, sa_own.end_cap);
  EXPECT_EQ(sa_borrowed.accepted, sa_own.accepted);
  EXPECT_EQ(sa_borrowed.final_eval.power.total_power,
            sa_own.final_eval.power.total_power);
}

TEST_F(AnnealerFixture, MismatchedStartEvalThrows) {
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation default_eval = evaluate(
      f.cts.tree, f.design, f.tech, f.nets, assign_all(f.nets, 0));
  // Greedy starts from the blanket, not from the all-default assignment.
  OptimizerOptions o;
  o.search.start_eval = &default_eval;
  EXPECT_THROW(optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, o),
               std::invalid_argument);
  AnnealOptions a;
  a.iterations = 10;
  a.search.start_eval = &default_eval;
  EXPECT_THROW(
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, a),
      std::invalid_argument);
}

}  // namespace
}  // namespace sndr::ndr
