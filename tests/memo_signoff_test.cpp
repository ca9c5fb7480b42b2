// Memo-fed signoff and the flow's one search state.
//
// evaluate(state, assignment) reads every per-net term of a whole-tree
// signoff from the state's exact-eval memo rows instead of re-extracting.
// It must equal the extraction path, evaluate(tree, ...), field by field
// and bit for bit, however the rows arrived: filled here (cold, warm or a
// mix), prefetched on 8 threads, under a byte-budgeted geometry cache, or
// transplanted from another state. And a search working on a lent state
// (the flow's greedy → anneal handoff) must take exactly the trajectory
// it takes on a fresh one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval_compare.hpp"
#include "extract/net_geometry.hpp"
#include "fuzz_util.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {
namespace {

using test::bits;
using test::expect_evaluations_bitwise;

/// Assignments that exercise every rule: blanket, all-default, a level
/// split, and a seeded random mix.
std::vector<RuleAssignment> assignments(const netlist::NetList& nets,
                                        const tech::Technology& tech) {
  const int n_rules = tech.rules.size();
  std::vector<RuleAssignment> out = {
      assign_all(nets, tech.rules.blanket_index()), assign_all(nets, 0),
      assign_level_based(nets, 2, n_rules - 1, 0)};
  workload::Rng rng(99);
  RuleAssignment mixed(static_cast<std::size_t>(nets.size()));
  for (int& r : mixed) r = static_cast<int>(rng.uniform_int(n_rules));
  out.push_back(mixed);
  return out;
}

/// Memo-fed signoff vs extraction for every assignment above, at 1 and 8
/// threads, from a state whose rows start mixed (every third net warmed
/// through exact_eval first), then from a twin that adopted the first
/// state's rows by transplant and fills none of its own.
void expect_memo_signoff_matches(const netlist::ClockTree& tree,
                                 const netlist::Design& design,
                                 const tech::Technology& tech,
                                 const netlist::NetList& nets,
                                 std::size_t budget_bytes = 0,
                                 const timing::AnalysisOptions& aopt = {}) {
  const extract::GeometryCache cache(tree, design, nets, budget_bytes,
                                     extract::ExtractOptions{});
  const std::vector<RuleAssignment> cases = assignments(nets, tech);
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    common::set_thread_count(threads);
    AssignmentState state(tree, design, tech, nets, aopt, &cache);
    int warmed = 0;
    for (int id = 0; id < nets.size(); id += 3, ++warmed) {
      (void)state.exact_eval(id, 0);
    }
    ASSERT_EQ(state.exact_cache_misses(), warmed);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(testing::Message() << "assignment " << c);
      const FlowEvaluation want =
          evaluate(tree, design, tech, nets, cases[c], aopt, &cache);
      expect_evaluations_bitwise(evaluate(state, cases[c]), want);
      // Each cold row was filled once, by the first signoff.
      EXPECT_EQ(state.exact_cache_misses(), nets.size());
      if (::testing::Test::HasFailure()) break;
    }

    MemoSnapshot snap;
    state.export_memo(snap);
    AssignmentState twin(tree, design, tech, nets, aopt, &cache);
    ASSERT_EQ(twin.import_memo(snap), nets.size());
    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(testing::Message() << "transplanted, assignment " << c);
      expect_evaluations_bitwise(
          evaluate(twin, cases[c]),
          evaluate(tree, design, tech, nets, cases[c], aopt, &cache));
      if (::testing::Test::HasFailure()) break;
    }
    EXPECT_EQ(twin.exact_cache_misses(), 0);
    EXPECT_EQ(twin.exact_cache_hits(), 0);
    if (::testing::Test::HasFailure()) break;
  }
  common::set_thread_count(-1);
}

TEST(MemoSignoff, MatchesExtractionOnCongestedDesign) {
  const test::Flow f = test::congested_flow();
  ASSERT_TRUE(f.design.congestion.valid());
  expect_memo_signoff_matches(f.cts.tree, f.design, f.tech, f.nets);
}

TEST(MemoSignoff, MatchesExtractionOn3000Sinks) {
  const test::Flow f = test::small_flow(3000, 9);
  expect_memo_signoff_matches(f.cts.tree, f.design, f.tech, f.nets);
}

TEST(MemoSignoff, MatchesExtractionUnder64KiBBudget) {
  const test::Flow f = test::congested_flow();
  expect_memo_signoff_matches(f.cts.tree, f.design, f.tech, f.nets,
                              std::size_t{64} << 10);
}

TEST(MemoSignoff, MatchesExtractionWithUsefulSkewWindows) {
  netlist::Design d = test::small_design(256, 7);
  workload::attach_useful_skew(d, 0.3, 10.0, 40.0);
  const test::Flow f = test::synthesize_flow(std::move(d));
  ASSERT_TRUE(f.design.useful_skew.enabled());
  expect_memo_signoff_matches(f.cts.tree, f.design, f.tech, f.nets);
}

TEST(MemoSignoff, MatchesExtractionOnMultiDomainScenarios) {
  const tech::Technology tech = tech::Technology::make_default_45nm();
  for (int i = 0; i < test::fuzz::scenario_count(3); ++i) {
    const test::fuzz::Scenario s =
        test::fuzz::make_scenario(test::fuzz::scenario_seed(31, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = test::fuzz::build(s, tech);
    ASSERT_TRUE(w.design.clock_domains.enabled());
    expect_memo_signoff_matches(w.tree, w.design, tech, w.nets);
    if (HasFailure()) return;
  }
}

// A state timed at another Miller factor signs off at that factor too: its
// rows' moments and driver loads are solved there.
TEST(MemoSignoff, MatchesExtractionAtMiller13) {
  const test::Flow f = test::congested_flow();
  timing::AnalysisOptions aopt;
  aopt.timing_miller = 1.3;
  expect_memo_signoff_matches(f.cts.tree, f.design, f.tech, f.nets, 0,
                              aopt);
}

void expect_anneals_equal(const AnnealResult& got, const AnnealResult& want) {
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.proposed, want.proposed);
  EXPECT_EQ(got.accepted, want.accepted);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.uphill_accepted, want.uphill_accepted);
  EXPECT_EQ(bits(got.start_cap), bits(want.start_cap));
  EXPECT_EQ(bits(got.end_cap), bits(want.end_cap));
  expect_evaluations_bitwise(got.final_eval, want.final_eval);
}

OptimizerOptions greedy_options() {
  OptimizerOptions o;
  o.training_samples = 60;
  return o;
}

// The flow's handoff: greedy works on a lent state, then the annealer
// adopts the same state (warm rows, greedy's routing-usage bookkeeping)
// and reseeds it from greedy's signoff. Both searches must equal the same
// searches on fresh states of their own.
TEST(LentState, GreedyToAnnealHandoffMatchesFreshStates) {
  const test::Flow f = test::congested_flow();
  const SmartNdrResult greedy = optimize_smart_ndr(
      f.cts.tree, f.design, f.tech, f.nets, greedy_options());
  AnnealOptions a;
  a.iterations = 3000;
  a.seed = 5;
  a.search.start_eval = &greedy.final_eval;
  const AnnealResult fresh = anneal_rules(f.cts.tree, f.design, f.tech,
                                          f.nets, greedy.assignment, a);

  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, {});
  OptimizerOptions o = greedy_options();
  o.search.state = &state;
  const SmartNdrResult lent_greedy =
      optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, o);
  EXPECT_EQ(lent_greedy.assignment, greedy.assignment);
  expect_evaluations_bitwise(lent_greedy.final_eval, greedy.final_eval);

  a.search.start_eval = &lent_greedy.final_eval;
  a.search.state = &state;
  const AnnealResult lent = anneal_rules(f.cts.tree, f.design, f.tech,
                                         f.nets, lent_greedy.assignment, a);
  expect_anneals_equal(lent, fresh);
  EXPECT_GT(lent.accepted, 0);
}

// Whatever assignment a lent state holds, the annealer reseeds it from its
// start: a state left at another assignment (after moves of its own) must
// anneal exactly like a fresh one.
TEST(LentState, AnnealReseedsAStateLeftAtAnotherAssignment) {
  const test::Flow f = test::small_flow(256, 11);
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const FlowEvaluation start_eval =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket);
  AnnealOptions a;
  a.iterations = 2000;
  a.seed = 3;
  a.search.start_eval = &start_eval;
  const AnnealResult fresh =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, a);

  AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, {});
  const RuleAssignment narrow = assign_all(f.nets, 0);
  state.rebuild(narrow, evaluate(state, narrow));
  for (int id = 0; id < f.nets.size(); id += 2) state.apply_move(id, 1);
  a.search.state = &state;
  const AnnealResult lent =
      anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, a);
  expect_anneals_equal(lent, fresh);
  EXPECT_GT(lent.accepted, 0);
}

}  // namespace
}  // namespace sndr::ndr
