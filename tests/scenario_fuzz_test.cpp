// Property-based scenario fuzzing of the multi-domain flow (ISSUE 8's
// headline deliverable; DESIGN.md section 11 catalogs the invariants).
//
// Each test draws randomized multi-domain scenarios (fuzz_util.hpp) and
// asserts properties that must hold for EVERY workload, not just the
// golden ones:
//
//   * bitwise determinism: evaluate / optimize / anneal results identical
//     at 1 vs 8 threads, under a geometry byte budget vs unbounded, and
//     across checkpoint-resume vs uninterrupted; the incremental search
//     state after the greedy and annealing move sequences equals a fresh
//     rebuild from a full evaluation;
//   * metamorphic: raising a gated subtree's activity never makes the
//     optimizer pick a CHEAPER rule for its nets when the global
//     constraints are relaxed to equal slack (the EM-feasible set only
//     shrinks); an all-neutral domain graph (duty 1.0, no dividers)
//     degenerates bitwise to the single-tree world;
//   * accounting: the weighted-power rollup, toggle-weight bounds, the
//     inter-clock pair report, and the search state's energy all agree.
//
// Reproduce one failure from the seed the trace prints:
//   SNDR_FUZZ_SEED=<base> SNDR_FUZZ_ITERS=<n> ctest -R <test>
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "dse/explorer.hpp"
#include "extract/net_geometry.hpp"
#include "flow/checkpoint.hpp"
#include "fuzz_util.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "state_compare.hpp"

namespace sndr {
namespace {

namespace fuzz = test::fuzz;

/// Restores the process-wide lane count on scope exit so fuzz tests don't
/// leak thread-count state into each other.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(common::thread_count()) {}
  ~ThreadGuard() { common::set_thread_count(saved_); }

 private:
  int saved_;
};

const tech::Technology& default_tech() {
  static const tech::Technology tech = tech::Technology::make_default_45nm();
  return tech;
}

/// Bitwise equality of everything downstream analyses derive from.
void expect_eval_bitwise(const ndr::FlowEvaluation& a,
                         const ndr::FlowEvaluation& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.power.net_switched_cap, b.power.net_switched_cap);
  EXPECT_EQ(a.power.net_power, b.power.net_power);
  EXPECT_EQ(a.power.net_toggle_weight, b.power.net_toggle_weight);
  EXPECT_EQ(a.power.switched_cap, b.power.switched_cap);
  EXPECT_EQ(a.power.weighted_switched_cap, b.power.weighted_switched_cap);
  EXPECT_EQ(a.power.total_power, b.power.total_power);
  EXPECT_EQ(a.timing.sink_arrival, b.timing.sink_arrival);
  EXPECT_EQ(a.variation.sink_uncertainty, b.variation.sink_uncertainty);
  EXPECT_EQ(a.em.net_slack, b.em.net_slack);
  EXPECT_EQ(a.inter_clock.violations, b.inter_clock.violations);
  EXPECT_EQ(a.feasible(), b.feasible());
}

ndr::OptimizerOptions exact_options() {
  ndr::OptimizerOptions o;
  o.scoring = ndr::Scoring::kExactNet;  // no model-training cost per run.
  return o;
}

// ---- bitwise determinism --------------------------------------------------

TEST(ScenarioFuzz, EvaluateThreadInvariance) {
  ThreadGuard guard;
  const int n = fuzz::scenario_count(60);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(1, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    const ndr::RuleAssignment blanket =
        ndr::assign_all(w.nets, default_tech().rules.blanket_index());
    common::set_thread_count(1);
    const ndr::FlowEvaluation serial = ndr::evaluate(
        w.tree, w.design, default_tech(), w.nets, blanket);
    common::set_thread_count(8);
    const ndr::FlowEvaluation parallel = ndr::evaluate(
        w.tree, w.design, default_tech(), w.nets, blanket);
    expect_eval_bitwise(serial, parallel);
  }
}

TEST(ScenarioFuzz, OptimizeThreadAndBudgetInvariance) {
  ThreadGuard guard;
  const int n = fuzz::scenario_count(30);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(2, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());

    common::set_thread_count(1);
    const ndr::SmartNdrResult a = ndr::optimize_smart_ndr(
        w.tree, w.design, default_tech(), w.nets, exact_options());

    common::set_thread_count(8);
    const ndr::SmartNdrResult b = ndr::optimize_smart_ndr(
        w.tree, w.design, default_tech(), w.nets, exact_options());

    // 32 KiB forces LRU eviction.
    const extract::GeometryCache budget(w.tree, w.design, w.nets, 32 * 1024,
                                        {});
    ndr::OptimizerOptions budgeted = exact_options();
    budgeted.search.geometry = &budget;
    const ndr::SmartNdrResult c = ndr::optimize_smart_ndr(
        w.tree, w.design, default_tech(), w.nets, budgeted);

    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.assignment, c.assignment);
    expect_eval_bitwise(a.final_eval, b.final_eval);
    expect_eval_bitwise(a.final_eval, c.final_eval);
  }
}

TEST(ScenarioFuzz, AnnealThreadAndBudgetInvariance) {
  ThreadGuard guard;
  const int n = fuzz::scenario_count(20);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(3, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    const ndr::RuleAssignment blanket =
        ndr::assign_all(w.nets, default_tech().rules.blanket_index());

    ndr::AnnealOptions base;
    base.iterations = 250;
    common::set_thread_count(1);
    const ndr::AnnealResult a = ndr::anneal_rules(
        w.tree, w.design, default_tech(), w.nets, blanket, base);

    const extract::GeometryCache budget(w.tree, w.design, w.nets, 32 * 1024,
                                        {});
    ndr::AnnealOptions alt = base;
    alt.search.geometry = &budget;
    common::set_thread_count(8);
    const ndr::AnnealResult b = ndr::anneal_rules(
        w.tree, w.design, default_tech(), w.nets, blanket, alt);

    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.start_cap, b.start_cap);
    EXPECT_EQ(a.end_cap, b.end_cap);
    expect_eval_bitwise(a.final_eval, b.final_eval);
  }
}

TEST(ScenarioFuzz, AnnealCheckpointResumeBitwise) {
  const int n = fuzz::scenario_count(20);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(4, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    const ndr::RuleAssignment blanket =
        ndr::assign_all(w.nets, default_tech().rules.blanket_index());

    ndr::AnnealOptions opt;
    opt.iterations = 300;
    opt.checkpoint_interval = 100;
    std::vector<ndr::AnnealCheckpoint> snaps;
    opt.checkpoint_sink = [&snaps](const ndr::AnnealCheckpoint& ck) {
      snaps.push_back(ck);
    };
    const ndr::AnnealResult whole = ndr::anneal_rules(
        w.tree, w.design, default_tech(), w.nets, blanket, opt);
    ASSERT_GE(snaps.size(), 2u);

    ndr::AnnealOptions resume_opt;
    resume_opt.iterations = opt.iterations;
    resume_opt.resume = snaps[snaps.size() / 2 - 1];
    const ndr::AnnealResult resumed = ndr::anneal_rules(
        w.tree, w.design, default_tech(), w.nets, blanket, resume_opt);

    EXPECT_EQ(whole.assignment, resumed.assignment);
    EXPECT_EQ(whole.accepted, resumed.accepted);
    EXPECT_EQ(whole.end_cap, resumed.end_cap);
    expect_eval_bitwise(whole.final_eval, resumed.final_eval);
  }
}

/// Applies the rule changes from `state`'s assignment to `target` as
/// moves, highest net id first (the greedy sweep's leaf-first order).
void replay_to(ndr::AssignmentState& state, const ndr::RuleAssignment& target) {
  for (int id = static_cast<int>(target.size()) - 1; id >= 0; --id) {
    const int r = target[static_cast<std::size_t>(id)];
    if (r != state.rule_of(id)) state.apply_move(id, r);
  }
}

// Neither search re-analyzes the whole tree mid-run, so its incremental
// state must stay bitwise equal to a fresh rebuild. Replays the greedy
// result's moves in sweep order, then the annealer's exact trajectory (one
// checkpoint per iteration gives the current assignment after every
// proposal), and compares the state with a fresh rebuild after each search.
TEST(ScenarioFuzz, SearchMovesMatchFreshRebuild) {
  ThreadGuard guard;
  const int n = fuzz::scenario_count(15);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(10, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    const auto full_eval = [&](const ndr::AssignmentState& st,
                               const ndr::RuleAssignment& a) {
      return ndr::evaluate(w.tree, w.design, default_tech(), w.nets, a, {},
                           &st.geometry_cache());
    };
    for (const int threads : {1, 8}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      common::set_thread_count(threads);
      const ndr::SmartNdrResult greedy = ndr::optimize_smart_ndr(
          w.tree, w.design, default_tech(), w.nets, exact_options());

      ndr::AssignmentState state(w.tree, w.design, default_tech(), w.nets,
                                 timing::AnalysisOptions{});
      const ndr::RuleAssignment blanket =
          ndr::assign_all(w.nets, default_tech().rules.blanket_index());
      state.rebuild(blanket, full_eval(state, blanket));
      replay_to(state, greedy.assignment);
      test::expect_matches_fresh_rebuild(state);

      ndr::AnnealOptions a;
      a.iterations = 200;
      a.checkpoint_interval = 1;
      std::vector<ndr::RuleAssignment> trajectory;
      a.checkpoint_sink = [&trajectory](const ndr::AnnealCheckpoint& ck) {
        trajectory.push_back(ck.assignment);
      };
      ndr::anneal_rules(w.tree, w.design, default_tech(), w.nets,
                        greedy.assignment, a);
      ASSERT_EQ(trajectory.size(), 200u);
      state.rebuild(greedy.assignment, full_eval(state, greedy.assignment));
      for (const ndr::RuleAssignment& next : trajectory) {
        int moved = 0;
        for (std::size_t k = 0; k < next.size(); ++k) {
          moved += next[k] != state.assignment()[k];
        }
        ASSERT_LE(moved, 1);  // one proposal, at most one accepted move.
        replay_to(state, next);
      }
      test::expect_matches_fresh_rebuild(state);
    }
  }
}

// ---- metamorphic invariants -----------------------------------------------

// Raising a gated subtree's activity (duty) raises its EM current scale
// and only SHRINKS each gated net's feasible-rule set; with the global
// couplings relaxed to equal slack (skew / uncertainty / slew / capacity
// all loose) the optimizer must therefore never hand a gated net a
// cheaper rule than it got at the lower activity.
TEST(ScenarioFuzz, RaisingActivityNeverPicksCheaperRules) {
  const int n = fuzz::scenario_count(20);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = fuzz::scenario_seed(5, i);
    SCOPED_TRACE("scenario seed=" + std::to_string(seed));
    workload::Rng rng(seed);
    fuzz::Scenario s = fuzz::make_scenario(seed);
    s.spec.gates = 1;
    s.spec.dividers = 0;
    s.spec.muxes = 0;
    s.spec.inverters = 0;
    s.spec.base.occupancy = 0.05;    // capacity never binds.
    s.freq_mult = 1.5 + rng.uniform();  // EM pressure so the lever bites.
    const double duty_lo = 0.2 + 0.3 * rng.uniform();
    const double duty_hi = duty_lo + 0.2 + 0.25 * rng.uniform();

    s.spec.duty_min = s.spec.duty_max = duty_lo;
    workload::DomainWorkload low = fuzz::build(s, default_tech());
    s.spec.duty_min = s.spec.duty_max = duty_hi;
    workload::DomainWorkload high = fuzz::build(s, default_tech());

    for (netlist::Design* d : {&low.design, &high.design}) {
      d->constraints.max_skew *= 1e3;
      d->constraints.max_uncertainty *= 1e3;
      d->constraints.max_slew *= 10.0;
    }

    const ndr::SmartNdrResult a = ndr::optimize_smart_ndr(
        low.tree, low.design, default_tech(), low.nets, exact_options());
    const ndr::SmartNdrResult b = ndr::optimize_smart_ndr(
        high.tree, high.design, default_tech(), high.nets, exact_options());

    for (const netlist::Net& net : low.nets.nets) {
      if (low.design.clock_domains.node_toggle_weight(net.driver) >= 1.0) {
        continue;  // outside the gated subtree.
      }
      EXPECT_GE(b.final_eval.power.net_switched_cap[net.id],
                a.final_eval.power.net_switched_cap[net.id])
          << "net " << net.id << " got cheaper at higher activity";
    }
  }
}

// A domain graph whose elements are all rate-neutral (ICGs at duty exactly
// 1.0, muxes, inverters; no dividers) must reproduce the single-tree
// results bit for bit: every weighting hook multiplies by exactly 1.0.
TEST(ScenarioFuzz, NeutralDomainGraphDegeneratesBitwise) {
  const int n = fuzz::scenario_count(20);
  for (int i = 0; i < n; ++i) {
    fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(6, i));
    SCOPED_TRACE(s.label());
    s.spec.dividers = 0;
    s.spec.gates = std::max(1, s.spec.gates);  // at least one element.
    s.spec.duty_min = s.spec.duty_max = 1.0;
    s.freq_mult = 1.0;
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    ASSERT_TRUE(w.design.clock_domains.enabled());

    netlist::Design plain = w.design;
    plain.clock_domains = netlist::ClockDomainMap();

    const ndr::SmartNdrResult a = ndr::optimize_smart_ndr(
        w.tree, w.design, default_tech(), w.nets, exact_options());
    const ndr::SmartNdrResult b = ndr::optimize_smart_ndr(
        w.tree, plain, default_tech(), w.nets, exact_options());

    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_EQ(a.final_eval.power.switched_cap,
              b.final_eval.power.switched_cap);
    // Neutral weights: the weighted rollup IS the raw one, bitwise.
    EXPECT_EQ(a.final_eval.power.weighted_switched_cap,
              b.final_eval.power.switched_cap);
    EXPECT_EQ(a.final_eval.power.net_power, b.final_eval.power.net_power);
    EXPECT_EQ(a.final_eval.em.net_slack, b.final_eval.em.net_slack);
    EXPECT_EQ(a.final_eval.timing.sink_arrival,
              b.final_eval.timing.sink_arrival);

    ndr::AnnealOptions sa;
    sa.iterations = 150;
    const ndr::AnnealResult ra = ndr::anneal_rules(
        w.tree, w.design, default_tech(), w.nets, a.assignment, sa);
    const ndr::AnnealResult rb = ndr::anneal_rules(
        w.tree, plain, default_tech(), w.nets, b.assignment, sa);
    EXPECT_EQ(ra.assignment, rb.assignment);
    EXPECT_EQ(ra.end_cap, rb.end_cap);
  }
}

// ---- accounting -----------------------------------------------------------

TEST(ScenarioFuzz, WeightedPowerAndInterClockAccounting) {
  const int n = fuzz::scenario_count(40);
  for (int i = 0; i < n; ++i) {
    const fuzz::Scenario s = fuzz::make_scenario(fuzz::scenario_seed(7, i));
    SCOPED_TRACE(s.label());
    const workload::DomainWorkload w = fuzz::build(s, default_tech());
    const ndr::RuleAssignment blanket =
        ndr::assign_all(w.nets, default_tech().rules.blanket_index());
    const ndr::FlowEvaluation ev = ndr::evaluate(
        w.tree, w.design, default_tech(), w.nets, blanket);

    // Toggle weights are rates: in (0, 1], exactly 1.0 without domains.
    double acc = 0.0;
    for (std::size_t k = 0; k < ev.power.net_toggle_weight.size(); ++k) {
      const double wk = ev.power.net_toggle_weight[k];
      EXPECT_GT(wk, 0.0);
      EXPECT_LE(wk, 1.0);
      acc += ev.power.net_switched_cap[k] * wk;
    }
    const double tol = 1e-12 * std::abs(acc) + 1e-30;
    EXPECT_NEAR(ev.power.weighted_switched_cap, acc, tol);
    EXPECT_LE(ev.power.weighted_switched_cap,
              ev.power.switched_cap * (1.0 + 1e-12));

    // Inter-clock pair report self-consistency.
    const netlist::ClockDomainMap& domains = w.design.clock_domains;
    EXPECT_EQ(ev.inter_clock.enabled, domains.enabled());
    int sink_domains = 0;
    int domain_sinks = 0;
    for (const netlist::ClockDomain& d : domains.domains()) {
      if (d.sinks > 0) ++sink_domains;
      domain_sinks += d.sinks;
    }
    if (domains.enabled()) {
      EXPECT_EQ(domain_sinks, static_cast<int>(w.design.sinks.size()));
      EXPECT_EQ(static_cast<int>(ev.inter_clock.pairs.size()),
                sink_domains * (sink_domains - 1) / 2);
    } else {
      EXPECT_TRUE(ev.inter_clock.pairs.empty());
    }
    int bad = 0;
    double worst = 0.0;
    for (const report::InterClockPair& p : ev.inter_clock.pairs) {
      if (!p.ok) ++bad;
      worst = std::max(worst, p.skew);
      EXPECT_GT(p.budget, 0.0);
      EXPECT_GE(p.divisor_ratio, 1);
      if (p.common_node >= 0) {
        EXPECT_EQ(p.guard, 0.0);  // shared path cancels variation.
      } else {
        EXPECT_GE(p.guard, 0.0);
      }
      EXPECT_EQ(p.ok, p.skew + p.guard <= p.budget);
    }
    EXPECT_EQ(ev.inter_clock.violations, bad);
    EXPECT_EQ(ev.inter_clock.worst_skew, worst);
    EXPECT_EQ(ev.inter_clock_violations, ev.inter_clock.violations);

    // The search state's energy bookkeeping matches the power report.
    ndr::AssignmentState state(w.tree, w.design, default_tech(), w.nets,
                               timing::AnalysisOptions{});
    state.rebuild(blanket, ev);
    double energy = 0.0;
    for (const netlist::Net& net : w.nets.nets) {
      EXPECT_EQ(state.net_weight(net.id),
                ev.power.net_toggle_weight[net.id]);
      energy += state.net_weight(net.id) * state.net_cap(net.id);
    }
    EXPECT_NEAR(state.total_energy(), energy,
                1e-12 * std::abs(energy) + 1e-30);
  }
}

// ---- corruption robustness ------------------------------------------------

// Checkpoint files under random corruption: a pristine file round-trips
// bitwise; line-boundary truncation, a token appended to any line, and a
// duplicated line must all be rejected as kParseError — never loaded as a
// quietly different resume point, never a crash.
TEST(ScenarioFuzz, CheckpointCorruptionAlwaysParseErrors) {
  const int n = fuzz::scenario_count(40);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sndr_fuzz_ck_" + std::to_string(fuzz::seed_base())))
          .string();
  const auto write_lines = [&](const std::vector<std::string>& lines) {
    std::ofstream f(path, std::ios::trunc);
    for (const std::string& l : lines) f << l << "\n";
  };
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = fuzz::scenario_seed(8, i);
    workload::Rng rng(seed);
    ndr::AnnealCheckpoint ck;
    ck.iteration = 1 + static_cast<int>(rng.uniform_int(1000));
    ck.temperature = rng.uniform(1e-6, 10.0);
    ck.cooling = rng.uniform(0.5, 1.0);
    ck.rng_state = rng.next_u64();
    ck.proposed = static_cast<int>(rng.uniform_int(10000));
    ck.accepted = static_cast<int>(rng.uniform_int(10000));
    ck.rejected = static_cast<int>(rng.uniform_int(10000));
    ck.uphill_accepted = static_cast<int>(rng.uniform_int(1000));
    ck.delta_updates = static_cast<int>(rng.uniform_int(10000));
    ck.start_cap = rng.uniform(1e-15, 1e-9);
    ck.start_feasible = rng.uniform_int(2) == 1;
    ck.best_cap = rng.uniform(1e-15, 1e-9);
    const int nets = 1 + static_cast<int>(rng.uniform_int(40));
    for (int j = 0; j < nets; ++j) {
      ck.assignment.push_back(static_cast<int>(rng.uniform_int(5)));
      ck.best.push_back(static_cast<int>(rng.uniform_int(5)));
    }
    const std::uint64_t fp = rng.next_u64();
    ASSERT_TRUE(flow::save_checkpoint(path, ck, fp).ok()) << "seed=" << seed;

    const auto pristine = flow::load_checkpoint(path, fp);
    ASSERT_TRUE(pristine.ok()) << "seed=" << seed;
    EXPECT_EQ(pristine.value().assignment, ck.assignment) << "seed=" << seed;
    EXPECT_EQ(pristine.value().best, ck.best) << "seed=" << seed;
    EXPECT_EQ(pristine.value().rng_state, ck.rng_state) << "seed=" << seed;
    EXPECT_EQ(pristine.value().temperature, ck.temperature)
        << "seed=" << seed;

    std::vector<std::string> lines;
    {
      std::ifstream f(path);
      std::string l;
      while (std::getline(f, l)) lines.push_back(l);
    }
    const auto expect_parse_error = [&](const std::string& what) {
      const auto r = flow::load_checkpoint(path, fp);
      ASSERT_FALSE(r.ok()) << what << " seed=" << seed;
      EXPECT_EQ(r.status().code(), common::StatusCode::kParseError)
          << what << " seed=" << seed << ": " << r.status().to_string();
    };

    // Truncate at a random line boundary (strictly before the end).
    std::vector<std::string> mutated(
        lines.begin(),
        lines.begin() + static_cast<long>(rng.uniform_int(lines.size())));
    write_lines(mutated);
    expect_parse_error("truncated");

    // Append a stray token to one random line.
    mutated = lines;
    mutated[rng.uniform_int(lines.size())] += " 7";
    write_lines(mutated);
    expect_parse_error("junk-appended");

    // Duplicate one random line in place.
    mutated = lines;
    const std::size_t dup = rng.uniform_int(lines.size());
    mutated.insert(mutated.begin() + static_cast<long>(dup), lines[dup]);
    write_lines(mutated);
    expect_parse_error("duplicated");
  }
  std::filesystem::remove(path);
}

// Property: the DSE Pareto front is exactly the non-dominated feasible
// subset, for ANY point cloud — no emitted member is dominated by any
// feasible point, every omitted feasible point is dominated by some front
// member, infeasible points never appear, and the id order is
// (power, skew, id). Random clouds include deliberate duplicates and ties
// so the strictness half of dominates() is exercised too.
TEST(ScenarioFuzz, DseFrontNeverContainsDominatedPoints) {
  const int n = fuzz::scenario_count(40);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed = fuzz::scenario_seed(9, i);
    workload::Rng rng(seed);
    std::vector<dse::PointResult> points;
    const int count = 2 + static_cast<int>(rng.uniform_int(24));
    for (int id = 0; id < count; ++id) {
      dse::PointResult p;
      p.id = id;
      // Coarse grids of values make exact ties / duplicates common.
      p.total_power = 1e-3 * static_cast<double>(1 + rng.uniform_int(6));
      p.skew = 1e-11 * static_cast<double>(1 + rng.uniform_int(6));
      p.settings.uncertainty_margin =
          0.02 * static_cast<double>(1 + rng.uniform_int(4));
      p.feasible = rng.uniform_int(4) != 0;  // ~25% infeasible.
      points.push_back(p);
    }

    const std::vector<int> front = dse::pareto_front(points);
    std::vector<bool> on_front(points.size(), false);
    for (const int id : front) {
      on_front[static_cast<std::size_t>(id)] = true;
      const dse::PointResult& p = points[static_cast<std::size_t>(id)];
      EXPECT_TRUE(p.feasible) << "seed=" << seed << " id=" << id;
      for (const dse::PointResult& q : points) {
        EXPECT_FALSE(q.feasible && dse::dominates(q, p))
            << "seed=" << seed << ": front point " << id
            << " dominated by " << q.id;
      }
    }
    // Completeness: a feasible point off the front must be dominated, or
    // tie a lower-id feasible point on every objective (ties collapse to
    // the lowest id, so no two front points tie).
    const auto ties = [](const dse::PointResult& a,
                         const dse::PointResult& b) {
      return a.total_power == b.total_power && a.skew == b.skew &&
             a.settings.uncertainty_margin == b.settings.uncertainty_margin;
    };
    for (const dse::PointResult& p : points) {
      if (!p.feasible || on_front[static_cast<std::size_t>(p.id)]) continue;
      bool dropped = false;
      for (const dse::PointResult& q : points) {
        if (q.feasible &&
            (dse::dominates(q, p) || (q.id < p.id && ties(q, p)))) {
          dropped = true;
        }
      }
      EXPECT_TRUE(dropped)
          << "seed=" << seed << ": feasible point " << p.id
          << " missing from the front yet dominated by nobody";
    }
    for (std::size_t k = 0; k + 1 < front.size(); ++k) {
      EXPECT_FALSE(ties(points[static_cast<std::size_t>(front[k])],
                        points[static_cast<std::size_t>(front[k + 1])]))
          << "seed=" << seed << ": tied points on the front";
    }
    // Deterministic emission order: (power, skew, id) ascending.
    for (std::size_t k = 0; k + 1 < front.size(); ++k) {
      const dse::PointResult& a = points[static_cast<std::size_t>(front[k])];
      const dse::PointResult& b =
          points[static_cast<std::size_t>(front[k + 1])];
      const bool ordered =
          a.total_power < b.total_power ||
          (a.total_power == b.total_power &&
           (a.skew < b.skew || (a.skew == b.skew && a.id < b.id)));
      EXPECT_TRUE(ordered) << "seed=" << seed << " at front position " << k;
    }
  }
}

}  // namespace
}  // namespace sndr
