// Microbenchmarks of the library's hot kernels (google-benchmark).
//
// Not a paper table — this guards the computational costs that the Fig. 7
// scalability claims rest on: per-net extraction, Elmore/moment evaluation,
// full-tree timing, and whole-flow building blocks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "workload/rng.hpp"
#include "common/arena.hpp"
#include "extract/net_geometry.hpp"
#include "obs/trace.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/net_eval.hpp"
#include "ndr/predictor.hpp"
#include "timing/tree_timing.hpp"
#include "timing/variation.hpp"

namespace {

using namespace sndr;

// ---------------------------------------------------------------------------
// Pre-fusion kernel baseline, reproduced verbatim from the original
// RcTree entry points. The library versions are now thin wrappers over the
// fused rc_moments kernel, so keeping honest before/after records in
// BENCH_runtime.json requires the historical algorithms here: three separate
// entry points whose internal recomputation costs five full tree passes and
// five vector allocations per exact evaluation.
// ---------------------------------------------------------------------------

std::vector<double> legacy_downstream(const extract::RcTree& rc,
                                      double miller) {
  std::vector<double> down(rc.size(), 0.0);
  for (int i = rc.size() - 1; i >= 0; --i) {
    down[i] += rc.node(i).cap_total(miller);
    if (rc.node(i).parent >= 0) down[rc.node(i).parent] += down[i];
  }
  return down;
}

std::vector<double> legacy_elmore(const extract::RcTree& rc,
                                  double driver_res, double miller) {
  const std::vector<double> down = legacy_downstream(rc, miller);
  std::vector<double> delay(rc.size(), 0.0);
  delay[0] = driver_res * down[0];
  for (int i = 1; i < rc.size(); ++i) {
    delay[i] = delay[rc.node(i).parent] + rc.node(i).res * down[i];
  }
  return delay;
}

std::vector<double> legacy_second_moment(const extract::RcTree& rc,
                                         double driver_res, double miller) {
  const std::vector<double> m1 = legacy_elmore(rc, driver_res, miller);
  std::vector<double> weighted(rc.size(), 0.0);
  for (int i = rc.size() - 1; i >= 0; --i) {
    weighted[i] += rc.node(i).cap_total(miller) * m1[i];
    if (rc.node(i).parent >= 0) weighted[rc.node(i).parent] += weighted[i];
  }
  std::vector<double> m2(rc.size(), 0.0);
  m2[0] = driver_res * weighted[0];
  for (int i = 1; i < rc.size(); ++i) {
    m2[i] = m2[rc.node(i).parent] + rc.node(i).res * weighted[i];
  }
  return m2;
}

const bench::Flow& flow_1k() {
  static bench::Flow f = [] {
    workload::DesignSpec spec;
    spec.name = "micro";
    spec.num_sinks = 1024;
    spec.seed = 5;
    return bench::build_flow(spec);
  }();
  return f;
}

void BM_ExtractNet(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const auto& net = f.nets[f.nets.size() / 2];
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ex.extract_net(f.cts.tree, net, f.tech.rules.blanket_rule()));
  }
}
BENCHMARK(BM_ExtractNet);

void BM_ExtractAll(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const std::vector<int> rules(f.nets.size(), f.tech.rules.blanket_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.extract_all(f.cts.tree, f.nets, rules));
  }
}
BENCHMARK(BM_ExtractAll);

void BM_ElmoreAndMoments(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_net(f.cts.tree, f.nets[0],
                                  f.tech.rules.blanket_rule());
  for (auto _ : state) {
    benchmark::DoNotOptimize(par.rc.elmore_delay(100.0, 1.0));
    benchmark::DoNotOptimize(par.rc.second_moment(100.0, 1.0));
  }
}
BENCHMARK(BM_ElmoreAndMoments);

void BM_MaterializeNet(benchmark::State& state) {
  // Per-(net, rule) cost of the cached two-phase path: electrical fill of a
  // pre-built NetGeometry into a warm parasitics buffer.
  const bench::Flow& f = flow_1k();
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const auto& net = f.nets[f.nets.size() / 2];
  extract::NetParasitics par;
  for (auto _ : state) {
    extract::materialize(cache.geometry(net.id), f.tech,
                         f.tech.rules.blanket_rule(), par);
    benchmark::DoNotOptimize(par);
  }
}
BENCHMARK(BM_MaterializeNet);

void BM_MomentsFused(benchmark::State& state) {
  // Fused down-cap + m1 + m2 in two passes into caller scratch; compare
  // against BM_ElmoreAndMoments (the legacy multi-entry-point equivalent).
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_net(f.cts.tree, f.nets[0],
                                  f.tech.rules.blanket_rule());
  extract::RcMoments scratch;
  for (auto _ : state) {
    par.rc.moments(100.0, 1.0, scratch);
    benchmark::DoNotOptimize(scratch);
  }
}
BENCHMARK(BM_MomentsFused);

void BM_FullTreeTiming(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const auto par = ex.extract_all(
      f.cts.tree, f.nets,
      std::vector<int>(f.nets.size(), f.tech.rules.blanket_index()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        timing::analyze(f.cts.tree, f.design, f.tech, f.nets, par));
  }
}
BENCHMARK(BM_FullTreeTiming);

void BM_VariationAnalysis(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const std::vector<int> rules(f.nets.size(), f.tech.rules.blanket_index());
  const auto par = ex.extract_all(f.cts.tree, f.nets, rules);
  for (auto _ : state) {
    benchmark::DoNotOptimize(timing::analyze_variation(
        f.cts.tree, f.design, f.tech, f.nets, par, rules));
  }
}
BENCHMARK(BM_VariationAnalysis);

void BM_CtsSynthesis(benchmark::State& state) {
  workload::DesignSpec spec;
  spec.num_sinks = static_cast<int>(state.range(0));
  spec.seed = 5;
  const netlist::Design design = workload::make_design(spec);
  const tech::Technology tech = tech::Technology::make_default_45nm();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cts::synthesize(design, tech));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CtsSynthesis)->Arg(256)->Arg(1024)->Arg(4096)->Complexity();

void BM_SmartNdrEndToEnd(benchmark::State& state) {
  const bench::Flow& f = flow_1k();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets));
  }
}
BENCHMARK(BM_SmartNdrEndToEnd);

void BM_ExactEvalCached(benchmark::State& state) {
  // Steady-state cost of a memoized exact_eval (all hits after the first
  // sweep) — the path greedy/annealing re-score moves through.
  const bench::Flow& f = flow_1k();
  const timing::AnalysisOptions aopt;
  ndr::AssignmentState st(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const auto blanket = ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  st.rebuild(blanket, ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                    blanket, aopt));
  int net = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(st.exact_eval(net, 1));
    net = (net + 1) % f.nets.size();
  }
}
BENCHMARK(BM_ExactEvalCached);

/// Before/after records for the two-phase extraction refactor: the legacy
/// per-(net, rule) path (fresh extraction + the three separate moment entry
/// points) against the cached path (materialize from shared geometry + the
/// fused moments kernel into warm scratch), swept over every (net, rule)
/// pair single-threaded. Also records the geometry build cost and the
/// exact-eval memo hit rate so cache effectiveness lands in the JSON.
void record_two_phase_kernels(std::vector<bench::RuntimeRecord>& records) {
  using Clock = std::chrono::steady_clock;
  const bench::Flow& f = flow_1k();
  common::set_thread_count(1);
  const extract::Extractor ex(f.tech, f.design);
  const double driver_res = 120.0;
  const double miller = f.tech.miller_delay;

  const auto best_of_3 = [](auto&& fn) {
    fn();  // warm-up
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  // Geometry build: the one-time rule-independent phase.
  const auto t0 = Clock::now();
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const double build_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  records.push_back({"geometry_build_all", 1, build_s, -1.0});

  const double old_s = best_of_3([&] {
    for (const netlist::Net& net : f.nets.nets) {
      for (const tech::RoutingRule& rule : f.tech.rules) {
        const extract::NetParasitics par =
            ex.extract_net(f.cts.tree, net, rule);
        benchmark::DoNotOptimize(legacy_downstream(par.rc, miller));
        benchmark::DoNotOptimize(legacy_elmore(par.rc, driver_res, miller));
        benchmark::DoNotOptimize(
            legacy_second_moment(par.rc, driver_res, miller));
      }
    }
  });
  records.push_back({"extract_3pass_per_net_rule_old", 1, old_s, -1.0});

  extract::NetParasitics warm;
  extract::RcMoments scratch;
  const double new_s = best_of_3([&] {
    for (const netlist::Net& net : f.nets.nets) {
      for (const tech::RoutingRule& rule : f.tech.rules) {
        extract::materialize(cache.geometry(net.id), f.tech, rule, warm);
        warm.rc.moments(driver_res, miller, scratch);
        benchmark::DoNotOptimize(scratch);
      }
    }
  });
  records.push_back({"materialize_moments_per_net_rule_new", 1, new_s, -1.0});

  // Kernel-only pair on one representative parasitics (largest trunk net).
  const extract::NetParasitics par =
      ex.extract_net(f.cts.tree, f.nets[0], f.tech.rules.blanket_rule());
  const int reps = 2000;
  const double m_old = best_of_3([&] {
    for (int r = 0; r < reps; ++r) {
      benchmark::DoNotOptimize(legacy_downstream(par.rc, miller));
      benchmark::DoNotOptimize(legacy_elmore(par.rc, driver_res, miller));
      benchmark::DoNotOptimize(
          legacy_second_moment(par.rc, driver_res, miller));
    }
  });
  records.push_back({"moments_3pass_old", 1, m_old, -1.0});
  const double m_new = best_of_3([&] {
    for (int r = 0; r < reps; ++r) {
      par.rc.moments(driver_res, miller, scratch);
      benchmark::DoNotOptimize(scratch);
    }
  });
  records.push_back({"moments_fused_new", 1, m_new, -1.0});

  // Cache counters: geometry builds per net (exactly 1.0 when no churn
  // happened) and the exact-eval memo hit rate over a double sweep.
  records.push_back({"geometry_builds_per_net", 1,
                     static_cast<double>(cache.builds()) /
                         static_cast<double>(cache.net_count()),
                     -1.0});
  {
    const timing::AnalysisOptions aopt;
    ndr::AssignmentState st(f.cts.tree, f.design, f.tech, f.nets, aopt);
    const auto blanket =
        ndr::assign_all(f.nets, f.tech.rules.blanket_index());
    st.rebuild(blanket, ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                      blanket, aopt,
                                      &st.geometry_cache()));
    const auto s0 = Clock::now();
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (int n = 0; n < f.nets.size(); ++n) {
        for (int r = 0; r < f.tech.rules.size(); ++r) {
          benchmark::DoNotOptimize(st.exact_eval(n, r));
        }
      }
    }
    const double sweep_s =
        std::chrono::duration<double>(Clock::now() - s0).count();
    records.push_back({"exact_eval_double_sweep", 1, sweep_s,
                       st.exact_cache_hit_rate()});
  }

  std::printf("two-phase extraction: %.2fx per-(net,rule) "
              "(old %.4fs -> new %.4fs), moments kernel %.2fx\n",
              old_s / new_s, old_s, new_s, m_old / m_new);
  common::set_thread_count(-1);
}

/// PR acceptance pair for the batched rule-sweep kernels: per-net cost of
/// scoring EVERY rule of an extended 8-rule set, scalar (one materialize +
/// one fused kernel stack per rule, in warm scratch — the pre-batch memo
/// miss path) against the batched sweep (one SoA materialize + multi-lane
/// fused kernels, scratch carved from an arena). Results are bit-identical
/// by contract (tests/batch_kernel_test.cpp); only the cost differs.
void record_rule_sweep(std::vector<bench::RuntimeRecord>& records) {
  using Clock = std::chrono::steady_clock;
  const bench::Flow& f = flow_1k();
  common::set_thread_count(1);

  // The standard five production rules plus three intermediate points:
  // 8 lanes, the sweep width the batched path is sized for.
  tech::Technology wide = f.tech;
  wide.rules = tech::RuleSet(
      {
          {"1W1S", 1, 1},
          {"1W2S", 1, 2},
          {"2W1S", 2, 1},
          {"2W2S", 2, 2},
          {"3W3S", 3, 3},
          {"1.5W1.5S", 1.5, 1.5},
          {"2W3S", 2, 3},
          {"3W2S", 3, 2},
      },
      /*blanket_index=*/3);
  const int n_rules = wide.rules.size();
  const double driver_res = 120.0;
  const double freq = f.design.constraints.clock_freq;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);

  // Best-of-5 (one more than the other records): this pair feeds a hard
  // >=2x gate in scripts/bench_check.sh, so it gets extra noise margin.
  const auto best_of_5 = [](auto&& fn) {
    fn();  // warm-up
    double best = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    return best;
  };

  ndr::NetEvalScratch scratch;
  const double scalar_s = best_of_5([&] {
    for (const netlist::Net& net : f.nets.nets) {
      for (int r = 0; r < n_rules; ++r) {
        benchmark::DoNotOptimize(
            ndr::evaluate_net_exact(cache.geometry(net.id), wide,
                                    wide.rules[r], driver_res, freq,
                                    scratch));
      }
    }
  });
  records.push_back({"rule_sweep_scalar", 1, scalar_s, -1.0});

  common::Arena arena;
  std::vector<ndr::NetExact> row(static_cast<std::size_t>(n_rules));
  const double batch_s = best_of_5([&] {
    for (const netlist::Net& net : f.nets.nets) {
      const extract::NetGeometry* geom = &cache.geometry(net.id);
      ndr::evaluate_nets_exact_all_rules(&geom, &driver_res, 1, wide, freq,
                                         arena, row.data());
      benchmark::DoNotOptimize(row);
    }
  });
  records.push_back({"rule_sweep_batched", 1, batch_s, -1.0});
  records.push_back({"rule_sweep_batch_speedup", 1, scalar_s / batch_s,
                     -1.0});

  std::printf("rule sweep (8 rules x %d nets): scalar %.4fs -> batched "
              "%.4fs (%.2fx per net)\n",
              f.nets.size(), scalar_s, batch_s, scalar_s / batch_s);
  common::set_thread_count(-1);
}

/// Observability overhead on the hot kernels: the cached materialize +
/// fused-moments sweep and the memoized exact_eval sweep, timed with the
/// obs layer enabled vs fully disabled. Both paths are deliberately free
/// of per-call registry traffic (counters batch at boundaries, DESIGN.md
/// §7), so the recorded fractions pin the <=2% instrumentation budget.
void record_obs_overhead(std::vector<bench::RuntimeRecord>& records) {
  using Clock = std::chrono::steady_clock;
  const bench::Flow& f = flow_1k();
  common::set_thread_count(1);
  const double driver_res = 120.0;
  const double miller = f.tech.miller_delay;
  // Both sides of each comparison are best-of-kObsTrials minima, so the
  // raw fraction can legitimately land slightly below zero when the
  // overhead is under the timer noise floor (the off-side minimum drew
  // the luckier sample). The headline `_frac` records are floored at
  // zero — "indistinguishable from free" — and the signed minima are
  // kept in `_frac_raw` alongside the trial count so the measurement
  // remains auditable.
  constexpr int kObsTrials = 9;

  // One sweep is sub-millisecond, far below timer noise on a shared
  // machine: repeat it until a single measurement is tens of
  // milliseconds, and alternate enabled/disabled trials so clock drift
  // hits both sides equally. Best-of keeps scheduler hiccups out.
  const auto timed_both = [&](auto&& fn) {
    fn();  // warm-up
    const auto t0 = Clock::now();
    fn();
    const double once =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const int reps =
        std::max(1, static_cast<int>(0.1 / std::max(once, 1e-6)));
    const auto measure = [&] {
      const auto s = Clock::now();
      for (int r = 0; r < reps; ++r) fn();
      return std::chrono::duration<double>(Clock::now() - s).count() / reps;
    };
    double on = 1e30;
    double off = 1e30;
    const auto measure_mode = [&](bool enabled) {
      obs::set_metrics_enabled(enabled);
      obs::set_tracing_enabled(enabled);
      double& best = enabled ? on : off;
      best = std::min(best, measure());
    };
    for (int trial = 0; trial < kObsTrials; ++trial) {
      // Alternate which mode runs first: within a trial the first
      // measurement is systematically colder, and a fixed order would
      // book that position bias as "overhead".
      const bool first = (trial % 2) == 0;
      measure_mode(first);
      measure_mode(!first);
    }
    obs::set_metrics_enabled(true);
    obs::set_tracing_enabled(true);
    return std::pair<double, double>{on, off};
  };

  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  extract::NetParasitics warm;
  extract::RcMoments scratch;
  const auto [mat_on, mat_off] = timed_both([&] {
    for (const netlist::Net& net : f.nets.nets) {
      for (const tech::RoutingRule& rule : f.tech.rules) {
        extract::materialize(cache.geometry(net.id), f.tech, rule, warm);
        warm.rc.moments(driver_res, miller, scratch);
        benchmark::DoNotOptimize(scratch);
      }
    }
  });
  const double mat_raw = (mat_on - mat_off) / mat_off;
  records.push_back({"materialize_moments_obs_on", 1, mat_on, -1.0});
  records.push_back({"materialize_moments_obs_off", 1, mat_off, -1.0});
  records.push_back({"obs_overhead_materialize_frac_raw", 1, mat_raw, -1.0});
  records.push_back({"obs_overhead_materialize_frac", 1,
                     std::max(0.0, mat_raw), -1.0});

  const timing::AnalysisOptions aopt;
  ndr::AssignmentState st(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const auto blanket = ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  st.rebuild(blanket, ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                    blanket, aopt, &st.geometry_cache()));
  const auto [ee_on, ee_off] = timed_both([&] {
    for (int n = 0; n < f.nets.size(); ++n) {
      for (int r = 0; r < f.tech.rules.size(); ++r) {
        benchmark::DoNotOptimize(st.exact_eval(n, r));
      }
    }
  });
  const double ee_raw = (ee_on - ee_off) / ee_off;
  records.push_back({"exact_eval_sweep_obs_on", 1, ee_on, -1.0});
  records.push_back({"exact_eval_sweep_obs_off", 1, ee_off, -1.0});
  records.push_back({"obs_overhead_exact_eval_frac_raw", 1, ee_raw, -1.0});
  records.push_back({"obs_overhead_exact_eval_frac", 1,
                     std::max(0.0, ee_raw), -1.0});
  records.push_back({"obs_overhead_trials", 1,
                     static_cast<double>(kObsTrials), -1.0});

  std::printf("obs overhead (best of %d trials): materialize+moments "
              "%.2f%% (raw %+.2f%%), exact_eval %.2f%% (raw %+.2f%%)\n",
              kObsTrials, 100.0 * std::max(0.0, mat_raw), 100.0 * mat_raw,
              100.0 * std::max(0.0, ee_raw), 100.0 * ee_raw);
  common::set_thread_count(-1);
}

/// PR acceptance pair for incremental delta-timing: annealing-style move
/// throughput with the state kept exact by full re-evaluation + rebuild
/// after every accepted move (the pre-delta way to stay exact) vs the
/// apply_move delta replay (O(depth + subtree fanout) per move). Both legs
/// replay the SAME fixed proposal stream from the same start, so they end
/// in the same assignment — checked bitwise on total cap at the end.
void record_move_throughput(std::vector<bench::RuntimeRecord>& records) {
  using Clock = std::chrono::steady_clock;
  const bench::Flow& f = flow_1k();
  common::set_thread_count(1);
  const timing::AnalysisOptions aopt;
  const auto blanket = ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  const int n_rules = f.tech.rules.size();

  // Fixed proposal stream: (net, rule != current-at-that-point), replayed
  // from the blanket start by both legs.
  struct Proposal {
    int net;
    int rule;
  };
  constexpr int kMoves = 150;
  std::vector<Proposal> stream;
  {
    workload::Rng rng(12345);
    ndr::RuleAssignment cur = blanket;
    for (int i = 0; i < kMoves; ++i) {
      const int net = static_cast<int>(rng.uniform_int(f.nets.size()));
      int rule = static_cast<int>(rng.uniform_int(n_rules));
      if (rule == cur[net]) rule = (rule + 1) % n_rules;
      cur[net] = rule;
      stream.push_back({net, rule});
    }
  }

  ndr::AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const ndr::FlowEvaluation ev0 =
      ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt,
                    &state.geometry_cache());

  // Full-rebuild leg: score the move, then re-evaluate the whole flow and
  // rebuild to keep the state exact. One warm-up pass, then best-of-2 (each
  // rep already averages kMoves full evaluations).
  double full_s = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    state.rebuild(blanket, ev0);
    ndr::RuleAssignment a = blanket;
    const auto t0 = Clock::now();
    for (const Proposal& p : stream) {
      benchmark::DoNotOptimize(state.exact_eval(p.net, p.rule));
      a[p.net] = p.rule;
      const ndr::FlowEvaluation ev =
          ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt,
                        &state.geometry_cache());
      state.rebuild(a, ev);
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (rep > 0) full_s = std::min(full_s, s);
  }
  const double full_cap = state.total_cap();

  // Delta leg: same stream through apply_move. Rows are prewarmed, as in
  // the annealer, so the timed loop is the steady-state move cost. One
  // stream pass is sub-millisecond — far below timer noise — so each timed
  // rep replays the stream kDeltaPasses times (re-applying an already-held
  // rule costs exactly the same mechanics) and normalizes, keeping the
  // recorded seconds comparable with the full-rebuild leg's single pass.
  state.rebuild(blanket, ev0);
  state.warm_all_rows();
  constexpr int kDeltaPasses = 20;
  double delta_s = 1e30;
  for (int rep = 0; rep < 4; ++rep) {
    state.rebuild(blanket, ev0);
    const auto t0 = Clock::now();
    for (int pass = 0; pass < kDeltaPasses; ++pass) {
      for (const Proposal& p : stream) {
        state.apply_move(p.net, p.rule);
      }
    }
    const double s =
        std::chrono::duration<double>(Clock::now() - t0).count() /
        kDeltaPasses;
    if (rep > 0) delta_s = std::min(delta_s, s);
  }

  // Same stream, same start: both legs must land on the same state.
  if (state.total_cap() != full_cap) {
    std::fprintf(stderr,
                 "move-throughput self-check FAILED: delta cap %.17g != "
                 "full-rebuild cap %.17g\n",
                 state.total_cap(), full_cap);
    std::exit(1);
  }

  records.push_back({"anneal_moves_full_rebuild", 1, full_s, -1.0});
  records.push_back({"anneal_moves_delta", 1, delta_s, -1.0});
  records.push_back({"anneal_move_speedup", 1, full_s / delta_s, -1.0});
  std::printf("anneal move throughput (%d moves): full rebuild %.1f "
              "moves/s -> delta %.1f moves/s (%.1fx)\n",
              kMoves, kMoves / full_s, kMoves / delta_s, full_s / delta_s);
  common::set_thread_count(-1);
}

/// Wall time of the parallelized kernels at each rung of the thread ladder,
/// recorded into BENCH_runtime.json before the google-benchmark run.
void record_thread_ladder() {
  using Clock = std::chrono::steady_clock;
  const bench::Flow& f = flow_1k();
  const extract::Extractor ex(f.tech, f.design);
  const std::vector<int> rules(f.nets.size(), f.tech.rules.blanket_index());
  const auto par = ex.extract_all(f.cts.tree, f.nets, rules);
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);

  std::vector<bench::RuntimeRecord> records;
  record_two_phase_kernels(records);
  record_rule_sweep(records);
  record_obs_overhead(records);
  record_move_throughput(records);
  // Make the host size explicit next to the thread-ladder points: rungs
  // above it are recorded as skipped, never timed oversubscribed.
  records.push_back({"host_cpus", 1,
                     static_cast<double>(bench::host_cpus()), -1.0});
  const auto time_stage = [&](const char* stage, int threads, auto&& fn) {
    // One warm-up, then best-of-3 to keep single-shot noise out of the JSON.
    fn();
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      fn();
      best = std::min(
          best, std::chrono::duration<double>(Clock::now() - t0).count());
    }
    records.push_back({stage, threads, best, -1.0});
  };
  for (const int threads : bench::thread_ladder()) {
    if (bench::ladder_skipped(threads)) {
      records.push_back(bench::skipped_record("extract_all", threads));
      records.push_back(bench::skipped_record("analyze_variation", threads));
      records.push_back(bench::skipped_record("predictor_train", threads));
      continue;
    }
    common::set_thread_count(threads);
    time_stage("extract_all", threads,
               [&] { ex.extract_all(f.cts.tree, f.nets, rules); });
    time_stage("analyze_variation", threads, [&] {
      timing::analyze_variation(f.cts.tree, f.design, f.tech, f.nets, par,
                                rules);
    });
    time_stage("predictor_train", threads, [&] {
      ndr::RuleImpactPredictor::train(f.cts.tree, f.design, f.tech, f.nets,
                                      cache, timing::AnalysisOptions{});
    });
  }
  common::set_thread_count(-1);
  bench::publish_runtime("micro_kernels", records);
}

}  // namespace

int main(int argc, char** argv) {
  record_thread_ladder();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
