#include "ndr/annealer.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "ndr/assignment_state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/rng.hpp"

namespace sndr::ndr {

AnnealResult anneal_rules(const netlist::ClockTree& tree,
                          const netlist::Design& design,
                          const tech::Technology& tech,
                          const netlist::NetList& nets,
                          const RuleAssignment& start,
                          const AnnealOptions& options) {
  SNDR_TRACE_SPAN("anneal");
  AnnealResult result;
  result.assignment = start;

  const SearchContext& search = options.search;
  common::CancelBinding cancel_binding(search.cancel);
  // Adopt the lent state (the flow's, warm from greedy) or build one. The
  // rebuild below reseeds either from the boot evaluation, so the
  // trajectory is bitwise that of a fresh state.
  std::optional<AssignmentState> own_state;
  AssignmentState& state =
      search.state != nullptr
          ? *search.state
          : own_state.emplace(tree, design, tech, nets,
                              timing::AnalysisOptions{}, search.geometry);
  // Resume continues from the snapshot's assignment; `start` is still the
  // fallback the uninterrupted run would have kept.
  const bool resuming = options.resume.has_value();
  const RuleAssignment& boot = resuming ? options.resume->assignment : start;
  // The caller's evaluation of `start` stands in for evaluating it here,
  // both at boot and for the fallback.
  const FlowEvaluation* start_eval = search.start_eval;
  if (start_eval != nullptr && start_eval->assignment != start) {
    throw std::invalid_argument(
        "anneal_rules: start_eval is not of the start assignment");
  }
  // Every evaluation here is signed off from the state's memo rows.
  FlowEvaluation ev;
  const FlowEvaluation* boot_eval = resuming ? nullptr : start_eval;
  if (boot_eval == nullptr) {
    ev = evaluate(state, boot);
    boot_eval = &ev;
  }
  state.rebuild(boot, *boot_eval);
  // The result's cache counters are this search's from here on (a lent
  // state arrives with greedy's).
  const std::int64_t hits0 = state.exact_cache_hits();
  const std::int64_t misses0 = state.exact_cache_misses();
  bool start_feasible;
  if (resuming) {
    result.start_cap = options.resume->start_cap;
    start_feasible = options.resume->start_feasible;
  } else {
    // Activity-weighted energy everywhere the annealer ranks states; the
    // weights are exactly 1.0 without clock domains, keeping caps (and
    // checkpoints) bitwise identical to the single-domain world.
    result.start_cap = state.total_energy();
    start_feasible = boot_eval->feasible();
  }

  // Prefetch every memo row with cross-net batched kernels before the
  // sequential proposal loop: the annealer visits nets in RNG order, so
  // lazily-warmed rows run one net per kernel call; warming up front fills
  // the SIMD lanes with same-shaped nets instead. Bitwise-identical cached
  // values mean the trajectory is unchanged.
  if (options.iterations > 0) state.warm_all_rows();

  workload::Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 17);

  const int n_nets = nets.size();
  const int n_rules = tech.rules.size();
  const double mean_cap =
      state.total_energy() / std::max(1, n_nets);
  const double t_start = options.t_start_frac * mean_cap;
  const double t_end = std::max(options.t_end_frac * mean_cap, 1e-21);
  double cooling =
      options.iterations > 1
          ? std::pow(t_end / t_start, 1.0 / (options.iterations - 1))
          : 1.0;

  // Track the best feasible assignment seen.
  RuleAssignment best = start;
  double best_cap = state.total_energy();

  SNDR_GAUGE_SET("anneal.t_start", t_start);
  SNDR_GAUGE_SET("anneal.t_end", t_end);

  double temperature = t_start;
  int it0 = 0;
  if (resuming) {
    const AnnealCheckpoint& ck = *options.resume;
    it0 = ck.iteration;
    temperature = ck.temperature;
    cooling = ck.cooling;  // NOT re-derived: see AnnealCheckpoint.
    rng.set_state(ck.rng_state);
    result.proposed = ck.proposed;
    result.accepted = ck.accepted;
    result.rejected = ck.rejected;
    result.uphill_accepted = ck.uphill_accepted;
    result.delta_updates = ck.delta_updates;
    best = ck.best;
    best_cap = ck.best_cap;
  }
  // The temperature schedule is observed locally and merged once: a
  // registry observation per iteration costs a few percent of the loop.
  obs::LocalHistogram temperatures;
  for (int it = it0; it < options.iterations; ++it, temperature *= cooling) {
    search.cancel.check();
    temperatures.observe(temperature);
    // The proposal body runs as an immediately-invoked closure so rejected
    // proposals (early returns) still fall through to the checkpoint hook
    // below — a snapshot cadence must not depend on acceptance.
    [&] {
      const int net_id = static_cast<int>(rng.uniform_int(n_nets));
      int rule = static_cast<int>(rng.uniform_int(n_rules));
      if (rule == state.rule_of(net_id)) {
        rule = (rule + 1) % n_rules;
      }
      ++result.proposed;

      const NetExact& exact = state.exact_eval(net_id, rule);
      // Energy delta: switched cap weighted by the net's domain toggle
      // rate — gated/divided subtrees are proportionally cheaper, so the
      // Metropolis criterion spends its uphill budget where power really
      // lives. (a - b) * 1.0 == a - b, so the trajectory is bitwise
      // unchanged when domains are disabled.
      const double d_cap = (exact.cap_switched - state.net_cap(net_id)) *
                           state.net_weight(net_id);
      // DSE power axis: the Metropolis energy is the cap delta scaled by
      // the objective weight — weights < 1 soften the power term (uphill
      // cap moves survive more often, favoring the other axes), > 1
      // anneal harder on power. Exactly 1.0 is bitwise-neutral (IEEE
      // x * 1.0 == x), so single-point runs are unchanged.
      const double d_obj = d_cap * options.power_weight;
      if (d_obj > 0.0) {
        const double p = std::exp(-d_obj / temperature);
        if (rng.uniform() >= p) {
          ++result.rejected;
          return;
        }
      }
      NetImpact impact;
      impact.step_slew = exact.step_slew_worst;
      impact.sigma = exact.sigma_worst;
      impact.xtalk = exact.xtalk_worst;
      impact.delay = exact.wire_delay_worst;
      if (exact.em_peak >
          tech.clock_layer.em_jmax * (1.0 - search.margins.em)) {
        ++result.rejected;
        return;
      }
      if (!state.check_move(net_id, rule, impact, search.margins)) {
        ++result.rejected;
        return;
      }

      state.apply_move(net_id, rule);
      ++result.accepted;
      ++result.delta_updates;
      if (d_obj > 0.0) ++result.uphill_accepted;

      if (state.total_energy() < best_cap) {
        best = state.assignment();
        best_cap = state.total_energy();
      }
    }();

    // Snapshot AFTER every RNG draw of this iteration: a resumed run picks
    // up at iteration `it + 1` with exactly the sequence the uninterrupted
    // run would have drawn.
    if (options.checkpoint_interval > 0 && options.checkpoint_sink &&
        ((it + 1) % options.checkpoint_interval == 0 ||
         it + 1 == options.iterations)) {
      AnnealCheckpoint ck;
      ck.iteration = it + 1;
      ck.temperature = temperature * cooling;  // next iteration's value.
      ck.cooling = cooling;
      ck.rng_state = rng.state();
      ck.proposed = result.proposed;
      ck.accepted = result.accepted;
      ck.rejected = result.rejected;
      ck.uphill_accepted = result.uphill_accepted;
      ck.delta_updates = result.delta_updates;
      ck.start_cap = result.start_cap;
      ck.start_feasible = start_feasible;
      ck.assignment = state.assignment();
      ck.best = best;
      ck.best_cap = best_cap;
      SNDR_COUNTER_ADD("anneal.checkpoints", 1);
      options.checkpoint_sink(ck);
    }
  }

  SNDR_HISTOGRAM_MERGE("anneal.temperature", temperatures);

  // Verify the best assignment exactly; fall back to the input if it does
  // not hold up (or if the input itself was infeasible, report honestly).
  ev = evaluate(state, best);
  if (ev.feasible() || !start_feasible) {
    result.assignment = best;
    result.final_eval = std::move(ev);
  } else {
    result.assignment = start;
    result.final_eval =
        start_eval != nullptr ? *start_eval : evaluate(state, start);
  }
  result.end_cap = result.final_eval.power.weighted_switched_cap;
  result.exact_cache_hits = state.exact_cache_hits() - hits0;
  result.exact_cache_misses = state.exact_cache_misses() - misses0;
  state.flush_metrics();
  SNDR_COUNTER_ADD("anneal.proposed", result.proposed);
  SNDR_COUNTER_ADD("anneal.accepted", result.accepted);
  SNDR_COUNTER_ADD("anneal.rejected", result.rejected);
  SNDR_COUNTER_ADD("anneal.uphill_accepted", result.uphill_accepted);
  SNDR_COUNTER_ADD("anneal.delta_updates", result.delta_updates);
  return result;
}

}  // namespace sndr::ndr
