// Simulated-annealing refinement of a rule assignment.
//
// The greedy optimizer commits the cheapest feasible rule per net in
// leaf-first order; because moves interact only weakly (through the shared
// skew window, uncertainty budgets, and routing capacity), greedy is close
// to optimal — this annealer exists to *measure* that gap (Ablation D) and
// to squeeze the last fraction of a percent when runtime is free.
//
// Moves are single-net rule changes validated with exact per-net
// evaluation; energy is the total ACTIVITY-WEIGHTED switched capacitance
// (per-net toggle weights from design.clock_domains; all 1.0 — and the
// trajectory bitwise unchanged — without domains). Uphill moves are
// accepted with the Metropolis criterion on a geometric cooling schedule.
// Infeasible moves are never accepted, so every intermediate state remains
// signoff-clean under the guard bands. The incremental state is bitwise
// equal to a full analysis (AssignmentState::apply_move), so the loop signs
// off whole-tree timing only on the start assignment (unless the caller
// hands in its evaluation, SearchContext::start_eval) and on the final best
// one, both read from the state's memo rows (evaluate(state, ...)). In a
// flow the state is the one greedy worked on (SearchContext::state).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "ndr/evaluation.hpp"
#include "ndr/optimizer.hpp"
#include "obs/metrics.hpp"

namespace sndr::ndr {

/// Resumable snapshot of the annealing loop, taken between iterations.
/// Restoring one and continuing reproduces the uninterrupted run bit for
/// bit: the RNG state replays the same proposal sequence, rebuilding the
/// incremental state from `assignment` is bitwise-exact (the apply_move
/// contract), and `temperature`/`cooling` are carried verbatim rather than
/// re-derived — re-derivation would use the resumed assignment's cap, not
/// the start assignment's.
struct AnnealCheckpoint {
  int iteration = 0;  ///< next iteration to run; == iterations when done.
  double temperature = 0.0;
  double cooling = 1.0;
  std::uint64_t rng_state = 0;
  int proposed = 0;
  int accepted = 0;
  int rejected = 0;
  int uphill_accepted = 0;
  int delta_updates = 0;
  double start_cap = 0.0;
  bool start_feasible = false;
  RuleAssignment assignment;  ///< current (not best) assignment.
  RuleAssignment best;
  double best_cap = 0.0;
};

struct AnnealOptions {
  /// Guard bands, borrowed geometry, memo transplant and cancel token,
  /// shared with the greedy optimizer (search_context.hpp). The cancel
  /// token is checked at the top of every iteration, so the loop unwinds
  /// *after* the previous iteration's checkpoint hook ran: the last
  /// snapshot written is one the uninterrupted run would have produced,
  /// and resuming from it is bitwise identical to never cancelling.
  SearchContext search;

  int iterations = 20000;
  /// Starting temperature as a fraction of the mean per-net switched cap;
  /// ends at `t_end_frac` of the same on a geometric schedule.
  double t_start_frac = 0.5;
  double t_end_frac = 0.005;
  std::uint64_t seed = 1;
  /// Objective weight on switched capacitance: the Metropolis energy of a
  /// move is d_cap * power_weight, so weights < 1 accept uphill moves more
  /// readily (trading power for the other axes) and weights > 1 anneal
  /// harder on power. Exactly 1.0 is bitwise-neutral (IEEE x*1.0 == x).
  /// Must be > 0. This is the DSE power axis; the greedy objective is pure
  /// min-cap per net, which is scale-invariant, so only the annealer has it.
  double power_weight = 1.0;
  /// Checkpointing: every `checkpoint_interval` iterations (and at the
  /// last one) the loop hands a snapshot to `checkpoint_sink`. Both must
  /// be set for snapshots to flow; the default is none (zero overhead).
  int checkpoint_interval = 0;
  std::function<void(const AnnealCheckpoint&)> checkpoint_sink;
  /// Continue from a snapshot instead of starting at `start`. The `start`
  /// argument must still be the original start assignment — it remains the
  /// infeasibility fallback, exactly as in the uninterrupted run.
  std::optional<AnnealCheckpoint> resume;
};

struct AnnealResult {
  RuleAssignment assignment;
  FlowEvaluation final_eval;
  int proposed = 0;
  int accepted = 0;
  int rejected = 0;  ///< proposed == accepted + rejected, always.
  int uphill_accepted = 0;
  /// Accepted moves applied through the incremental O(pieces + subtree)
  /// delta-timing path; the loop never re-analyzes the whole tree.
  int delta_updates = 0;
  double start_cap = 0.0;  ///< F, activity-weighted switched cap at start.
  double end_cap = 0.0;    ///< F, activity-weighted (== raw w/o domains).

  /// exact_eval memo-cache counters (the annealer's dominant cost), from
  /// the reseed on: a boot evaluation's row fills are not counted here.
  std::int64_t exact_cache_hits = 0;
  std::int64_t exact_cache_misses = 0;
  double exact_cache_hit_rate() const {
    return obs::safe_ratio(exact_cache_hits,
                           exact_cache_hits + exact_cache_misses);
  }
};

/// Refines `start` (typically the greedy optimizer's assignment). The
/// returned assignment is exactly `start` if no improving sequence was
/// found or if annealing ended infeasible (fallback).
AnnealResult anneal_rules(const netlist::ClockTree& tree,
                          const netlist::Design& design,
                          const tech::Technology& tech,
                          const netlist::NetList& nets,
                          const RuleAssignment& start,
                          const AnnealOptions& options = {});

}  // namespace sndr::ndr
