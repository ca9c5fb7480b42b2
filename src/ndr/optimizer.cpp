#include "ndr/optimizer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/thread_pool.hpp"
#include "ndr/assignment_state.hpp"
#include "obs/trace.hpp"
#include "route/congestion_route.hpp"
#include "timing/delay_metrics.hpp"

namespace sndr::ndr {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Optimizer {
 public:
  Optimizer(const netlist::ClockTree& tree, const netlist::Design& design,
            const tech::Technology& tech, const netlist::NetList& nets,
            const OptimizerOptions& opt)
      : tree_(tree),
        design_(design),
        tech_(tech),
        nets_(nets),
        opt_(opt),
        state_(opt.search.state != nullptr
                   ? *opt.search.state
                   : own_state_.emplace(tree, design, tech, nets,
                                        timing::AnalysisOptions{},
                                        opt.search.geometry)) {}

  SmartNdrResult run();

 private:
  /// The search's own signoffs (start, final, repair) read the memo: the
  /// rows hold every per-net term, bitwise what extraction would give.
  FlowEvaluation full_eval(const RuleAssignment& assignment) {
    ++stats_.full_evals;
    return evaluate(state_, assignment);
  }

  /// Tries to move `net_id` to the cheapest feasible rule; returns true on
  /// a committed move.
  bool improve_net(int net_id);
  bool improve_net_full_sta(int net_id);
  /// The net's rules with strictly cheaper switched cap than its current
  /// one, cheapest first — the candidates both scorings try in order.
  std::vector<std::pair<double, int>> cheaper_rules(int net_id);

  void commit(int net_id, int rule_idx);
  void repair(FlowEvaluation& ev);

  const netlist::ClockTree& tree_;
  const netlist::Design& design_;
  const tech::Technology& tech_;
  const netlist::NetList& nets_;
  OptimizerOptions opt_;

  std::optional<AssignmentState> own_state_;  ///< when none is lent.
  AssignmentState& state_;
  RuleAssignment assignment_;  ///< mirror of state_.assignment().

  /// Trained here or handed in via opt_.shared_predictor (immutable either
  /// way — predict() is const and the serve layer shares one instance
  /// across concurrent jobs). Set only under models scoring.
  std::shared_ptr<const RuleImpactPredictor> predictor_;
  bool blanket_was_feasible_ = false;

  OptimizerStats stats_;
};

void Optimizer::commit(int net_id, int rule_idx) {
  state_.apply_move(net_id, rule_idx);
  assignment_[net_id] = rule_idx;
  ++stats_.commits;
}

std::vector<std::pair<double, int>> Optimizer::cheaper_rules(int net_id) {
  const double cap_now = state_.net_cap(net_id);
  const NetSummary& summary = state_.summary(net_id);
  std::vector<std::pair<double, int>> cands;
  for (int r = 0; r < tech_.rules.size(); ++r) {
    if (r == assignment_[net_id]) continue;
    const double cap = net_cap_under_rule(summary, tech_, tech_.rules[r]);
    if (cap < cap_now * (1.0 - 1e-9)) cands.emplace_back(cap, r);
  }
  std::sort(cands.begin(), cands.end());
  return cands;
}

bool Optimizer::improve_net(int net_id) {
  if (opt_.scoring == Scoring::kFullSta) return improve_net_full_sta(net_id);
  const NetSummary& summary = state_.summary(net_id);
  const MoveMargins& margins = opt_.search.margins;
  for (const auto& [cap_new, r] : cheaper_rules(net_id)) {
    ++stats_.candidates_scored;
    // Models scoring screens each candidate with the predictor; only a
    // candidate it accepts pays for the exact evaluation below.
    if (predictor_ != nullptr &&
        !state_.check_move(net_id, r, predictor_->predict(summary, r),
                           margins)) {
      continue;
    }
    // The exact per-net engines decide: one evaluation serves both the
    // feasibility check and the commit.
    const NetExact& exact = state_.exact_eval(net_id, r);
    ++stats_.exact_net_evals;
    const NetImpact impact{exact.step_slew_worst, exact.sigma_worst,
                             exact.xtalk_worst, exact.wire_delay_worst};
    if (exact.em_peak > tech_.clock_layer.em_jmax * (1.0 - margins.em)) {
      continue;
    }
    if (!state_.check_move(net_id, r, impact, margins)) continue;
    commit(net_id, r);
    return true;
  }
  return false;
}

bool Optimizer::improve_net_full_sta(int net_id) {
  // The naive flow: every candidate is judged by a complete extraction +
  // timing + variation + EM run of the whole tree. Kept for the runtime
  // comparison (Fig. 7); unusably slow beyond a few thousand nets. It is
  // the one evaluation here that re-extracts: it is what the paper times.
  const int old_rule = assignment_[net_id];
  for (const auto& [cap_new, r] : cheaper_rules(net_id)) {
    ++stats_.candidates_scored;
    assignment_[net_id] = r;
    ++stats_.full_evals;
    const FlowEvaluation ev = evaluate(tree_, design_, tech_, nets_,
                                       assignment_, {},
                                       &state_.geometry_cache());
    if (ev.feasible()) {
      state_.rebuild(assignment_, ev);
      ++stats_.commits;
      return true;
    }
    assignment_[net_id] = old_rule;
  }
  return false;
}

void Optimizer::repair(FlowEvaluation& ev) {
  const netlist::ClockConstraints& c = design_.constraints;
  for (int round = 0; round < opt_.max_repair_rounds; ++round) {
    if (ev.feasible()) return;
    opt_.search.cancel.check();
    bool changed = false;
    const int blanket = tech_.rules.blanket_index();

    // Routing overflow: move nets that cross overflowing cells to the
    // narrowest-pitch rule that still holds their local constraints. This
    // is the one repair direction that *reduces* wire footprint.
    if (ev.overflow_cells > 0 && design_.congestion.valid()) {
      const netlist::RoutingFootprint& footprint =
          state_.geometry_cache().footprint();
      const netlist::RoutingUsage usage = route::compute_usage(
          footprint, nets_, assignment_, tech_, design_.congestion);
      std::vector<char> cell_over(design_.congestion.cell_count(), 0);
      for (int ci = 0; ci < design_.congestion.cell_count(); ++ci) {
        cell_over[ci] =
            usage.used_cell(ci) > design_.congestion.capacity_cell(ci);
      }
      const double width_frac = tech_.clock_layer.width_frac();
      for (const netlist::Net& net : nets_.nets) {
        const auto steps = footprint.net_steps(net.id);
        if (std::none_of(steps.begin(), steps.end(),
                         [&](const netlist::CellStep& st) {
                           return cell_over[st.cell] != 0;
                         })) {
          continue;
        }
        int best = assignment_[net.id];
        double best_pitch = tech_.rules[best].pitch_mult(width_frac);
        for (int r = 0; r < tech_.rules.size(); ++r) {
          const double pitch = tech_.rules[r].pitch_mult(width_frac);
          if (pitch + 1e-12 >= best_pitch) continue;
          const NetExact& exact = state_.exact_eval(net.id, r);
          ++stats_.exact_net_evals;
          const double slew =
              state_.slew_at_loads(net.id, exact.step_slew_worst);
          if (slew > c.max_slew ||
              exact.em_peak > tech_.clock_layer.em_jmax) {
            continue;
          }
          best = r;
          best_pitch = pitch;
        }
        if (best != assignment_[net.id]) {
          assignment_[net.id] = best;
          changed = true;
          ++stats_.repair_upgrades;
        }
      }
      if (changed) {
        ev = full_eval(assignment_);
        state_.rebuild(assignment_, ev);
        continue;  // re-assess all constraint classes on fresh numbers.
      }
    }

    // Slew / EM violations: push the offending nets back to the blanket
    // rule (or the widest rule if blanket already).
    for (const netlist::Net& net : nets_.nets) {
      const bool slew_bad = ev.timing.net_max_load_slew[net.id] > c.max_slew;
      const bool em_bad = ev.em.net_slack[net.id] < 0.0;
      if (!slew_bad && !em_bad) continue;
      const int target = assignment_[net.id] == blanket
                             ? tech_.rules.size() - 1
                             : blanket;
      if (target != assignment_[net.id]) {
        assignment_[net.id] = target;
        changed = true;
        ++stats_.repair_upgrades;
      }
    }
    // Skew/window or uncertainty violations: revert every net on an
    // offending sink's path to the blanket rule.
    const double mean = std::accumulate(ev.timing.sink_arrival.begin(),
                                        ev.timing.sink_arrival.end(), 0.0) /
                        std::max<std::size_t>(1, design_.sinks.size());
    for (int s = 0; s < static_cast<int>(design_.sinks.size()); ++s) {
      const double off = ev.timing.sink_arrival[s] - mean;
      bool skew_bad = false;
      if (design_.useful_skew.enabled()) {
        skew_bad = ev.window_violations > 0 &&
                   (off < design_.useful_skew.lo[s] ||
                    off > design_.useful_skew.hi[s]);
      } else {
        skew_bad = !ev.skew_ok && std::abs(off) > 0.5 * c.max_skew;
      }
      const bool unc_bad =
          ev.variation.sink_uncertainty[s] > c.max_uncertainty;
      if (!skew_bad && !unc_bad) continue;
      for (const int net : state_.nets_on_path(s)) {
        if (assignment_[net] != blanket) {
          assignment_[net] = blanket;
          changed = true;
          ++stats_.repair_upgrades;
        }
      }
    }
    // Inter-clock (domain-pair) violations: the spread is set by the
    // extreme sinks of the pair, so revert both extreme paths to the
    // blanket rule — the same lever the intra-domain skew repair uses.
    for (const report::InterClockPair& p : ev.inter_clock.pairs) {
      if (p.ok) continue;
      for (const int s : {p.sink_early, p.sink_late}) {
        if (s < 0) continue;
        for (const int net : state_.nets_on_path(s)) {
          if (assignment_[net] != blanket) {
            assignment_[net] = blanket;
            changed = true;
            ++stats_.repair_upgrades;
          }
        }
      }
    }
    if (!changed) break;  // nothing more we can do incrementally.
    ev = full_eval(assignment_);
    state_.rebuild(assignment_, ev);
  }
  // Last resort: the conventional blanket assignment is a known-good point;
  // if it was feasible and incremental repair failed, fall back to it so the
  // result is never worse than the baseline practice.
  if (!ev.feasible() && blanket_was_feasible_) {
    assignment_ = assign_all(nets_, tech_.rules.blanket_index());
    ev = full_eval(assignment_);
    state_.rebuild(assignment_, ev);
    stats_.repair_upgrades += nets_.size();
  }
}

SmartNdrResult Optimizer::run() {
  SNDR_TRACE_SPAN("optimize_smart_ndr");
  // Bind the token to this thread so the parallel primitives inside the
  // evaluation engines inherit it without signature changes.
  common::CancelBinding cancel_binding(opt_.search.cancel);
  stats_.threads_used = common::thread_count();
  SNDR_GAUGE_SET("optimizer.threads",
                 static_cast<double>(stats_.threads_used));
  if (!opt_.initial_assignment.empty()) {
    if (opt_.initial_assignment.size() !=
        static_cast<std::size_t>(nets_.size())) {
      throw std::invalid_argument(
          "optimize_smart_ndr: initial_assignment size mismatch");
    }
    assignment_ = opt_.initial_assignment;
  } else {
    assignment_ = assign_all(nets_, tech_.rules.blanket_index());
  }

  // The caller's evaluation of the start is read in place; it is copied
  // only if a repair has to edit it.
  FlowEvaluation ev;
  const FlowEvaluation* start = opt_.search.start_eval;
  if (start == nullptr) {
    ev = full_eval(assignment_);
    start = &ev;
  } else if (start->assignment != assignment_) {
    throw std::invalid_argument(
        "optimize_smart_ndr: start_eval is not of the start assignment");
  }
  state_.rebuild(assignment_, *start);
  blanket_was_feasible_ = start->feasible();
  if (!blanket_was_feasible_) {
    // The conventional starting point itself violates (e.g. EM at high
    // frequency wants 3W on trunks): repair first.
    if (start != &ev) ev = *start;
    repair(ev);
  }

  if (opt_.scoring == Scoring::kModels) {
    opt_.search.cancel.check();
    if (opt_.shared_predictor) {
      // Training is deterministic in its inputs, so a cached predictor
      // scores — and therefore assigns — bitwise identically to one
      // trained fresh here; train_seconds stays 0 to make the skip visible.
      predictor_ = opt_.shared_predictor;
    } else {
      const auto t0 = Clock::now();
      predictor_ = std::make_shared<const RuleImpactPredictor>(
          RuleImpactPredictor::train(tree_, design_, tech_, nets_,
                                     state_.geometry_cache(), {},
                                     opt_.training_samples));
      stats_.train_seconds = seconds_since(t0);
    }
  }

  // Sweep order: leaf-first (deepest nets carry most of the wirelength and
  // have the most slack; freeing their capacity first also unblocks
  // upgrades). In ECO mode only the focus set is revisited.
  std::vector<int> sweep;
  if (opt_.focus_nets.empty()) {
    sweep.resize(nets_.size());
    for (int i = 0; i < nets_.size(); ++i) sweep[i] = nets_.size() - 1 - i;
  } else {
    sweep = opt_.focus_nets;
    std::sort(sweep.begin(), sweep.end(), std::greater<int>());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    for (const int id : sweep) {
      if (id < 0 || id >= nets_.size()) {
        throw std::invalid_argument(
            "optimize_smart_ndr: focus_nets id out of range");
      }
    }
  }

  // Exact scoring evaluates whole memo rows net by net as the sweep walks
  // them; prefetching the sweep's rows with cross-net shape-bucketed
  // batches does the same work with full SIMD lanes. Cached values are
  // bitwise identical either way, so the sweep's decisions are unchanged.
  if (opt_.scoring == Scoring::kExactNet) state_.warm_rows(sweep);

  const auto t1 = Clock::now();
  {
    SNDR_TRACE_SPAN("greedy_sweeps");
    for (int pass = 0; pass < opt_.max_passes; ++pass) {
      opt_.search.cancel.check();
      ++stats_.passes;
      int commits = 0;
      for (const int id : sweep) {
        opt_.search.cancel.check();
        if (improve_net(id)) ++commits;
      }
      if (commits == 0) break;
    }
  }
  stats_.optimize_seconds = seconds_since(t1);

  ev = full_eval(assignment_);
  if (!ev.feasible()) {
    state_.rebuild(assignment_, ev);
    repair(ev);
  }

  stats_.exact_cache_hits = state_.exact_cache_hits();
  stats_.exact_cache_misses = state_.exact_cache_misses();
  state_.flush_metrics();
  SNDR_COUNTER_ADD("optimizer.commits", stats_.commits);
  SNDR_COUNTER_ADD("optimizer.candidates_scored", stats_.candidates_scored);
  SNDR_COUNTER_ADD("optimizer.exact_net_evals", stats_.exact_net_evals);
  SNDR_COUNTER_ADD("optimizer.full_evals", stats_.full_evals);
  SNDR_COUNTER_ADD("optimizer.repair_upgrades", stats_.repair_upgrades);
  SNDR_COUNTER_ADD("optimizer.passes", stats_.passes);

  SmartNdrResult result;
  result.assignment = assignment_;
  result.final_eval = std::move(ev);
  result.stats = stats_;
  if (predictor_ != nullptr) {
    result.train_report = predictor_->report();
    result.trained_predictor = predictor_;
  }
  result.rule_histogram.assign(tech_.rules.size(), 0);
  for (const int r : assignment_) ++result.rule_histogram[r];
  return result;
}

}  // namespace

SmartNdrResult optimize_smart_ndr(const netlist::ClockTree& tree,
                                  const netlist::Design& design,
                                  const tech::Technology& tech,
                                  const netlist::NetList& nets,
                                  const OptimizerOptions& options) {
  Optimizer opt(tree, design, tech, nets, options);
  return opt.run();
}

}  // namespace sndr::ndr
