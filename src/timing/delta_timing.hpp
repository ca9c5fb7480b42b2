// Incremental (delta) timing for single-net parasitic changes.
//
// timing::analyze walks every net of the tree; a rule-assignment search
// changes ONE net per move, and the buffer model localizes the blast
// radius: a buffer regenerates its output edge (out_slew depends only on
// the cell), so a parasitic change on net N perturbs N's own loads and —
// through arrival and first-level input slew — the nets downstream of N.
// Everything outside N's sink subtree is untouched.
//
// DeltaTimer exploits that: it caches, per load node, the wire delay and
// step slew the analyze recurrence computes, plus the node arrival / slew
// arrays themselves. apply_net_change() re-solves the moments of the
// changed net only (O(pieces)) and then REPLAYS analyze's per-net formulas
// over the descendant subtree (O(subtree fanout)) — absolute values, never
// accumulated deltas, in analyze's exact floating-point op order — so the
// maintained arrays stay BITWISE identical to a fresh analyze() of the
// current assignment. rebuild() seeds the mirror by copying a full
// analysis's TimingReport — including the per-load wire terms analyze
// already solved — so it needs no parasitics and solves no moments;
// tests/delta_timing_test.cpp and tests/scenario_fuzz_test.cpp pin the
// bitwise agreement.
#pragma once

#include <vector>

#include "extract/extractor.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"
#include "timing/tree_timing.hpp"

namespace sndr::timing {

class DeltaTimer {
 public:
  DeltaTimer(const netlist::ClockTree& tree, const netlist::Design& design,
             const tech::Technology& tech, const netlist::NetList& nets,
             const AnalysisOptions& options);

  /// Full reseed from a whole-tree analysis of the current assignment
  /// (made with this timer's AnalysisOptions): copies the report's
  /// arrival/slew arrays and its per-load wire delay / step slew and
  /// per-net worst delay. O(tree) copies, no moment solve.
  void rebuild(const TimingReport& report);

  /// Exact incremental update after net `net_id`'s parasitics changed to
  /// `par` (e.g. a rule re-materialization). Re-solves that net's moments,
  /// refreshes its per-load caches, and replays the analyze recurrence over
  /// the net and its descendant nets, parents first. After this call the
  /// arrays below are bitwise equal to a fresh analyze() with `par`
  /// substituted. Requires a prior rebuild().
  void apply_net_change(int net_id, const extract::NetParasitics& par);

  bool synced() const { return synced_; }

  /// Maintained mirrors of the TimingReport arrays (same indexing).
  const std::vector<double>& sink_arrival() const { return sink_arrival_; }
  const std::vector<double>& sink_slew() const { return sink_slew_; }
  const std::vector<double>& node_arrival() const { return node_arrival_; }
  const std::vector<double>& node_slew() const { return node_slew_; }

  /// Worst D2M wire delay over the net's loads under its current
  /// parasitics (D2M regardless of AnalysisOptions::use_d2m) — the mirror
  /// of TimingReport::net_wire_delay_worst.
  double net_wire_delay_worst(int net_id) const { return wd_worst_[net_id]; }

  /// Net ids updated by the last apply_net_change (ascending: the changed
  /// net and its descendants). Empty before the first apply.
  const std::vector<int>& last_updated_nets() const { return subtree_; }

 private:
  /// Replays analyze's per-net body from the cached per-load delay/slew
  /// and the maintained upstream arrival/slew.
  void propagate_net(const netlist::Net& net);

  const netlist::ClockTree* tree_;
  const tech::Technology* tech_;
  const netlist::NetList* nets_;
  AnalysisOptions options_;

  /// Nets driven by each net's buffer loads (static topology).
  std::vector<std::vector<int>> child_nets_;

  /// Mirrors of TimingReport::node_wire_delay / node_step_slew /
  /// net_wire_delay_worst.
  std::vector<double> wire_delay_;
  std::vector<double> step_slew_;
  std::vector<double> wd_worst_;

  std::vector<double> node_arrival_;
  std::vector<double> node_slew_;
  std::vector<double> sink_arrival_;
  std::vector<double> sink_slew_;

  extract::RcMoments moments_;  ///< warm scratch for apply_net_change.
  std::vector<int> subtree_;    ///< scratch: nets touched by the last apply.
  bool synced_ = false;
};

}  // namespace sndr::timing
