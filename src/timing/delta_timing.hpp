// Incremental (delta) timing for single-net parasitic changes.
//
// timing::analyze walks every net of the tree; a rule-assignment search
// changes ONE net per move, and the buffer model localizes the blast
// radius: a buffer regenerates its output edge (out_slew depends only on
// the cell), so a parasitic change on net N perturbs N's own loads and —
// through arrival and first-level input slew — the nets downstream of N.
// Everything outside N's sink subtree is untouched.
//
// DeltaTimer exploits that: it caches, per load, the wire delay and step
// slew the analyze recurrence computes, plus the node arrival / slew arrays
// themselves. apply_net_change() takes the changed net's per-load moments
// (the search memo stores them; the NetParasitics overload solves them) and
// REPLAYS analyze's per-net formulas over the net's descendant subtree —
// absolute values, never accumulated deltas, in analyze's exact
// floating-point op order — so the maintained arrays stay BITWISE identical
// to a fresh analyze() of the current assignment.
//
// The replay reads only flat arrays laid out at construction: nets in
// depth-first preorder (so every net's descendants are one contiguous
// slice after it, parents before children), per-net driver constants, and
// the loads flattened in that order with their sink indices. Only the
// changed net's loads get new slews: every descendant net is driven by a
// buffer that regenerates its edge, and its own step slews did not change,
// so recomputing its load slews would reproduce the values already stored.
// Descendants get new arrivals only.
//
// rebuild() seeds the mirror by copying a full analysis's TimingReport —
// including the per-load wire terms analyze already solved — so it needs
// no parasitics and solves no moments; tests/delta_timing_test.cpp and
// tests/scenario_fuzz_test.cpp pin the bitwise agreement.
#pragma once

#include <span>
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

  /// Exact incremental update after net `net_id`'s parasitics changed.
  /// `m12` holds the net's per-load moments in Net::loads order — m1 then
  /// m2 per load, solved at this timer's driver resistance and
  /// timing_miller. Derives the loads' wire delay, step slew and worst D2M
  /// delay exactly as analyze() does, then replays the net's subtree slice.
  /// After this call the arrays below are bitwise equal to a fresh
  /// analyze() with the new parasitics substituted. Requires a prior
  /// rebuild().
  void apply_net_change(int net_id, const double* m12);

  /// The same update from the net's new parasitics: solves their moments
  /// and forwards to the overload above (the reference the tests use).
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

  /// `net_id` followed by every net downstream of it, as one slice of the
  /// depth-first net order: each net comes after its parent net, but the
  /// ids are not ascending. Static topology, valid for any net.
  std::span<const int> subtree(int net_id) const {
    return std::span<const int>(order_).subspan(
        pos_[net_id], end_[net_id] - pos_[net_id]);
  }

  /// The subtree() slice the last apply_net_change replayed. Empty before
  /// the first apply.
  std::span<const int> last_updated_nets() const {
    return std::span<const int>(order_).subspan(last_lo_, last_hi_ - last_lo_);
  }

 private:
  /// Driver-stage constants of the net at one preorder position.
  struct Driver {
    int node = -1;            ///< buffer node, -1 for the clock source.
    double intrinsic = 0.0;   ///< cell intrinsic delay (buffers).
    double sensitivity = 0.0; ///< cell slew sensitivity (buffers).
    double out_slew = 0.0;    ///< transition at the driver output.
  };

  /// analyze()'s driver stage: the output arrival of the net at position p.
  double out_arrival(int p) const;

  /// Depth-first preorder of the nets; net n's subtree is
  /// order_[pos_[n], end_[n]).
  std::vector<int> order_;
  std::vector<int> pos_;
  std::vector<int> end_;
  std::vector<Driver> driver_;  ///< per preorder position.
  /// Loads of the net at position p are load_node_[load_lo_[p],
  /// load_lo_[p + 1]) in Net::loads order; load_sink_ is the design sink
  /// index of each (-1 for buffers).
  std::vector<int> load_lo_;
  std::vector<int> load_node_;
  std::vector<int> load_sink_;

  const netlist::ClockTree* tree_;
  const tech::Technology* tech_;
  const netlist::NetList* nets_;
  AnalysisOptions options_;

  /// Mirrors of TimingReport::node_wire_delay / node_step_slew (per
  /// flattened load) and net_wire_delay_worst (per net id).
  std::vector<double> wire_delay_;
  std::vector<double> step_slew_;
  std::vector<double> wd_worst_;

  std::vector<double> node_arrival_;
  std::vector<double> node_slew_;
  std::vector<double> sink_arrival_;
  std::vector<double> sink_slew_;

  extract::RcMoments moments_;  ///< warm scratch for the parasitics overload.
  std::vector<double> m12_;     ///< warm scratch for the parasitics overload.
  int last_lo_ = 0;             ///< order_ slice of the last apply.
  int last_hi_ = 0;
  bool synced_ = false;
};

}  // namespace sndr::timing
