// Clock network power analysis.
//
// Clock nets switch rail-to-rail once per cycle (charged and discharged), so
// each net dissipates C_switched * Vdd^2 * f; coupling capacitance enters
// with the average Miller factor. Buffer input caps and sink pins are
// charged by the net that drives them, so summing per-net switched caps
// covers the entire network without double counting. Buffers additionally
// burn their internal (short-circuit + self-load) energy every cycle.
#pragma once

#include <functional>
#include <vector>

#include "extract/extractor.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"

namespace sndr::power {

struct PowerReport {
  std::vector<double> net_switched_cap;  ///< F, per net id (raw, unweighted).
  std::vector<double> net_power;         ///< W, per net id (wire+pins only).
  /// Per-net toggle weight (domain activity / divisor); all 1.0 in the
  /// single-domain world. net_power already includes it.
  std::vector<double> net_toggle_weight;

  double wire_cap_gnd = 0.0;       ///< F, all wire area+fringe cap.
  double wire_cap_cpl = 0.0;       ///< F, all wire coupling cap (raw).
  double pin_cap = 0.0;            ///< F, all buffer-input + sink-pin cap.
  double switched_cap = 0.0;       ///< F, total effective switched cap (raw).
  /// F, switched cap weighted per net by the domain toggle rate — the
  /// quantity clock power is actually proportional to. Bitwise equal to
  /// `switched_cap` when domains are disabled (every weight is 1.0).
  double weighted_switched_cap = 0.0;
  double net_switching_power = 0.0;    ///< W (activity-weighted).
  double buffer_internal_power = 0.0;  ///< W (activity-weighted).
  double total_power = 0.0;            ///< W.
};

/// One net's capacitance totals (NetParasitics' wire_cap_gnd, wire_cap_cpl
/// and load_cap): the per-net terms of the power roll-up.
struct NetCaps {
  double wire_cap_gnd = 0.0;
  double wire_cap_cpl = 0.0;
  double load_cap = 0.0;
};

/// Hands analyze_power() net `net_id`'s cap totals.
using NetCapSource = std::function<NetCaps(int net_id)>;

/// Rolls up power from per-net cap totals: the one power roll-up, whatever
/// supplied the totals (the overload below, or a search state's memo
/// rows). A net's switched cap is wire_cap_gnd + load_cap + miller_power *
/// wire_cap_cpl (NetParasitics::switched_cap).
PowerReport analyze_power(const netlist::ClockTree& tree,
                          const netlist::Design& design,
                          const tech::Technology& tech,
                          const netlist::NetList& nets,
                          const NetCapSource& caps);

/// A NetCapSource reading `parasitics` (borrowed, one per net id).
NetCapSource cap_source(const std::vector<extract::NetParasitics>& parasitics);

/// Rolls up power at `design.constraints.clock_freq`. When
/// `design.clock_domains` is enabled, each net's (and buffer's) dynamic
/// power is weighted by its domain's toggle rate: a subtree behind an ICG
/// with duty `a` under a /k divider switches a/k as often as the root
/// clock. The weights multiply otherwise-unchanged terms, so a disabled or
/// all-neutral domain map reproduces the legacy report bit for bit.
PowerReport analyze_power(const netlist::ClockTree& tree,
                          const netlist::Design& design,
                          const tech::Technology& tech,
                          const netlist::NetList& nets,
                          const std::vector<extract::NetParasitics>& parasitics);

}  // namespace sndr::power
