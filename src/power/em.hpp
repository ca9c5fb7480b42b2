// Electromigration analysis of clock wires.
//
// Clock wires carry bidirectional (charge/discharge) current, so the failure
// mechanism is RMS-current Joule heating rather than unidirectional
// transport; the standard signoff is a per-layer RMS current-density limit.
// The average current through a wire piece is the charge delivered past it
// per cycle, f * Vdd * C_downstream; the RMS value is that times a waveform
// crest factor. The check is per unit wire *width*, which is exactly why EM
// forces wide rules on high-capacitance nets near the tree root — one of the
// three constraints that make blanket NDR look necessary.
#pragma once

#include <functional>
#include <vector>

#include "extract/extractor.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"

namespace sndr::power {

struct EmReport {
  std::vector<double> net_peak_density;  ///< A/um, per net id (worst piece).
  std::vector<double> net_slack;         ///< A/um, jmax - peak.
  double worst_density = 0.0;
  int worst_net = -1;

  int violations() const {
    int n = 0;
    for (const double s : net_slack) {
      if (s < 0.0) ++n;
    }
    return n;
  }
};

/// Peak RMS current density (A/um) over the pieces of one net routed with
/// `rule`, at clock frequency `freq`.
double net_peak_current_density(const extract::NetParasitics& par,
                                const tech::Technology& tech,
                                const tech::RoutingRule& rule, double freq);

/// As above, with the miller_power-weighted downstream cap of every RC node
/// already computed into `down` — the allocation-free hot path for callers
/// that already ran a downstream sweep.
double net_peak_current_density(const extract::NetParasitics& par,
                                const double* down,
                                const tech::Technology& tech,
                                const tech::RoutingRule& rule, double freq);

/// Hands analyze_em() net `net_id`'s peak density, domain scale applied.
using NetDensitySource = std::function<double(int net_id)>;

/// The whole-tree EM roll-up over per-net peak densities, whatever
/// supplied them (the overload below, or a search state's memo rows).
EmReport analyze_em(const tech::Technology& tech,
                    const netlist::NetList& nets,
                    const NetDensitySource& density);

/// A NetDensitySource solving each net's peak density from `parasitics`
/// under its rule, scaled by its domain's em_scale() (all borrowed).
NetDensitySource density_source(
    const netlist::Design& design, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const std::vector<int>& rule_of_net);

/// Whole-tree EM check at design.constraints.clock_freq. When
/// `design.clock_domains` is enabled, each net's density is scaled by its
/// domain's em_scale() (sqrt of the toggle rate: gated/divided subtrees
/// carry RMS current at the square root of their repetition rate) — the
/// lever by which activity changes which rules are feasible, since timing
/// is activity-independent. Neutral domains scale by exactly 1.0.
EmReport analyze_em(const netlist::Design& design,
                    const tech::Technology& tech,
                    const netlist::NetList& nets,
                    const std::vector<extract::NetParasitics>& parasitics,
                    const std::vector<int>& rule_of_net);

}  // namespace sndr::power
