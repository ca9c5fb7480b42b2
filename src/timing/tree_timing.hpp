// Full clock-tree timing analysis: per-sink insertion delay (latency), skew,
// and transition times at every buffer input and sink.
#pragma once

#include <functional>
#include <limits>
#include <vector>

#include "extract/extractor.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"

namespace sndr::timing {

struct AnalysisOptions {
  double source_drive_res = 100.0;        ///< ohm, clock source driver.
  double source_slew = 40 * units::ps;    ///< transition at the source pin.
  bool use_d2m = true;                    ///< D2M latency (else Elmore).
  /// Miller factor on coupling caps for nominal timing; worst-case crosstalk
  /// is handled separately by the variation analysis.
  double timing_miller = 1.0;
};

struct TimingReport {
  // Indexed by design sink id.
  std::vector<double> sink_arrival;  ///< s, clock latency to each sink.
  std::vector<double> sink_slew;     ///< s.

  // Indexed by clock tree node id (0 where not applicable).
  std::vector<double> node_arrival;
  std::vector<double> node_slew;
  // Each buffer and sink node is the load of exactly one net; these are its
  // wire terms under that net's moments: the delay added to the driver's
  // output arrival (D2M or Elmore per use_d2m) and the pre-PERI step slew.
  // They seed DeltaTimer::rebuild without a second moment solve.
  std::vector<double> node_wire_delay;
  std::vector<double> node_step_slew;

  // Indexed by net id.
  std::vector<double> net_max_load_slew;  ///< worst slew among net loads.
  std::vector<double> net_driver_load;    ///< F, cap seen by the net driver.
  /// Worst D2M wire delay over the net's loads (D2M whatever use_d2m says).
  std::vector<double> net_wire_delay_worst;

  double min_latency = 0.0;
  double max_latency = 0.0;
  double max_slew = 0.0;

  double skew() const { return max_latency - min_latency; }

  int slew_violations(double max_allowed) const {
    int n = 0;
    for (const double s : net_max_load_slew) {
      if (s > max_allowed) ++n;
    }
    return n;
  }
};

/// One net's terms in the timing recurrence, solved at the net's driver
/// resistance and the analysis Miller factor: the cap its driver sees
/// (the moment solve's down[0]) and each load's (m1, m2), in Net::loads
/// order.
struct NetMoments {
  double driver_load = 0.0;
  const double* m12 = nullptr;  ///< 2 per load: m1, then m2.
};

/// Hands analyze() net `net_id`'s terms. Called once per net, root-first;
/// `m12` must stay readable until the next call.
using NetMomentSource = std::function<NetMoments(int net_id)>;

/// Times the whole tree from per-net moment terms: the one timing
/// recurrence, whatever solved the terms (the overload below, or a search
/// state's memo rows). Nets must be in build_nets order (root-first).
TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const NetMomentSource& moments,
                     const AnalysisOptions& options = {});

/// A NetMomentSource that solves each net's moments from `parasitics`
/// (borrowed; one per net id) at options' driver model and Miller factor.
NetMomentSource moment_source(
    const netlist::ClockTree& tree, const tech::Technology& tech,
    const netlist::NetList& nets,
    const std::vector<extract::NetParasitics>& parasitics,
    const AnalysisOptions& options);

/// Times the whole tree from pre-extracted parasitics (`parasitics[i]` for
/// net i): the recurrence above over moment_source().
TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const std::vector<extract::NetParasitics>& parasitics,
                     const AnalysisOptions& options = {});

}  // namespace sndr::timing
