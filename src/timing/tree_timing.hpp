// Full clock-tree timing analysis: per-sink insertion delay (latency), skew,
// and transition times at every buffer input and sink.
#pragma once

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

/// Times the whole tree from pre-extracted parasitics (`parasitics[i]` for
/// net i). Nets must be in build_nets order (root-first).
TimingReport analyze(const netlist::ClockTree& tree,
                     const netlist::Design& design,
                     const tech::Technology& tech,
                     const netlist::NetList& nets,
                     const std::vector<extract::NetParasitics>& parasitics,
                     const AnalysisOptions& options = {});

}  // namespace sndr::timing
