// Synthetic scale ladder: pre-buffered clock trees at 10k / 100k / 1M nets.
//
// The paper-style workloads (generator.hpp) run real CTS + congestion
// rerouting, which is the right fidelity for quality experiments but far
// too slow to synthesize a million-net tree in a test. This
// module builds the tree DIRECTLY: a deterministic b-ary buffer hierarchy
// over a quadrant-subdivided floorplan, leaf buffers fanning out to sinks,
// default L-routes, and a uniform congestion field. The result exercises
// exactly the pipeline under test (extract -> evaluate -> optimize) with
// net and sink counts dialed by one knob, in O(nets) time.
//
// Determinism: everything derives from ScaleSpec::seed via workload::Rng,
// so a rung's tree is bit-identical across runs, machines, and thread
// counts — scale_smoke_test asserts bitwise-equal optimizer output
// between budgeted and unbounded flows.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"

namespace sndr::workload {

struct ScaleSpec {
  std::string name = "scale";
  /// Driver (net) count: 1 source + (num_nets - 1) buffers.
  int num_nets = 10000;
  int branching = 4;      ///< buffer children per internal driver.
  int sinks_per_leaf = 2; ///< sinks under each childless driver.
  std::uint64_t seed = 1;

  double area_per_net_um2 = 500.0;  ///< core area scales with net count.
  double pin_cap = 2e-15;           ///< F, uniform sink load.

  // Uniform congestion field.
  double occupancy = 0.30;
  double clock_track_fraction = 0.25;
};

struct ScaleWorkload {
  netlist::Design design;
  netlist::ClockTree tree;
  netlist::NetList nets;
};

/// Builds the design + tree + nets for one rung. `buffer_cell` selects the
/// driver cell from tech.buffers (-1 = the middle of the library).
ScaleWorkload make_scale_workload(const ScaleSpec& spec,
                                  const tech::Technology& tech,
                                  int buffer_cell = -1);

}  // namespace sndr::workload
