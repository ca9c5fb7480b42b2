// Post-synthesis skew refinement against the signoff timer.
//
// The embedder balances delays with a planning model (Elmore, uniform
// occupancy); after routing and extraction the signoff timer (D2M, real
// congestion map) disagrees by a few ps per stage, which accumulates into
// tens of ps of skew on deep trees. This pass closes the gap the way
// production flows do: re-size buffers so that fast subtrees slow down and
// slow subtrees speed up, iterating against full extraction + timing.
//
// Corrections are computed hierarchically (top-down, subtracting what
// ancestors already corrected), so one iteration removes the systematic
// component and 2-4 iterations typically reach the sizing quantization
// floor.
//
// Cost: the tree is extracted once, from a GeometryCache over its net list.
// A resize changes only the `buffer_cell` of one load record, in the net
// the buffer loads, never a routed wire, so after each sizing pass only
// those nets are refreshed in the cache and re-materialized. Each pass
// then runs one full `analyze`. The closing measurement runs only when the
// last pass resized something. The flow hands in the session's net list
// and cache, which the later stages reuse.
#pragma once

#include "extract/net_geometry.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/clock_tree.hpp"
#include "netlist/design.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"
#include "timing/tree_timing.hpp"

namespace sndr::cts {

struct RefineOptions {
  int max_iterations = 4;
  /// Stop once skew is below this fraction of the design's budget.
  double target_fraction = 0.6;
  /// Slew ceiling honored when downsizing (matches CtsOptions sizing).
  double max_output_slew = 0.80 * 80 * units::ps;
  /// Rule assumed for extraction during refinement; -1 = blanket.
  int planning_rule = -1;
  timing::AnalysisOptions analysis;
};

struct RefineResult {
  double initial_skew = 0.0;  ///< s, before refinement.
  double final_skew = 0.0;    ///< s, after.
  int resizes = 0;
  int iterations = 0;
};

/// Refines buffer sizes in place. The tree remains valid; only buffer cells
/// change (no topology or routing edits). `nets` must be
/// build_nets(tree) and `geometry` a cache over (tree, design, nets), in
/// either budget mode; on return the cache is up to date with the resized
/// cells (refresh_load_cells), bitwise equal to one built fresh.
RefineResult refine_skew(netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const netlist::NetList& nets,
                         extract::GeometryCache& geometry,
                         const RefineOptions& options = {});

/// The same refinement with its own net list and unbounded cache.
RefineResult refine_skew(netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const RefineOptions& options = {});

}  // namespace sndr::cts
