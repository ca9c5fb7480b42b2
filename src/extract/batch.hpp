// Lane-batched electrical phase of two-phase extraction.
//
// The optimizer's rule sweep and memo warm-up, predictor labelling and
// corner signoff all score NetGeometry under several electrical contexts.
// One batch is a list of lanes, each a (net geometry, technology, rule)
// triple over SAME-SHAPED geometries (see bucket_nets_by_shape): a rule
// sweep is R lanes on one geometry, corner signoff is C derated technology
// clones on one geometry, a warm-row prefetch is nets × rules. The kernels
// walk the shared piece topology once with the lane loop innermost; the
// planes are laid out node-major × lane-minor (plane[node * lanes + lane]),
// so the inner loop is a unit-stride streak the compiler auto-vectorizes.
//
// Determinism contract (non-negotiable, inherited from PR 1/2): for every
// lane, the sequence of floating-point operations applied to that lane's
// values is EXACTLY the scalar kernel's sequence — the batch only
// interleaves independent lanes, it never reassociates within one. Batched
// results are therefore bit-identical to running materialize() /
// rc_moments() per lane, which remain the reference implementation.
// tests/batch_kernel_test.cpp and tests/net_batch_test.cpp pin this per
// (net, rule, corner).
//
// All scratch comes from a caller-provided common::Arena: plane pointers
// returned here are valid until the arena is reset (typically once per
// batch), so a warm per-thread arena makes the whole batched evaluation
// allocation-free.
#pragma once

#include <cstdint>
#include <vector>

#include "common/arena.hpp"
#include "extract/net_geometry.hpp"

namespace sndr::extract {

/// One lane of a batched evaluation: a (net geometry, electrical context)
/// pair. All lanes of one call must share the same geometry SHAPE —
/// identical piece_parent arrays and identical load rc_index arrays (see
/// bucket_nets_by_shape) — so the RC kernels can run off one shared parent
/// array while piece lengths, occupancies, and load caps stay per lane.
/// Lanes may repeat a geometry: a one-net rule sweep or corner batch is a
/// batch whose lanes all point at the same net.
struct NetLane {
  const NetGeometry* geom = nullptr;
  const tech::Technology* tech = nullptr;
  const tech::RoutingRule* rule = nullptr;
};

/// Per-lane R/C planes of one batch, node-major × lane-minor. Node 0 is the
/// driver (res row zero), node i+1 corresponds to geometry piece i — the
/// same indexing as the scalar RcTree. Plane storage lives in the arena
/// passed to materialize_nets_batch; the struct itself is just the view.
struct BatchParasitics {
  int nodes = 0;
  int lanes = 0;

  // [nodes × lanes] planes.
  double* res = nullptr;
  double* cap_gnd = nullptr;
  double* cap_cpl = nullptr;
  const double* wire_len = nullptr;  ///< um of the parent edge, 0 at node 0.

  /// [nodes] shared topology (an arena copy so kernels never touch the
  /// NetGeometry vectors): parent node, -1 for node 0.
  const std::int32_t* parent = nullptr;

  // [lanes] totals, same accumulation order as the scalar materialize.
  double* wire_cap_gnd = nullptr;
  double* wire_cap_cpl = nullptr;
  double* load_cap = nullptr;

  std::int64_t at(int node, int lane) const {
    return static_cast<std::int64_t>(node) * lanes + lane;
  }
};

/// Electrical phase for all lanes in one pass over the shared piece
/// topology, lane loop innermost; per lane bit-identical to materialize(
/// *lanes[l].geom, *lanes[l].tech, *lanes[l].rule, out). Plane storage is
/// carved from `arena` (which must outlive the use of `out`; nothing is
/// reset here). All lanes must be shape-compatible (asserted in debug
/// builds).
void materialize_nets_batch(const NetLane* lanes, int n_lanes,
                            common::Arena& arena, BatchParasitics& out);

/// Copies one lane out into scalar NetParasitics, bit-identical to a scalar
/// materialize of that lane; `geom` is the lane's geometry. Used by corner
/// signoff to feed the per-corner whole-tree evaluators from one batch.
void scatter_lane(const NetGeometry& geom, const BatchParasitics& batch,
                  int lane, NetParasitics& out);

/// Partition of a net list into same-shape groups: `groups[g]` lists the
/// net ids whose geometries share piece topology and load attach indices
/// (first-seen order, both across and within groups), `group_of[net]` is
/// the owning group. Nets in one group can ride one batch.
struct NetShapeBuckets {
  std::vector<std::vector<int>> groups;
  std::vector<int> group_of;
};

/// Buckets every net of `cache` by geometry shape signature (piece count,
/// piece_parent array, loads' rc_index array — exact equality). Symmetric
/// clock trees collapse into a handful of buckets; degenerate shapes fall
/// into singleton groups and simply run with one net.
NetShapeBuckets bucket_nets_by_shape(const GeometryCache& cache);

/// Deterministic batch plan for scoring `net_ids` under `n_rules` rules
/// each: ids are grouped by shape bucket (group order, then input order)
/// and each group is chunked so one batch carries at most 32 lanes
/// (nets × rules), and at least one net. Batches hold POSITIONS into
/// `net_ids`. The plan depends only on its inputs, never on thread count.
std::vector<std::vector<int>> plan_net_batches(const NetShapeBuckets& buckets,
                                               const std::vector<int>& net_ids,
                                               int n_rules);

// Low-level plane kernels. `parent` is the per-node parent array
// (parent[0] == -1) and all planes are node-major × lane-minor with the
// given lane count. `miller` and `driver_res` are per-lane. Each is the
// lane-interleaved replay of the like-named scalar kernel in rc_tree.hpp:
// one descending / ascending sweep with the lane loop innermost.

/// down[i·L+l] = Miller-weighted cap downstream of (and including) node i.
void rc_downstream_batch(int nodes, int lanes, const std::int32_t* parent,
                         const double* cap_gnd, const double* cap_cpl,
                         const double* miller, double* down);

/// Downstream cap + Elmore delay (m1) for every lane.
void rc_elmore_batch(int nodes, int lanes, const std::int32_t* parent,
                     const double* res, const double* cap_gnd,
                     const double* cap_cpl, const double* driver_res,
                     const double* miller, double* down, double* m1);

/// Fused moment kernel for every lane: the scalar rc_moments two-sweep
/// schedule, lane-interleaved. All four output planes hold nodes × lanes.
void rc_moments_batch(int nodes, int lanes, const std::int32_t* parent,
                      const double* res, const double* cap_gnd,
                      const double* cap_cpl, const double* driver_res,
                      const double* miller, double* down, double* subtree,
                      double* m1, double* m2);

}  // namespace sndr::extract
