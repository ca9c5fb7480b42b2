#include "extract/batch.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace sndr::extract {

namespace {

#ifndef NDEBUG
/// Shape compatibility required by the cross-net kernels: identical piece
/// topology and load attach indices (lengths/occupancies/caps may differ).
bool same_shape(const NetGeometry& a, const NetGeometry& b) {
  if (a.piece_parent != b.piece_parent) return false;
  if (a.loads.size() != b.loads.size()) return false;
  for (std::size_t li = 0; li < a.loads.size(); ++li) {
    if (a.loads[li].rc_index != b.loads[li].rc_index) return false;
  }
  return true;
}
#endif

}  // namespace

void materialize_nets_batch(const NetLane* lanes, int n_lanes,
                            common::Arena& arena, BatchParasitics& out) {
  const NetGeometry& shape = *lanes[0].geom;
#ifndef NDEBUG
  for (int l = 1; l < n_lanes; ++l) {
    assert(same_shape(shape, *lanes[l].geom) &&
           "materialize_nets_batch: lanes must share geometry shape");
  }
#endif
  const int n = shape.rc_size();
  const int L = n_lanes;
  out.nodes = n;
  out.lanes = L;
  const std::int64_t plane = static_cast<std::int64_t>(n) * L;
  out.res = arena.alloc_zeroed<double>(plane);
  out.cap_gnd = arena.alloc_zeroed<double>(plane);
  out.cap_cpl = arena.alloc_zeroed<double>(plane);
  out.wire_cap_gnd = arena.alloc_zeroed<double>(L);
  out.wire_cap_cpl = arena.alloc_zeroed<double>(L);
  out.load_cap = arena.alloc_zeroed<double>(L);

  // Topology is shared; edge lengths are per lane (different nets).
  std::int32_t* parent = arena.alloc<std::int32_t>(n);
  double* wire_len = arena.alloc_zeroed<double>(plane);
  parent[0] = -1;
  for (int i = 0; i < shape.pieces(); ++i) {
    parent[i + 1] = shape.piece_parent[i];
  }
  out.parent = parent;
  out.wire_len = wire_len;

  double* res_per_um = arena.alloc<double>(L);
  double* cgnd_per_um = arena.alloc<double>(L);
  double* ccpl_side_per_um = arena.alloc<double>(L);
  for (int l = 0; l < L; ++l) {
    const tech::MetalLayer& layer = lanes[l].tech->clock_layer;
    const tech::RoutingRule& rule = *lanes[l].rule;
    res_per_um[l] = tech::wire_res_per_um(layer, rule);
    cgnd_per_um[l] = tech::wire_cap_gnd_per_um(layer, rule);
    ccpl_side_per_um[l] = tech::wire_cap_couple_per_um(layer, rule);
  }

  // One pass over the shared piece topology, lanes innermost; per lane the
  // scalar materialize piece loop's operations in the scalar order, fed by
  // that lane's own piece length and occupancy.
  double* __restrict__ res = out.res;
  double* __restrict__ cap_gnd = out.cap_gnd;
  double* __restrict__ cap_cpl = out.cap_cpl;
  double* __restrict__ wcg = out.wire_cap_gnd;
  double* __restrict__ wcc = out.wire_cap_cpl;
  for (int i = 0; i < shape.pieces(); ++i) {
    const std::int64_t prow =
        static_cast<std::int64_t>(shape.piece_parent[i]) * L;
    const std::int64_t arow = static_cast<std::int64_t>(i + 1) * L;
    for (int l = 0; l < L; ++l) {
      const double piece_len = lanes[l].geom->piece_len[i];
      const double occ = lanes[l].geom->piece_occ[i];
      const double cg = cgnd_per_um[l] * piece_len;
      const double cc = 2.0 * occ * ccpl_side_per_um[l] * piece_len;
      cap_gnd[prow + l] += 0.5 * cg;
      cap_cpl[prow + l] += 0.5 * cc;
      res[arow + l] = res_per_um[l] * piece_len;
      cap_gnd[arow + l] += 0.5 * cg;
      cap_cpl[arow + l] += 0.5 * cc;
      wcg[l] += cg;
      wcc[l] += cc;
      wire_len[arow + l] = piece_len;
    }
  }

  for (std::size_t li = 0; li < shape.loads.size(); ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) {
      const NetGeometry::Load& load = lanes[l].geom->loads[li];
      const double cap = load.buffer_cell >= 0
                             ? lanes[l].tech->buffers[load.buffer_cell].input_cap
                             : load.sink_cap;
      cap_gnd[row + l] += cap;
      out.load_cap[l] += cap;
    }
  }
}

NetShapeBuckets bucket_nets_by_shape(const GeometryCache& cache) {
  NetShapeBuckets out;
  out.group_of.assign(cache.net_count(), -1);
  // Signature: piece count, the parent array, a separator, then the load
  // attach indices — exact integer equality, nothing derived.
  std::map<std::vector<std::int64_t>, int> index;
  std::vector<std::int64_t> key;
  for (int id = 0; id < cache.net_count(); ++id) {
    const GeometryCache::Pinned pin = cache.pinned(id);
    const NetGeometry& g = *pin;
    key.clear();
    key.push_back(g.pieces());
    key.insert(key.end(), g.piece_parent.begin(), g.piece_parent.end());
    key.push_back(-1);
    for (const NetGeometry::Load& load : g.loads) {
      key.push_back(load.rc_index);
    }
    const auto [it, fresh] =
        index.emplace(key, static_cast<int>(out.groups.size()));
    if (fresh) out.groups.emplace_back();
    out.groups[it->second].push_back(id);
    out.group_of[id] = it->second;
  }
  return out;
}

std::vector<std::vector<int>> plan_net_batches(const NetShapeBuckets& buckets,
                                               const std::vector<int>& net_ids,
                                               int n_rules) {
  constexpr int kLanes = 32;
  const std::size_t max_nets =
      static_cast<std::size_t>(std::max(1, kLanes / std::max(1, n_rules)));
  std::vector<std::vector<int>> per_group(buckets.groups.size());
  for (std::size_t k = 0; k < net_ids.size(); ++k) {
    per_group[buckets.group_of[net_ids[k]]].push_back(static_cast<int>(k));
  }
  std::vector<std::vector<int>> batches;
  for (const std::vector<int>& group : per_group) {
    for (std::size_t at = 0; at < group.size(); at += max_nets) {
      const std::size_t end = std::min(group.size(), at + max_nets);
      batches.emplace_back(group.begin() + at, group.begin() + end);
    }
  }
  return batches;
}

void scatter_lane(const NetGeometry& geom, const BatchParasitics& batch,
                  int lane, NetParasitics& out) {
  const int n = batch.nodes;
  const int L = batch.lanes;
  out.rc.reset(n);
  RcNode* nodes = out.rc.data();
  for (int i = 0; i < n; ++i) {
    RcNode& nd = nodes[i];
    nd.parent = batch.parent[i];
    nd.res = batch.res[static_cast<std::int64_t>(i) * L + lane];
    nd.cap_gnd = batch.cap_gnd[static_cast<std::int64_t>(i) * L + lane];
    nd.cap_cpl = batch.cap_cpl[static_cast<std::int64_t>(i) * L + lane];
    nd.tree_node = geom.node_tree_node[i];
    nd.wire_len = batch.wire_len[static_cast<std::int64_t>(i) * L + lane];
    nd.occupancy = i > 0 ? geom.piece_occ[i - 1] : 0.0;
  }
  // Accumulated in the scalar materialize's per-piece order during the
  // geometry build.
  out.wirelength = geom.wirelength;
  out.wire_cap_gnd = batch.wire_cap_gnd[lane];
  out.wire_cap_cpl = batch.wire_cap_cpl[lane];
  out.load_cap = batch.load_cap[lane];
  out.load_rc_index.resize(geom.loads.size());
  for (std::size_t li = 0; li < geom.loads.size(); ++li) {
    out.load_rc_index[li] = geom.loads[li].rc_index;
  }
}

void rc_downstream_batch(int nodes, int lanes,
                         const std::int32_t* __restrict__ parent,
                         const double* __restrict__ cap_gnd,
                         const double* __restrict__ cap_cpl,
                         const double* __restrict__ miller,
                         double* __restrict__ down) {
  const std::int64_t plane = static_cast<std::int64_t>(nodes) * lanes;
  for (std::int64_t i = 0; i < plane; ++i) down[i] = 0.0;
  for (int i = nodes - 1; i >= 0; --i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * lanes;
    for (int l = 0; l < lanes; ++l) {
      down[row + l] += cap_gnd[row + l] + miller[l] * cap_cpl[row + l];
    }
    const int p = parent[i];
    if (p >= 0) {
      const std::int64_t prow = static_cast<std::int64_t>(p) * lanes;
      for (int l = 0; l < lanes; ++l) down[prow + l] += down[row + l];
    }
  }
}

void rc_elmore_batch(int nodes, int lanes,
                     const std::int32_t* __restrict__ parent,
                     const double* __restrict__ res,
                     const double* __restrict__ cap_gnd,
                     const double* __restrict__ cap_cpl,
                     const double* __restrict__ driver_res,
                     const double* __restrict__ miller,
                     double* __restrict__ down, double* __restrict__ m1) {
  rc_downstream_batch(nodes, lanes, parent, cap_gnd, cap_cpl, miller, down);
  for (int l = 0; l < lanes; ++l) m1[l] = driver_res[l] * down[l];
  for (int i = 1; i < nodes; ++i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * lanes;
    const std::int64_t prow = static_cast<std::int64_t>(parent[i]) * lanes;
    for (int l = 0; l < lanes; ++l) {
      m1[row + l] = m1[prow + l] + res[row + l] * down[row + l];
    }
  }
}

void rc_moments_batch(int nodes, int lanes,
                      const std::int32_t* __restrict__ parent,
                      const double* __restrict__ res,
                      const double* __restrict__ cap_gnd,
                      const double* __restrict__ cap_cpl,
                      const double* __restrict__ driver_res,
                      const double* __restrict__ miller,
                      double* __restrict__ down,
                      double* __restrict__ subtree,
                      double* __restrict__ m1, double* __restrict__ m2) {
  const std::int64_t plane = static_cast<std::int64_t>(nodes) * lanes;
  for (std::int64_t i = 0; i < plane; ++i) {
    down[i] = 0.0;
    subtree[i] = 0.0;
  }
  for (int i = nodes - 1; i >= 0; --i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * lanes;
    for (int l = 0; l < lanes; ++l) {
      down[row + l] += cap_gnd[row + l] + miller[l] * cap_cpl[row + l];
    }
    const int p = parent[i];
    if (p >= 0) {
      const std::int64_t prow = static_cast<std::int64_t>(p) * lanes;
      for (int l = 0; l < lanes; ++l) {
        down[prow + l] += down[row + l];
        subtree[prow + l] +=
            subtree[row + l] + res[row + l] * down[row + l] * down[row + l];
      }
    }
  }
  for (int l = 0; l < lanes; ++l) {
    m1[l] = driver_res[l] * down[l];
    m2[l] = driver_res[l] * (subtree[l] + m1[l] * down[l]);
  }
  for (int i = 1; i < nodes; ++i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * lanes;
    const std::int64_t prow = static_cast<std::int64_t>(parent[i]) * lanes;
    for (int l = 0; l < lanes; ++l) {
      m1[row + l] = m1[prow + l] + res[row + l] * down[row + l];
      m2[row + l] = m2[prow + l] +
                    res[row + l] * (subtree[row + l] + m1[row + l] * down[row + l]);
    }
  }
}

}  // namespace sndr::extract
