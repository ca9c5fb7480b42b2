#include "cts/topology.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"

namespace sndr::cts {

int Topology::leaf_count() const {
  int n = 0;
  for (const TopoNode& node : nodes) {
    if (node.is_leaf()) ++n;
  }
  return n;
}

std::vector<int> Topology::fork_roots() const {
  std::vector<int> roots;
  const auto walk = [&](const auto& self, int id, int depth) -> void {
    const TopoNode& n = nodes[id];
    if (n.is_leaf()) return;
    if (depth == kForkDepth) {
      roots.push_back(id);
      return;
    }
    self(self, n.left, depth + 1);
    self(self, n.right, depth + 1);
  };
  if (root >= 0) walk(walk, root, 0);
  return roots;
}

namespace {

/// Topology build cost per sink (µs), for the parallel gate.
constexpr double kUsPerSink = 0.5;

/// One builder for both modes: the top `h_levels` levels cut the region
/// at its geometric center (hybrid H-tree), every level below splits at
/// the median (MMM; h_levels = 0 is pure MMM).
struct Builder {
  const std::vector<netlist::Sink>* sinks;
  std::vector<int> ids;  ///< sink order; a subtree permutes only its slice.
  std::vector<TopoNode>* nodes;
  int h_levels = 0;

  /// A subtree: the sinks ids[lo, hi), its id block starting at `base`,
  /// its H-tree region and its depth.
  struct Range {
    int lo;
    int hi;
    int base;
    geom::BBox region;
    int depth;
  };

  int median_split(int lo, int hi, bool split_x) {
    const int mid = lo + (hi - lo) / 2;
    std::nth_element(ids.begin() + lo, ids.begin() + mid, ids.begin() + hi,
                     [&](int a, int b) {
                       const geom::Point pa = (*sinks)[a].loc;
                       const geom::Point pb = (*sinks)[b].loc;
                       if (split_x) {
                         if (pa.x != pb.x) return pa.x < pb.x;
                       } else {
                         if (pa.y != pb.y) return pa.y < pb.y;
                       }
                       return a < b;  // deterministic tie-break.
                     });
    return mid;
  }

  /// Builds the subtree `r` into its id block and returns its root id.
  /// With `deferred`, internal subtrees at kForkDepth are queued there
  /// instead (their root id is already known from their size).
  int build(const Range& r, std::vector<Range>* deferred) {
    const int id = r.base + 2 * (r.hi - r.lo) - 2;
    if (r.hi - r.lo == 1) {
      (*nodes)[id] = TopoNode{-1, -1, ids[r.lo]};
      return id;
    }
    if (deferred != nullptr && r.depth == kForkDepth) {
      deferred->push_back(r);
      return id;
    }
    int mid = 0;
    geom::BBox left = r.region;
    geom::BBox right = r.region;
    if (r.depth < h_levels) {
      // Geometric center cut with alternating axis.
      const bool split_x = r.depth % 2 == 0;
      const double cut = split_x ? r.region.center().x : r.region.center().y;
      const auto left_of = [&](int s) {
        const geom::Point p = (*sinks)[s].loc;
        return (split_x ? p.x : p.y) <= cut;
      };
      mid = static_cast<int>(
          std::partition(ids.begin() + r.lo, ids.begin() + r.hi, left_of) -
          ids.begin());
      if (mid == r.lo || mid == r.hi) {
        // Degenerate cut (all sinks on one side): median keeps progress.
        mid = median_split(r.lo, r.hi, split_x);
      }
      const geom::Point lo = r.region.lo();
      const geom::Point hi = r.region.hi();
      if (split_x) {
        left = geom::BBox(lo.x, lo.y, cut, hi.y);
        right = geom::BBox(cut, lo.y, hi.x, hi.y);
      } else {
        left = geom::BBox(lo.x, lo.y, hi.x, cut);
        right = geom::BBox(lo.x, cut, hi.x, hi.y);
      }
    } else {
      // Axis of larger spread; median split keeps the tree balanced.
      geom::BBox box;
      for (int i = r.lo; i < r.hi; ++i) box.extend((*sinks)[ids[i]].loc);
      mid = median_split(r.lo, r.hi, box.width() >= box.height());
    }
    const int l = build({r.lo, mid, r.base, left, r.depth + 1}, deferred);
    const int rr = build(
        {mid, r.hi, r.base + 2 * (mid - r.lo) - 1, right, r.depth + 1},
        deferred);
    (*nodes)[id] = TopoNode{l, rr, -1};
    return id;
  }
};

Topology build_topology(const std::vector<netlist::Sink>& sinks,
                        const geom::BBox& region, int h_levels) {
  const int n = static_cast<int>(sinks.size());
  Topology topo;
  topo.nodes.resize(2 * static_cast<std::size_t>(n) - 1);
  Builder b;
  b.sinks = &sinks;
  b.ids.resize(sinks.size());
  std::iota(b.ids.begin(), b.ids.end(), 0);
  b.nodes = &topo.nodes;
  b.h_levels = h_levels;
  // The top splits, serially; then the fork-level subtrees, each on one
  // lane (disjoint sink slices and id blocks).
  std::vector<Builder::Range> parts;
  topo.root = b.build({0, n, 0, region, 0}, &parts);
  const double us_per_part =
      parts.empty() ? 0.0 : kUsPerSink * n / static_cast<double>(parts.size());
  common::parallel_for(static_cast<std::int64_t>(parts.size()), 1,
                       us_per_part, [&](std::int64_t i) {
                         b.build(parts[static_cast<std::size_t>(i)], nullptr);
                       });
  return topo;
}

}  // namespace

Topology build_topology_mmm(const std::vector<netlist::Sink>& sinks) {
  if (sinks.empty()) {
    throw std::invalid_argument("build_topology_mmm: no sinks");
  }
  return build_topology(sinks, geom::BBox{}, 0);
}

Topology build_topology_hybrid(const std::vector<netlist::Sink>& sinks,
                               const geom::BBox& core, int htree_levels) {
  if (sinks.empty()) {
    throw std::invalid_argument("build_topology_hybrid: no sinks");
  }
  geom::BBox region = core;
  if (region.empty()) {
    for (const netlist::Sink& s : sinks) region.extend(s.loc);
  }
  return build_topology(sinks, region, std::max(0, htree_levels));
}

}  // namespace sndr::cts
