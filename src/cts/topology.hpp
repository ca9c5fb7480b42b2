// Abstract clock-tree topology generation (the "connectivity" half of CTS).
//
// Uses the classic Method of Means and Medians (MMM): recursively bipartition
// the sink set through the median along the axis of larger spread. The
// result is a balanced binary topology whose leaves are design sinks; the
// embedding stage (embedding.hpp) then assigns physical merge points.
//
// Node ids are a post-order numbering fixed by subtree sizes: the subtree
// over m sinks is the id block of 2m-1 nodes [base, base + 2m - 1), its
// left subtree first, then its right, then its root (the block's last
// id). The splits above kForkDepth run serially; the disjoint subtrees
// below it, each owning its id block and its slice of the sink order, are
// built concurrently. The fork depth is a property of the tree, not of
// the lane count, so the topology is the same at any thread count.
#pragma once

#include <vector>

#include "netlist/design.hpp"

namespace sndr::cts {

/// Depth (root = 0) of the fork-level subtrees the CTS builders build
/// concurrently: at most 2^kForkDepth of them, each built whole by one
/// lane. Shared by the topology builders and the embedder.
inline constexpr int kForkDepth = 4;

struct TopoNode {
  int left = -1;
  int right = -1;
  int sink = -1;  ///< design sink index; >= 0 iff leaf.

  bool is_leaf() const { return sink >= 0; }
};

struct Topology {
  std::vector<TopoNode> nodes;
  int root = -1;

  int size() const { return static_cast<int>(nodes.size()); }
  const TopoNode& operator[](int i) const { return nodes.at(i); }

  /// Number of leaves under the root (sanity: equals the sink count).
  int leaf_count() const;

  /// The internal nodes at kForkDepth, left to right (the order a
  /// depth-first, left-first walk reaches them).
  std::vector<int> fork_roots() const;
};

/// Builds the MMM topology over all design sinks. Throws on an empty sink
/// set. Deterministic: ties are broken by sink index.
Topology build_topology_mmm(const std::vector<netlist::Sink>& sinks);

/// Hybrid H-tree topology: the top `htree_levels` levels split the *region*
/// at its geometric center with alternating cut axis (the classic H-tree
/// recursion, which yields highly regular trunks), then MMM median splits
/// take over for the irregular leaf clusters. Degenerate cuts (all sinks on
/// one side) fall back to a median split so progress is guaranteed.
Topology build_topology_hybrid(const std::vector<netlist::Sink>& sinks,
                               const geom::BBox& core, int htree_levels);

}  // namespace sndr::cts
