// The buffered clock tree: the central data structure of the library.
//
// Nodes form a rooted tree. The root is the clock source; internal nodes are
// buffers or Steiner (branch) points; leaves are sinks. Every non-root node
// carries the routed path of the wire from its parent's location to its own
// (`path`), produced by the router. Electrical rule choice (the NDR) is made
// per *net*, where a net is the maximal wire region between one driver
// (source or buffer output) and the buffer inputs / sinks it reaches — see
// clock_nets.hpp.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "geom/segment.hpp"

namespace sndr::netlist {

enum class NodeKind { kSource, kBuffer, kSteiner, kSink };

const char* to_string(NodeKind kind);

struct TreeNode {
  NodeKind kind = NodeKind::kSteiner;
  geom::Point loc;
  int parent = -1;
  std::vector<int> children;
  int cell = -1;    ///< buffer-library index; kBuffer only.
  int sink = -1;    ///< Design::sinks index; kSink only.
  geom::Path path;  ///< route from parent.loc to loc; empty on the root.

  bool is_driver() const {
    return kind == NodeKind::kSource || kind == NodeKind::kBuffer;
  }
};

class ClockTree {
 public:
  ClockTree() = default;

  /// Creates the root (clock source). Must be called exactly once, first.
  int add_source(geom::Point loc);
  int add_buffer(geom::Point loc, int parent, int cell);
  int add_steiner(geom::Point loc, int parent);
  int add_sink(geom::Point loc, int parent, int sink_index);

  /// Bulk build: replaces the tree with `n` default nodes, node 0 being
  /// the root source at `source_loc`, and returns the node storage for the
  /// caller to fill in place (distinct nodes may be filled concurrently).
  /// Nothing the add_*() calls check is checked here: validate() after.
  std::span<TreeNode> build_nodes(int n, geom::Point source_loc);

  int size() const { return static_cast<int>(nodes_.size()); }
  bool empty() const { return nodes_.empty(); }
  int root() const { return root_; }
  const TreeNode& node(int id) const { return nodes_.at(id); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  geom::Point loc(int id) const { return nodes_.at(id).loc; }

  /// Replaces the routed path of the edge into `id`. The path must start at
  /// the parent's location and end at the node's location.
  void set_path(int id, geom::Path path);
  /// Changes a buffer's library cell.
  void set_cell(int id, int cell);
  /// Moves a node; clears the incident routed paths (they must be re-routed).
  void move_node(int id, geom::Point loc);

  /// Ids in root-first order (every parent precedes its children).
  std::vector<int> topological_order() const;

  /// Number of buffers on the source->node path, counting `id` itself.
  int buffer_depth(int id) const;
  int max_buffer_depth() const;

  int count(NodeKind kind) const;

  /// Total routed wirelength (um); edges with no explicit path count as the
  /// Manhattan distance between the endpoints.
  double total_wirelength() const;

  /// Length (um) of the edge from parent(id) to id.
  double edge_length(int id) const;

  /// Gives every non-root node missing a routed path a default L-shape
  /// (alternating bend orientation by depth to spread congestion).
  void ensure_default_paths();

  /// Structural validation; throws std::logic_error describing the first
  /// problem found. `num_sinks` is the design sink count: each design sink
  /// must appear exactly once as a leaf.
  void validate(int num_sinks) const;

 private:
  int add_node(NodeKind kind, geom::Point loc, int parent);

  std::vector<TreeNode> nodes_;
  int root_ = -1;
};

}  // namespace sndr::netlist
