#include "netlist/clock_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sndr::netlist {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSource: return "source";
    case NodeKind::kBuffer: return "buffer";
    case NodeKind::kSteiner: return "steiner";
    case NodeKind::kSink: return "sink";
  }
  return "?";
}

int ClockTree::add_node(NodeKind kind, geom::Point loc, int parent) {
  if (kind == NodeKind::kSource) {
    if (root_ >= 0) throw std::logic_error("ClockTree: second source added");
  } else {
    if (parent < 0 || parent >= size()) {
      throw std::logic_error("ClockTree: node added with invalid parent");
    }
    if (nodes_[parent].kind == NodeKind::kSink) {
      throw std::logic_error("ClockTree: sink cannot have children");
    }
  }
  const int id = size();
  TreeNode n;
  n.kind = kind;
  n.loc = loc;
  n.parent = kind == NodeKind::kSource ? -1 : parent;
  nodes_.push_back(std::move(n));
  if (kind == NodeKind::kSource) {
    root_ = id;
  } else {
    nodes_[parent].children.push_back(id);
  }
  return id;
}

int ClockTree::add_source(geom::Point loc) {
  return add_node(NodeKind::kSource, loc, -1);
}

int ClockTree::add_buffer(geom::Point loc, int parent, int cell) {
  const int id = add_node(NodeKind::kBuffer, loc, parent);
  nodes_[id].cell = cell;
  return id;
}

int ClockTree::add_steiner(geom::Point loc, int parent) {
  return add_node(NodeKind::kSteiner, loc, parent);
}

int ClockTree::add_sink(geom::Point loc, int parent, int sink_index) {
  const int id = add_node(NodeKind::kSink, loc, parent);
  nodes_[id].sink = sink_index;
  return id;
}

std::span<TreeNode> ClockTree::build_nodes(int n, geom::Point source_loc) {
  if (n < 1) throw std::invalid_argument("ClockTree::build_nodes: n < 1");
  nodes_.clear();
  nodes_.resize(static_cast<std::size_t>(n));
  nodes_[0].kind = NodeKind::kSource;
  nodes_[0].loc = source_loc;
  root_ = 0;
  return nodes_;
}

void ClockTree::set_path(int id, geom::Path path) {
  TreeNode& n = nodes_.at(id);
  if (n.parent < 0) throw std::logic_error("ClockTree: root has no path");
  if (path.size() < 2 ||
      !geom::almost_equal(path.front(), nodes_[n.parent].loc, 1e-6) ||
      !geom::almost_equal(path.back(), n.loc, 1e-6)) {
    throw std::logic_error(
        "ClockTree::set_path: path must run parent.loc -> node.loc");
  }
  n.path = std::move(path);
}

void ClockTree::set_cell(int id, int cell) {
  TreeNode& n = nodes_.at(id);
  if (n.kind != NodeKind::kBuffer) {
    throw std::logic_error("ClockTree::set_cell: node is not a buffer");
  }
  n.cell = cell;
}

void ClockTree::move_node(int id, geom::Point loc) {
  TreeNode& n = nodes_.at(id);
  n.loc = loc;
  n.path.clear();
  for (const int c : n.children) nodes_[c].path.clear();
}

std::vector<int> ClockTree::topological_order() const {
  std::vector<int> order;
  if (root_ < 0) return order;
  order.reserve(nodes_.size());
  order.push_back(root_);
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const int c : nodes_[order[i]].children) order.push_back(c);
  }
  return order;
}

int ClockTree::buffer_depth(int id) const {
  int depth = 0;
  for (int v = id; v >= 0; v = nodes_[v].parent) {
    if (nodes_[v].kind == NodeKind::kBuffer) ++depth;
  }
  return depth;
}

int ClockTree::max_buffer_depth() const {
  int worst = 0;
  for (int id = 0; id < size(); ++id) {
    if (nodes_[id].kind == NodeKind::kSink) {
      worst = std::max(worst, buffer_depth(id));
    }
  }
  return worst;
}

int ClockTree::count(NodeKind kind) const {
  int n = 0;
  for (const TreeNode& node : nodes_) {
    if (node.kind == kind) ++n;
  }
  return n;
}

double ClockTree::edge_length(int id) const {
  const TreeNode& n = nodes_.at(id);
  if (n.parent < 0) return 0.0;
  if (n.path.size() >= 2) return geom::path_length(n.path);
  return geom::manhattan(nodes_[n.parent].loc, n.loc);
}

double ClockTree::total_wirelength() const {
  double len = 0.0;
  for (int id = 0; id < size(); ++id) len += edge_length(id);
  return len;
}

void ClockTree::ensure_default_paths() {
  for (const int id : topological_order()) {
    TreeNode& n = nodes_[id];
    if (n.parent < 0 || n.path.size() >= 2) continue;
    const bool horizontal_first = buffer_depth(id) % 2 == 0;
    n.path = geom::l_path(nodes_[n.parent].loc, n.loc, horizontal_first);
  }
}

void ClockTree::validate(int num_sinks) const {
  if (root_ < 0) throw std::logic_error("ClockTree: no source");
  std::vector<int> seen_sink(num_sinks, 0);
  std::vector<char> reached(nodes_.size(), 0);
  for (const int id : topological_order()) {
    reached[id] = 1;
    const TreeNode& n = nodes_[id];
    switch (n.kind) {
      case NodeKind::kSource:
        if (id != root_) throw std::logic_error("ClockTree: stray source");
        break;
      case NodeKind::kBuffer:
        if (n.cell < 0) {
          throw std::logic_error("ClockTree: buffer without a cell");
        }
        break;
      case NodeKind::kSink: {
        if (!n.children.empty()) {
          throw std::logic_error("ClockTree: sink with children");
        }
        if (n.sink < 0 || n.sink >= num_sinks) {
          throw std::logic_error("ClockTree: sink index out of range");
        }
        if (++seen_sink[n.sink] > 1) {
          throw std::logic_error("ClockTree: sink connected twice");
        }
        break;
      }
      case NodeKind::kSteiner:
        break;
    }
    if (n.path.size() >= 2) {
      if (!geom::almost_equal(n.path.front(), nodes_[n.parent].loc, 1e-6) ||
          !geom::almost_equal(n.path.back(), n.loc, 1e-6)) {
        throw std::logic_error("ClockTree: path endpoints mismatch node " +
                               std::to_string(id));
      }
    }
  }
  for (int id = 0; id < size(); ++id) {
    if (!reached[id]) {
      throw std::logic_error("ClockTree: node unreachable from source");
    }
  }
  for (int s = 0; s < num_sinks; ++s) {
    if (seen_sink[s] == 0) {
      throw std::logic_error("ClockTree: design sink " + std::to_string(s) +
                             " not connected");
    }
  }
}

}  // namespace sndr::netlist
