#include "extract/net_geometry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/parallel.hpp"
#include "extract/batch.hpp"
#include "geom/segment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sndr::extract {

using netlist::ClockTree;
using netlist::Net;
using netlist::NodeKind;

NetGeometry build_net_geometry(const ClockTree& tree,
                               const netlist::Design& design, const Net& net,
                               const ExtractOptions& options) {
  NetGeometry g;
  g.node_rc.reserve(net.wires.size() + 1);
  g.node_rc.push_back({net.driver, 0});
  g.node_tree_node.push_back(-1);  // driver node, tagged like RcNode{}.

  const netlist::CongestionMap& cong = design.congestion;
  geom::Path fallback(2);  // reused buffer for pathless (direct) wires.

  // net.wires is root-first, so a wire's parent tree node is already mapped.
  for (const int v : net.wires) {
    const netlist::TreeNode& n = tree.node(v);
    const int parent_rc = g.rc_index_of(n.parent);
    if (parent_rc < 0) {
      throw std::logic_error("extract: net wires not in root-first order");
    }
    const geom::Path* path = &n.path;
    if (n.path.size() < 2) {
      fallback[0] = tree.loc(n.parent);
      fallback[1] = n.loc;
      path = &fallback;
    }

    int cur = parent_rc;
    geom::for_each_segment(*path, [&](const geom::Segment& seg) {
      const double len = seg.length();
      if (len <= 0.0) return;
      const int pieces = std::max(
          1, static_cast<int>(std::ceil(len / options.max_seg_um)));
      const double piece_len = len / pieces;
      for (int i = 0; i < pieces; ++i) {
        const geom::Point mid = geom::lerp(seg.a, seg.b, (i + 0.5) / pieces);
        const double occ = cong.valid() ? cong.occupancy_at(mid) : 0.0;
        g.piece_parent.push_back(cur);
        g.piece_len.push_back(piece_len);
        g.piece_occ.push_back(occ);
        cur = static_cast<int>(g.piece_len.size());  // new node = piece+1.
        g.node_tree_node.push_back(-1);
        g.wirelength += piece_len;
      }
    });
    g.node_tree_node[cur] = v;
    g.node_rc.push_back({v, cur});
  }

  g.loads.reserve(net.loads.size());
  for (const int load : net.loads) {
    const int rc_idx = g.rc_index_of(load);
    if (rc_idx < 0) {
      throw std::logic_error("extract: load not reached by net wires");
    }
    NetGeometry::Load l;
    l.rc_index = rc_idx;
    const netlist::TreeNode& ln = tree.node(load);
    switch (ln.kind) {
      case NodeKind::kBuffer:
        l.buffer_cell = ln.cell;
        break;
      case NodeKind::kSink:
        l.sink_cap = design.sinks.at(ln.sink).pin_cap;
        break;
      default:
        break;  // zero pin cap, like load_pin_cap().
    }
    g.loads.push_back(l);
  }

  g.postorder.resize(g.rc_size());
  for (int i = 0; i < g.rc_size(); ++i) {
    g.postorder[i] = g.rc_size() - 1 - i;  // parent-first build order.
  }
  return g;
}

void materialize(const NetGeometry& geom, const tech::Technology& tech,
                 const tech::RoutingRule& rule, NetParasitics& out) {
  const tech::MetalLayer& layer = tech.clock_layer;
  const double res_per_um = tech::wire_res_per_um(layer, rule);
  const double cgnd_per_um = tech::wire_cap_gnd_per_um(layer, rule);
  const double ccpl_side_per_um = tech::wire_cap_couple_per_um(layer, rule);

  const int n = geom.rc_size();
  out.rc.reset(n);
  RcNode* nodes = out.rc.data();
  out.wirelength = 0.0;
  out.wire_cap_gnd = 0.0;
  out.wire_cap_cpl = 0.0;
  out.load_cap = 0.0;

  // Replay of extract_net's piece loop: same operations, same order, so the
  // result is bit-identical to a fresh extraction.
  for (int i = 0; i < geom.pieces(); ++i) {
    const double piece_len = geom.piece_len[i];
    const double occ = geom.piece_occ[i];
    const double cg = cgnd_per_um * piece_len;
    const double cc = 2.0 * occ * ccpl_side_per_um * piece_len;
    const int parent = geom.piece_parent[i];
    // Pi split: half the piece cap at the near node, half at the far.
    nodes[parent].cap_gnd += 0.5 * cg;
    nodes[parent].cap_cpl += 0.5 * cc;
    RcNode& added = nodes[i + 1];
    added.parent = parent;
    added.res = res_per_um * piece_len;
    added.cap_gnd += 0.5 * cg;
    added.cap_cpl += 0.5 * cc;
    added.wire_len = piece_len;
    added.occupancy = occ;
    out.wirelength += piece_len;
    out.wire_cap_gnd += cg;
    out.wire_cap_cpl += cc;
  }
  for (int i = 0; i < n; ++i) nodes[i].tree_node = geom.node_tree_node[i];

  out.load_rc_index.resize(geom.loads.size());
  for (std::size_t li = 0; li < geom.loads.size(); ++li) {
    const NetGeometry::Load& l = geom.loads[li];
    const double cap = l.buffer_cell >= 0
                           ? tech.buffers[l.buffer_cell].input_cap
                           : l.sink_cap;
    nodes[l.rc_index].cap_gnd += cap;
    out.load_cap += cap;
    out.load_rc_index[li] = l.rc_index;
  }
}

std::size_t geometry_bytes(const NetGeometry& geom) {
  return geom.piece_parent.capacity() * sizeof(std::int32_t) +
         geom.piece_len.capacity() * sizeof(double) +
         geom.piece_occ.capacity() * sizeof(double) +
         geom.node_tree_node.capacity() * sizeof(std::int32_t) +
         geom.postorder.capacity() * sizeof(std::int32_t) +
         geom.loads.capacity() * sizeof(NetGeometry::Load) +
         geom.node_rc.capacity() * sizeof(NetGeometry::NodeRc);
}

GeometryCache::GeometryCache(const ClockTree& tree,
                             const netlist::Design& design,
                             const netlist::NetList& nets,
                             ExtractOptions options)
    : GeometryCache(tree, design, nets, /*budget_bytes=*/0, options) {}

GeometryCache::GeometryCache(const ClockTree& tree,
                             const netlist::Design& design,
                             const netlist::NetList& nets,
                             std::size_t budget_bytes, ExtractOptions options)
    : tree_(&tree),
      design_(&design),
      nets_(&nets),
      options_(options),
      budget_bytes_(budget_bytes),
      footprint_(tree, nets, design.congestion) {
  if (budgeted()) {
    slots_.resize(static_cast<std::size_t>(nets.size()));
  } else {
    build_all();
  }
}

GeometryCache::~GeometryCache() = default;

const NetShapeBuckets& GeometryCache::shape_buckets() const {
  std::lock_guard<std::mutex> lock(buckets_mu_);
  if (buckets_ == nullptr) {
    buckets_ = std::make_unique<const NetShapeBuckets>(
        bucket_nets_by_shape(*this));
  }
  return *buckets_;
}

void GeometryCache::invalidate() {
  SNDR_COUNTER_ADD("extract.geometry.invalidations", 1);
  buckets_.reset();
  if (!budgeted()) {
    build_all();
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& s : slots_) {
      if (s.pins > 0 || s.building) {
        throw std::logic_error(
            "GeometryCache::invalidate: entry pinned or building");
      }
      s = Slot{};
    }
    lru_head_ = lru_tail_ = -1;
    resident_bytes_ = 0;
  }
  footprint_ = netlist::RoutingFootprint(*tree_, *nets_, design_->congestion);
}

void GeometryCache::refresh_load_cells(int net_id) {
  const Net& net = nets_->nets.at(static_cast<std::size_t>(net_id));
  const auto refresh = [&](NetGeometry& g) {
    for (std::size_t li = 0; li < net.loads.size(); ++li) {
      const netlist::TreeNode& n = tree_->node(net.loads[li]);
      if (n.kind == NodeKind::kBuffer) g.loads[li].buffer_cell = n.cell;
    }
  };
  if (!budgeted()) {
    refresh(geoms_.at(static_cast<std::size_t>(net_id)));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slots_.at(static_cast<std::size_t>(net_id));
  if (s.building) {
    throw std::logic_error(
        "GeometryCache::refresh_load_cells: entry is building");
  }
  if (s.resident) refresh(s.geom);
}

void GeometryCache::build_all() {
  SNDR_TRACE_SPAN("geometry_build_all");
  geoms_.resize(nets_->size());
  // Same deterministic chunking as extract_all: per-slot writes only.
  common::parallel_for(nets_->size(), /*grain=*/16, /*est_us_per_item=*/3.0,
                       [&](std::int64_t i) {
    geoms_[i] = build_net_geometry(*tree_, *design_,
                                   nets_->nets[static_cast<std::size_t>(i)],
                                   options_);
  });
  builds_.fetch_add(nets_->size(), std::memory_order_relaxed);
  SNDR_COUNTER_ADD("extract.geometry.builds",
                   static_cast<std::int64_t>(nets_->size()));
  std::size_t total = 0;
  for (const NetGeometry& g : geoms_) total += geometry_bytes(g);
  resident_bytes_ = total;
  if (total > highwater_bytes_) highwater_bytes_ = total;
  if (obs::metrics_enabled()) {
    for (const NetGeometry& g : geoms_) {
      SNDR_HISTOGRAM_OBSERVE("extract.net_pieces",
                             static_cast<double>(g.pieces()));
    }
  }
}

const NetGeometry& GeometryCache::geometry(int net_id) const {
  if (budgeted()) {
    throw std::logic_error(
        "GeometryCache::geometry: budgeted cache needs pinned() access");
  }
  return geoms_.at(net_id);
}

void GeometryCache::lru_push_back(int id) const {
  Slot& s = slots_[static_cast<std::size_t>(id)];
  s.lru_prev = lru_tail_;
  s.lru_next = -1;
  if (lru_tail_ >= 0) {
    slots_[static_cast<std::size_t>(lru_tail_)].lru_next = id;
  } else {
    lru_head_ = id;
  }
  lru_tail_ = id;
}

void GeometryCache::lru_unlink(int id) const {
  Slot& s = slots_[static_cast<std::size_t>(id)];
  if (s.lru_prev >= 0) {
    slots_[static_cast<std::size_t>(s.lru_prev)].lru_next = s.lru_next;
  } else {
    lru_head_ = s.lru_next;
  }
  if (s.lru_next >= 0) {
    slots_[static_cast<std::size_t>(s.lru_next)].lru_prev = s.lru_prev;
  } else {
    lru_tail_ = s.lru_prev;
  }
  s.lru_prev = s.lru_next = -1;
}

void GeometryCache::evict_to_budget_locked() const {
  // The LRU list holds exactly the resident, unpinned entries, so eviction
  // is O(1) per drop. Pinned entries never appear here; the budget bounds
  // retained bytes, not a caller's pinned working set.
  while (resident_bytes_ > budget_bytes_ && lru_head_ >= 0) {
    const int id = lru_head_;
    lru_unlink(id);
    Slot& s = slots_[static_cast<std::size_t>(id)];
    resident_bytes_ -= s.bytes;
    s.geom = NetGeometry{};  // frees the arrays.
    s.bytes = 0;
    s.resident = false;
    ++evictions_;
  }
}

GeometryCache::Pinned GeometryCache::pinned(int net_id) const {
  if (!budgeted()) {
    // Unbounded entries are immutable for the cache's lifetime; the handle
    // carries no cache pointer, so destruction is free.
    return Pinned(nullptr, &geoms_.at(net_id), net_id);
  }
  std::unique_lock<std::mutex> lock(mu_);
  Slot& s = slots_.at(static_cast<std::size_t>(net_id));
  for (;;) {
    if (s.resident) {
      if (s.pins++ == 0) lru_unlink(net_id);
      return Pinned(this, &s.geom, net_id);
    }
    if (!s.building) break;
    // Another thread is walking this net; wait for its result instead of
    // duplicating the build.
    built_cv_.wait(lock);
  }
  s.building = true;
  lock.unlock();
  // The walk is a pure function of (tree, design, net, options), all fixed
  // while the cache lives, so a rebuilt entry is bitwise identical to the
  // evicted one — and to the unbounded mode's eager build.
  NetGeometry geom = build_net_geometry(
      *tree_, *design_, nets_->nets[static_cast<std::size_t>(net_id)],
      options_);
  builds_.fetch_add(1, std::memory_order_relaxed);
  SNDR_COUNTER_ADD("extract.geometry.builds", 1);
  lock.lock();
  s.geom = std::move(geom);
  s.bytes = geometry_bytes(s.geom);
  s.resident = true;
  s.building = false;
  s.pins = 1;
  resident_bytes_ += s.bytes;
  if (resident_bytes_ > highwater_bytes_) highwater_bytes_ = resident_bytes_;
  evict_to_budget_locked();
  built_cv_.notify_all();
  return Pinned(this, &s.geom, net_id);
}

void GeometryCache::unpin(int net_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& s = slots_[static_cast<std::size_t>(net_id)];
  if (--s.pins == 0) {
    lru_push_back(net_id);
    evict_to_budget_locked();
  }
}

void GeometryCache::Pinned::release() {
  if (cache_ != nullptr) cache_->unpin(net_id_);
  cache_ = nullptr;
  geom_ = nullptr;
}

std::size_t GeometryCache::resident_bytes() const {
  if (!budgeted()) return resident_bytes_;
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

std::size_t GeometryCache::highwater_bytes() const {
  if (!budgeted()) return highwater_bytes_;
  std::lock_guard<std::mutex> lock(mu_);
  return highwater_bytes_;
}

std::int64_t GeometryCache::evictions() const {
  if (!budgeted()) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace sndr::extract
