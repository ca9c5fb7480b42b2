// Rule-independent geometry phase of two-phase RC extraction.
//
// Everything geometric about a net — the Steiner path walk, RC piece
// subdivision, per-piece congestion occupancy, and load attach points —
// depends only on the routed tree and the congestion map, never on the
// routing rule or the process corner (corner derating scales electrical
// coefficients only). NetGeometry captures that invariant part once, as
// flattened SoA arrays; materialize() then produces NetParasitics for any
// rule in O(pieces) with no path walking, no congestion queries, and no
// heap allocation beyond warming up the caller's output buffers.
//
// Invalidation contract: a NetGeometry is stale after a tree edit (routing,
// buffer insertion, topology) or a congestion-map change. A buffer resize
// (ClockTree::set_cell) is not such an edit: it changes only the
// `buffer_cell` of one load record, in the net that buffer loads
// (NetList::net_of_edge), and GeometryCache::refresh_load_cells(net)
// brings that one entry up to date without a walk. Rule changes and corner
// derating do NOT invalidate it — one GeometryCache serves every rule and
// every derated-technology clone. Results are bit-identical to fresh
// Extractor::extract_net output (which itself runs build + materialize).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "extract/extractor.hpp"

namespace sndr::extract {

struct NetShapeBuckets;  // batch.hpp

/// Flattened rule-independent geometry of one net. RC piece i becomes RC
/// node i + 1 (node 0 is the driver), in the exact order extract_net
/// created nodes, so index order stays topological.
struct NetGeometry {
  // Per RC piece (SoA).
  std::vector<std::int32_t> piece_parent;  ///< upstream RC node index.
  std::vector<double> piece_len;           ///< um.
  std::vector<double> piece_occ;  ///< neighbor occupancy at the midpoint.

  // Per RC node.
  /// ClockTree node coinciding with each RC node, or -1 (matches the
  /// RcNode::tree_node tagging of extract_net, overwrites included).
  std::vector<std::int32_t> node_tree_node;
  /// Children-before-parents traversal order. Nodes are created parent
  /// first, so this is simply descending index order; it is materialized
  /// here so kernels over the SoA arrays need no tree walk.
  std::vector<std::int32_t> postorder;

  /// Load attach point, parallel to Net::loads. Buffer pin caps are read
  /// from the technology at materialize time (they move with corners);
  /// sink pin caps are design constants captured at build time.
  struct Load {
    std::int32_t rc_index = -1;
    std::int32_t buffer_cell = -1;  ///< tech.buffers index, or -1.
    double sink_cap = 0.0;          ///< F, used when buffer_cell < 0.
  };
  std::vector<Load> loads;

  /// Sparse (tree node, RC node index) pairs for the nodes on this net —
  /// driver first, then wires in root-first order. Deliberately NOT a
  /// dense tree-sized vector: per-net geometry must stay O(net), not
  /// O(design), or a million-net design's cache is quadratic in memory.
  struct NodeRc {
    std::int32_t tree_node = -1;
    std::int32_t rc_index = -1;
    bool operator==(const NodeRc& o) const {
      return tree_node == o.tree_node && rc_index == o.rc_index;
    }
  };
  std::vector<NodeRc> node_rc;

  /// RC node index of `tree_node`, -1 when not on this net. Linear scan —
  /// the per-net node list is short and build-time lookups walk backward
  /// from the most recent entry anyway.
  int rc_index_of(int tree_node) const {
    for (auto it = node_rc.rbegin(); it != node_rc.rend(); ++it) {
      if (it->tree_node == tree_node) return it->rc_index;
    }
    return -1;
  }

  double wirelength = 0.0;  ///< um, sum of piece lengths.

  int pieces() const { return static_cast<int>(piece_len.size()); }
  int rc_size() const { return pieces() + 1; }
};

/// Geometry phase: walks the net's routed paths once (the single walker
/// shared by cached and fresh extraction). Performs every congestion query
/// and path decomposition extraction will ever need for this tree state.
NetGeometry build_net_geometry(const netlist::ClockTree& tree,
                               const netlist::Design& design,
                               const netlist::Net& net,
                               const ExtractOptions& options = {});

/// Electrical phase: scales the captured geometry by the per-um coefficients
/// of `rule` under `tech` (pass a derated clone for corner analysis) and
/// writes the full NetParasitics into `out`, reusing its buffers. Exactly
/// the arithmetic, in exactly the order, of the historical extract_net.
void materialize(const NetGeometry& geom, const tech::Technology& tech,
                 const tech::RoutingRule& rule, NetParasitics& out);

/// Heap bytes a NetGeometry holds (vector capacities, struct excluded) —
/// the unit the GeometryCache budget is accounted in.
std::size_t geometry_bytes(const NetGeometry& geom);

/// Per-net geometry for a whole net list. Share one instance across rules,
/// corners, and evaluation call sites; rebuild via invalidate() after a
/// tree edit or congestion change, refresh one net via
/// refresh_load_cells() after a buffer resize.
///
/// Two modes, chosen at construction:
///
///  * Unbounded (budget_bytes == 0, the default): every geometry is built
///    eagerly (in parallel, with the same deterministic chunking as
///    extract_all) and stays immutable until invalidate(). geometry() and
///    pinned() are lock-free reads. `builds()` is exactly nets.size() per
///    tree/congestion state when the cache is shared properly.
///
///  * Budgeted (budget_bytes > 0): geometries build lazily on first use
///    and resident bytes are capped at the budget by LRU eviction. Access
///    goes through pinned(): a pinned entry is never evicted while the
///    handle lives (so pinned bytes may transiently exceed the budget —
///    the budget bounds what the cache RETAINS, not a caller's working
///    set). Eviction + rebuild reproduces the same NetGeometry bit for
///    bit, because build_net_geometry is a pure function of the (fixed)
///    tree, design, and options — every consumer sees results identical
///    to the unbounded mode, only the build count changes.
class GeometryCache {
 public:
  GeometryCache(const netlist::ClockTree& tree, const netlist::Design& design,
                const netlist::NetList& nets, ExtractOptions options = {});
  /// Budgeted-mode constructor; budget_bytes == 0 means unbounded.
  GeometryCache(const netlist::ClockTree& tree, const netlist::Design& design,
                const netlist::NetList& nets, std::size_t budget_bytes,
                ExtractOptions options);
  ~GeometryCache();

  /// RAII access handle: keeps the entry resident (budgeted mode) for the
  /// handle's lifetime. In unbounded mode this is a plain pointer with no
  /// release work. Movable, not copyable.
  class Pinned {
   public:
    Pinned() = default;
    Pinned(Pinned&& o) noexcept
        : cache_(o.cache_), geom_(o.geom_), net_id_(o.net_id_) {
      o.cache_ = nullptr;
      o.geom_ = nullptr;
    }
    Pinned& operator=(Pinned&& o) noexcept {
      if (this != &o) {
        release();
        cache_ = o.cache_;
        geom_ = o.geom_;
        net_id_ = o.net_id_;
        o.cache_ = nullptr;
        o.geom_ = nullptr;
      }
      return *this;
    }
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    ~Pinned() { release(); }

    const NetGeometry& operator*() const { return *geom_; }
    const NetGeometry* operator->() const { return geom_; }
    const NetGeometry* get() const { return geom_; }

   private:
    friend class GeometryCache;
    Pinned(const GeometryCache* cache, const NetGeometry* geom, int net_id)
        : cache_(cache), geom_(geom), net_id_(net_id) {}
    void release();

    const GeometryCache* cache_ = nullptr;  ///< null = nothing to unpin.
    const NetGeometry* geom_ = nullptr;
    int net_id_ = -1;
  };

  /// The one access path that works in both modes. Budgeted: builds the
  /// entry if absent (waiting out a concurrent builder of the same net),
  /// pins it, and evicts cold entries down to the budget.
  Pinned pinned(int net_id) const;

  /// Direct reference; unbounded mode only (budgeted entries can be
  /// evicted under a raw reference — throws std::logic_error there).
  const NetGeometry& geometry(int net_id) const;

  int net_count() const { return static_cast<int>(nets_->size()); }
  const ExtractOptions& options() const { return options_; }

  /// The whole tree's congestion-grid walk (see netlist::RoutingFootprint),
  /// recorded once in the constructor for every net. Always resident in
  /// both modes and not counted against the budget: routing usage, move
  /// capacity checks and net summaries read it on every call.
  const netlist::RoutingFootprint& footprint() const { return footprint_; }

  /// Every net bucketed by geometry shape (bucket_nets_by_shape), computed
  /// on the first call and kept until invalidate(): the batched row fills
  /// and predictor labelling all plan from this one partition. Thread-safe
  /// (concurrent first callers wait for one computation). A budgeted cache
  /// pins each geometry once here, on first use, never at construction. A
  /// buffer resize (refresh_load_cells) leaves every shape as it is.
  const NetShapeBuckets& shape_buckets() const;

  /// Drops every cached geometry and the shape buckets, and re-records the
  /// footprint (call after a tree edit or congestion change). Unbounded:
  /// eager re-walk. Budgeted: entries rebuild lazily; no pin may be
  /// outstanding.
  void invalidate();

  /// Re-reads the buffer cells of `net_id`'s loads from the tree (call
  /// after set_cell on a buffer that net loads). Unbounded: updates the
  /// entry in place. Budgeted: updates it if resident; an evicted entry
  /// rebuilds lazily from the current tree anyway. No walk, so builds()
  /// is unchanged, and the footprint stays as it is (a resize moves no
  /// wire). The entry must not be read concurrently, or be building.
  void refresh_load_cells(int net_id);

  /// Total per-net geometry builds since construction.
  std::int64_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  std::size_t budget_bytes() const { return budget_bytes_; }
  bool budgeted() const { return budget_bytes_ > 0; }
  /// Bytes of geometry currently held (both modes).
  std::size_t resident_bytes() const;
  /// Peak of resident_bytes over the cache's lifetime.
  std::size_t highwater_bytes() const;
  /// Entries dropped by the budget (0 in unbounded mode).
  std::int64_t evictions() const;

 private:
  /// Budgeted-mode entry. An entry is on the LRU list iff resident and
  /// unpinned; pinned or building entries are never eviction candidates.
  struct Slot {
    NetGeometry geom;
    std::size_t bytes = 0;
    int pins = 0;
    bool resident = false;
    bool building = false;
    int lru_prev = -1;
    int lru_next = -1;
  };

  void build_all();
  void lru_push_back(int id) const;
  void lru_unlink(int id) const;
  void evict_to_budget_locked() const;
  void unpin(int net_id) const;

  const netlist::ClockTree* tree_;
  const netlist::Design* design_;
  const netlist::NetList* nets_;
  ExtractOptions options_;
  std::size_t budget_bytes_ = 0;
  netlist::RoutingFootprint footprint_;
  mutable std::mutex buckets_mu_;
  mutable std::unique_ptr<const NetShapeBuckets> buckets_;

  // Unbounded mode.
  std::vector<NetGeometry> geoms_;

  // Budgeted mode (all guarded by mu_; geometries build outside the lock
  // under the slot's `building` flag).
  mutable std::mutex mu_;
  mutable std::condition_variable built_cv_;
  mutable std::vector<Slot> slots_;
  mutable int lru_head_ = -1;
  mutable int lru_tail_ = -1;
  mutable std::size_t resident_bytes_ = 0;
  mutable std::size_t highwater_bytes_ = 0;
  mutable std::int64_t evictions_ = 0;

  mutable std::atomic<std::int64_t> builds_{0};
};

}  // namespace sndr::extract
