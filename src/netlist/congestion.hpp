// Routing-congestion context for the clock layer.
//
// The map discretizes the core into a uniform grid. Each cell carries:
//
//  * `occupancy`  — probability in [0,1] that a track adjacent to a clock
//    wire in this cell is occupied by a (toggling) signal wire. This scales
//    the realized coupling capacitance and the crosstalk exposure of clock
//    wires crossing the cell: wider NDR spacing only pays off where
//    occupancy is high.
//  * `capacity`   — routing resource available to the clock network in the
//    cell, expressed in default-pitch track-um. A clock wire consumes
//    `pitch_mult(rule) * length` of it; the NDR optimizer must respect the
//    per-cell budget (this is why "just route everything at triple spacing"
//    is not free even though it lowers capacitance).
//
// After routing, the walk of each wire over the grid is fixed, so it is
// recorded once in a RoutingFootprint (extract::GeometryCache owns the
// tree's). Every usage total, capacity check and move update
// (route::compute_usage, AssignmentState::check_move / apply_move) reads
// the recorded steps; none of them walks a path.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"

namespace sndr::netlist {

class ClockTree;
struct NetList;

class CongestionMap {
 public:
  /// A 1x1 map with the given uniform occupancy and unlimited capacity.
  CongestionMap() = default;

  CongestionMap(geom::BBox area, int nx, int ny, double occupancy,
                double capacity_per_cell);

  /// Uniform occupancy, capacity derived from cell geometry: each cell gets
  /// `clock_track_fraction` of its total track length (cell area divided by
  /// the default routing pitch).
  static CongestionMap uniform(geom::BBox area, int nx, int ny,
                               double occupancy, double default_pitch_um,
                               double clock_track_fraction);

  bool valid() const { return nx_ > 0 && ny_ > 0; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  const geom::BBox& area() const { return area_; }
  int cell_count() const { return nx_ * ny_; }

  int cell_index(geom::Point p) const;
  geom::BBox cell_box(int idx) const;

  double occupancy_cell(int idx) const { return occupancy_.at(idx); }
  double capacity_cell(int idx) const { return capacity_.at(idx); }
  void set_occupancy_cell(int idx, double v) { occupancy_.at(idx) = v; }
  void set_capacity_cell(int idx, double v) { capacity_.at(idx) = v; }

  double occupancy_at(geom::Point p) const;

  /// Length-weighted mean occupancy along a rectilinear path.
  double avg_occupancy(const geom::Path& path) const;

  /// Calls fn(cell_index, length_um) for every (cell, in-cell length) pair a
  /// rectilinear path crosses. Lengths sum to the path length. Each segment
  /// is walked in sub-steps no longer than half a cell dimension, and each
  /// sub-step's length goes to the cell of its midpoint: exact for
  /// axis-parallel segments up to the step quantization. Allocates nothing.
  template <typename Fn>
  void for_each_cell(const geom::Path& path, Fn&& fn) const {
    const double cw = area_.width() / nx_;
    const double ch = area_.height() / ny_;
    geom::for_each_segment(path, [&](const geom::Segment& seg) {
      const double len = seg.length();
      if (len <= 0.0) return;
      const double step_limit = 0.5 * (seg.horizontal() ? cw : ch);
      const int steps = std::max(
          1, static_cast<int>(std::ceil(len / std::max(step_limit, 1e-9))));
      const double dl = len / steps;
      for (int i = 0; i < steps; ++i) {
        const double t = (i + 0.5) / steps;
        fn(cell_index(geom::lerp(seg.a, seg.b, t)), dl);
      }
    });
  }

 private:
  geom::BBox area_ = geom::BBox{0, 0, 1, 1};
  int nx_ = 1;
  int ny_ = 1;
  std::vector<double> occupancy_{0.3};
  std::vector<double> capacity_{1e18};
};

/// One step of a wire's walk over the congestion grid: the cell and the
/// wire length for_each_cell attributes to it.
struct CellStep {
  std::int32_t cell = 0;
  double len = 0.0;

  friend bool operator==(const CellStep&, const CellStep&) = default;
};

/// The grid walk of every routed wire of a net list, recorded once.
///
/// For each net, each of its wires (in Net::wires order) contributes one
/// path: the wire's routed path, or the straight {parent loc, loc} link of
/// a pathless wire. A path's steps are exactly the (cell, length) pairs
/// for_each_cell visits, in the walk's order. Steps are never merged or
/// reordered, so any order-sensitive sum over them (usage `+=`, per-cell
/// demand, occupancy weighting) reproduces the path walk bit for bit.
///
/// Stored flat (CSR): net -> wire paths -> steps. Blocks of nets walk
/// their wires concurrently, each into its own buffer; the per-path step
/// counts prefix-sum into the offsets. Stale after any wire moves
/// (a tree edit or a congestion-map change); a buffer resize moves no
/// wire. An invalid map records no steps.
class RoutingFootprint {
 public:
  RoutingFootprint(const ClockTree& tree, const NetList& nets,
                   const CongestionMap& map);

  int net_count() const { return static_cast<int>(net_path_.size()) - 1; }

  /// Number of wire paths of `net_id` (one per Net::wires entry).
  int path_count(int net_id) const {
    return static_cast<int>(net_path_[net_id + 1] - net_path_[net_id]);
  }

  /// Steps of the `k`-th wire path of `net_id`.
  std::span<const CellStep> path_steps(int net_id, int k) const {
    const std::size_t p = net_path_[net_id] + static_cast<std::size_t>(k);
    return steps(path_step_[p], path_step_[p + 1]);
  }

  /// Steps of every wire path of `net_id`, concatenated in wire order.
  std::span<const CellStep> net_steps(int net_id) const {
    return steps(path_step_[net_path_[net_id]],
                 path_step_[net_path_[net_id + 1]]);
  }

  /// Heap bytes held (vector capacities).
  std::size_t bytes() const;

  friend bool operator==(const RoutingFootprint&,
                         const RoutingFootprint&) = default;

 private:
  std::span<const CellStep> steps(std::size_t lo, std::size_t hi) const {
    return {steps_.data() + lo, hi - lo};
  }

  std::vector<std::size_t> net_path_{0};   ///< net -> first path; nets + 1.
  std::vector<std::size_t> path_step_{0};  ///< path -> first step; paths + 1.
  std::vector<CellStep> steps_;
};

/// Tracks per-cell clock routing usage against a CongestionMap's capacity.
class RoutingUsage {
 public:
  explicit RoutingUsage(const CongestionMap* map)
      : map_(map), used_(map ? map->cell_count() : 0, 0.0) {}

  /// Adds (or removes, if negative) `pitch_mult * length` usage along path.
  void add(const geom::Path& path, double pitch_mult);

  /// add() over recorded walk steps: `used += pitch_mult * len` per step,
  /// in step order — bitwise what add() does along the walked path.
  void add_steps(std::span<const CellStep> steps, double pitch_mult);

  double used_cell(int idx) const { return used_.at(idx); }

  /// Worst cell utilization used/capacity over the map (0 if empty).
  double max_utilization() const;

  /// Number of cells whose usage exceeds capacity.
  int overflow_cells() const;

  /// True if adding `pitch_mult * len` over one path's steps keeps every
  /// crossed cell within capacity. A path can cross a cell in several
  /// steps, so each cell's demand is summed over all of them (in step
  /// order, from 0.0) before it is compared. Allocates nothing.
  bool fits_steps(std::span<const CellStep> steps, double pitch_mult) const;

 private:
  const CongestionMap* map_ = nullptr;
  std::vector<double> used_;
};

}  // namespace sndr::netlist
