// Axis-parallel wire segments and rectilinear polyline paths.
//
// Every routed wire in the library is a chain of axis-parallel segments; the
// router guarantees rectilinearity, and extraction/EM analysis consume the
// per-segment decomposition produced here.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "geom/point.hpp"

namespace sndr::geom {

struct Segment {
  Point a;
  Point b;

  double length() const { return manhattan(a, b); }
  bool horizontal() const { return a.y == b.y; }
  bool vertical() const { return a.x == b.x; }
  bool axis_parallel() const { return horizontal() || vertical(); }
  bool degenerate() const { return a == b; }

  friend bool operator==(const Segment&, const Segment&) = default;
};

/// A rectilinear polyline path through `pts` (>= 2 points when non-empty).
using Path = std::vector<Point>;

/// Total L1 length of a path in um.
double path_length(const Path& path);

/// Calls fn(segment) for each axis-parallel segment of a path, dropping
/// degenerate links. Diagonal links (which only a buggy router would
/// produce) are decomposed into an L: horizontal first, then vertical.
/// Allocates nothing, so per-wire walks can run in hot loops.
template <typename Fn>
void for_each_segment(const Path& path, Fn&& fn) {
  for (std::size_t i = 1; i < path.size(); ++i) {
    const Point a = path[i - 1];
    const Point b = path[i];
    if (a == b) continue;
    if (a.x == b.x || a.y == b.y) {
      fn(Segment{a, b});
    } else {
      const Point corner{b.x, a.y};
      fn(Segment{a, corner});
      fn(Segment{corner, b});
    }
  }
}

/// The segments for_each_segment visits, collected in order.
std::vector<Segment> path_segments(const Path& path);

/// Builds an L-shaped path from `a` to `b`. If `horizontal_first` the path
/// runs in x first, else in y first. Collinear endpoints yield a 2-point path.
Path l_path(Point a, Point b, bool horizontal_first);

/// Point at L1 arc-length `dist` from the start of the path (clamped to the
/// path ends). Used for slicing segments and placing buffers on wires.
Point point_at(const Path& path, double dist);

/// Splits a path at L1 arc-length `dist`; returns {head, tail}. Both halves
/// share the split point. `dist` is clamped to [0, length].
std::pair<Path, Path> split_at(const Path& path, double dist);

/// Reverses a path in place-order (returns b->a for an a->b path).
Path reversed(const Path& path);

/// Builds a rectilinear path from `a` to `b` whose total length is
/// `length` >= manhattan(a, b), by inserting a U-shaped jog at the midpoint
/// of the base L-path (wire snaking, used for delay balancing). The extra
/// length is split evenly between the two legs of the jog.
Path detour_path(Point a, Point b, double length, bool horizontal_first);

}  // namespace sndr::geom
