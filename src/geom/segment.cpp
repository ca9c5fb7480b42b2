#include "geom/segment.hpp"

#include <ostream>

namespace sndr::geom {

std::ostream& operator<<(std::ostream& os, const Point& p) {
  return os << '(' << p.x << ", " << p.y << ')';
}

double path_length(const Path& path) {
  double len = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    len += manhattan(path[i - 1], path[i]);
  }
  return len;
}

std::vector<Segment> path_segments(const Path& path) {
  std::vector<Segment> segs;
  if (path.size() < 2) return segs;
  segs.reserve(path.size());
  for_each_segment(path, [&](const Segment& s) { segs.push_back(s); });
  return segs;
}

Path l_path(Point a, Point b, bool horizontal_first) {
  if (a.x == b.x || a.y == b.y) return {a, b};
  const Point corner = horizontal_first ? Point{b.x, a.y} : Point{a.x, b.y};
  return {a, corner, b};
}

Point point_at(const Path& path, double dist) {
  if (path.empty()) return {};
  if (dist <= 0.0) return path.front();
  for (std::size_t i = 1; i < path.size(); ++i) {
    const double seg_len = manhattan(path[i - 1], path[i]);
    if (dist <= seg_len) {
      if (seg_len == 0.0) return path[i];
      return lerp(path[i - 1], path[i], dist / seg_len);
    }
    dist -= seg_len;
  }
  return path.back();
}

std::pair<Path, Path> split_at(const Path& path, double dist) {
  if (path.size() < 2) return {path, path};
  dist = std::max(0.0, std::min(dist, path_length(path)));
  Path head;
  head.push_back(path.front());
  std::size_t i = 1;
  double remaining = dist;
  for (; i < path.size(); ++i) {
    const double seg_len = manhattan(path[i - 1], path[i]);
    if (remaining <= seg_len) break;
    remaining -= seg_len;
    head.push_back(path[i]);
  }
  Point cut;
  if (i >= path.size()) {
    cut = path.back();
    i = path.size() - 1;
  } else {
    const double seg_len = manhattan(path[i - 1], path[i]);
    cut = seg_len == 0.0 ? path[i] : lerp(path[i - 1], path[i], remaining / seg_len);
  }
  if (!almost_equal(head.back(), cut)) head.push_back(cut);
  Path tail;
  tail.push_back(cut);
  for (std::size_t j = i; j < path.size(); ++j) {
    if (!almost_equal(tail.back(), path[j])) tail.push_back(path[j]);
  }
  if (tail.size() < 2) tail.push_back(cut);
  if (head.size() < 2) head.push_back(cut);
  return {head, tail};
}

Path reversed(const Path& path) { return Path(path.rbegin(), path.rend()); }

Path detour_path(Point a, Point b, double length, bool horizontal_first) {
  const Path base = l_path(a, b, horizontal_first);
  const double d = path_length(base);
  const double extra = length - d;
  if (extra <= 1e-9) return base;
  // Insert a U-jog of depth extra/2 at the path midpoint, perpendicular to
  // the segment the midpoint falls on.
  auto [head, tail] = split_at(base, d / 2.0);
  const Point m = head.back();
  // Direction of the segment containing the midpoint; jog perpendicular.
  const Point before = head.size() >= 2 ? head[head.size() - 2] : m;
  const bool on_horizontal = before.y == m.y && before.x != m.x;
  const double depth = extra / 2.0;
  const Point jog = on_horizontal ? Point{m.x, m.y + depth}
                                  : Point{m.x + depth, m.y};
  Path out = head;
  out.push_back(jog);
  out.push_back(m);  // out-and-back adds exactly 2*depth of wirelength.
  for (std::size_t i = 1; i < tail.size(); ++i) out.push_back(tail[i]);
  return out;
}

}  // namespace sndr::geom
