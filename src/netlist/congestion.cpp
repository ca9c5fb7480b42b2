#include "netlist/congestion.hpp"

#include <algorithm>
#include <stdexcept>

#include "netlist/clock_nets.hpp"

namespace sndr::netlist {

CongestionMap::CongestionMap(geom::BBox area, int nx, int ny, double occupancy,
                             double capacity_per_cell)
    : area_(area), nx_(nx), ny_(ny) {
  if (nx <= 0 || ny <= 0) {
    throw std::invalid_argument("CongestionMap: grid must be positive");
  }
  if (area.empty()) {
    throw std::invalid_argument("CongestionMap: empty area");
  }
  occupancy_.assign(static_cast<std::size_t>(nx) * ny,
                    std::clamp(occupancy, 0.0, 1.0));
  capacity_.assign(static_cast<std::size_t>(nx) * ny, capacity_per_cell);
}

CongestionMap CongestionMap::uniform(geom::BBox area, int nx, int ny,
                                     double occupancy, double default_pitch_um,
                                     double clock_track_fraction) {
  const double cell_area = (area.width() / nx) * (area.height() / ny);
  const double capacity =
      cell_area / default_pitch_um * clock_track_fraction;
  return CongestionMap(area, nx, ny, occupancy, capacity);
}

int CongestionMap::cell_index(geom::Point p) const {
  const double fx = (p.x - area_.lo().x) / std::max(area_.width(), 1e-12);
  const double fy = (p.y - area_.lo().y) / std::max(area_.height(), 1e-12);
  const int ix = std::clamp(static_cast<int>(fx * nx_), 0, nx_ - 1);
  const int iy = std::clamp(static_cast<int>(fy * ny_), 0, ny_ - 1);
  return iy * nx_ + ix;
}

geom::BBox CongestionMap::cell_box(int idx) const {
  const int ix = idx % nx_;
  const int iy = idx / nx_;
  const double w = area_.width() / nx_;
  const double h = area_.height() / ny_;
  const double x0 = area_.lo().x + ix * w;
  const double y0 = area_.lo().y + iy * h;
  return geom::BBox(x0, y0, x0 + w, y0 + h);
}

double CongestionMap::occupancy_at(geom::Point p) const {
  return occupancy_[cell_index(p)];
}

double CongestionMap::avg_occupancy(const geom::Path& path) const {
  double len = 0.0;
  double weighted = 0.0;
  for_each_cell(path, [&](int idx, double l) {
    len += l;
    weighted += l * occupancy_[idx];
  });
  if (len <= 0.0) {
    return path.empty() ? occupancy_[0] : occupancy_at(path.front());
  }
  return weighted / len;
}

RoutingFootprint::RoutingFootprint(const ClockTree& tree,
                                   const NetList& nets,
                                   const CongestionMap& map) {
  const auto record = [this](int cell, double len) {
    steps_.push_back({cell, len});
  };
  geom::Path link(2);  // reused buffer for pathless (direct) wires.
  std::size_t n_wires = 0;
  for (const Net& net : nets.nets) n_wires += net.wires.size();
  net_path_.reserve(nets.nets.size() + 1);
  path_step_.reserve(n_wires + 1);
  for (const Net& net : nets.nets) {
    for (const int v : net.wires) {
      // The wire's path as the usage walk has always read it: the routed
      // path, else the straight link from its parent.
      const TreeNode& n = tree.node(v);
      if (map.valid()) {
        if (n.path.size() >= 2) {
          map.for_each_cell(n.path, record);
        } else if (n.parent >= 0) {
          link[0] = tree.loc(n.parent);
          link[1] = n.loc;
          map.for_each_cell(link, record);
        }
      }
      path_step_.push_back(steps_.size());
    }
    net_path_.push_back(path_step_.size() - 1);
  }
  steps_.shrink_to_fit();
}

std::size_t RoutingFootprint::bytes() const {
  return net_path_.capacity() * sizeof(std::size_t) +
         path_step_.capacity() * sizeof(std::size_t) +
         steps_.capacity() * sizeof(CellStep);
}

void RoutingUsage::add(const geom::Path& path, double pitch_mult) {
  if (map_ == nullptr || !map_->valid()) return;
  map_->for_each_cell(path, [&](int idx, double len) {
    used_[idx] += pitch_mult * len;
  });
}

void RoutingUsage::add_steps(std::span<const CellStep> steps,
                             double pitch_mult) {
  if (map_ == nullptr || !map_->valid()) return;
  for (const CellStep& s : steps) used_[s.cell] += pitch_mult * s.len;
}

double RoutingUsage::max_utilization() const {
  double worst = 0.0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    const double cap = map_->capacity_cell(static_cast<int>(i));
    if (cap > 0.0) worst = std::max(worst, used_[i] / cap);
  }
  return worst;
}

int RoutingUsage::overflow_cells() const {
  int n = 0;
  for (std::size_t i = 0; i < used_.size(); ++i) {
    if (used_[i] > map_->capacity_cell(static_cast<int>(i))) ++n;
  }
  return n;
}

bool RoutingUsage::fits_steps(std::span<const CellStep> steps,
                              double pitch_mult) const {
  if (map_ == nullptr || !map_->valid()) return true;
  // Each cell is checked once, at its first step; the verdict does not
  // depend on the order cells are checked in, only each demand sum does.
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const int cell = steps[i].cell;
    bool seen = false;
    for (std::size_t j = i; j-- > 0;) {
      if (steps[j].cell == cell) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    double demand = 0.0;
    for (std::size_t j = i; j < steps.size(); ++j) {
      if (steps[j].cell == cell) demand += pitch_mult * steps[j].len;
    }
    if (used_[cell] + demand > map_->capacity_cell(cell)) return false;
  }
  return true;
}

}  // namespace sndr::netlist
