#include "netlist/congestion.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.hpp"
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

namespace {

/// Nets per footprint block, and a block's walk cost (µs) for the
/// parallel gate.
constexpr std::size_t kNetsPerBlock = 64;
constexpr double kWalkUsPerBlock = 2.0 * kNetsPerBlock;

}  // namespace

RoutingFootprint::RoutingFootprint(const ClockTree& tree,
                                   const NetList& nets,
                                   const CongestionMap& map) {
  const std::size_t n_nets = nets.nets.size();
  net_path_.resize(n_nets + 1);
  for (std::size_t i = 0; i < n_nets; ++i) {
    net_path_[i + 1] = net_path_[i] + nets.nets[i].wires.size();
  }
  path_step_.assign(net_path_.back() + 1, 0);
  if (!map.valid()) return;

  // Each block of nets walks its wires into its own buffer, in net and
  // wire order, noting every path's step count; the counts prefix-sum into
  // the offsets and the buffers concatenate in block order. One walk per
  // wire, and the steps land exactly where a serial walk would put them.
  const std::size_t n_blocks = (n_nets + kNetsPerBlock - 1) / kNetsPerBlock;
  std::vector<std::vector<CellStep>> blocks(n_blocks);
  common::parallel_for(
      static_cast<std::int64_t>(n_blocks), 1, kWalkUsPerBlock,
      [&](std::int64_t b) {
        std::vector<CellStep>& buf = blocks[static_cast<std::size_t>(b)];
        const auto record = [&buf](int cell, double len) {
          buf.push_back({cell, len});
        };
        geom::Path link(2);  // reused buffer for pathless (direct) wires.
        const std::size_t lo = static_cast<std::size_t>(b) * kNetsPerBlock;
        const std::size_t hi = std::min(n_nets, lo + kNetsPerBlock);
        for (std::size_t net = lo; net < hi; ++net) {
          const std::vector<int>& wires = nets.nets[net].wires;
          for (std::size_t k = 0; k < wires.size(); ++k) {
            // The wire's path as the usage walk has always read it: the
            // routed path, else the straight link from its parent.
            const std::size_t before = buf.size();
            const TreeNode& n = tree.node(wires[k]);
            if (n.path.size() >= 2) {
              map.for_each_cell(n.path, record);
            } else if (n.parent >= 0) {
              link[0] = tree.loc(n.parent);
              link[1] = n.loc;
              map.for_each_cell(link, record);
            }
            path_step_[net_path_[net] + k + 1] = buf.size() - before;
          }
        }
      });
  for (std::size_t p = 1; p < path_step_.size(); ++p) {
    path_step_[p] += path_step_[p - 1];
  }
  steps_.reserve(path_step_.back());
  for (std::vector<CellStep>& buf : blocks) {
    steps_.insert(steps_.end(), buf.begin(), buf.end());
    std::vector<CellStep>().swap(buf);
  }
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
