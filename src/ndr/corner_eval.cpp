#include "ndr/corner_eval.hpp"

#include <optional>

#include "common/arena.hpp"
#include "common/parallel.hpp"
#include "extract/batch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sndr::ndr {

namespace {

template <typename Metric>
int worst_index(const std::vector<CornerResult>& corners, Metric metric) {
  int worst = -1;
  double value = -1.0;
  for (int i = 0; i < static_cast<int>(corners.size()); ++i) {
    const double v = metric(corners[i].eval);
    if (v > value) {
      value = v;
      worst = i;
    }
  }
  return worst;
}

}  // namespace

int MultiCornerReport::worst_slew_corner() const {
  return worst_index(corners, [](const FlowEvaluation& e) {
    return e.timing.max_slew;
  });
}

int MultiCornerReport::worst_skew_corner() const {
  return worst_index(corners, [](const FlowEvaluation& e) {
    return e.timing.skew();
  });
}

int MultiCornerReport::worst_em_corner() const {
  return worst_index(corners, [](const FlowEvaluation& e) {
    return e.em.worst_density;
  });
}

int MultiCornerReport::worst_power_corner() const {
  return worst_index(corners, [](const FlowEvaluation& e) {
    return e.power.total_power;
  });
}

MultiCornerReport evaluate_corners(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const RuleAssignment& assignment,
    const std::vector<tech::Corner>& corners,
    const timing::AnalysisOptions& options,
    const extract::GeometryCache* geometry) {
  SNDR_TRACE_SPAN("evaluate_corners");
  SNDR_COUNTER_ADD("ndr.corner_signoffs", 1);
  SNDR_COUNTER_ADD("ndr.corners_evaluated",
                   static_cast<std::int64_t>(corners.size()));
  // Geometry is corner-invariant: derating touches electrical coefficients
  // only, never routed paths or congestion. Build the cache once (unless
  // the caller shares theirs) and every corner materializes from it.
  std::optional<extract::GeometryCache> local;
  if (geometry == nullptr) {
    local.emplace(tree, design, nets);
    geometry = &*local;
  }
  const int n_corners = static_cast<int>(corners.size());
  std::vector<tech::Technology> cornered;
  cornered.reserve(corners.size());
  for (const tech::Corner& corner : corners) {
    cornered.push_back(tech::apply_corner(tech, corner));
  }

  // Extraction is hoisted out of the per-corner evaluations: the derated
  // clones are lanes of one batched materialize over the net's geometry, so
  // every net's piece arrays are walked once TOTAL instead of once per
  // corner, and each lane is scattered into that corner's parasitics slot —
  // bit-identical to the extract_all each corner used to run (pinned by
  // tests/batch_kernel_test.cpp).
  std::vector<std::vector<extract::NetParasitics>> corner_par(
      static_cast<std::size_t>(n_corners));
  for (auto& p : corner_par) p.resize(static_cast<std::size_t>(nets.size()));
  SNDR_COUNTER_ADD("extract.corner_batch.nets",
                   static_cast<std::int64_t>(nets.size()));
  SNDR_COUNTER_ADD("extract.corner_batch.lanes",
                   static_cast<std::int64_t>(n_corners));
  common::parallel_for(nets.size(), /*grain=*/16,
                       /*est_us_per_item=*/1.0 * n_corners,
                       [&](std::int64_t i) {
    const netlist::Net& net = nets.nets[static_cast<std::size_t>(i)];
    const extract::GeometryCache::Pinned pin = geometry->pinned(net.id);
    const extract::NetGeometry& geom = *pin;
    thread_local common::Arena arena;
    arena.reset();
    extract::NetLane* lanes =
        arena.alloc<extract::NetLane>(static_cast<std::size_t>(n_corners));
    for (int c = 0; c < n_corners; ++c) {
      lanes[c] = {&geom, &cornered[c], &cornered[c].rules[assignment[net.id]]};
    }
    extract::BatchParasitics bp;
    extract::materialize_nets_batch(lanes, n_corners, arena, bp);
    for (int c = 0; c < n_corners; ++c) {
      extract::scatter_lane(geom, bp, c, corner_par[c][i]);
    }
  });

  // One task per corner for the rest of the signoff stack; corners share
  // nothing mutable. Nested parallel loops inside the evaluation degrade
  // to serial on pool workers (see common/thread_pool.hpp), which is the
  // right shape here: corners are the coarsest independent unit of work.
  MultiCornerReport rep;
  rep.corners.resize(corners.size());
  common::parallel_for(
      static_cast<std::int64_t>(corners.size()), /*grain=*/1,
      /*est_us_per_item=*/5000.0, [&](std::int64_t i) {
        rep.corners[i].corner = corners[static_cast<std::size_t>(i)];
        rep.corners[i].eval = evaluate_with_parasitics(
            tree, design, cornered[static_cast<std::size_t>(i)], nets,
            assignment, corner_par[static_cast<std::size_t>(i)], *geometry,
            options);
      });
  return rep;
}

}  // namespace sndr::ndr
