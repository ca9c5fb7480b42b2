// Pareto-front design-space exploration (DSE) over the flow.
//
// One optimizer run answers one point; production users ask for the
// power / skew / variation-guardband CURVE. The Explorer sweeps the
// (power_weight × max_skew × uncertainty_margin) space and emits the
// Pareto front — built as a *performance* feature: an N-point sweep costs
// far less than N independent cold runs because everything reusable is
// reused across points:
//
//   * World sharing — the technology is parsed once and the rule-impact
//     predictor is trained once (training does not depend on the swept
//     axes), exactly the serve::SharedCache contract.
//   * Geometry sharing — the axes never touch the tree, so one budgeted
//     GeometryCache (a pure function of the tree) serves every point.
//   * Memo transplant — warm exact-eval rows move between points under the
//     per-net context guard (ndr::AssignmentState::import_memo).
//   * Warm starts — each point's search is seeded from its nearest
//     already-solved neighbor's assignment, via a durable
//     `sndr.assignment_seed/1` file named in the point's own config.
//
// Reproducibility contract: every reuse channel above is either
// value-neutral (bitwise-identical results with or without it) or part of
// the point's FlowConfig (the warm-start seed file). A frontier point
// re-run standalone with its emitted config — `PointResult::config` —
// therefore reproduces the sweep's numbers bit for bit, at any thread
// count. bench/bench_dse.cpp gates both halves (speedup and identity).
//
// Modes:
//   * grid — the full Cartesian product of the axis lists, in
//     lexicographic order (power_weight outer, margin inner).
//   * refine — deterministic adaptive refinement: solve the axis-extreme
//     corners, then repeatedly bisect the config-space midpoint of the
//     adjacent non-dominated front pair with the largest normalized
//     objective-space gap (ties: lowest first-point id), until the point
//     budget is spent. Dominated points never spawn candidates — the
//     budget concentrates where the frontier is, not where it is not.
//
// Artifacts under `<results_dir>/<dse_out>/`: `pareto.csv` (all points,
// front membership flagged), `front.json` (`sndr.dse_front/1`), one
// schema-versioned run manifest and one seed file per point, and
// `sweep.ck` (`sndr.dse_sweep/2`) — an append-only sweep log: the header
// is written once and each solved point appends one block, so a killed
// sweep resumes at point granularity and the per-point durability cost
// stays O(one block). A partial trailing block (crash mid-append) is
// dropped on load and the log is compacted before the sweep continues.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "flow/config.hpp"
#include "flow/world.hpp"
#include "ndr/evaluation.hpp"
#include "ndr/predictor.hpp"
#include "obs/metrics.hpp"

namespace sndr::dse {

/// One point of the swept space. power_weight scales the annealer's
/// Metropolis energy; max_skew_ps overrides the skew constraint (0 = the
/// design's own); uncertainty_margin is the variation guardband.
struct PointSettings {
  double power_weight = 1.0;
  double max_skew_ps = 0.0;
  double uncertainty_margin = 0.05;

  bool operator==(const PointSettings& o) const {
    return power_weight == o.power_weight && max_skew_ps == o.max_skew_ps &&
           uncertainty_margin == o.uncertainty_margin;
  }
};

struct PointResult {
  int id = 0;
  PointSettings settings;
  /// Point id whose final assignment seeded this search, -1 = cold.
  int warm_from = -1;
  /// Restored from the sweep checkpoint instead of solved this run.
  bool resumed = false;
  bool feasible = false;
  bool on_front = false;

  // Signoff objectives (final_eval of the point's flow).
  double total_power = 0.0;   ///< W.
  double switched_cap = 0.0;  ///< F.
  double skew = 0.0;          ///< s.
  std::vector<double> sink_arrival;  ///< s, the bitwise-identity witness.

  ndr::RuleAssignment assignment;

  /// The exact standalone config of this point: `sndr run` with it (same
  /// results_dir, so the seed file resolves) reproduces every number above
  /// bit for bit.
  flow::FlowConfig config;
};

struct SweepResult {
  std::vector<PointResult> points;  ///< in solve order (id order).
  /// Pareto front as point ids, sorted by (power, skew, id). Never
  /// contains a point dominated by another feasible point.
  std::vector<int> front;

  /// Predictor trained by the first solved point (or the shared one
  /// passed in) — harvestable into a serve::SharedCache.
  std::shared_ptr<const ndr::RuleImpactPredictor> trained_predictor;

  int n_nets = 0;
  int solved_points = 0;    ///< solved live this run.
  int resumed_points = 0;   ///< restored from the sweep checkpoint.
  int warm_started = 0;     ///< solved points that had a warm-start seed.

  /// Accumulated metrics of every point's session plus the sweep-level
  /// dse.* series.
  obs::MetricsRegistry::Snapshot metrics;
  double wall_seconds = 0.0;
};

struct ExploreOptions {
  /// Shared immutable World for every point's session (the serve layer's
  /// lease). Null: the first point loads/trains, later points reuse its
  /// world — same sharing, locally harvested.
  const flow::World* world = nullptr;
  /// Cooperative cancellation, checked between points and threaded into
  /// every point's session.
  common::CancelToken cancel;
};

/// True iff `a` Pareto-dominates `b`: no worse on every axis (power down,
/// skew down, guardband up), strictly better on at least one. Only
/// meaningful between feasible points.
bool dominates(const PointResult& a, const PointResult& b);

/// Ids of the non-dominated feasible points, sorted by (power, skew, id).
/// Points with equal (power, skew, guardband) collapse to the lowest id.
std::vector<int> pareto_front(const std::vector<PointResult>& points);

/// Runs the sweep `base` describes (base.dse_mode, base.dse_* axes).
/// Axis lists that are empty contribute the matching scalar key's value as
/// a single grid line. Resumes from `<dse_out>/sweep.ck` when present and
/// fingerprint-compatible (kInvalidArgument otherwise — delete the file
/// to start over).
common::Result<SweepResult> explore(const flow::FlowConfig& base,
                                    const ExploreOptions& options = {});

}  // namespace sndr::dse
