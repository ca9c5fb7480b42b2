// Staged flow runner: the full smart-NDR pipeline as named stages.
//
//   load -> cts -> route -> nets -> extract -> optimize -> anneal?
//        -> corners? -> report
//
// Each stage runs under the session's obs scope with a trace span and a
// wall-clock record; the stage table lands in the run manifest ("stages"
// array, schema sndr.run_manifest/2) written by the report stage, so every
// run leaves a stage-by-stage execution record. The route stage reroutes,
// builds the net list and the run's one geometry cache, and refines skew
// against both; the nets and extract stages then keep them (a borrowed
// tree brings its own). Each whole-tree artifact is built once, and
// each search starts from an evaluation the flow already holds.
//
// run() is an error boundary (DESIGN.md §9): stage failures come back as
// a typed Status (load surfaces the loader's kNotFound/kParseError;
// anything thrown inside a build stage classifies as kInternal), never as
// an exception.
#pragma once

#include <chrono>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "flow/session.hpp"
#include "ndr/smart_ndr.hpp"
#include "obs/manifest.hpp"
#include "report/table.hpp"

namespace sndr::flow {

/// The signoff comparison table every run produces (one row per flow
/// variant: all-default, blanket-NDR, smart-NDR, smart+anneal, ...).
report::Table make_eval_table();
void add_eval_row(report::Table& table, const std::string& name,
                  const ndr::FlowEvaluation& eval);

struct FlowResult {
  ndr::FlowEvaluation default_eval;  ///< every net on the default rule.
  ndr::FlowEvaluation blanket_eval;  ///< every net on the blanket NDR.
  std::optional<ndr::SmartNdrResult> smart;
  std::optional<ndr::AnnealResult> anneal;
  std::optional<ndr::MultiCornerReport> corners;

  report::Table table = make_eval_table();
  bool feasible = false;  ///< final (smart/annealed) eval is signoff-clean.
  int threads_used = 0;
  double wall_seconds = 0.0;
  std::vector<obs::StageInfo> stages;
  /// Anneal iteration a checkpoint resumed from (0 = fresh start).
  int resumed_from_iteration = 0;

  /// The assignment the run settled on (annealed > smart > blanket).
  const ndr::RuleAssignment* final_assignment() const;
  const ndr::FlowEvaluation& final_eval() const;
};

class Flow {
 public:
  explicit Flow(Session& session) : session_(session) {}
  Flow(const Flow&) = delete;
  Flow& operator=(const Flow&) = delete;

  /// Runs load..extract: after success the session holds a synthesized
  /// tree, net list, and geometry cache (partial flows, `sndr eval`).
  common::Status prepare();

  /// The whole pipeline. On success the report stage has written every
  /// configured artifact under config().results_dir.
  common::Result<FlowResult> run();

  /// Stage records accumulated so far (also in FlowResult::stages).
  const std::vector<obs::StageInfo>& stages() const { return stages_; }

 private:
  /// Runs `body` as stage `name`: scope binding + trace span + timing +
  /// one StageInfo. Exceptions classify as `fallback` (kInternal for the
  /// build stages, kIoError for the artifact-writing report stage).
  common::Status stage(
      const char* name, const std::function<common::Status()>& body,
      common::StatusCode fallback = common::StatusCode::kInternal);
  void skip_stage(const char* name);

  /// The report stage. `flow_t0` is the run's start time: the manifest is
  /// written mid-stage, so it stamps wall_seconds (and a provisional
  /// "report" stage entry) itself rather than relying on records that only
  /// exist once the stage has returned.
  common::Status report(FlowResult& result,
                        std::chrono::steady_clock::time_point flow_t0);

  Session& session_;
  std::vector<obs::StageInfo> stages_;
  bool prepared_ = false;
};

}  // namespace sndr::flow
