// Unified flow configuration: one struct, one `key = value` file format,
// one precedence rule.
//
// FlowConfig subsumes the per-subsystem option structs: every knob a full
// run needs is a named key here, settable from a config file
// (`from_file`) or from CLI flags (the CLI calls `set` per flag).
// Precedence is CLI > file > defaults, implemented by ordering alone —
// load the file first, then apply CLI overrides through the same set()
// path. `threads` is the one parallelism knob: the Session's ThreadBudget
// applies it at flow entry, and neither search touches the lane count.
// The guard-band margins fill one ndr::SearchContext (search_context()),
// which optimizer_options() and anneal_options() both embed.
//
// set() is the single parse point: it validates the value and returns a
// typed Status (kInvalidArgument names the key), so a typo in a config
// file and a typo on the command line produce the same diagnostic. A
// rejected value leaves the config unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "ndr/annealer.hpp"
#include "ndr/optimizer.hpp"

namespace sndr::flow {

struct FlowConfig {
  // Inputs.
  std::string design_path;
  std::string tech_path;  ///< empty = Technology::make_default_45nm().

  // Stage selection.
  bool smart = true;           ///< run the smart-NDR optimizer stage.
  int anneal_iterations = 0;   ///< > 0 enables the anneal stage.
  bool corners = false;        ///< multi-corner signoff stage.

  std::uint64_t seed = 1;
  int threads = -1;  ///< ThreadBudget semantics (-1 inherit, 0/1 serial).

  /// Byte budget of the flow's GeometryCache, which the optimizer and the
  /// annealer share (0 = unbounded). Accepts K/M/G suffixes on the
  /// `memory_budget` key ("64M"). Results are bit-identical at any budget;
  /// only peak memory and geometry rebuild counts change.
  std::size_t memory_budget_bytes = 0;

  /// Anneal checkpoint/resume. When `checkpoint` names a file (resolved
  /// under results_dir like other artifacts), the anneal stage snapshots
  /// its loop there every `checkpoint_interval` iterations and, when the
  /// file already exists, resumes from it instead of starting over — the
  /// resumed run is bitwise identical to an uninterrupted one.
  std::string checkpoint_path;
  int checkpoint_interval = 5000;

  // Guard bands shared by both searches (ndr::SearchContext::margins),
  // each a fraction of its constraint in [0, 1).
  double slew_margin = 0.05;
  double uncertainty_margin = 0.05;
  double em_margin = 0.05;
  double skew_margin = 0.10;

  // Optimizer knobs (ndr::OptimizerOptions).
  std::string scoring = "models";  ///< models | exact_net | full_sta.
  int training_samples = 400;
  int max_passes = 4;
  int max_repair_rounds = 8;

  /// Objective weight on switched capacitance (> 0). Scales the annealer's
  /// Metropolis energy (AnnealOptions::power_weight); 1.0 is the
  /// bitwise-neutral default. The DSE power axis.
  double power_weight = 1.0;

  /// Max-skew override in picoseconds (0 = keep the design's constraint).
  /// Applied after the design loads, before any analysis — one design file
  /// serves a whole skew sweep. The DSE skew axis.
  double max_skew_ps = 0.0;

  /// Warm-start seed: an `sndr.assignment_seed/1` file (resolved under
  /// results_dir) whose assignment becomes the optimizer's starting point
  /// (OptimizerOptions::initial_assignment). Part of the config on
  /// purpose: a DSE point's warm start is reproducible standalone by
  /// pointing this at the same seed file.
  std::string warm_start;

  // Anneal knobs (ndr::AnnealOptions; margins above are shared). Both
  // temperature fractions must be > 0.
  double anneal_t_start_frac = 0.5;
  double anneal_t_end_frac = 0.005;

  // DSE (design-space exploration) sweep. `dse = true` turns the run into
  // a sweep over the axis lists below (empty axis = the scalar key's
  // value, a single grid line). See src/dse/explorer.hpp.
  bool dse = false;
  std::string dse_mode = "grid";  ///< grid | refine.
  /// Refine mode's point budget (<= 0 = default: 2x the corner count).
  int dse_points = 0;
  /// Sweep artifact directory (pareto.csv, per-point manifests, seeds,
  /// sweep checkpoint), resolved under results_dir.
  std::string dse_out = "dse";
  // Axis value lists (comma-separated in config files / CLI:
  // `dse_power_weight = 0.5,1.0,2.0`). Values obey the scalar keys'
  // validation; dse_max_skew is in picoseconds like max_skew.
  std::vector<double> dse_power_weight;
  std::vector<double> dse_max_skew;
  std::vector<double> dse_uncertainty_margin;

  // Outputs. Relative artifact paths resolve under results_dir.
  std::string results_dir = "results";
  std::string spef_out;
  std::string svg_out;
  std::string csv_out;
  std::string metrics_out;  ///< run manifest (sndr.run_manifest/2 JSON).
  std::string trace_out;    ///< Chrome-trace JSON of the stage spans.

  // Manifest provenance. Not settable keys — the embedding tool fills
  // these directly (the CLI records its own name, command, and argv).
  std::string tool = "sndr";
  std::string command = "flow";
  std::vector<std::string> raw_args;

  /// Sets one key (config-file and CLI flags share this path; hyphens
  /// normalize to underscores, so --metrics-out and `metrics_out = ...`
  /// are the same key). Returns kInvalidArgument for an unknown key or an
  /// unparsable or out-of-range value, and then changes nothing.
  common::Status set(const std::string& key, const std::string& value);

  /// Sets a list-valued key from already-split values (set() reaches this
  /// by splitting on commas, so `dse_power_weight = 0.5,1.0` works in
  /// files and flags alike). Unknown keys get the same did-you-mean
  /// diagnostic as set(); scalar keys are not accepted here.
  common::Status set_list(const std::string& key,
                          const std::vector<std::string>& values);

  /// Applies every `key = value` line of `path` ('#' comments, blank
  /// lines allowed). kNotFound when the file cannot be opened;
  /// kInvalidArgument with a path:line prefix on a bad line.
  common::Status from_file(const std::string& path);

  /// The keys set() accepts, sorted — usage text and tests.
  static std::vector<std::string> known_keys();

  /// The guard bands both searches check moves under. The flow adds the
  /// session's cancel token, geometry and memo transplant before handing
  /// the context to the searches.
  ndr::SearchContext search_context() const;
  /// The per-search options, each embedding search_context().
  ndr::OptimizerOptions optimizer_options() const;
  ndr::AnnealOptions anneal_options() const;

  /// `name` placed under results_dir (absolute paths pass through).
  std::string output_path(const std::string& name) const;
};

}  // namespace sndr::flow
