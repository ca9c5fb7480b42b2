// sndr — command-line driver for the smart-NDR clock power flow.
//
//   sndr generate --sinks N [--dist uniform|clustered|mixed] [--seed S]
//                 --out design.txt
//       Emit a synthetic design file.
//
//   sndr run [--config flow.conf] --design design.txt [--tech tech.txt]
//            [--spef f] [--svg f] [--csv f] [--no-smart] [--anneal N]
//            [--corners] [--seed S] [--threads N] [--results-dir d]
//            [--memory-budget BYTES] [--checkpoint f]
//       Full staged flow (load, cts, route, nets, extract, optimize,
//       anneal?, corners?, report) on a flow::Session; optional artifact
//       exports land under --results-dir (default: results/).
//       --memory-budget caps the geometry caches (bit-identical results,
//       bounded peak memory); --checkpoint makes the anneal stage
//       resumable across runs.
//
//   sndr eval [--config flow.conf] --design design.txt --rule 2W2S
//             [--tech tech.txt] [--threads N]
//       Evaluate one uniform rule assignment (no optimization).
//
//   sndr dse [--config flow.conf] --design design.txt
//            [--dse-mode grid|refine] [--points N] [--dse-out d]
//            [--dse-power-weight L] [--dse-max-skew L]
//            [--dse-uncertainty-margin L]
//       Sweep the (power x skew x guardband) space and emit the Pareto
//       front (src/dse/explorer.hpp): pareto.csv, front.json, and one
//       manifest + warm-start seed per point under results/<dse-out>/.
//       Each axis L is a comma-separated value list; every sweep point is
//       bitwise-reproducible standalone via its emitted config.
//
//   sndr help   (also --help / -h, or --help after any command)
//       Print the flag reference to stdout and exit 0.
//
//   sndr version   (also --version)
//       Print the build's git describe plus the manifest and checkpoint
//       schema versions; exit 0.
//
// `run` executes through serve::execute_job — the same entry point the
// sndr_serve service uses — so a config run standalone here is bitwise
// identical to the same config run through the service.
//
// Every flow option is a config key: `--key value` on the command line and
// `key = value` lines in the --config file set the same FlowConfig, with
// CLI flags overriding file values overriding defaults.
//
// Exit codes map the typed error layer (common/status.hpp):
//   0  success (and a feasible result for run/eval)
//   1  infeasible result
//   2  usage error / invalid argument
//   3  missing file (design, tech, config)
//   4  malformed input (parse error, with a path:line diagnostic)
//   5  I/O failure writing an artifact
//   6  internal error
//   7  cancelled (cooperative cancellation, service context)
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "flow/checkpoint.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "io/design_io.hpp"
#include "obs/manifest.hpp"
#include "report/table.hpp"
#include "serve/submit.hpp"
#include "tech/units.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sndr;

struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> options;  ///< argv order.
  bool flag(const std::string& name) const {
    for (const auto& [k, v] : options) {
      if (k == name) return true;
    }
    return false;
  }
  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    for (const auto& [k, v] : options) {
      if (k == name) return v;
    }
    return fallback;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw std::runtime_error("unexpected argument '" + a + "'");
    }
    a = a.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options.emplace_back(a, argv[++i]);
    } else {
      args.options.emplace_back(a, "");
    }
  }
  return args;
}

/// The full flag reference. `sndr help` prints it to stdout (exit 0);
/// a usage error prints it to stderr (exit 2). Every FlowConfig key must
/// appear below — cli_test cross-checks this text against
/// FlowConfig::known_keys() so the help can never drift from set().
void print_usage(std::ostream& os) {
  os <<
      "usage:\n"
      "  sndr help       (or --help on any command): this text, exit 0.\n"
      "  sndr version    (or --version): git describe + manifest and\n"
      "                  checkpoint schema versions, exit 0.\n"
      "  sndr generate --sinks N [--dist uniform|clustered|mixed]\n"
      "                [--seed S] [--name NAME] --out design.txt\n"
      "  sndr run  [--config f] --design design.txt [--tech tech.txt]\n"
      "            [--spef f] [--svg f] [--csv f] [--no-smart]\n"
      "            [--anneal N] [--corners] [--seed S] [--threads N]\n"
      "            [--results-dir d] [--memory-budget BYTES]\n"
      "            [--checkpoint f] [--checkpoint-interval N]\n"
      "  sndr eval [--config f] --design design.txt --rule NAME\n"
      "            [--tech tech.txt] [--threads N]\n"
      "  sndr dse  [--config f] --design design.txt [--dse-mode grid|refine]\n"
      "            [--points N] [--dse-out d] [--dse-power-weight L]\n"
      "            [--dse-max-skew L] [--dse-uncertainty-margin L]\n"
      "\n"
      "  --config f:  read `key = value` flow options from f; command-line\n"
      "               flags override file values (file overrides defaults).\n"
      "               Every key below is settable both ways (--skew-margin\n"
      "               and `skew_margin = ...` are the same key).\n"
      "  --smart BOOL / --no-smart: run (or skip) the smart-NDR optimizer\n"
      "               stage (default on).\n"
      "  --anneal N:  refine the smart-NDR assignment with N iterations of\n"
      "               simulated annealing (--seed S seeds it; default off).\n"
      "  --corners:   add multi-corner signoff of the final assignment.\n"
      "  --threads N: evaluation-engine parallelism (default: hardware\n"
      "               concurrency; 0 = serial). Results are identical at\n"
      "               any thread count.\n"
      "  --memory-budget B: byte budget for the geometry cache (k/M/G\n"
      "               suffixes accepted, e.g. 256M; 0 = unbounded). Under\n"
      "               a budget cold per-net geometry is LRU-evicted and\n"
      "               rebuilt on demand — results stay bit-identical, only\n"
      "               peak memory changes. See DESIGN.md `Memory budget`.\n"
      "  --checkpoint f: snapshot anneal progress to f every\n"
      "               --checkpoint-interval iterations (default 5000); a\n"
      "               rerun with the same inputs resumes from the snapshot\n"
      "               bit-identically. Relative f lands in --results-dir.\n"
      "  --results-dir d: directory for generated artifacts (default\n"
      "               `results`); relative --spef/--svg/--csv/--metrics-out\n"
      "               /--trace-out paths resolve under it.\n"
      "  --metrics-out f: write a run manifest (sndr.run_manifest/2 JSON:\n"
      "               per-stage records and spans, all counters/gauges/\n"
      "               histograms, derived rates).\n"
      "  --trace-out f: write the stage spans as Chrome trace JSON\n"
      "               (load in chrome://tracing or Perfetto).\n"
      "\n"
      "search keys (same --flag / config-key duality):\n"
      "  --slew-margin F, --uncertainty-margin F, --em-margin F,\n"
      "  --skew-margin F: guard bands both the optimizer and the annealer\n"
      "  check moves under, each a fraction in [0, 1) of its constraint.\n"
      "optimizer keys:\n"
      "  --scoring models|exact_net|full_sta, --training-samples N,\n"
      "  --max-passes N, --max-repair-rounds N.\n"
      "anneal keys:\n"
      "  --anneal-t-start-frac F, --anneal-t-end-frac F (> 0; start and\n"
      "  end temperature as fractions of the mean per-net switched cap).\n"
      "sweep keys (sndr dse; also usable on run for a single point):\n"
      "  --power-weight F: objective weight on switched cap (> 0; 1.0 is\n"
      "               the bitwise-neutral default). The DSE power axis.\n"
      "  --max-skew PS: override the design's max-skew constraint, in\n"
      "               picoseconds (0 = keep the design's). The skew axis.\n"
      "  --warm-start f: seed the optimizer from an sndr.assignment_seed/1\n"
      "               file (resolved under --results-dir); DSE writes one\n"
      "               per point, making warm-started points reproducible.\n"
      "  --dse BOOL:  turn the run into a sweep (sndr dse sets this).\n"
      "  --dse-mode grid|refine: full Cartesian grid, or adaptive\n"
      "               refinement that bisects the largest front gap.\n"
      "  --dse-points N (= --points): refine-mode point budget\n"
      "               (default: 2x the corner count).\n"
      "  --dse-out d: sweep artifact directory under --results-dir\n"
      "               (default `dse`): pareto.csv, front.json, sweep.ck,\n"
      "               per-point manifests and seeds.\n"
      "  --dse-power-weight L, --dse-max-skew L,\n"
      "  --dse-uncertainty-margin L: comma-separated axis value lists\n"
      "               (e.g. 0.5,1.0,2.0); an empty axis uses the matching\n"
      "               scalar key as a single grid line.\n"
      "\n"
      "exit codes: 0 ok, 1 infeasible, 2 usage, 3 missing file,\n"
      "            4 parse error, 5 io error, 6 internal, 7 cancelled\n";
}

int usage() {
  print_usage(std::cerr);
  return 2;
}

int exit_code(const common::Status& status) {
  switch (status.code()) {
    case common::StatusCode::kOk: return 0;
    case common::StatusCode::kInvalidArgument: return 2;
    case common::StatusCode::kNotFound: return 3;
    case common::StatusCode::kParseError: return 4;
    case common::StatusCode::kIoError: return 5;
    case common::StatusCode::kInternal: return 6;
    case common::StatusCode::kCancelled: return 7;
  }
  return 6;
}

int fail(const common::Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return exit_code(status);
}

/// Flags every command accepts on top of its own set.
const std::vector<std::string>& common_flags() {
  static const std::vector<std::string> flags = {
      "config", "metrics-out", "trace-out", "seed", "threads"};
  return flags;
}

common::Status check_known_flags(const Args& args,
                                 std::vector<std::string> allowed) {
  for (const std::string& f : common_flags()) allowed.push_back(f);
  // Flags and config keys share spellings up to hyphen/underscore
  // (FlowConfig::set normalizes the same way).
  for (std::string& a : allowed) std::replace(a.begin(), a.end(), '-', '_');
  for (const auto& [raw_key, value] : args.options) {
    std::string key = raw_key;
    std::replace(key.begin(), key.end(), '-', '_');
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      return common::Status::InvalidArgument("unknown flag '--" + raw_key +
                                             "' for '" + args.command + "'");
    }
  }
  return common::Status::Ok();
}

/// FlowConfig from --config file (if any) then CLI flags, in that order —
/// CLI wins. `extra_passthrough` names flags handled outside FlowConfig.
common::Status build_config(const Args& args, int argc, char** argv,
                            const std::vector<std::string>& passthrough,
                            flow::FlowConfig& config) {
  const std::string config_path = args.get("config");
  if (!config_path.empty()) {
    if (common::Status s = config.from_file(config_path); !s.ok()) return s;
  }
  for (const auto& [key, value] : args.options) {
    if (key == "config") continue;
    if (std::find(passthrough.begin(), passthrough.end(), key) !=
        passthrough.end()) {
      continue;
    }
    if (key == "no-smart") {
      if (common::Status s = config.set("smart", "false"); !s.ok()) return s;
      continue;
    }
    if (common::Status s = config.set(key, value); !s.ok()) return s;
  }
  config.tool = "sndr_cli";
  config.command = args.command;
  for (int i = 2; i < argc; ++i) config.raw_args.emplace_back(argv[i]);
  return common::Status::Ok();
}

void ensure_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
}

int cmd_generate(const Args& args) {
  workload::DesignSpec spec;
  spec.num_sinks = std::stoi(args.get("sinks", "1024"));
  spec.seed = std::stoull(args.get("seed", "1"));
  const std::string dist = args.get("dist", "uniform");
  if (dist == "clustered") {
    spec.dist = workload::SinkDistribution::kClustered;
  } else if (dist == "mixed") {
    spec.dist = workload::SinkDistribution::kMixed;
  } else if (dist != "uniform") {
    return fail(common::Status::InvalidArgument("unknown --dist '" + dist +
                                                "'"));
  }
  spec.name = args.get("name", "generated");
  const std::string out = args.get("out");
  if (out.empty()) {
    return fail(common::Status::InvalidArgument("generate needs --out"));
  }
  try {
    io::write_design_file(out, workload::make_design(spec));
  } catch (...) {
    return fail(common::classify_exception(common::StatusCode::kIoError));
  }
  std::cout << "wrote " << out << " (" << spec.num_sinks << " sinks, "
            << dist << ")\n";
  return 0;
}

void print_loaded(const serve::JobOutcome& outcome) {
  std::cout << outcome.design_name << ": " << outcome.sinks << " sinks, "
            << outcome.buffers << " buffers, " << outcome.nets << " nets, "
            << units::to_mm(outcome.wirelength) << " mm clock wire\n\n";
}

int cmd_run(const Args& args, int argc, char** argv) {
  // No passthrough flags: --no-smart is translated inside build_config
  // (it must not be listed here, or the passthrough skip would swallow it
  // before the translation runs).
  flow::FlowConfig config;
  if (common::Status s = build_config(args, argc, argv, {}, config);
      !s.ok()) {
    return fail(s);
  }

  // The standalone CLI is a thin client over the same execute_job entry
  // point the service dispatches through (no shared cache here: one run,
  // nothing to share).
  const flow::FlowConfig cfg = config;  // kept for artifact path echoes.
  const serve::JobOutcome outcome =
      serve::execute_job(std::move(config), nullptr);
  if (!outcome.status.ok() || !outcome.result) return fail(outcome.status);
  const flow::FlowResult& result = *outcome.result;

  print_loaded(outcome);
  result.table.print(std::cout);
  if (result.smart) {
    // Nets whose final rule (annealed when --anneal ran) is not the
    // blanket's. Commits overcount: repair can revert them all.
    const ndr::RuleAssignment& final_rules = *result.final_assignment();
    int changed = 0;
    for (std::size_t i = 0; i < final_rules.size(); ++i) {
      if (final_rules[i] != result.blanket_eval.assignment[i]) ++changed;
    }
    std::cout << "\nsmart vs blanket: "
              << report::fmt_pct(result.final_eval().power.total_power /
                                     result.blanket_eval.power.total_power -
                                 1.0)
              << " power, " << changed << " rule changes\n";
  }
  if (result.corners) {
    std::cout << (result.corners->feasible()
                      ? "corners: feasible at every corner\n"
                      : "corners: INFEASIBLE at some corner\n");
  }
  // The report stage writes the SPEF and SVG views of the optimized
  // assignment only when the smart optimizer ran.
  const std::string none;
  for (const std::string& out :
       {result.smart ? cfg.spef_out : none, result.smart ? cfg.svg_out : none,
        cfg.csv_out, cfg.metrics_out, cfg.trace_out}) {
    if (!out.empty()) std::cout << "wrote " << cfg.output_path(out) << "\n";
  }
  return result.feasible ? 0 : 1;
}

int cmd_dse(const Args& args, int argc, char** argv) {
  flow::FlowConfig config;
  if (common::Status s = build_config(args, argc, argv, {"points"}, config);
      !s.ok()) {
    return fail(s);
  }
  if (args.flag("points")) {
    if (common::Status s = config.set("dse_points", args.get("points"));
        !s.ok()) {
      return fail(s);
    }
  }
  if (common::Status s = config.set("dse", "true"); !s.ok()) return fail(s);

  // Same entry point the service's `dse` job type dispatches through.
  const std::string dse_dir = config.output_path(config.dse_out);
  const serve::JobOutcome outcome =
      serve::execute_job(std::move(config), nullptr);
  if (!outcome.status.ok() || !outcome.dse) return fail(outcome.status);
  const dse::SweepResult& sweep = *outcome.dse;

  std::cout << sweep.points.size() << " points (" << sweep.solved_points
            << " solved, " << sweep.resumed_points << " resumed, "
            << sweep.warm_started << " warm-started), front of "
            << sweep.front.size() << ":\n\n";
  report::Table t({"id", "pw", "max skew (ps)", "guardband", "P (mW)",
                   "skew (ps)", "warm from"});
  for (const int id : sweep.front) {
    const dse::PointResult& p = sweep.points[static_cast<std::size_t>(id)];
    t.add_row({std::to_string(p.id),
               report::fmt(p.settings.power_weight, 3),
               report::fmt(p.settings.max_skew_ps, 1),
               report::fmt(p.settings.uncertainty_margin, 3),
               report::fmt(units::to_mW(p.total_power), 3),
               report::fmt(units::to_ps(p.skew), 1),
               p.warm_from < 0 ? "-" : std::to_string(p.warm_from)});
  }
  t.print(std::cout);
  std::cout << "\nwrote " << dse_dir << "/pareto.csv\n"
            << "wrote " << dse_dir << "/front.json\n";
  return sweep.front.empty() ? 1 : 0;
}

int cmd_version() {
  std::cout << "sndr " << obs::git_describe() << "\n"
            << "manifest schema:   " << obs::kManifestSchema << "\n"
            << "checkpoint schema: " << flow::kCheckpointSchema << "\n";
  return 0;
}

int cmd_eval(const Args& args, int argc, char** argv) {
  flow::FlowConfig config;
  if (common::Status s = build_config(args, argc, argv, {"rule"}, config);
      !s.ok()) {
    return fail(s);
  }
  const std::string rule_name = args.get("rule");
  if (rule_name.empty()) {
    return fail(common::Status::InvalidArgument("eval needs --rule"));
  }

  flow::Session session(std::move(config));
  flow::Flow f(session);
  if (common::Status s = f.prepare(); !s.ok()) return fail(s);

  const int rule = session.technology().rules.find(rule_name);
  if (rule < 0) {
    return fail(common::Status::InvalidArgument("unknown rule '" +
                                                rule_name + "'"));
  }
  obs::ScopeBinding binding(session.obs_scope());
  const auto ev = ndr::evaluate(
      session.cts().tree, session.design(), session.technology(),
      session.nets(), ndr::assign_all(session.nets(), rule), {},
      session.geometry());
  report::Table t = flow::make_eval_table();
  flow::add_eval_row(t, rule_name, ev);
  t.print(std::cout);

  // Written here, inside the session's scope binding, so the manifest
  // snapshots this session's registry.
  const flow::FlowConfig& cfg = session.config();
  try {
    if (!cfg.metrics_out.empty()) {
      obs::RunInfo info;
      info.tool = cfg.tool;
      info.command = cfg.command;
      info.args = cfg.raw_args;
      info.threads = common::thread_count();
      info.seed = cfg.seed;
      info.stages = f.stages();
      const std::string path = cfg.output_path(cfg.metrics_out);
      ensure_parent_dir(path);
      obs::write_run_manifest(path, info);
      std::cout << "wrote " << path << "\n";
    }
    if (!cfg.trace_out.empty()) {
      const std::string path = cfg.output_path(cfg.trace_out);
      ensure_parent_dir(path);
      obs::write_chrome_trace_file(path);
      std::cout << "wrote " << path << "\n";
    }
  } catch (...) {
    return fail(common::classify_exception(common::StatusCode::kIoError));
  }
  return ev.feasible() ? 0 : 1;
}

/// Tool-level manifest for `generate` (no session, default obs scope);
/// `run` and `eval` write theirs inside the session's scope.
void write_tool_manifest(const Args& args, int argc, char** argv,
                         double wall_seconds) {
  const std::string metrics_out = args.get("metrics-out");
  const std::string trace_out = args.get("trace-out");
  if (!metrics_out.empty()) {
    obs::RunInfo info;
    info.tool = "sndr_cli";
    info.command = args.command;
    for (int i = 2; i < argc; ++i) info.args.emplace_back(argv[i]);
    info.threads = common::thread_count();
    info.seed = std::stoull(args.get("seed", "0"));
    info.wall_seconds = wall_seconds;
    obs::write_run_manifest(metrics_out, info);
    std::cout << "wrote " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    obs::write_chrome_trace_file(trace_out);
    std::cout << "wrote " << trace_out << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const Args args = parse_args(argc, argv);

    // `sndr help`, `sndr --help`, `sndr -h`, or --help after any command:
    // requested help is not an error, so stdout and exit 0 (a *wrong*
    // invocation still gets the same text on stderr with exit 2).
    if (args.command == "help" || args.command == "--help" ||
        args.command == "-h" || args.flag("help")) {
      print_usage(std::cout);
      return 0;
    }

    if (args.command == "version" || args.command == "--version") {
      return cmd_version();
    }

    if (args.command == "generate") {
      if (common::Status s = check_known_flags(
              args, {"sinks", "dist", "name", "out"});
          !s.ok()) {
        return fail(s);
      }
      const int rc = cmd_generate(args);
      write_tool_manifest(
          args, argc, argv,
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count());
      return rc;
    }
    if (args.command == "run") {
      std::vector<std::string> allowed = flow::FlowConfig::known_keys();
      allowed.push_back("no-smart");
      if (common::Status s = check_known_flags(args, std::move(allowed));
          !s.ok()) {
        return fail(s);
      }
      return cmd_run(args, argc, argv);
    }
    if (args.command == "dse") {
      std::vector<std::string> allowed = flow::FlowConfig::known_keys();
      allowed.push_back("points");
      if (common::Status s = check_known_flags(args, std::move(allowed));
          !s.ok()) {
        return fail(s);
      }
      return cmd_dse(args, argc, argv);
    }
    if (args.command == "eval") {
      if (common::Status s =
              check_known_flags(args, {"design", "tech", "rule"});
          !s.ok()) {
        return fail(s);
      }
      return cmd_eval(args, argc, argv);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
