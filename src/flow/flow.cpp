#include "flow/flow.hpp"

#include <chrono>
#include <filesystem>
#include <optional>

#include "cts/refine.hpp"
#include "flow/checkpoint.hpp"
#include "io/spef.hpp"
#include "io/svg.hpp"
#include "ndr/assignment_state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/congestion_route.hpp"
#include "tech/units.hpp"

namespace sndr::flow {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void ensure_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
}

}  // namespace

report::Table make_eval_table() {
  return report::Table({"flow", "P (mW)", "sw cap (fF)", "skew (ps)",
                        "slew (ps)", "viol s/e/u", "feasible"});
}

void add_eval_row(report::Table& table, const std::string& name,
                  const ndr::FlowEvaluation& eval) {
  table.add_row(
      {name, report::fmt(units::to_mW(eval.power.total_power), 3),
       report::fmt(units::to_fF(eval.power.switched_cap), 0),
       report::fmt(units::to_ps(eval.timing.skew()), 1),
       report::fmt(units::to_ps(eval.timing.max_slew), 1),
       std::to_string(eval.slew_violations) + "/" +
           std::to_string(eval.em_violations) + "/" +
           std::to_string(eval.uncertainty_violations),
       eval.feasible() ? "yes" : "NO"});
}

const ndr::RuleAssignment* FlowResult::final_assignment() const {
  if (anneal) return &anneal->assignment;
  if (smart) return &smart->assignment;
  return nullptr;
}

const ndr::FlowEvaluation& FlowResult::final_eval() const {
  if (anneal) return anneal->final_eval;
  if (smart) return smart->final_eval;
  return blanket_eval;
}

common::Status Flow::stage(const char* name,
                           const std::function<common::Status()>& body,
                           common::StatusCode fallback) {
  obs::ScopeBinding binding(session_.obs_scope());
  // Between-stage cancellation point: a cancel that lands while no stage
  // is running still stops the flow before the next one starts (the
  // in-stage points are the optimizer/annealer loops and the parallel
  // primitives, which unwind here as Cancelled via classify_exception).
  if (session_.cancel_token().cancelled()) {
    stages_.push_back({name, 0.0, "cancelled"});
    return common::Status::Cancelled(std::string("before stage ") + name);
  }
  const auto t0 = std::chrono::steady_clock::now();
  common::Status status;
  {
    SNDR_TRACE_SPAN(name);
    try {
      status = body();
    } catch (...) {
      status = common::classify_exception(fallback);
    }
  }
  stages_.push_back(
      {name, seconds_since(t0), status.ok() ? "ok" : status.to_string()});
  return status;
}

void Flow::skip_stage(const char* name) {
  stages_.push_back({name, 0.0, "skipped"});
}

common::Status Flow::prepare() {
  if (prepared_) return common::Status::Ok();
  session_.thread_budget().apply();

  common::Status s = stage("load", [this] { return session_.load(); });
  if (!s.ok()) return s;

  // Reuse hooks (DSE): the donated cts is already routed and
  // skew-refined, and the whole build pipeline is deterministic with no
  // dependence on the swept axes — reading it in place (session_.cts()
  // resolves to the borrowed tree) is bitwise identical to
  // re-synthesizing, at zero cost.
  if (session_.reuse().cts != nullptr) {
    skip_stage("cts");    // borrowed from the donor, read in place.
    skip_stage("route");  // already applied in the donated tree.
  } else {
    s = stage("cts", [this] {
      session_.build_cts() =
          cts::synthesize(session_.design(), session_.technology());
      return common::Status::Ok();
    });
    if (!s.ok()) return s;
    s = stage("route", [this] {
      netlist::ClockTree& tree = session_.build_cts().tree;
      route::reroute_for_congestion(tree, session_.design().congestion);
      // The routed tree's net list and the run's one geometry cache, built
      // here so skew refinement extracts from them; refinement only
      // resizes buffers, which it refreshes in the cache, so the nets and
      // extract stages keep both as they are.
      session_.nets() = netlist::build_nets(tree);
      auto geometry = std::make_unique<extract::GeometryCache>(
          tree, session_.design(), session_.nets(),
          session_.config().memory_budget_bytes, extract::ExtractOptions{});
      cts::refine_skew(tree, session_.design(), session_.technology(),
                       session_.nets(), *geometry);
      session_.set_geometry(std::move(geometry));
      return common::Status::Ok();
    });
    if (!s.ok()) return s;
  }

  // A borrowed tree comes with its net list and geometry cache
  // (Session::set_reuse enforces the set); otherwise the route stage built
  // both. The two stages stay in the record so every run lists the same
  // stages.
  s = stage("nets", [this] {
    if (session_.reuse().nets != nullptr) {
      session_.nets() = *session_.reuse().nets;
    }
    return common::Status::Ok();
  });
  if (!s.ok()) return s;
  s = stage("extract", [] { return common::Status::Ok(); });
  if (!s.ok()) return s;

  prepared_ = true;
  return common::Status::Ok();
}

common::Result<FlowResult> Flow::run() {
  const auto t0 = std::chrono::steady_clock::now();
  const FlowConfig& config = session_.config();
  FlowResult result;
  result.threads_used = session_.thread_budget().apply();

  if (common::Status s = prepare(); !s.ok()) return s;

  // Skew-axis override (DSE): tighten/relax the skew constraint AFTER the
  // tree is built, so one tree (and one geometry cache) serves a whole
  // skew sweep. Standalone runs with the same config key take exactly
  // this path, which is what makes sweep points reproducible bitwise.
  if (config.max_skew_ps > 0.0) {
    session_.design().constraints.max_skew = config.max_skew_ps * 1e-12;
  }

  const netlist::ClockTree& tree = session_.cts().tree;
  const netlist::Design& design = session_.design();
  const tech::Technology& tech = session_.technology();
  const netlist::NetList& nets = session_.nets();
  const extract::GeometryCache* geometry = session_.geometry();

  // One search context for both stages: the config's guard bands, the
  // session's cancel token, its geometry (the route stage's or the DSE
  // donor's) and the flow's one search state — value-neutral channels.
  ndr::SearchContext search = config.search_context();
  search.cancel = session_.cancel_token();
  search.geometry = geometry;

  // The flow's one search state: built in the optimize stage, lent to
  // greedy and then to the annealer, and dropped by the last search's
  // stage (or on return; no result keeps it). The binding routes whatever
  // it flushes on destruction, a cancelled search's counts included, to
  // this run's scope.
  obs::ScopeBinding state_binding(session_.obs_scope());
  std::optional<ndr::AssignmentState> state;
  // The last search hands the state's warm rows to the next DSE point.
  const auto retire_state = [&] {
    if (session_.reuse().memo_out != nullptr) {
      state->export_memo(*session_.reuse().memo_out);
    }
    state.reset();
  };

  common::Status s = stage("optimize", [&] {
    // The all-default / blanket-NDR rows are diagnostics: they never feed
    // the optimizer. A DSE warm point (donated prep) skips them — value-
    // neutral for the point's result, and the cost lands only on the
    // standalone path where a user actually reads the table.
    const bool baseline_rows =
        session_.reuse().cts == nullptr || !config.smart;
    if (config.smart) {
      state.emplace(tree, design, tech, nets, timing::AnalysisOptions{},
                    geometry);
      // DSE memo transplant: rows are adopted only where the per-net
      // context guard holds, so they are bitwise what a cold fill gives.
      if (session_.reuse().memo_in != nullptr) {
        state->import_memo(*session_.reuse().memo_in);
      }
    }
    if (baseline_rows) {
      // With a search state, the rows sign off from its memo: the first
      // warms every row in one parallel batch (so greedy's exact evals
      // never miss) and both read bitwise what extraction gives.
      const auto signoff = [&](int rule) {
        const ndr::RuleAssignment all = ndr::assign_all(nets, rule);
        return state ? ndr::evaluate(*state, all)
                     : ndr::evaluate(tree, design, tech, nets, all, {},
                                     geometry);
      };
      result.default_eval = signoff(0);
      add_eval_row(result.table, "all-default", result.default_eval);
      result.blanket_eval = signoff(tech.rules.blanket_index());
      add_eval_row(result.table, "blanket-NDR", result.blanket_eval);
    }
    if (config.smart) {
      search.state = &*state;
      ndr::OptimizerOptions o = config.optimizer_options();
      o.search = search;
      o.shared_predictor = session_.world().predictor;
      if (!config.warm_start.empty()) {
        // Warm start is part of the config: the seed file is named by a
        // key, so a standalone rerun of this exact config replays the
        // identical starting assignment.
        const std::string path = config.output_path(config.warm_start);
        common::Result<std::vector<int>> seed = load_assignment_seed(
            path, assignment_seed_fingerprint(nets.size(),
                                              tech.rules.size()));
        if (!seed.ok()) return seed.status();
        o.initial_assignment = std::move(seed).value();
      } else if (baseline_rows) {
        // Greedy starts from the blanket assignment the table row has
        // just evaluated.
        o.search.start_eval = &result.blanket_eval;
      }
      result.smart = ndr::optimize_smart_ndr(tree, design, tech, nets, o);
      add_eval_row(result.table, "smart-NDR", result.smart->final_eval);
      if (config.anneal_iterations == 0) retire_state();
    }
    return common::Status::Ok();
  });
  if (!s.ok()) return s;

  if (config.smart && config.anneal_iterations > 0) {
    s = stage("anneal", [&] {
      ndr::AnnealOptions a = config.anneal_options();
      a.search = search;
      if (!config.checkpoint_path.empty()) {
        const std::string path = config.output_path(config.checkpoint_path);
        const std::uint64_t fp = checkpoint_fingerprint(
            nets.size(), tech.rules.size(), config.seed, a.iterations);
        if (std::filesystem::exists(path)) {
          common::Result<ndr::AnnealCheckpoint> ck = load_checkpoint(path, fp);
          if (!ck.ok()) return ck.status();
          result.resumed_from_iteration = ck.value().iteration;
          a.resume = std::move(ck).value();
        }
        a.checkpoint_interval = config.checkpoint_interval;
        a.checkpoint_sink = [path, fp](const ndr::AnnealCheckpoint& ck) {
          ensure_parent_dir(path);
          const common::Status ss = save_checkpoint(path, ck, fp);
          // A failed snapshot must not kill the run it exists to protect.
          if (!ss.ok()) {
            SNDR_COUNTER_ADD("flow.checkpoint_save_failures", 1);
          }
        };
      }
      // A fresh anneal starts from greedy's result, already signed off; a
      // resumed one signs off the checkpoint's assignment itself. Either
      // way it reseeds greedy's state.
      if (!a.resume) a.search.start_eval = &result.smart->final_eval;
      result.anneal = ndr::anneal_rules(tree, design, tech, nets,
                                        result.smart->assignment, a);
      add_eval_row(result.table, "smart+anneal", result.anneal->final_eval);
      retire_state();
      return common::Status::Ok();
    });
    if (!s.ok()) return s;
  } else {
    skip_stage("anneal");
  }

  if (config.corners) {
    s = stage("corners", [&] {
      const ndr::RuleAssignment* assignment = result.final_assignment();
      result.corners = ndr::evaluate_corners(
          tree, design, tech, nets,
          assignment != nullptr
              ? *assignment
              : ndr::assign_all(nets, tech.rules.blanket_index()),
          tech::standard_corners(), {}, geometry);
      return common::Status::Ok();
    });
    if (!s.ok()) return s;
  } else {
    skip_stage("corners");
  }

  result.feasible = result.smart ? result.final_eval().feasible() : true;

  if (s = report(result, t0); !s.ok()) return s;

  result.wall_seconds = seconds_since(t0);
  result.stages = stages_;
  return result;
}

common::Status Flow::report(FlowResult& result,
                            std::chrono::steady_clock::time_point flow_t0) {
  const FlowConfig& config = session_.config();
  const auto report_t0 = std::chrono::steady_clock::now();
  return stage(
      "report",
      [&] {
        if (!config.spef_out.empty() && result.smart) {
          // Evaluations keep no parasitics: re-extract the final assignment
          // from the session cache (bit-identical by the cache contract).
          const std::string path = config.output_path(config.spef_out);
          ensure_parent_dir(path);
          const netlist::ClockTree& tree = session_.cts().tree;
          io::write_spef_file(
              path, tree, session_.design(), session_.nets(),
              extract::Extractor(session_.technology(), session_.design())
                  .extract_all(tree, session_.nets(),
                               *result.final_assignment(),
                               session_.geometry()));
        }
        if (!config.svg_out.empty() && result.smart) {
          const std::string path = config.output_path(config.svg_out);
          ensure_parent_dir(path);
          io::write_svg_file(path, session_.cts().tree, session_.design(),
                             session_.technology(), session_.nets(),
                             *result.final_assignment());
        }
        if (!config.csv_out.empty()) {
          const std::string path = config.output_path(config.csv_out);
          ensure_parent_dir(path);
          result.table.write_csv(path);
        }
        if (!config.metrics_out.empty()) {
          obs::RunInfo info;
          info.tool = config.tool;
          info.command = config.command;
          info.args = config.raw_args;
          info.threads = result.threads_used;
          info.seed = config.seed;
          // Timed at manifest-write, so the run's wall clock and stage
          // table cover the report stage itself: its StageInfo is only
          // pushed after this body returns, hence the provisional entry.
          info.wall_seconds = seconds_since(flow_t0);
          info.stages = stages_;
          info.stages.push_back({"report", seconds_since(report_t0), "ok"});
          const std::string path = config.output_path(config.metrics_out);
          ensure_parent_dir(path);
          obs::write_run_manifest(path, info);
        }
        if (!config.trace_out.empty()) {
          const std::string path = config.output_path(config.trace_out);
          ensure_parent_dir(path);
          obs::write_chrome_trace_file(path);
        }
        return common::Status::Ok();
      },
      common::StatusCode::kIoError);
}

}  // namespace sndr::flow
