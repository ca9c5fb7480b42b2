// flow-40k and dse-anneal: one big job, closed loop, at one lane and at
// nproc lanes. A job is serve::execute_job with no cache — the exact
// `sndr run` / `sndr dse` path.
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common_loops.hpp"
#include "io/design_io.hpp"
#include "layers.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// The ROADMAP baseline design (`sndr generate --sinks 40000 --dist mixed
/// --seed 9`, 5786 nets) and the DSE design (6000 sinks, seed 17).
constexpr std::uint64_t kFlowDesignSeed = 9;
constexpr std::uint64_t kDseDesignSeed = 17;

struct Run {
  double wall = 0.0;
  serve::JobOutcome out;
};

Run timed_job(const flow::FlowConfig& config) {
  const auto t0 = Clock::now();
  serve::JobOutcome out = serve::execute_job(config, nullptr);
  return {seconds_since(t0), std::move(out)};
}

void write_design(const std::string& path, const char* name, int sinks,
                  std::uint64_t seed) {
  workload::DesignSpec spec;
  spec.name = name;
  spec.num_sinks = sinks;
  spec.dist = workload::SinkDistribution::kMixed;
  spec.seed = seed;
  io::write_design_file(path, workload::make_design(spec));
}

}  // namespace

int run_flow_40k(const Options& opt) {
  Report report;
  const int n = nproc();
  const std::string design = opt.work_dir + "/flow-40k.txt";
  const auto config = [&](int threads) {
    return make_config({{"design", design},
                        {"threads", std::to_string(threads)},
                        {"seed", std::to_string(opt.seed)},
                        {"results_dir", opt.work_dir}});
  };

  // Set-up: generate and write the design, then a warm-up job (alternating
  // lane counts); the first warm-up's result is the reference.
  EndToEnd e2e;
  std::optional<flow::FlowResult> ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    write_design(design, "flow-40k", opt.tiny ? 3000 : 40000, kFlowDesignSeed);
    Run warm = timed_job(config(rep % 2 == 0 ? 1 : n));
    e2e.setup.push_back(seconds_since(t0));
    if (ref) {
      report.op(same_job(warm.out, *ref), "flow-40k warm-up job");
    } else {
      report.op(warm.out.ok() && warm.out.result, "flow-40k reference job");
      if (!warm.out.result) return report.finish();
      ref = std::move(*warm.out.result);
      inject_fault(opt, *ref);
    }
  }
  report.check(ref->feasible, "flow-40k smart result is feasible");
  report.check(ref->smart && ref->smart->final_eval.power.total_power <
                                 ref->blanket_eval.power.total_power,
               "flow-40k smart power is below blanket power");
  e2e.power_mw = ref->final_eval().power.total_power * 1e3;

  const auto job = [&](int threads) {
    Run r = timed_job(config(threads));
    report.op(same_job(r.out, *ref),
              "flow-40k job at threads=" + std::to_string(threads));
    return r;
  };

  if (!opt.trace) {
    e2e.runs = alternate_lanes(n, opt.seconds,
                               [&](int lanes) { return job(lanes).wall; });
    emit_end_to_end(report, e2e);
    return report.finish();
  }

  // Traced pass: one traced job per lane count for the registry and the
  // stage records, the composed layer pass for per-layer time (right
  // after the one-lane job, so it runs at one lane too).
  LayerTable table;
  SpanLog log;
  set_obs(true);
  const Run traced1 = job(1);
  const flow::FlowResult composed = run_layers(config(1), log, 1);
  report.op(same_flow(composed, *ref),
            "flow-40k composed layer pass equals execute_job");
  const Run tracedn = job(n);
  set_obs(false);
  if (!traced1.out.result || !tracedn.out.result) return report.finish();

  table.from_composed(composed);
  table.from_layers(log);
  table.from_registry(traced1.out.metrics);
  table.from_parallel(tracedn.out.metrics);
  table.from_stages(traced1.out.result->stages,
                    traced1.out.result->wall_seconds);
  table.set("obs.overhead_frac",
            obs_overhead(opt.seconds, [&] { return job(1).wall; }));
  return finish_traced(report, table, log, opt);
}

int run_dse_anneal(const Options& opt) {
  Report report;
  const int n = nproc();
  const std::string design = opt.work_dir + "/dse-anneal.txt";
  const std::string results = opt.work_dir + "/dse";
  const std::string anneal = opt.tiny ? "2000" : "20000";
  // The reference sweep keeps its directory: the front points' emitted
  // configs read their warm-start seed files from it. Every other sweep
  // starts from an empty directory (a leftover sweep.ck would resume).
  const auto sweep_config = [&](int threads, const std::string& out) {
    std::filesystem::remove_all(results + "/" + out);
    return make_config({{"design", design},
                        {"threads", std::to_string(threads)},
                        {"seed", std::to_string(opt.seed)},
                        {"anneal", anneal},
                        {"dse", "true"},
                        {"dse_max_skew", "35,40,45,50,60"},
                        {"dse_power_weight", "0.5,1,2"},
                        {"results_dir", results},
                        {"dse_out", out}});
  };

  // Set-up: generate and write the design, then a warm-up job — the
  // grid's first point run standalone, alternating lane counts.
  EndToEnd e2e;
  std::optional<flow::FlowResult> warm_ref;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    write_design(design, "dse-anneal", opt.tiny ? 1500 : 6000, kDseDesignSeed);
    Run warm = timed_job(make_config(
        {{"design", design},
         {"threads", std::to_string(rep % 2 == 0 ? 1 : n)},
         {"seed", std::to_string(opt.seed)},
         {"anneal", anneal},
         {"max_skew", "35"},
         {"power_weight", "0.5"},
         {"results_dir", results}}));
    e2e.setup.push_back(seconds_since(t0));
    report.op(warm_ref ? same_job(warm.out, *warm_ref)
                       : warm.out.ok() && warm.out.result,
              "dse-anneal warm-up job");
    if (!warm.out.result) return report.finish();
    if (!warm_ref) warm_ref = std::move(*warm.out.result);
  }

  // The first sweep, at one lane, is the reference: every later sweep must
  // equal it bitwise, whatever its lane count.
  std::optional<dse::SweepResult> ref;
  const auto sweep = [&](int threads) {
    Run r = timed_job(sweep_config(threads, ref ? "run" : "ref"));
    if (ref) {
      report.op(same_job(r.out, *ref),
                "dse-anneal sweep at threads=" + std::to_string(threads));
    } else {
      report.op(r.out.ok() && r.out.dse, "dse-anneal reference sweep");
      if (!r.out.dse) {
        throw std::runtime_error("dse-anneal reference sweep failed: " +
                                 r.out.status.to_string());
      }
      ref = std::move(*r.out.dse);
      inject_fault(opt, *ref);
    }
    return r;
  };
  if (opt.trace) {
    sweep(1);
  } else {
    e2e.runs = alternate_lanes(n, opt.seconds,
                               [&](int lanes) { return sweep(lanes).wall; });
  }

  // The front must be a real trade-off curve, and each front point must
  // be reproducible standalone from its emitted config.
  std::set<std::pair<double, double>> distinct;
  double best_power = 0.0;
  for (const int id : ref->front) {
    const dse::PointResult& p = ref->points[static_cast<std::size_t>(id)];
    distinct.insert({p.total_power, p.skew});
    if (best_power == 0.0 || p.total_power < best_power) {
      best_power = p.total_power;
    }
    const Run solo = timed_job(p.config);
    report.op(solo.out.result && same_point(p, *solo.out.result),
              "dse-anneal front point " + std::to_string(id) +
                  " re-run standalone");
  }
  report.check(distinct.size() >= 3,
               "dse-anneal front has >= 3 distinct points (got " +
                   std::to_string(distinct.size()) + ")");

  if (!opt.trace) {
    e2e.power_mw = best_power * 1e3;
    emit_end_to_end(report, e2e);
    return report.finish();
  }

  // Traced pass: traced sweeps give the registry counts summed over every
  // point (reuse shows here: borrowed geometry, transplants, warm
  // starts); the sweep's cold anchor point, re-run standalone, gives the
  // stage records and the composed layer pass.
  LayerTable table;
  SpanLog log;
  set_obs(true);
  const Run traced1 = sweep(1);
  const Run tracedn = sweep(n);
  const dse::PointResult* anchor = nullptr;
  for (const dse::PointResult& p : ref->points) {
    if (p.warm_from < 0) {
      anchor = &p;
      break;
    }
  }
  report.check(anchor != nullptr, "dse-anneal sweep has a cold point");
  if (anchor == nullptr) return report.finish();
  const Run anchor_run = timed_job(anchor->config);
  report.op(
      anchor_run.out.result && same_point(*anchor, *anchor_run.out.result),
      "dse-anneal anchor point re-run standalone");
  const flow::FlowResult composed = run_layers(anchor->config, log, 1);
  report.op(same_point(*anchor, composed),
            "dse-anneal composed layer pass equals the sweep point");
  set_obs(false);
  if (!traced1.out.dse || !tracedn.out.dse || !anchor_run.out.result) {
    return report.finish();
  }

  table.from_composed(composed);
  table.from_layers(log);
  table.from_registry(traced1.out.metrics);
  table.from_parallel(tracedn.out.metrics);
  table.from_stages(anchor_run.out.result->stages,
                    anchor_run.out.result->wall_seconds);
  const dse::SweepResult& s = *traced1.out.dse;
  table.set("dse.explore_s", s.wall_seconds);
  table.set("dse.points_solved", s.solved_points);
  table.set("dse.warm_started", s.warm_started);
  table.set("dse.front_points", static_cast<double>(s.front.size()));
  table.set("obs.overhead_frac",
            obs_overhead(opt.seconds, [&] { return sweep(1).wall; }));
  return finish_traced(report, table, log, opt);
}

}  // namespace perfbench
