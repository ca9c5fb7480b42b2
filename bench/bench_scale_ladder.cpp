// Scale ladder — throughput and peak memory at 10k / 100k / 1M nets.
//
// Each rung builds a synthetic pre-buffered clock tree (workload/scale.hpp;
// no CTS, so rung cost is the pipeline under test, not synthesis), then
// times the pipeline stages — extract (eager GeometryCache build),
// evaluate, optimize — and reruns the optimizer with a geometry budget of
// 1/4 the unbounded cache footprint, asserting the assignment is bitwise
// identical (the budget contract: eviction changes WHEN geometry is built,
// never WHAT).
//
// Per rung the manifest gets stable gauges (no thread suffix, so
// scripts/bench_check.sh can gate them across runs):
//   bench.scale_ladder.<rung>.nets_per_s            extract+eval+optimize
//   bench.scale_ladder.<rung>.geometry_unbounded_bytes
//   bench.scale_ladder.<rung>.geometry_budget_bytes       (= unbounded/4)
//   bench.scale_ladder.<rung>.geometry_budget_highwater_bytes
//   bench.scale_ladder.<rung>.geometry_budget_evictions
//   bench.scale_ladder.<rung>.arena_peak_bytes
//   bench.scale_ladder.<rung>.peak_rss_bytes
//   bench.scale_ladder.<rung>.budget_identical            (must stay 1)
// plus the usual per-stage RuntimeRecords in BENCH_runtime.json.
//
// Rungs: 10k and 100k by default; the 1M rung is opt-in via
// SNDR_SCALE_LADDER_1M=1 (minutes of runtime and ~GBs of RSS). Override
// the whole ladder with SNDR_SCALE_RUNGS=<n1,n2,...>.
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>

#include "common.hpp"
#include "extract/net_geometry.hpp"
#include "workload/scale.hpp"

namespace {

using namespace sndr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0;  // KiB on Linux.
}

/// "r10k" / "r100k" / "r1m" — stable gauge-name fragments per rung.
std::string rung_name(int nets) {
  if (nets % 1000000 == 0) return "r" + std::to_string(nets / 1000000) + "m";
  if (nets % 1000 == 0) return "r" + std::to_string(nets / 1000) + "k";
  return "r" + std::to_string(nets);
}

std::vector<int> ladder_rungs() {
  if (const char* env = std::getenv("SNDR_SCALE_RUNGS");
      env != nullptr && env[0] != '\0') {
    std::vector<int> rungs;
    std::istringstream is(env);
    std::string tok;
    while (std::getline(is, tok, ',')) rungs.push_back(std::stoi(tok));
    return rungs;
  }
  std::vector<int> rungs = {10000, 100000};
  if (const char* one_m = std::getenv("SNDR_SCALE_LADDER_1M");
      one_m != nullptr && one_m[0] != '\0') {
    rungs.push_back(1000000);
  }
  return rungs;
}

void set_gauge(const std::string& name, double value) {
  obs::MetricsRegistry::instance().set(
      obs::MetricsRegistry::instance().gauge(name), value);
}

}  // namespace

int main() {
  using namespace sndr::bench;

  const tech::Technology tech = tech::Technology::make_default_45nm();
  report::Table t({"rung", "nets", "gen (s)", "extract (s)", "eval (s)",
                   "opt (s)", "nets/s", "geom (MB)", "budget (MB)",
                   "opt+budget (s)", "identical"});
  std::vector<RuntimeRecord> records;
  const int threads = common::thread_count();
  const auto record = [&records, threads](const std::string& stage,
                                          double seconds) {
    records.push_back({stage, threads, seconds});
  };

  bool all_identical = true;
  for (const int nets : ladder_rungs()) {
    const std::string rung = rung_name(nets);
    common::reset_arena_highwater();

    workload::ScaleSpec spec;
    spec.name = rung;
    spec.num_nets = nets;
    auto t0 = Clock::now();
    const workload::ScaleWorkload w = make_scale_workload(spec, tech);
    const double gen_s = seconds_since(t0);
    record(rung + ".generate", gen_s);

    // Unbounded pipeline: eager extract, evaluate, optimize.
    t0 = Clock::now();
    const extract::GeometryCache unbounded(w.tree, w.design, w.nets);
    const double extract_s = seconds_since(t0);
    record(rung + ".extract", extract_s);

    const ndr::RuleAssignment blanket =
        ndr::assign_all(w.nets, tech.rules.blanket_index());
    t0 = Clock::now();
    const ndr::FlowEvaluation base_eval = ndr::evaluate(
        w.tree, w.design, tech, w.nets, blanket, {}, &unbounded);
    const double eval_s = seconds_since(t0);
    record(rung + ".evaluate", eval_s);

    ndr::OptimizerOptions opt;
    t0 = Clock::now();
    const ndr::SmartNdrResult ref =
        ndr::optimize_smart_ndr(w.tree, w.design, tech, w.nets, opt);
    const double opt_s = seconds_since(t0);
    record(rung + ".optimize", opt_s);

    const double pipeline_s = extract_s + eval_s + opt_s;
    const double nets_per_s = nets / pipeline_s;
    const std::size_t unbounded_bytes = unbounded.resident_bytes();
    const std::size_t budget = unbounded_bytes / 4;

    // Budgeted rerun: 1/4 of the unbounded geometry footprint, bitwise
    // identical output or the rung fails. The search borrows a cache built
    // under the budget; the build is timed with the search, so
    // optimize_budgeted covers geometry plus search.
    t0 = Clock::now();
    const extract::GeometryCache budget_geometry(w.tree, w.design, w.nets,
                                                 budget, {});
    opt.search.geometry = &budget_geometry;
    const ndr::SmartNdrResult budgeted =
        ndr::optimize_smart_ndr(w.tree, w.design, tech, w.nets, opt);
    const double opt_budget_s = seconds_since(t0);
    record(rung + ".optimize_budgeted", opt_budget_s);
    const bool identical =
        ref.assignment == budgeted.assignment &&
        ref.final_eval.power.switched_cap ==
            budgeted.final_eval.power.switched_cap &&
        ref.final_eval.timing.sink_arrival ==
            budgeted.final_eval.timing.sink_arrival;
    all_identical = all_identical && identical;

    // Cache behaviour under the budget, measured on one evaluate pass with
    // a fresh budgeted cache: the high-water mark may exceed the budget
    // only by the entries pinned at the peak.
    const extract::GeometryCache capped(w.tree, w.design, w.nets, budget,
                                        {});
    const ndr::FlowEvaluation capped_eval = ndr::evaluate(
        w.tree, w.design, tech, w.nets, blanket, {}, &capped);
    const bool eval_identical =
        base_eval.power.switched_cap == capped_eval.power.switched_cap &&
        base_eval.timing.sink_arrival == capped_eval.timing.sink_arrival;
    all_identical = all_identical && eval_identical;

    const std::string g = "bench.scale_ladder." + rung + ".";
    set_gauge(g + "nets", nets);
    set_gauge(g + "nets_per_s", nets_per_s);
    set_gauge(g + "geometry_unbounded_bytes",
              static_cast<double>(unbounded_bytes));
    set_gauge(g + "geometry_budget_bytes", static_cast<double>(budget));
    set_gauge(g + "geometry_budget_highwater_bytes",
              static_cast<double>(capped.highwater_bytes()));
    set_gauge(g + "geometry_budget_evictions",
              static_cast<double>(capped.evictions()));
    set_gauge(g + "arena_peak_bytes",
              static_cast<double>(common::arena_used_highwater()));
    set_gauge(g + "peak_rss_bytes", peak_rss_bytes());
    set_gauge(g + "budget_identical",
              identical && eval_identical ? 1.0 : 0.0);

    t.add_row({rung, std::to_string(nets), report::fmt(gen_s, 2),
               report::fmt(extract_s, 2), report::fmt(eval_s, 2),
               report::fmt(opt_s, 2), report::fmt(nets_per_s, 0),
               report::fmt(unbounded_bytes / (1024.0 * 1024.0), 1),
               report::fmt(budget / (1024.0 * 1024.0), 1),
               report::fmt(opt_budget_s, 2),
               identical && eval_identical ? "yes" : "NO"});
  }

  finish(t, "Scale ladder: throughput and peak memory per rung",
         "scale_ladder.csv");
  publish_runtime("scale_ladder", records);

  if (!all_identical) {
    std::cerr << "bench_scale_ladder: budgeted output DIVERGED from the "
                 "unbounded run\n";
    return 1;
  }
  return 0;
}
