// serve-mix: many small concurrent jobs through an in-process
// serve::Server. Phases: drain a queued batch with one worker, drain the
// same batch with nproc workers (alternating, closed loop), then an open
// loop at a fixed rate with nproc workers, timed from each job's due time.
#include <algorithm>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common_loops.hpp"
#include "io/design_io.hpp"
#include "layers.hpp"
#include "serve/server.hpp"
#include "workload/generator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Design pool: eight small designs and a tail of two 6000-sink designs.
/// Sizes are fixed per pool slot, so every seed gets the same job mix (which
/// size carries anneal/corners decides where the latency median falls);
/// the seed varies the placements and the anneal trajectories.
constexpr int kSmallSinks[] = {200, 300, 400, 500, 600, 700, 800, 900};
constexpr int kLargeSinks = 6000;
constexpr int kLargeDesigns = 2;
/// Batch: every job cycles through the pool; every kAnnealEvery-th job
/// adds a short anneal and every kCornersEvery-th adds corner signoff, so
/// lcm(pool, 4, 5) = 20 distinct configs recur twice in a 40-job batch.
constexpr int kBatchJobs = 40;
constexpr int kAnnealEvery = 4;
constexpr int kCornersEvery = 5;
/// Open loop: a fixed arrival rate and a fixed job count (enough for ten
/// samples above the p95); the drain phases get the rest of --seconds.
/// The rate is about half the nproc-worker drain throughput the seed
/// commit reaches on a loaded 4-CPU host (~50 jobs/s; ~100 when the host
/// is quiet), so the server is never near saturation and latency measures
/// service time plus ordinary queueing. Fixed, so a slower server shows as
/// longer latency rather than as a lower offered load.
constexpr double kOpenLoopRate = 25.0;
constexpr int kOpenLoopJobs = 200;

struct Pool {
  std::vector<flow::FlowConfig> batch;  ///< one config per batch job.
  int distinct = 0;  ///< batch[i] == batch[i % distinct].
};

Pool make_pool(const Options& opt) {
  std::vector<int> sizes(std::begin(kSmallSinks), std::end(kSmallSinks));
  for (int i = 0; i < kLargeDesigns; ++i) sizes.push_back(kLargeSinks);
  const workload::SinkDistribution dists[] = {
      workload::SinkDistribution::kMixed, workload::SinkDistribution::kUniform,
      workload::SinkDistribution::kClustered};

  std::vector<std::string> paths;
  for (std::size_t d = 0; d < sizes.size(); ++d) {
    workload::DesignSpec spec;
    spec.name = "serve-mix-" + std::to_string(d);
    spec.num_sinks = opt.tiny ? sizes[d] / 5 + 50 : sizes[d];
    spec.dist = dists[d % 3];
    spec.seed = opt.seed * 1000 + d;
    paths.push_back(opt.work_dir + "/" + spec.name + ".txt");
    io::write_design_file(paths.back(), workload::make_design(spec));
  }

  Pool pool;
  const int designs = static_cast<int>(paths.size());
  pool.distinct = std::lcm(designs, std::lcm(kAnnealEvery, kCornersEvery));
  for (int i = 0; i < kBatchJobs; ++i) {
    std::vector<std::pair<std::string, std::string>> keys = {
        {"design", paths[i % designs]},
        {"seed", std::to_string(opt.seed)},
        {"results_dir", opt.work_dir}};
    if (i % kAnnealEvery == 0) keys.push_back({"anneal", "2000"});
    if (i % kCornersEvery == 0) keys.push_back({"corners", "true"});
    pool.batch.push_back(make_config(keys));
  }
  return pool;
}

struct Drain {
  double wall = 0.0;
  std::vector<serve::JobRecord> records;
  obs::MetricsRegistry::Snapshot metrics;
  serve::SharedCache::Stats cache;
};

/// A fresh server (own cache, `workers` workers) drains the whole batch.
/// A rejected submit is a failed operation; an accepted one is counted
/// when its record is checked.
Drain drain(const Pool& pool, int workers, Report& report) {
  Drain d;
  const auto t0 = Clock::now();
  serve::ServerOptions options;
  options.workers = workers;
  serve::Server server(options);
  for (const flow::FlowConfig& c : pool.batch) {
    if (!server.submit(c).ok()) report.op(false, "serve-mix submit");
  }
  d.records = server.drain();
  d.wall = seconds_since(t0);
  d.metrics = server.metrics_snapshot();
  d.cache = server.cache().stats();
  return d;
}

void check_record(const serve::JobRecord& record, const flow::FlowResult& ref,
                  Report& report) {
  report.op(record.state == serve::JobState::kDone &&
                same_job(record.outcome, ref),
            "serve-mix job " + std::to_string(record.id) +
                " equals its serial reference");
}

}  // namespace

int run_serve_mix(const Options& opt) {
  Report report;
  const int n = nproc();

  // Set-up: generate the pool, then run each distinct config once through
  // the serial execute_job path — the reference every server job must
  // equal, and the warm-up.
  EndToEnd e2e;
  e2e.jobs_per_run = kBatchJobs;
  Pool pool;
  std::vector<flow::FlowResult> refs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    pool = make_pool(opt);
    for (int k = 0; k < pool.distinct; ++k) {
      serve::JobOutcome out = serve::execute_job(pool.batch[k], nullptr);
      if (rep > 0) {
        report.op(same_job(out, refs[k]), "serve-mix warm-up job");
        continue;
      }
      report.op(out.ok() && out.result, "serve-mix reference job");
      if (!out.result) return report.finish();
      refs.push_back(std::move(*out.result));
      inject_fault(opt, refs.back());
    }
    e2e.setup.push_back(seconds_since(t0));
  }
  double power = 0.0;
  for (int i = 0; i < kBatchJobs; ++i) {
    power += refs[i % pool.distinct].final_eval().power.total_power;
  }
  e2e.power_mw = power / kBatchJobs * 1e3;

  const auto timed_drain = [&](int workers) {
    Drain d = drain(pool, workers, report);
    for (std::size_t i = 0; i < d.records.size(); ++i) {
      check_record(d.records[i], refs[i % pool.distinct], report);
    }
    return d;
  };

  if (opt.trace) {
    // Traced pass: a composed layer pass of every distinct config, then a
    // traced nproc-worker drain for the registry, the job records and the
    // cache counters.
    LayerTable table;
    SpanLog log;
    set_obs(true);
    for (int k = 0; k < pool.distinct; ++k) {
      const flow::FlowResult composed = run_layers(pool.batch[k], log, k);
      report.op(same_flow(composed, refs[k]),
                "serve-mix composed layer pass " + std::to_string(k));
      table.from_composed(composed);
    }
    const Drain d = timed_drain(n);
    set_obs(false);

    table.from_layers(log);
    table.from_registry(d.metrics);
    table.from_parallel(d.metrics);
    std::vector<double> queue, exec;
    for (const serve::JobRecord& r : d.records) {
      queue.push_back(r.queue_seconds);
      exec.push_back(r.outcome.wall_seconds);
      if (r.outcome.result) {
        table.from_stages(r.outcome.result->stages, r.outcome.wall_seconds);
      }
    }
    table.set("serve.queue_wait_p50_s", median(queue));
    table.set("serve.queue_wait_p95_s", percentile(queue, 95.0));
    table.set("serve.exec_p50_s", median(exec));
    table.set("serve.exec_p95_s", percentile(exec, 95.0));
    table.set("serve.worker_busy_frac", sum(exec) / (n * d.wall));
    table.set("serve.rejected",
              static_cast<double>(d.metrics.counter("serve.jobs_rejected")));
    table.set("serve.tech_cache_hits", static_cast<double>(d.cache.tech_hits));
    table.set("serve.predictor_cache_hits",
              static_cast<double>(d.cache.predictor_hits));
    table.set("obs.overhead_frac",
              obs_overhead(opt.seconds, [&] { return timed_drain(n).wall; }));
    return finish_traced(report, table, log, opt);
  }

  // Closed loop: whole-batch drains, one worker vs nproc workers.
  const int open_jobs = opt.tiny ? kOpenLoopJobs / 8 : kOpenLoopJobs;
  const double open_s = open_jobs / kOpenLoopRate;
  e2e.runs = alternate_lanes(n, opt.seconds - open_s, [&](int workers) {
    return timed_drain(workers).wall;
  });

  // Open loop: job j is due at t0 + j / rate; the one load-generating
  // thread (this one) submits on schedule and never waits for results.
  // Records are then fetched and checked one at a time (not drained in
  // bulk), so only the server holds finished results.
  std::vector<double> late(open_jobs);
  std::vector<int> ids(open_jobs, -1);
  serve::ServerOptions options;
  options.workers = n;
  serve::Server server(options);
  const auto t0 = Clock::now();
  for (int j = 0; j < open_jobs; ++j) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(j / kOpenLoopRate));
    std::this_thread::sleep_until(due);
    late[j] = seconds_since(due);
    common::Result<int> id = server.submit(pool.batch[j % kBatchJobs]);
    if (id.ok()) {
      ids[j] = id.value();
    } else {
      report.op(false, "serve-mix open-loop submit");
    }
  }
  for (int j = 0; j < open_jobs; ++j) {
    if (ids[j] < 0) continue;
    const common::Result<serve::JobRecord> r = server.wait(ids[j]);
    if (!r.ok()) {
      report.op(false, "serve-mix open-loop wait");
      continue;
    }
    check_record(r.value(), refs[j % pool.distinct], report);
    e2e.latency.push_back(late[j] + r.value().queue_seconds +
                          r.value().outcome.wall_seconds);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "open loop: %d jobs at %.1f jobs/s; generator lateness "
                "p50 %.6f s, max %.6f s",
                open_jobs, kOpenLoopRate, median(late),
                *std::max_element(late.begin(), late.end()));
  report.note(line);
  emit_end_to_end(report, e2e);
  return report.finish();
}

}  // namespace perfbench
