#include "common_loops.hpp"

#include <cstdio>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

void set_obs(bool on) {
  obs::set_tracing_enabled(on);
  obs::set_metrics_enabled(on);
}

void emit_end_to_end(Report& report, const EndToEnd& e) {
  const LaneSamples& r = e.runs;
  std::vector<double> latency = e.latency;
  if (latency.empty()) {
    latency = r.t1;
    latency.insert(latency.end(), r.tn.begin(), r.tn.end());
  }
  const auto list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) out += " " + std::to_string(x).substr(0, 6);
    return out;
  };
  report.note("set-up s:" + list(e.setup));
  report.note("one lane/worker s:" + list(r.t1));
  report.note("nproc s:" + list(r.tn));
  report.note("samples: " + std::to_string(e.setup.size()) + " set-ups, " +
              std::to_string(r.t1.size()) + " runs at one lane/worker, " +
              std::to_string(r.tn.size()) + " at nproc, " +
              std::to_string(latency.size()) + " latencies");
  report.metric("setup_s", median(e.setup), "s");
  report.metric("run_s_t1", median(r.t1), "s");
  report.metric("run_s_tN", median(r.tn), "s");
  report.metric("power_mw", e.power_mw, "mW");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("jobs_per_s_w1", e.jobs_per_run * r.t1.size() / sum(r.t1),
                "jobs/s");
  report.metric("jobs_per_s_wN", e.jobs_per_run * r.tn.size() / sum(r.tn),
                "jobs/s");
  report.metric("latency_p50_s", median(latency), "s");
  report.metric("latency_p95_s", percentile(latency, 95.0), "s");
}

int finish_traced(Report& report, const LayerTable& table, const SpanLog& log,
                  const Options& opt) {
  const std::string path = opt.work_dir + "/spans-" + opt.workload + ".json";
  log.write(path);
  report.note("spans: " + path);
  report.note("span                              count    total_s     self_s");
  for (const SpanLog::Row& row : log.rollup()) {
    char line[160];
    std::snprintf(line, sizeof line, "%-32s %6d %10.4f %10.4f",
                  row.name.c_str(), row.count, row.total_s, row.self_s);
    report.note(line);
  }
  table.emit(report);
  return report.finish();
}

}  // namespace perfbench
