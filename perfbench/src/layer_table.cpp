#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {

/// Flow::run's stage records, in order.
const char* const kStages[] = {"load",   "cts",     "route",    "nets",
                               "extract", "optimize", "anneal", "corners",
                               "report"};

}  // namespace

LayerTable::LayerTable() {
  const std::vector<std::pair<std::string, std::string>> names = {
      {"io.load_s", "s"},
      {"cts.synthesize_s", "s"},
      {"cts.refine_skew_s", "s"},
      {"route.reroute_s", "s"},
      {"netlist.build_nets_s", "s"},
      {"extract.geometry_build_s", "s"},
      {"extract.geometry.builds", "count"},
      {"extract.nets_extracted", "count"},
      {"ndr.evaluate_s", "s"},
      {"ndr.evaluate_per_call_s", "s"},
      {"ndr.evaluations", "count"},
      {"ndr.optimize_s", "s"},
      {"ndr.train_s", "s"},
      {"ndr.greedy_s", "s"},
      {"optimizer.commits", "count"},
      {"optimizer.candidates_scored", "count"},
      {"optimizer.full_evals", "count"},
      {"ndr.exact_cache.misses", "count"},
      {"ndr.exact_cache.hit_ratio", "ratio"},
      {"ndr.anneal_s", "s"},
      {"anneal.proposed", "count"},
      {"anneal.accepted", "count"},
      {"anneal.full_rebuilds", "count"},
      {"anneal.delta_updates", "count"},
      {"anneal.moves_per_s", "1/s"},
      {"ndr.corners_s", "s"},
      {"flow.unattributed_s", "s"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.queue_wait_p95_s", "s"},
      {"serve.exec_p50_s", "s"},
      {"serve.exec_p95_s", "s"},
      {"serve.worker_busy_frac", "ratio"},
      {"serve.rejected", "count"},
      {"serve.tech_cache_hits", "count"},
      {"serve.predictor_cache_hits", "count"},
      {"dse.explore_s", "s"},
      {"dse.points_solved", "count"},
      {"dse.warm_started", "count"},
      {"ndr.exact_cache.transplants", "count"},
      {"dse.front_points", "count"},
      {"common.lanes", "count"},
      {"pool.grain_serial_calls", "count"},
      {"pool.chunks_on_workers_share", "ratio"},
      {"obs.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : names) rows_.push_back({name, {0.0, unit}});
  for (const char* stage : kStages) {
    rows_.push_back({std::string("flow.stage.") + stage + "_s", {0.0, "s"}});
  }
}

std::size_t LayerTable::index(const std::string& name) const {
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].first == name) return i;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void LayerTable::set(const std::string& name, double value) {
  rows_[index(name)].second.first = value;
}

void LayerTable::add(const std::string& name, double value) {
  rows_[index(name)].second.first += value;
}

double LayerTable::get(const std::string& name) const {
  return rows_[index(name)].second.first;
}

void LayerTable::from_composed(const flow::FlowResult& composed) {
  if (composed.smart) {
    add("ndr.train_s", composed.smart->stats.train_seconds);
    add("ndr.greedy_s", composed.smart->stats.optimize_seconds);
  }
  if (composed.anneal) composed_moves_ += composed.anneal->proposed;
}

void LayerTable::from_layers(const SpanLog& log) {
  add("io.load_s", log.total("io.load"));
  add("cts.synthesize_s", log.total("cts.synthesize"));
  add("cts.refine_skew_s", log.total("cts.refine_skew"));
  add("route.reroute_s", log.total("route.reroute"));
  add("netlist.build_nets_s", log.total("netlist.build_nets"));
  add("extract.geometry_build_s", log.total("extract.geometry_build"));
  add("ndr.optimize_s", log.total("ndr.optimize"));
  add("ndr.anneal_s", log.total("ndr.anneal"));
  add("ndr.corners_s", log.total("ndr.corners"));
  // The library's own stage-grained "evaluate" span (ndr::evaluate),
  // adopted from the pass's scope: one per full evaluation.
  const double eval_s = log.total("evaluate");
  const int eval_calls = log.count("evaluate");
  set("ndr.evaluate_s", eval_s);
  set("ndr.evaluate_per_call_s", eval_calls > 0 ? eval_s / eval_calls : 0.0);
  const double anneal_s = get("ndr.anneal_s");
  set("anneal.moves_per_s", anneal_s > 0.0 ? composed_moves_ / anneal_s : 0.0);
}

void LayerTable::from_registry(const obs::MetricsRegistry::Snapshot& snap) {
  for (const char* name :
       {"extract.geometry.builds", "extract.nets_extracted", "ndr.evaluations",
        "optimizer.commits", "optimizer.candidates_scored",
        "optimizer.full_evals", "ndr.exact_cache.misses", "anneal.proposed",
        "anneal.accepted", "anneal.full_rebuilds", "anneal.delta_updates",
        "ndr.exact_cache.transplants", "pool.grain_serial_calls"}) {
    set(name, static_cast<double>(snap.counter(name)));
  }
  set("ndr.exact_cache.hit_ratio",
      obs::safe_ratio(snap.counter("ndr.exact_cache.hits"),
                      snap.counter("ndr.exact_cache.hits") +
                          snap.counter("ndr.exact_cache.misses")));
}

void LayerTable::from_parallel(const obs::MetricsRegistry::Snapshot& snap) {
  set("common.lanes", snap.gauge("optimizer.threads"));
  // Scheduling-dependent: reported, never compared.
  set("pool.chunks_on_workers_share",
      obs::safe_ratio(snap.counter("pool.chunks_on_workers"),
                      snap.counter("pool.chunks")));
}

void LayerTable::from_stages(const std::vector<obs::StageInfo>& stages,
                             double wall_s) {
  double staged = 0.0;
  for (const obs::StageInfo& s : stages) {
    if (s.seconds <= 0.0) continue;
    add("flow.stage." + s.name + "_s", s.seconds);
    staged += s.seconds;
  }
  add("flow.unattributed_s", wall_s - staged);
}

void LayerTable::emit(Report& report) const {
  for (const auto& [name, vu] : rows_) report.metric(name, vu.first, vu.second);
}

}  // namespace perfbench
