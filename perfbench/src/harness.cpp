#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

flow::FlowConfig make_config(
    const std::vector<std::pair<std::string, std::string>>& keys) {
  flow::FlowConfig config;
  for (const auto& [key, value] : keys) {
    if (common::Status s = config.set(key, value); !s.ok()) {
      throw std::runtime_error("config key " + key + ": " + s.to_string());
    }
  }
  return config;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux.
}

// ---------------------------------------------------------------- Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << "\n";
  }
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    checks_ok_ = false;
    std::cerr << "perfbench: CHECK FAILED " << what << "\n";
  }
}

void Report::note(const std::string& line) { notes_.push_back(line); }

int Report::finish() const {
  for (const std::string& line : notes_) std::cout << line << "\n";
  for (const auto& [name, vu] : metrics_) {
    std::cout << "  " << std::left << std::setw(34) << name << " "
              << std::setprecision(9) << vu.first << " " << vu.second << "\n";
  }
  const bool correct = checks_ok_ && failed_ == 0 && attempted_ > 0;
  std::ostringstream js;
  js << std::setprecision(17);
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    js << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << v
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

// ------------------------------------------------------ bitwise identity

bool same_eval(const ndr::FlowEvaluation& a, const ndr::FlowEvaluation& b) {
  return a.assignment == b.assignment &&
         a.power.total_power == b.power.total_power &&
         a.power.switched_cap == b.power.switched_cap &&
         a.timing.sink_arrival == b.timing.sink_arrival &&
         a.feasible() == b.feasible();
}

bool same_flow(const flow::FlowResult& a, const flow::FlowResult& b) {
  if (a.smart.has_value() != b.smart.has_value() ||
      a.anneal.has_value() != b.anneal.has_value() ||
      a.corners.has_value() != b.corners.has_value()) {
    return false;
  }
  if (!same_eval(a.default_eval, b.default_eval) ||
      !same_eval(a.blanket_eval, b.blanket_eval) ||
      !same_eval(a.final_eval(), b.final_eval()) || a.feasible != b.feasible) {
    return false;
  }
  if (a.final_assignment() != nullptr &&
      *a.final_assignment() != *b.final_assignment()) {
    return false;
  }
  if (a.corners) {
    if (a.corners->corners.size() != b.corners->corners.size()) return false;
    for (std::size_t i = 0; i < a.corners->corners.size(); ++i) {
      if (!same_eval(a.corners->corners[i].eval, b.corners->corners[i].eval)) {
        return false;
      }
    }
  }
  return true;
}

bool same_sweep(const dse::SweepResult& a, const dse::SweepResult& b) {
  if (a.points.size() != b.points.size() || a.front != b.front) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const dse::PointResult& p = a.points[i];
    const dse::PointResult& q = b.points[i];
    if (!(p.settings == q.settings) || p.assignment != q.assignment ||
        p.total_power != q.total_power || p.switched_cap != q.switched_cap ||
        p.skew != q.skew || p.sink_arrival != q.sink_arrival ||
        p.feasible != q.feasible) {
      return false;
    }
  }
  return true;
}

bool same_point(const dse::PointResult& p, const flow::FlowResult& r) {
  return *r.final_assignment() == p.assignment &&
         r.final_eval().power.total_power == p.total_power &&
         r.final_eval().power.switched_cap == p.switched_cap &&
         r.final_eval().timing.sink_arrival == p.sink_arrival &&
         r.feasible == p.feasible;
}

bool same_job(const serve::JobOutcome& out, const flow::FlowResult& ref) {
  return out.ok() && out.result && same_flow(*out.result, ref);
}

bool same_job(const serve::JobOutcome& out, const dse::SweepResult& ref) {
  return out.ok() && out.dse && same_sweep(*out.dse, ref);
}

namespace {
void flip_one(ndr::RuleAssignment& assignment) {
  if (!assignment.empty()) assignment[0] = assignment[0] == 0 ? 1 : 0;
}
}  // namespace

void inject_fault(const Options& opt, flow::FlowResult& ref) {
  if (opt.fault != "flip-rule") return;
  if (ref.anneal) {
    flip_one(ref.anneal->assignment);
    flip_one(ref.anneal->final_eval.assignment);
  } else if (ref.smart) {
    flip_one(ref.smart->assignment);
    flip_one(ref.smart->final_eval.assignment);
  }
}

void inject_fault(const Options& opt, dse::SweepResult& ref) {
  if (opt.fault != "flip-rule") return;
  for (dse::PointResult& p : ref.points) flip_one(p.assignment);
}

// ---------------------------------------------------------------- spans

int SpanLog::open(const std::string& name, int job) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ns = obs::trace_now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[id].end_ns = obs::trace_now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::adopt_library_spans(const obs::TraceSink& sink, int job) {
  const std::size_t first = spans_.size();
  for (const obs::SpanRecord& r : sink.records()) {
    Span s;
    s.name = r.name;
    s.start_ns = r.start_ns;
    s.end_ns = r.start_ns + r.dur_ns;
    s.job = job;
    s.library = true;
    s.tid = r.tid;
    s.depth = r.depth;
    spans_.push_back(std::move(s));
  }
  const auto contains = [](const Span& outer, const Span& inner) {
    return outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns;
  };
  for (std::size_t i = first; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    int best = -1;
    // Innermost enclosing library span on the same thread...
    for (std::size_t j = first; j < spans_.size(); ++j) {
      const Span& o = spans_[j];
      if (j == i || o.tid != s.tid || o.depth >= s.depth || !contains(o, s)) {
        continue;
      }
      if (best < 0 || o.depth > spans_[best].depth) best = static_cast<int>(j);
    }
    // ...else the innermost harness span around the call.
    if (best < 0) {
      for (std::size_t j = 0; j < first; ++j) {
        const Span& o = spans_[j];
        if (o.library || o.job != job || !contains(o, s)) continue;
        if (best < 0 || o.start_ns >= spans_[best].start_ns) {
          best = static_cast<int>(j);
        }
      }
    }
    s.parent = best;
  }
}

std::vector<SpanLog::Row> SpanLog::rollup() const {
  // Self time: duration minus the union of the direct children's intervals
  // (children on pool threads may overlap each other).
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    Row& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    row.total_s += (s.end_ns - s.start_ns) * 1e-9;
    row.self_s += (s.end_ns - s.start_ns - covered) * 1e-9;
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  return out;
}

double SpanLog::total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += (s.end_ns - s.start_ns) * 1e-9;
  }
  return t;
}

int SpanLog::count(const std::string& name) const {
  int n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << (s.tid < 0 ? 0 : s.tid)
       << ", \"ts\": " << s.start_ns / 1000.0
       << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"job\": " << s.job
       << ", \"source\": \"" << (s.library ? "library" : "harness")
       << "\"}}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
