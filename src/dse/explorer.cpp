#include "dse/explorer.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "flow/checkpoint.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "io/durable.hpp"
#include "ndr/assignment_state.hpp"
#include "obs/scope.hpp"

namespace sndr::dse {

namespace {

using io::expect_key;
using io::hexfloat;
using io::no_extra;
using io::read_hexfloat;

constexpr const char* kSweepSchema = "sndr.dse_sweep/2";

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Shortest-round-trip decimal for the human-facing artifacts (the
/// checkpoint sticks to hexfloats, which round-trip bit-exactly).
std::string decimal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The resolved sweep axes: each is the config's list, or the matching
/// scalar key as a single grid line.
struct Axes {
  std::vector<double> power;
  std::vector<double> skew;
  std::vector<double> margin;
};

Axes axes_from(const flow::FlowConfig& base) {
  Axes a;
  a.power = base.dse_power_weight.empty()
                ? std::vector<double>{base.power_weight}
                : base.dse_power_weight;
  a.skew = base.dse_max_skew.empty() ? std::vector<double>{base.max_skew_ps}
                                     : base.dse_max_skew;
  a.margin = base.dse_uncertainty_margin.empty()
                 ? std::vector<double>{base.uncertainty_margin}
                 : base.dse_uncertainty_margin;
  return a;
}

/// FNV-1a over everything a stored sweep point's values depend on. A
/// checkpoint from a different design, seed, mode, or axis set must not
/// resume — thread count and memory budget are deliberately excluded
/// (value-neutral by the reuse contract).
std::uint64_t sweep_fingerprint(const flow::FlowConfig& base, const Axes& a) {
  io::Fnv1a h;
  // One u64 per character (not one byte): the stored fingerprints of
  // existing sweep logs depend on it.
  const auto mix_str = [&](const std::string& s) {
    h.u64(s.size());
    for (const char c : s) h.u64(static_cast<unsigned char>(c));
  };
  const auto mix_double = [&](double d) {
    h.u64(std::bit_cast<std::uint64_t>(d));
  };
  const auto mix_axis = [&](const std::vector<double>& axis) {
    h.u64(axis.size());
    for (const double d : axis) mix_double(d);
  };
  mix_str(base.design_path);
  mix_str(base.tech_path);
  h.u64(base.seed);
  h.u64(static_cast<std::uint64_t>(base.anneal_iterations));
  mix_str(base.scoring);
  h.u64(static_cast<std::uint64_t>(base.training_samples));
  mix_double(base.slew_margin);
  mix_double(base.em_margin);
  mix_double(base.skew_margin);
  h.u64(static_cast<std::uint64_t>(base.max_passes));
  h.u64(static_cast<std::uint64_t>(base.max_repair_rounds));
  mix_double(base.anneal_t_start_frac);
  mix_double(base.anneal_t_end_frac);
  mix_str(base.dse_mode);
  h.u64(static_cast<std::uint64_t>(base.dse_points));
  mix_axis(a.power);
  mix_axis(a.skew);
  mix_axis(a.margin);
  return h.value();
}

/// The standalone config of one sweep point. Everything the sweep varies
/// or produces is *in* the config, so `sndr run` with it reproduces the
/// point bitwise (the reproducibility contract in explorer.hpp).
flow::FlowConfig point_config(const flow::FlowConfig& base,
                              const std::string& dse_dir,
                              const PointSettings& s, int id, int warm_from) {
  flow::FlowConfig c = base;
  c.dse = false;
  c.dse_power_weight.clear();
  c.dse_max_skew.clear();
  c.dse_uncertainty_margin.clear();
  c.power_weight = s.power_weight;
  c.max_skew_ps = s.max_skew_ps;
  c.uncertainty_margin = s.uncertainty_margin;
  c.results_dir = dse_dir;
  c.metrics_out = "point_" + std::to_string(id) + ".manifest.json";
  // Point runs produce only their manifest; sweep-wide artifacts (CSV,
  // front) are the explorer's, and the anneal checkpoint would collide
  // across points.
  c.checkpoint_path.clear();
  c.spef_out.clear();
  c.svg_out.clear();
  c.csv_out.clear();
  c.trace_out.clear();
  c.warm_start =
      warm_from >= 0 ? "point_" + std::to_string(id) + ".seed" : "";
  c.command = "dse";
  return c;
}

double axis_span(const std::vector<double>& axis) {
  const auto [lo, hi] = std::minmax_element(axis.begin(), axis.end());
  return *hi - *lo;
}

/// Nearest already-solved point in normalized config space (axis spans
/// normalize the scales; a degenerate axis contributes nothing). Ties go
/// to the lowest id — fully deterministic.
int nearest_neighbor(const std::vector<PointResult>& points,
                     const PointSettings& s, const Axes& axes) {
  const double pspan = axis_span(axes.power);
  const double sspan = axis_span(axes.skew);
  const double mspan = axis_span(axes.margin);
  int best = -1;
  double best_d = 0.0;
  for (const PointResult& p : points) {
    double d = 0.0;
    if (pspan > 0.0) {
      const double x = (p.settings.power_weight - s.power_weight) / pspan;
      d += x * x;
    }
    if (sspan > 0.0) {
      const double x = (p.settings.max_skew_ps - s.max_skew_ps) / sspan;
      d += x * x;
    }
    if (mspan > 0.0) {
      const double x =
          (p.settings.uncertainty_margin - s.uncertainty_margin) / mspan;
      d += x * x;
    }
    if (best < 0 || d < best_d) {
      best = p.id;
      best_d = d;
    }
  }
  return best;
}

bool settings_taken(const std::vector<PointResult>& points,
                    const PointSettings& s) {
  for (const PointResult& p : points) {
    if (p.settings == s) return true;
  }
  return false;
}

void write_point_fields(std::ostream& os, const PointResult& p) {
  os << "point " << p.id << "\n";
  os << "settings " << hexfloat(p.settings.power_weight) << ' '
     << hexfloat(p.settings.max_skew_ps) << ' '
     << hexfloat(p.settings.uncertainty_margin) << "\n";
  os << "warm_from " << p.warm_from << "\n";
  os << "feasible " << (p.feasible ? 1 : 0) << "\n";
  os << "power " << hexfloat(p.total_power) << "\n";
  os << "switched_cap " << hexfloat(p.switched_cap) << "\n";
  os << "skew " << hexfloat(p.skew) << "\n";
  os << "arrival";
  for (const double a : p.sink_arrival) os << ' ' << hexfloat(a);
  os << "\n";
  os << "assignment";
  for (const int r : p.assignment) os << ' ' << r;
  os << "\n";
  os << "end\n";
}

/// Atomic (re)write of the sweep log: header plus the pre-serialized
/// blocks of every point already solved. Runs once per sweep — when the
/// first live point needs a header, or to compact a log whose tail was a
/// partial block (crash mid-append).
common::Status write_sweep_log(const std::string& path,
                               std::uint64_t fingerprint, int n_rules,
                               const std::string& blocks) {
  return io::write_file_atomically(
      path, "sweep checkpoint", [&](std::ostream& os) {
        os << kSweepSchema << "\n";
        os << "fingerprint " << fingerprint << "\n";
        os << "n_rules " << n_rules << "\n";
        os << blocks;
      });
}

/// Appends one solved point's block to the log. This is the steady-state
/// durability cost: O(one block), not O(sweep) — the schema/2 log has no
/// point count to patch, so solved points are never re-written.
common::Status append_sweep_point(const std::string& path,
                                  const std::string& block) {
  std::ofstream f(path, std::ios::app);
  if (!f) {
    return common::Status::IoError("cannot append to sweep checkpoint " +
                                   path);
  }
  f << block;
  if (!f.flush()) {
    return common::Status::IoError("short write to sweep checkpoint " + path);
  }
  return common::Status::Ok();
}

struct SweepCheckpoint {
  int n_rules = 0;
  std::vector<PointResult> points;
  /// The log ended in a partial block (crash mid-append). The readable
  /// prefix in `points` is valid; the caller must compact the file before
  /// appending to it.
  bool truncated = false;
};

common::Result<SweepCheckpoint> load_sweep_checkpoint(
    const std::string& path, std::uint64_t fingerprint) {
  io::RecordReader in(path, "sweep checkpoint");
  if (common::Status st = in.open(kSweepSchema); !st.ok()) return st;

  std::istringstream is;
  std::uint64_t fp = 0;
  if (!in.next(is) || !expect_key(is, "fingerprint") || !(is >> fp) ||
      !no_extra(is)) {
    return in.bad("bad 'fingerprint' line");
  }
  if (fp != fingerprint) return in.mismatch(fp, fingerprint);
  SweepCheckpoint ck;
  if (!in.next(is) || !expect_key(is, "n_rules") || !(is >> ck.n_rules) ||
      ck.n_rules <= 0 || !no_extra(is)) {
    return in.bad("bad 'n_rules' line");
  }
  // Point blocks run to EOF — the log is append-only, so there is no
  // count to check against. A malformed or incomplete block can only be
  // the tail of an append that was cut short (crash, full disk): the
  // readable prefix stays valid, the partial tail is dropped, and the
  // `truncated` flag tells the sweep to compact the file before it
  // appends again.
  while (in.next(is)) {  // a clean EOF after the last block ends the loop.
    PointResult p;
    const bool block_ok = [&] {
      if (!expect_key(is, "point") || !(is >> p.id) ||
          p.id != static_cast<int>(ck.points.size()) || !no_extra(is)) {
        return false;
      }
      if (!in.next(is) || !expect_key(is, "settings") ||
          !read_hexfloat(is, p.settings.power_weight) ||
          !read_hexfloat(is, p.settings.max_skew_ps) ||
          !read_hexfloat(is, p.settings.uncertainty_margin) ||
          !no_extra(is)) {
        return false;
      }
      if (!in.next(is) || !expect_key(is, "warm_from") ||
          !(is >> p.warm_from) || p.warm_from < -1 || p.warm_from >= p.id ||
          !no_extra(is)) {
        return false;
      }
      int feasible = 0;
      if (!in.next(is) || !expect_key(is, "feasible") || !(is >> feasible) ||
          !no_extra(is)) {
        return false;
      }
      p.feasible = feasible != 0;
      if (!in.next(is) || !expect_key(is, "power") ||
          !read_hexfloat(is, p.total_power) || !no_extra(is)) {
        return false;
      }
      if (!in.next(is) || !expect_key(is, "switched_cap") ||
          !read_hexfloat(is, p.switched_cap) || !no_extra(is)) {
        return false;
      }
      if (!in.next(is) || !expect_key(is, "skew") ||
          !read_hexfloat(is, p.skew) || !no_extra(is)) {
        return false;
      }
      if (!in.next(is) || !expect_key(is, "arrival")) return false;
      double a = 0.0;
      while (read_hexfloat(is, a)) p.sink_arrival.push_back(a);
      if (p.sink_arrival.empty()) return false;
      if (!in.next(is) || !expect_key(is, "assignment")) return false;
      int r = 0;
      while (is >> r) {
        if (r < 0 || r >= ck.n_rules) return false;
        p.assignment.push_back(r);
      }
      if (!is.eof() || p.assignment.empty()) return false;
      return in.next(is) && expect_key(is, "end") && no_extra(is);
    }();
    if (!block_ok) {
      ck.truncated = true;
      break;
    }
    ck.points.push_back(std::move(p));
  }
  return ck;
}

common::Status write_pareto_csv(const std::string& path,
                                const std::vector<PointResult>& points) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return common::Status::IoError("cannot write " + path);
  f << "id,power_weight,max_skew_ps,uncertainty_margin,warm_from,resumed,"
       "feasible,on_front,total_power_w,switched_cap_f,skew_s\n";
  for (const PointResult& p : points) {
    f << p.id << ',' << decimal(p.settings.power_weight) << ','
      << decimal(p.settings.max_skew_ps) << ','
      << decimal(p.settings.uncertainty_margin) << ',' << p.warm_from << ','
      << (p.resumed ? 1 : 0) << ',' << (p.feasible ? 1 : 0) << ','
      << (p.on_front ? 1 : 0) << ',' << decimal(p.total_power) << ','
      << decimal(p.switched_cap) << ',' << decimal(p.skew) << "\n";
  }
  if (!f.flush()) return common::Status::IoError("short write to " + path);
  return common::Status::Ok();
}

common::Status write_front_json(const std::string& path,
                                const std::vector<PointResult>& points,
                                const std::vector<int>& front) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return common::Status::IoError("cannot write " + path);
  f << "{\n  \"schema\": \"sndr.dse_front/1\",\n";
  f << "  \"points\": " << points.size() << ",\n";
  f << "  \"front\": [";
  for (std::size_t i = 0; i < front.size(); ++i) {
    const PointResult& p = points[static_cast<std::size_t>(front[i])];
    f << (i == 0 ? "" : ",") << "\n    {\"id\": " << p.id
      << ", \"power_weight\": " << decimal(p.settings.power_weight)
      << ", \"max_skew_ps\": " << decimal(p.settings.max_skew_ps)
      << ", \"uncertainty_margin\": " << decimal(p.settings.uncertainty_margin)
      << ", \"total_power_w\": " << decimal(p.total_power)
      << ", \"switched_cap_f\": " << decimal(p.switched_cap)
      << ", \"skew_s\": " << decimal(p.skew) << "}";
  }
  f << (front.empty() ? "]\n" : "\n  ]\n") << "}\n";
  if (!f.flush()) return common::Status::IoError("short write to " + path);
  return common::Status::Ok();
}

}  // namespace

bool dominates(const PointResult& a, const PointResult& b) {
  const bool no_worse = a.total_power <= b.total_power && a.skew <= b.skew &&
                        a.settings.uncertainty_margin >=
                            b.settings.uncertainty_margin;
  const bool strictly_better =
      a.total_power < b.total_power || a.skew < b.skew ||
      a.settings.uncertainty_margin > b.settings.uncertainty_margin;
  return no_worse && strictly_better;
}

std::vector<int> pareto_front(const std::vector<PointResult>& points) {
  std::vector<int> front;
  for (const PointResult& p : points) {
    if (!p.feasible) continue;
    bool dropped = false;
    for (const PointResult& q : points) {
      if (!q.feasible || q.id == p.id) continue;
      // A point with exactly p's objectives and a lower id stands for both.
      const bool earlier_tie =
          q.id < p.id && q.total_power == p.total_power && q.skew == p.skew &&
          q.settings.uncertainty_margin == p.settings.uncertainty_margin;
      if (earlier_tie || dominates(q, p)) {
        dropped = true;
        break;
      }
    }
    if (!dropped) front.push_back(p.id);
  }
  std::sort(front.begin(), front.end(), [&points](int x, int y) {
    const PointResult& a = points[static_cast<std::size_t>(x)];
    const PointResult& b = points[static_cast<std::size_t>(y)];
    if (a.total_power != b.total_power) return a.total_power < b.total_power;
    if (a.skew != b.skew) return a.skew < b.skew;
    return a.id < b.id;
  });
  return front;
}

common::Result<SweepResult> explore(const flow::FlowConfig& base,
                                    const ExploreOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!base.smart) {
    return common::Status::InvalidArgument(
        "dse requires the smart optimizer stage (smart = true)");
  }
  const Axes axes = axes_from(base);
  const std::string dse_dir = base.output_path(base.dse_out);
  std::error_code ec;
  std::filesystem::create_directories(dse_dir, ec);
  if (ec) {
    return common::Status::IoError("cannot create " + dse_dir + ": " +
                                   ec.message());
  }
  const std::uint64_t fp = sweep_fingerprint(base, axes);
  const std::string ck_path = dse_dir + "/sweep.ck";

  // Resume state: solved points from a killed sweep, consumed in id order
  // as long as the (deterministic) plan replays the same settings.
  std::vector<PointResult> restored;
  int n_rules = 0;  // known from the checkpoint or the first live session.
  bool log_on_disk_clean = false;
  if (std::filesystem::exists(ck_path)) {
    common::Result<SweepCheckpoint> ck = load_sweep_checkpoint(ck_path, fp);
    if (!ck.ok()) return ck.status();
    n_rules = ck->n_rules;
    restored = std::move(ck->points);
    log_on_disk_clean = !ck->truncated;
  }
  std::size_t restore_idx = 0;

  obs::ObsScope sweep_scope;
  SweepResult sweep;
  std::unique_ptr<flow::Session> anchor;  // first live session, kept alive:
                                          // later points borrow its
                                          // GeometryCache (pure function of
                                          // its tree — bitwise identical to
                                          // every point's own).
  flow::World harvested;
  const flow::World* world = options.world;
  /// The anchor's design as loaded, BEFORE its own max_skew override
  /// mutated the constraints — what later points' load stages copy.
  netlist::Design pristine_design;
  // Union of every solved point's exported exact-eval memo, latest row
  // per net winning. Each point imports from the whole sweep's history
  // rather than only its warm-start donor — the per-net context guard in
  // import_memo keeps any mix of sources value-neutral, so widening the
  // pool only raises the transplant rate.
  ndr::MemoSnapshot memo_union;
  const auto merge_memo = [&memo_union](ndr::MemoSnapshot&& m) {
    if (m.empty()) return;
    if (memo_union.empty()) {
      memo_union = std::move(m);
      return;
    }
    for (std::size_t id = 0; id < m.row_warm.size(); ++id) {
      if (m.row_warm[id] != 0) memo_union.copy_row(m, static_cast<int>(id));
    }
  };
  // The on-disk log is ready for appends when it exists, parsed cleanly,
  // and every restored block in it was actually consumed. Otherwise the
  // first live point compacts it (header + blocks of all points so far)
  // in one atomic rewrite before steady-state appending resumes.
  bool log_ready = log_on_disk_clean;
  const auto block_of = [](const PointResult& p) {
    std::ostringstream os;
    write_point_fields(os, p);
    return os.str();
  };
  const auto blocks_of = [&](const std::vector<PointResult>& pts) {
    std::string blocks;
    for (const PointResult& p : pts) blocks += block_of(p);
    return blocks;
  };

  // Solves (or restores) the next point; points get dense ids in call
  // order. Any error leaves the sweep checkpoint covering every point
  // solved so far, so a rerun resumes instead of restarting.
  const auto solve_point = [&](const PointSettings& s) -> common::Status {
    if (options.cancel.cancelled()) {
      return common::Status::Cancelled("dse sweep cancelled");
    }
    const int id = static_cast<int>(sweep.points.size());

    if (restore_idx < restored.size()) {
      PointResult& r = restored[restore_idx];
      if (r.id == id && r.settings == s) {
        ++restore_idx;
        r.resumed = true;
        r.config = point_config(base, dse_dir, s, id, r.warm_from);
        sweep.points.push_back(std::move(r));
        ++sweep.resumed_points;
        return common::Status::Ok();
      }
      // The plan diverged from the stored sweep (cannot happen under the
      // fingerprint unless the file was edited) — solve live from here on.
      // The log still holds the unconsumed blocks, so it must be
      // compacted before the next append.
      restore_idx = restored.size();
      log_ready = false;
    }

    const int warm_from = nearest_neighbor(sweep.points, s, axes);
    if (warm_from >= 0) {
      const PointResult& donor =
          sweep.points[static_cast<std::size_t>(warm_from)];
      const std::string seed_path =
          dse_dir + "/point_" + std::to_string(id) + ".seed";
      const common::Status st = flow::save_assignment_seed(
          seed_path, donor.assignment,
          flow::assignment_seed_fingerprint(
              static_cast<int>(donor.assignment.size()), n_rules));
      if (!st.ok()) return st;
    }

    PointResult p;
    p.id = id;
    p.settings = s;
    p.warm_from = warm_from;
    p.config = point_config(base, dse_dir, s, id, warm_from);

    auto session = std::make_unique<flow::Session>(p.config);
    session->cancel_token() = options.cancel;
    if (world != nullptr) session->set_world(*world);
    flow::ReuseHooks hooks;
    if (anchor != nullptr) {
      // Everything the axes cannot touch rides over from the anchor:
      // geometry cache, parsed design, synthesized+routed tree, nets.
      hooks.geometry = anchor->geometry();
      hooks.design = &pristine_design;
      hooks.cts = &anchor->cts();
      hooks.nets = &anchor->nets();
    }
    if (!memo_union.empty()) hooks.memo_in = &memo_union;
    ndr::MemoSnapshot memo_out;
    hooks.memo_out = &memo_out;
    session->set_reuse(hooks);

    flow::Flow flow(*session);
    if (anchor == nullptr) {
      // Snapshot the design between prepare() and run(): run() applies
      // this point's max_skew override in place, and later points must
      // copy the design as LOADED, not as overridden (run()'s own
      // override then lands on the copy). prepare() is idempotent, so
      // run() below does not repeat the build.
      if (common::Status st = flow.prepare(); !st.ok()) return st;
      pristine_design = session->design();
    }
    common::Result<flow::FlowResult> run = flow.run();
    if (!run.ok()) return run.status();
    const flow::FlowResult& res = run.value();

    const ndr::FlowEvaluation& ev = res.final_eval();
    p.feasible = res.feasible;
    p.total_power = ev.power.total_power;
    p.switched_cap = ev.power.switched_cap;
    p.skew = ev.timing.skew();
    p.sink_arrival = ev.timing.sink_arrival;
    const ndr::RuleAssignment* assignment = res.final_assignment();
    if (assignment == nullptr) {
      return common::Status::Internal("dse point produced no assignment");
    }
    p.assignment = *assignment;

    sweep_scope.metrics().accumulate(
        session->obs_scope().metrics().snapshot());

    if (anchor == nullptr) {
      n_rules = static_cast<int>(session->technology().rules.size());
      sweep.trained_predictor =
          res.smart ? res.smart->trained_predictor : nullptr;
      // Later points share one World: tech parsed once, predictor trained
      // once (training is axis-independent — value-neutral reuse).
      if (sweep.trained_predictor != nullptr &&
          (world == nullptr || world->predictor == nullptr)) {
        harvested = world != nullptr ? *world : session->world();
        harvested.predictor = sweep.trained_predictor;
        world = &harvested;
      }
      anchor = std::move(session);
    }

    if (warm_from >= 0) ++sweep.warm_started;
    ++sweep.solved_points;
    sweep.points.push_back(std::move(p));
    merge_memo(std::move(memo_out));
    if (log_ready) {
      return append_sweep_point(ck_path, block_of(sweep.points.back()));
    }
    common::Status sv =
        write_sweep_log(ck_path, fp, n_rules, blocks_of(sweep.points));
    log_ready = sv.ok();
    return sv;
  };

  // Plan and solve. Grid: the full Cartesian product in lexicographic
  // order (power outer, margin inner). Refine: axis-extreme corners, then
  // deterministic bisection between adjacent front points.
  if (base.dse_mode == "grid") {
    for (const double pw : axes.power) {
      for (const double sk : axes.skew) {
        for (const double mg : axes.margin) {
          const common::Status st = solve_point({pw, sk, mg});
          if (!st.ok()) return st;
        }
      }
    }
  } else {  // refine (config validation admits only grid|refine).
    const auto extremes = [](const std::vector<double>& axis) {
      std::vector<double> e{axis.front()};
      if (axis.back() != axis.front()) e.push_back(axis.back());
      return e;
    };
    std::vector<PointSettings> corners;
    for (const double pw : extremes(axes.power)) {
      for (const double sk : extremes(axes.skew)) {
        for (const double mg : extremes(axes.margin)) {
          const PointSettings s{pw, sk, mg};
          if (std::find(corners.begin(), corners.end(), s) == corners.end()) {
            corners.push_back(s);
          }
        }
      }
    }
    for (const PointSettings& s : corners) {
      const common::Status st = solve_point(s);
      if (!st.ok()) return st;
    }
    const int budget = base.dse_points > 0
                           ? base.dse_points
                           : 2 * static_cast<int>(corners.size());
    while (static_cast<int>(sweep.points.size()) < budget) {
      const std::vector<int> front = pareto_front(sweep.points);
      if (front.size() < 2) break;
      // Objective-space spans over the current front normalize the gap
      // metric; a flat objective contributes nothing.
      double pmin = 0.0, pmax = 0.0, smin = 0.0, smax = 0.0;
      for (std::size_t i = 0; i < front.size(); ++i) {
        const PointResult& q = sweep.points[static_cast<std::size_t>(front[i])];
        if (i == 0) {
          pmin = pmax = q.total_power;
          smin = smax = q.skew;
        } else {
          pmin = std::min(pmin, q.total_power);
          pmax = std::max(pmax, q.total_power);
          smin = std::min(smin, q.skew);
          smax = std::max(smax, q.skew);
        }
      }
      const double pspan = pmax - pmin;
      const double sspan = smax - smin;
      struct Pair {
        double gap2;
        int first_id;
        std::size_t index;  // position of the pair's first point in front.
      };
      std::vector<Pair> pairs;
      for (std::size_t i = 0; i + 1 < front.size(); ++i) {
        const PointResult& a = sweep.points[static_cast<std::size_t>(front[i])];
        const PointResult& b =
            sweep.points[static_cast<std::size_t>(front[i + 1])];
        double g = 0.0;
        if (pspan > 0.0) {
          const double x = (a.total_power - b.total_power) / pspan;
          g += x * x;
        }
        if (sspan > 0.0) {
          const double x = (a.skew - b.skew) / sspan;
          g += x * x;
        }
        pairs.push_back({g, front[i], i});
      }
      std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
        if (a.gap2 != b.gap2) return a.gap2 > b.gap2;
        return a.first_id < b.first_id;
      });
      bool spawned = false;
      for (const Pair& pr : pairs) {
        const PointSettings& a =
            sweep.points[static_cast<std::size_t>(front[pr.index])].settings;
        const PointSettings& b =
            sweep.points[static_cast<std::size_t>(front[pr.index + 1])]
                .settings;
        const PointSettings mid{(a.power_weight + b.power_weight) / 2.0,
                                (a.max_skew_ps + b.max_skew_ps) / 2.0,
                                (a.uncertainty_margin + b.uncertainty_margin) /
                                    2.0};
        if (settings_taken(sweep.points, mid)) continue;
        const common::Status st = solve_point(mid);
        if (!st.ok()) return st;
        spawned = true;
        break;
      }
      if (!spawned) break;  // every bisection already solved: converged.
    }
  }

  sweep.front = pareto_front(sweep.points);
  for (const int id : sweep.front) {
    sweep.points[static_cast<std::size_t>(id)].on_front = true;
  }
  sweep.n_nets = sweep.points.empty()
                     ? 0
                     : static_cast<int>(sweep.points.front().assignment.size());

  if (common::Status st = write_pareto_csv(dse_dir + "/pareto.csv",
                                           sweep.points);
      !st.ok()) {
    return st;
  }
  if (common::Status st = write_front_json(dse_dir + "/front.json",
                                           sweep.points, sweep.front);
      !st.ok()) {
    return st;
  }

  {
    obs::ScopeBinding binding(sweep_scope);
    SNDR_COUNTER_ADD("dse.points_total",
                     static_cast<std::int64_t>(sweep.points.size()));
    SNDR_COUNTER_ADD("dse.points_solved", sweep.solved_points);
    SNDR_COUNTER_ADD("dse.points_resumed", sweep.resumed_points);
    SNDR_COUNTER_ADD("dse.warm_starts", sweep.warm_started);
    SNDR_GAUGE_SET("dse.front_size",
                   static_cast<double>(sweep.front.size()));
  }
  sweep.metrics = sweep_scope.metrics().snapshot();
  sweep.wall_seconds = seconds_since(t0);
  return sweep;
}

}  // namespace sndr::dse
