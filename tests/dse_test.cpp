// DSE subsystem tests (DESIGN.md §13): the warm-start equivalence suite.
//
// The sweep's whole reuse stack (shared World, shared GeometryCache, memo
// transplant, warm-start seeds) is contractually value-neutral-or-in-config,
// so the pinned property is: every sweep point — frontier points above all
// — reproduces bitwise when its emitted config is run standalone, at 1 and
// 8 threads, under a 32 KiB geometry budget, and when the sweep itself was
// resumed from a mid-sweep checkpoint. Plus the satellite coverage: the
// list-valued config keys (comma parsing, did-you-mean), the assignment
// seed file format, dominance/front rules, and the serve integration (dse
// job type, per-job cache-hit-rate histograms).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "dse/explorer.hpp"
#include "flow/checkpoint.hpp"
#include "flow/config.hpp"
#include "io/design_io.hpp"
#include "serve/server.hpp"
#include "serve/submit.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

using common::StatusCode;

std::string temp_dir(const std::string& name) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// A design written to disk (the explorer consumes configs, not objects).
std::string design_file(const std::string& dir, int sinks,
                        std::uint64_t seed) {
  const std::string path = dir + "/design.txt";
  io::write_design_file(path, test::small_design(sinks, seed));
  return path;
}

/// A small but non-degenerate sweep base: annealing on, so the
/// power_weight axis actually changes the accept/reject trajectory.
flow::FlowConfig sweep_base(const std::string& dir) {
  flow::FlowConfig c;
  c.design_path = design_file(dir, 48, 11);
  c.results_dir = dir + "/results";
  c.seed = 3;
  c.threads = 1;
  c.training_samples = 40;
  c.anneal_iterations = 60;
  c.dse = true;
  c.dse_power_weight = {0.5, 2.0};
  c.dse_uncertainty_margin = {0.03, 0.08};
  return c;
}

void expect_points_bitwise(const dse::SweepResult& a,
                           const dse::SweepResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_TRUE(a.points[i].settings == b.points[i].settings);
    EXPECT_EQ(a.points[i].assignment, b.points[i].assignment);
    EXPECT_EQ(a.points[i].total_power, b.points[i].total_power);
    EXPECT_EQ(a.points[i].switched_cap, b.points[i].switched_cap);
    EXPECT_EQ(a.points[i].skew, b.points[i].skew);
    EXPECT_EQ(a.points[i].sink_arrival, b.points[i].sink_arrival);
    EXPECT_EQ(a.points[i].feasible, b.points[i].feasible);
    EXPECT_EQ(a.points[i].warm_from, b.points[i].warm_from);
  }
  EXPECT_EQ(a.front, b.front);
}

// ---- list-valued config keys (satellite: set_list) ------------------------

TEST(DseConfig, CommaListsParseAndTrim) {
  flow::FlowConfig c;
  ASSERT_TRUE(c.set("dse_power_weight", "0.5,1.0,2.0").ok());
  EXPECT_EQ(c.dse_power_weight, (std::vector<double>{0.5, 1.0, 2.0}));
  // Spaces around items are cosmetic; hyphenated spelling is the same key.
  ASSERT_TRUE(c.set("dse-max-skew", " 10 , 25.5 ").ok());
  EXPECT_EQ(c.dse_max_skew, (std::vector<double>{10.0, 25.5}));
  ASSERT_TRUE(c.set("dse_uncertainty_margin", "0.05").ok());
  EXPECT_EQ(c.dse_uncertainty_margin, (std::vector<double>{0.05}));
}

TEST(DseConfig, ListValidationMatchesScalarKeys) {
  flow::FlowConfig c;
  // power weights must be > 0, skews >= 0 — same rules as the scalars.
  EXPECT_EQ(c.set("dse_power_weight", "0.5,0,2.0").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.set("dse_max_skew", "-1").code(), StatusCode::kInvalidArgument);
  // Empty items (trailing comma) and empty lists are rejected.
  EXPECT_EQ(c.set("dse_power_weight", "1.0,").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.set("dse_power_weight", "").code(),
            StatusCode::kInvalidArgument);
}

TEST(DseConfig, ListKeysKeepDidYouMean) {
  flow::FlowConfig c;
  common::Status s = c.set("dse_power_wieght", "1.0");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("did you mean 'dse_power_weight'"),
            std::string::npos)
      << s.message();
  // set_list refuses scalar keys by name rather than silently coercing.
  s = c.set_list("power_weight", {"1.0"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("not list-valued"), std::string::npos)
      << s.message();
}

TEST(DseConfig, ScalarDseKeysValidate) {
  flow::FlowConfig c;
  EXPECT_TRUE(c.set("dse", "true").ok());
  EXPECT_TRUE(c.set("dse_mode", "refine").ok());
  EXPECT_EQ(c.set("dse_mode", "bogus").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.set("dse_points", "12").ok());
  EXPECT_EQ(c.set("dse_points", "-1").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(c.set("power_weight", "0").code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.set("max_skew", "25").ok());
  EXPECT_DOUBLE_EQ(c.max_skew_ps, 25.0);
}

// ---- assignment seed files ------------------------------------------------

TEST(AssignmentSeed, RoundTripsBitwise) {
  const std::string dir = temp_dir("sndr_dse_seed");
  const std::string path = dir + "/a.seed";
  const std::vector<int> assignment{0, 2, 1, 4, 0, 3};
  const std::uint64_t fp = flow::assignment_seed_fingerprint(6, 5);
  ASSERT_TRUE(flow::save_assignment_seed(path, assignment, fp).ok());
  const auto loaded = flow::load_assignment_seed(path, fp);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), assignment);
}

TEST(AssignmentSeed, FingerprintAndFormatGuards) {
  const std::string dir = temp_dir("sndr_dse_seed_bad");
  const std::string path = dir + "/a.seed";
  EXPECT_EQ(flow::load_assignment_seed(path, 1).status().code(),
            StatusCode::kNotFound);
  const std::uint64_t fp = flow::assignment_seed_fingerprint(4, 5);
  ASSERT_TRUE(flow::save_assignment_seed(path, {1, 2, 3, 4}, fp).ok());
  // A seed for a different search shape is well-formed but unusable.
  const auto wrong =
      flow::load_assignment_seed(path, flow::assignment_seed_fingerprint(5, 5));
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrong.status().message().find("delete it to start over"),
            std::string::npos);
  // Malformed content is a parse error with a path:line diagnostic.
  std::ofstream(path, std::ios::trunc) << "not a seed file\n";
  const auto bad = flow::load_assignment_seed(path, fp);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find(path + ":1"), std::string::npos);
}

// The fingerprint is part of the seed format; the literals pin its value
// and one seed file as written by an earlier build.
TEST(AssignmentSeed, StoredFileFromEarlierBuildStillLoads) {
  const std::uint64_t fp = flow::assignment_seed_fingerprint(6, 5);
  EXPECT_EQ(fp, 5121799234171114054ULL);
  const std::string stored =
      "sndr.assignment_seed/1\n"
      "fingerprint 5121799234171114054\n"
      "assignment 0 2 1 4 0 3\n";
  const std::string path = temp_dir("sndr_dse_seed_stored") + "/a.seed";
  std::ofstream(path) << stored;
  const auto loaded = flow::load_assignment_seed(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value(), (std::vector<int>{0, 2, 1, 4, 0, 3}));

  ASSERT_TRUE(flow::save_assignment_seed(path, loaded.value(), fp).ok());
  std::stringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), stored);
}

// ---- dominance / front ----------------------------------------------------

dse::PointResult make_point(int id, double power, double skew, double margin,
                            bool feasible = true) {
  dse::PointResult p;
  p.id = id;
  p.total_power = power;
  p.skew = skew;
  p.settings.uncertainty_margin = margin;
  p.feasible = feasible;
  return p;
}

TEST(DseDominance, RequiresNoWorseEverywhereStrictlyBetterSomewhere) {
  const dse::PointResult a = make_point(0, 1.0, 2.0, 0.05);
  const dse::PointResult b = make_point(1, 2.0, 2.0, 0.05);
  EXPECT_TRUE(dse::dominates(a, b));   // strictly less power.
  EXPECT_FALSE(dse::dominates(b, a));
  EXPECT_FALSE(dse::dominates(a, a));  // equal everywhere: no domination.
  // More guardband at equal power/skew dominates (bigger is better).
  const dse::PointResult c = make_point(2, 1.0, 2.0, 0.10);
  EXPECT_TRUE(dse::dominates(c, a));
  EXPECT_FALSE(dse::dominates(a, c));
  // Trade-offs (better on one axis, worse on another) never dominate.
  const dse::PointResult d = make_point(3, 0.5, 3.0, 0.05);
  EXPECT_FALSE(dse::dominates(d, a));
  EXPECT_FALSE(dse::dominates(a, d));
}

TEST(DseDominance, FrontExcludesDominatedAndInfeasible) {
  std::vector<dse::PointResult> pts;
  pts.push_back(make_point(0, 2.0, 2.0, 0.05));          // dominated by 1.
  pts.push_back(make_point(1, 1.0, 2.0, 0.05));
  pts.push_back(make_point(2, 0.5, 5.0, 0.05));          // trade-off: stays.
  pts.push_back(make_point(3, 0.1, 0.1, 0.99, false));   // infeasible.
  const std::vector<int> front = dse::pareto_front(pts);
  EXPECT_EQ(front, (std::vector<int>{2, 1}));  // sorted by power.
}

// Points that tie on every objective are one trade-off: the front keeps
// the lowest id of each tie group, whatever order the ids arrive in, and
// an infeasible twin never claims the slot.
TEST(DseDominance, FrontCollapsesExactTiesToLowestId) {
  std::vector<dse::PointResult> pts;
  pts.push_back(make_point(0, 3.0, 1.0, 0.05));
  pts.push_back(make_point(1, 1.0, 4.0, 0.05, false));  // infeasible twin.
  pts.push_back(make_point(2, 2.0, 2.0, 0.05));
  pts.push_back(make_point(3, 1.0, 4.0, 0.05));
  pts.push_back(make_point(4, 2.0, 2.0, 0.05));  // ties 2.
  pts.push_back(make_point(5, 1.0, 4.0, 0.05));  // ties 3.
  pts.push_back(make_point(6, 2.0, 2.0, 0.10));  // more guardband: no tie.
  pts.push_back(make_point(7, 3.0, 1.0, 0.05));  // ties 0.
  const std::vector<int> front = dse::pareto_front(pts);
  EXPECT_EQ(front, (std::vector<int>{3, 6, 0}));
}

// ---- the sweep ------------------------------------------------------------

TEST(DseSweep, GridCoversAxesAndEmitsArtifacts) {
  const std::string dir = temp_dir("sndr_dse_grid");
  const flow::FlowConfig base = sweep_base(dir);
  const auto sweep = dse::explore(base);
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  EXPECT_EQ(sweep->points.size(), 4u);  // 2 power x 1 skew x 2 margin.
  EXPECT_EQ(sweep->solved_points, 4);
  EXPECT_EQ(sweep->warm_started, 3);  // every point after the first.
  EXPECT_FALSE(sweep->front.empty());
  ASSERT_NE(sweep->trained_predictor, nullptr);
  for (const int id : sweep->front) {
    EXPECT_TRUE(sweep->points[static_cast<std::size_t>(id)].on_front);
  }
  const std::string dse_dir = base.output_path(base.dse_out);
  EXPECT_TRUE(std::filesystem::exists(dse_dir + "/pareto.csv"));
  EXPECT_TRUE(std::filesystem::exists(dse_dir + "/front.json"));
  EXPECT_TRUE(std::filesystem::exists(dse_dir + "/sweep.ck"));
  for (const dse::PointResult& p : sweep->points) {
    EXPECT_TRUE(std::filesystem::exists(
        dse_dir + "/point_" + std::to_string(p.id) + ".manifest.json"));
    if (p.warm_from >= 0) {
      EXPECT_TRUE(std::filesystem::exists(
          dse_dir + "/point_" + std::to_string(p.id) + ".seed"));
    }
  }
  // Sweep-level metrics: reuse is visible, not just asserted.
  EXPECT_EQ(sweep->metrics.counter("dse.points_total"), 4);
  EXPECT_EQ(sweep->metrics.counter("dse.warm_starts"), 3);
  EXPECT_GT(sweep->metrics.counter("ndr.exact_cache.transplants"), 0);
  // One search state per point, lent from greedy to the annealer.
  EXPECT_EQ(sweep->metrics.counter("ndr.search_states"), 4);
}

// The headline contract: every frontier point's emitted config, run
// standalone through the same execute_job entry the CLI uses — no sweep,
// no shared cache, cold session — reproduces the sweep's numbers bitwise.
TEST(DseSweep, FrontierPointsReproduceStandaloneBitwise) {
  const std::string dir = temp_dir("sndr_dse_standalone");
  const auto sweep = dse::explore(sweep_base(dir));
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  ASSERT_FALSE(sweep->front.empty());
  for (const int id : sweep->front) {
    SCOPED_TRACE("front point " + std::to_string(id));
    const dse::PointResult& p = sweep->points[static_cast<std::size_t>(id)];
    const serve::JobOutcome solo = serve::execute_job(p.config, nullptr);
    ASSERT_TRUE(solo.ok()) << solo.status.to_string();
    ASSERT_TRUE(solo.result.has_value());
    EXPECT_EQ(*solo.result->final_assignment(), p.assignment);
    EXPECT_EQ(solo.result->final_eval().power.total_power, p.total_power);
    EXPECT_EQ(solo.result->final_eval().power.switched_cap, p.switched_cap);
    EXPECT_EQ(solo.result->final_eval().timing.skew(), p.skew);
    EXPECT_EQ(solo.result->final_eval().timing.sink_arrival, p.sink_arrival);
    EXPECT_EQ(solo.result->feasible, p.feasible);
  }
}

TEST(DseSweep, EightThreadSweepMatchesOneThread) {
  const std::string dir1 = temp_dir("sndr_dse_t1");
  const std::string dir8 = temp_dir("sndr_dse_t8");
  const auto serial = dse::explore(sweep_base(dir1));
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();
  flow::FlowConfig threaded = sweep_base(dir8);
  threaded.threads = 8;
  const auto parallel = dse::explore(threaded);
  ASSERT_TRUE(parallel.ok()) << parallel.status().to_string();
  expect_points_bitwise(serial.value(), parallel.value());
}

TEST(DseSweep, GeometryBudget32KiBMatchesUnbounded) {
  const std::string dir_a = temp_dir("sndr_dse_nobudget");
  const std::string dir_b = temp_dir("sndr_dse_budget");
  const auto unbounded = dse::explore(sweep_base(dir_a));
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().to_string();
  flow::FlowConfig budgeted = sweep_base(dir_b);
  budgeted.memory_budget_bytes = 32 * 1024;  // forces LRU eviction.
  const auto bounded = dse::explore(budgeted);
  ASSERT_TRUE(bounded.ok()) << bounded.status().to_string();
  expect_points_bitwise(unbounded.value(), bounded.value());
}

// Kill the sweep after two points (simulated by rewriting the checkpoint
// to its first two point blocks), resume, and require bitwise identity
// with the uninterrupted sweep — point granularity preemption survival.
TEST(DseSweep, ResumesFromMidSweepCheckpointBitwise) {
  const std::string dir = temp_dir("sndr_dse_resume");
  const flow::FlowConfig base = sweep_base(dir);
  const auto whole = dse::explore(base);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  ASSERT_EQ(whole->points.size(), 4u);

  // Truncate sweep.ck to its first 2 points (text surgery on the real
  // file — exactly what a mid-sweep kill leaves behind).
  const std::string ck_path = base.output_path(base.dse_out) + "/sweep.ck";
  std::vector<std::string> lines;
  {
    std::ifstream f(ck_path);
    std::string l;
    while (std::getline(f, l)) lines.push_back(l);
  }
  std::vector<std::string> kept;
  int points_seen = 0;
  for (const std::string& l : lines) {
    if (l.rfind("point ", 0) == 0 && ++points_seen > 2) break;
    kept.push_back(l);
  }
  {
    std::ofstream f(ck_path, std::ios::trunc);
    for (const std::string& l : kept) f << l << "\n";
  }

  const auto resumed = dse::explore(base);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed->resumed_points, 2);
  EXPECT_EQ(resumed->solved_points, 2);
  expect_points_bitwise(whole.value(), resumed.value());
  // And the resumed sweep's frontier points still reproduce standalone.
  ASSERT_FALSE(resumed->front.empty());
  const dse::PointResult& p =
      resumed->points[static_cast<std::size_t>(resumed->front.front())];
  const serve::JobOutcome solo = serve::execute_job(p.config, nullptr);
  ASSERT_TRUE(solo.ok()) << solo.status.to_string();
  EXPECT_EQ(solo.result->final_eval().timing.sink_arrival, p.sink_arrival);
  EXPECT_EQ(*solo.result->final_assignment(), p.assignment);
}

TEST(DseSweep, PartialTrailingCheckpointBlockIsDroppedAndCompacted) {
  const std::string dir = temp_dir("sndr_dse_partial");
  const flow::FlowConfig base = sweep_base(dir);
  const auto whole = dse::explore(base);
  ASSERT_TRUE(whole.ok()) << whole.status().to_string();
  ASSERT_EQ(whole->points.size(), 4u);

  // Cut the append-only log mid-block — what a crash (or full disk)
  // during the 3rd point's append leaves behind. The readable prefix (2
  // complete blocks) must survive; the partial tail must be dropped.
  const std::string ck_path = base.output_path(base.dse_out) + "/sweep.ck";
  std::vector<std::string> lines;
  {
    std::ifstream f(ck_path);
    std::string l;
    while (std::getline(f, l)) lines.push_back(l);
  }
  std::vector<std::string> kept;
  int points_seen = 0, into_third = 0;
  for (const std::string& l : lines) {
    if (l.rfind("point ", 0) == 0) ++points_seen;
    if (points_seen > 2 && ++into_third > 3) break;  // half a block.
    kept.push_back(l);
  }
  {
    std::ofstream f(ck_path, std::ios::trunc);
    for (const std::string& l : kept) f << l << "\n";
  }

  const auto resumed = dse::explore(base);
  ASSERT_TRUE(resumed.ok()) << resumed.status().to_string();
  EXPECT_EQ(resumed->resumed_points, 2);
  EXPECT_EQ(resumed->solved_points, 2);
  expect_points_bitwise(whole.value(), resumed.value());

  // The resume compacted the log: a third pass restores every point from
  // a clean file without solving anything.
  const auto again = dse::explore(base);
  ASSERT_TRUE(again.ok()) << again.status().to_string();
  EXPECT_EQ(again->resumed_points, 4);
  EXPECT_EQ(again->solved_points, 0);
  expect_points_bitwise(whole.value(), again.value());
}

TEST(DseSweep, CheckpointForDifferentSweepIsRejected) {
  const std::string dir = temp_dir("sndr_dse_mismatch");
  flow::FlowConfig base = sweep_base(dir);
  ASSERT_TRUE(dse::explore(base).ok());
  base.dse_power_weight = {0.5, 3.0};  // different axis, same dse_out.
  const auto again = dse::explore(base);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.status().message().find("delete it to start over"),
            std::string::npos)
      << again.status().to_string();
}

/// A sweep config with a fixed design path: the path is part of the sweep
/// fingerprint, so a pinned value needs the same string on every host
/// (relative — resolved against the working directory).
flow::FlowConfig pinned_sweep(const std::string& dir) {
  flow::FlowConfig c;
  c.design_path = "sndr_dse_fingerprint_design.txt";
  c.results_dir = dir + "/results";
  c.seed = 3;
  c.threads = 1;
  c.training_samples = 40;
  c.anneal_iterations = 60;
  c.dse = true;
  c.dse_power_weight = {0.5, 2.0};
  return c;
}

TEST(DseSweep, FingerprintIsPinnedInLogHeader) {
  const std::string dir = temp_dir("sndr_dse_fp");
  const flow::FlowConfig base = pinned_sweep(dir);
  // Run from `dir` so the relative design path lands there.
  struct CwdGuard {
    std::filesystem::path saved = std::filesystem::current_path();
    ~CwdGuard() { std::filesystem::current_path(saved); }
  } guard;
  std::filesystem::current_path(dir);
  io::write_design_file(base.design_path, test::small_design(8, 11));
  const auto sweep = dse::explore(base);
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  std::ifstream f(base.output_path(base.dse_out) + "/sweep.ck");
  std::string schema, fingerprint;
  std::getline(f, schema);
  std::getline(f, fingerprint);
  EXPECT_EQ(schema, "sndr.dse_sweep/2");
  EXPECT_EQ(fingerprint, "fingerprint 1044162201152309321");
}

// The same sweep's log as written by an earlier build: every point
// resumes from it, so nothing is solved and the design is never read.
TEST(DseSweep, StoredLogFromEarlierBuildResumesEveryPoint) {
  const flow::FlowConfig base = pinned_sweep(temp_dir("sndr_dse_stored"));
  const std::string arrival =
      "arrival 0x1.7ff19016e6a06p-35 0x1.822c7fc170248p-35 "
      "0x1.7ff0c845f3eecp-35 0x1.81c5941aa9ddap-35 0x1.8232e8fc651bcp-35 "
      "0x1.81d5bca1dc77ep-35 0x1.8007e5a5560eap-35 0x1.7ff3880a24fadp-35\n";
  const std::string results =
      "feasible 1\n"
      "power 0x1.70c78e237f77fp-14\n"
      "switched_cap 0x1.2c73f483fa305p-44\n"
      "skew 0x1.21105b38968p-42\n" +
      arrival + "assignment 1 1\nend\n";
  const std::string stored =
      "sndr.dse_sweep/2\n"
      "fingerprint 1044162201152309321\n"
      "n_rules 5\n"
      "point 0\n"
      "settings 0x1p-1 0x0p+0 0x1.999999999999ap-5\n"
      "warm_from -1\n" +
      results +
      "point 1\n"
      "settings 0x1p+1 0x0p+0 0x1.999999999999ap-5\n"
      "warm_from 0\n" +
      results;
  const std::string dse_dir = base.output_path(base.dse_out);
  std::filesystem::create_directories(dse_dir);
  std::ofstream(dse_dir + "/sweep.ck") << stored;

  const auto sweep = dse::explore(base);
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  EXPECT_EQ(sweep->resumed_points, 2);
  EXPECT_EQ(sweep->solved_points, 0);
  ASSERT_EQ(sweep->points.size(), 2u);
  for (const dse::PointResult& p : sweep->points) {
    EXPECT_EQ(p.total_power, 0x1.70c78e237f77fp-14);
    EXPECT_EQ(p.skew, 0x1.21105b38968p-42);
    EXPECT_EQ(p.sink_arrival.size(), 8u);
    EXPECT_EQ(p.assignment, (std::vector<int>{1, 1}));
  }
  EXPECT_EQ(sweep->points[1].warm_from, 0);
  std::stringstream kept;
  kept << std::ifstream(dse_dir + "/sweep.ck").rdbuf();
  EXPECT_EQ(kept.str(), stored);  // a clean, fully consumed log is kept.
}

TEST(DseSweep, RefineModeBisectsOnlyNonDominatedGaps) {
  const std::string dir = temp_dir("sndr_dse_refine");
  flow::FlowConfig base = sweep_base(dir);
  base.dse_mode = "refine";
  base.dse_points = 6;
  const auto sweep = dse::explore(base);
  ASSERT_TRUE(sweep.ok()) << sweep.status().to_string();
  // Corners first (2 axes with 2 extremes each = 4), then bisections up
  // to the budget; converged-early sweeps may stop under it.
  ASSERT_GE(sweep->points.size(), 4u);
  EXPECT_LE(sweep->points.size(), 6u);
  // Every bisection landed between two FRONT points of its moment: its
  // settings are a componentwise midpoint, inside the axis ranges.
  for (std::size_t i = 4; i < sweep->points.size(); ++i) {
    const dse::PointSettings& s = sweep->points[i].settings;
    EXPECT_GE(s.power_weight, 0.5);
    EXPECT_LE(s.power_weight, 2.0);
    EXPECT_GE(s.uncertainty_margin, 0.03);
    EXPECT_LE(s.uncertainty_margin, 0.08);
  }
  // No two points share settings (duplicate bisections are skipped).
  for (std::size_t i = 0; i < sweep->points.size(); ++i) {
    for (std::size_t j = i + 1; j < sweep->points.size(); ++j) {
      EXPECT_FALSE(sweep->points[i].settings == sweep->points[j].settings)
          << i << " vs " << j;
    }
  }
  // The emitted front never contains a dominated point.
  for (const int fid : sweep->front) {
    const dse::PointResult& p = sweep->points[static_cast<std::size_t>(fid)];
    for (const dse::PointResult& q : sweep->points) {
      EXPECT_FALSE(q.feasible && q.id != p.id && dse::dominates(q, p))
          << "front point " << p.id << " dominated by " << q.id;
    }
  }
}

// ---- serve integration ----------------------------------------------------

// A `dse` job type rides the same queue as flow jobs; the server's
// per-job cache-effectiveness histograms (the gauge-overwrite fix) carry
// one observation per job instead of last-writer-wins.
TEST(DseServe, DseJobRunsThroughServerWithPerJobHistograms) {
  const std::string dir = temp_dir("sndr_dse_serve");
  serve::ServerOptions options;
  options.workers = 2;
  serve::Server server(options);

  flow::FlowConfig sweep_job = sweep_base(dir);
  flow::FlowConfig flow_job;
  flow_job.design_path = sweep_job.design_path;
  flow_job.results_dir = dir + "/results_flow";
  flow_job.training_samples = 40;
  flow_job.anneal_iterations = 60;

  const auto id_sweep = server.submit(sweep_job);
  const auto id_flow = server.submit(flow_job);
  ASSERT_TRUE(id_sweep.ok());
  ASSERT_TRUE(id_flow.ok());
  const std::vector<serve::JobRecord> records = server.drain();
  ASSERT_EQ(records.size(), 2u);

  for (const serve::JobRecord& r : records) {
    ASSERT_TRUE(r.outcome.ok()) << r.outcome.status.to_string();
    EXPECT_TRUE(r.outcome.feasible());
    if (r.id == id_sweep.value()) {
      ASSERT_TRUE(r.outcome.dse.has_value());
      EXPECT_EQ(r.outcome.dse->points.size(), 4u);
      EXPECT_FALSE(r.outcome.dse->front.empty());
      EXPECT_FALSE(r.outcome.result.has_value());
    } else {
      EXPECT_TRUE(r.outcome.result.has_value());
    }
  }

  const auto snap = server.metrics_snapshot();
  const auto* exact = snap.histogram("serve.job_exact_cache_hit_rate");
  ASSERT_NE(exact, nullptr);
  EXPECT_EQ(exact->count, 2);  // one observation PER JOB, none overwritten.
  EXPECT_GE(exact->min, 0.0);
  EXPECT_LE(exact->max, 1.0);
  const auto* geo = snap.histogram("serve.job_geometry_cache_hit_rate");
  ASSERT_NE(geo, nullptr);
  EXPECT_EQ(geo->count, 2);
  EXPECT_GE(geo->min, 0.0);
  EXPECT_GT(geo->max, 0.0);  // at least the sweep's cache reuse shows up.
}

}  // namespace
}  // namespace sndr
