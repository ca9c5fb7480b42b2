// Session/Flow architecture tests (DESIGN.md §9): unified FlowConfig
// precedence (CLI > file > defaults), typed error boundaries at the file
// loaders, the staged runner's stage records, and — the load-bearing one —
// two Sessions running full flows on two threads producing bit-identical
// results vs. serial runs with fully disjoint metrics snapshots. The
// concurrent test also runs under TSan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "eval_compare.hpp"
#include "extract/net_geometry.hpp"
#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "fuzz_util.hpp"
#include "io/design_io.hpp"
#include "io/spef.hpp"
#include "ndr/annealer.hpp"
#include "ndr/optimizer.hpp"
#include "obs/scope.hpp"
#include "tech/buffer_lib.hpp"
#include "tech/technology.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

using common::Status;
using common::StatusCode;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  return path;
}

// ---- FlowConfig -----------------------------------------------------------

TEST(FlowConfig, PrecedenceIsCliOverFileOverDefaults) {
  const std::string conf = write_file("flow_test_prec.conf",
                                      "# comment\n"
                                      "threads = 2\n"
                                      "seed = 9\n"
                                      "smart = false\n"
                                      "\n"
                                      "results_dir = out\n");
  flow::FlowConfig config;
  ASSERT_TRUE(config.from_file(conf).ok());
  // File overrides defaults...
  EXPECT_EQ(config.threads, 2);
  EXPECT_EQ(config.seed, 9u);
  EXPECT_FALSE(config.smart);
  EXPECT_EQ(config.results_dir, "out");
  // ...untouched keys keep their defaults...
  EXPECT_EQ(config.max_passes, 4);
  EXPECT_EQ(config.scoring, "models");
  // ...and a later set() (the CLI path) overrides the file.
  ASSERT_TRUE(config.set("threads", "4").ok());
  ASSERT_TRUE(config.set("smart", "true").ok());
  EXPECT_EQ(config.threads, 4);
  EXPECT_TRUE(config.smart);
  EXPECT_EQ(config.seed, 9u);  // file value survives unrelated overrides.
}

TEST(FlowConfig, RejectsUnknownKeysAndBadValues) {
  flow::FlowConfig config;
  Status s = config.set("bogus", "1");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("bogus"), std::string::npos);
  EXPECT_EQ(config.set("threads", "abc").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(config.set("threads", "-7").code(),
            StatusCode::kInvalidArgument);
  // Sizes that overflow std::size_t once scaled by their suffix.
  EXPECT_EQ(config.set("memory_budget", "17179869184G").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(config.set("memory_budget", "18014398509481985K").code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(config.set("memory_budget", "17179869183G").ok());
  EXPECT_EQ(config.memory_budget_bytes, std::size_t{17179869183} << 30);
  EXPECT_EQ(config.set("scoring", "psychic").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(config.set("smart", "maybe").code(),
            StatusCode::kInvalidArgument);
}

TEST(FlowConfig, UnknownKeySuggestsNearestKnownKey) {
  flow::FlowConfig config;
  // One edit away: typo'd key names get a did-you-mean pointer.
  Status s = config.set("thread", "4");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("did you mean 'threads'?"), std::string::npos)
      << s.message();
  s = config.set("trainng_samples", "10");
  EXPECT_NE(s.message().find("did you mean 'training_samples'?"),
            std::string::npos)
      << s.message();
  // Hyphen spelling normalizes before matching, same as a valid flag.
  s = config.set("metrics-outt", "m.json");
  EXPECT_NE(s.message().find("did you mean 'metrics_out'?"),
            std::string::npos)
      << s.message();
  // Nothing close: no far-fetched suggestion.
  s = config.set("zzzzqqqq", "1");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message().find("did you mean"), std::string::npos)
      << s.message();
}

TEST(FlowConfig, FromFileDiagnosticsCarryPathAndLine) {
  flow::FlowConfig config;
  EXPECT_EQ(config.from_file(temp_path("flow_test_missing.conf")).code(),
            StatusCode::kNotFound);

  const std::string conf =
      write_file("flow_test_bad.conf", "threads = 2\nbogus = 1\n");
  Status s = config.from_file(conf);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(conf + ":2:"), std::string::npos) << s.message();
}

TEST(FlowConfig, KnownKeysRoundTripThroughSet) {
  // Every advertised key must be settable — keeps usage text honest.
  flow::FlowConfig config;
  for (const std::string& key : flow::FlowConfig::known_keys()) {
    // Values that parse for every key type (paths accept anything).
    Status s = config.set(key, "1");
    if (!s.ok()) s = config.set(key, "models");  // enum: scoring.
    if (!s.ok()) s = config.set(key, "grid");    // enum: dse_mode.
    if (!s.ok()) s = config.set(key, "0.5");     // guard bands: [0, 1).
    EXPECT_TRUE(s.ok()) << key << ": " << s.to_string();
  }
}

TEST(FlowConfig, OutputPathResolvesUnderResultsDir) {
  flow::FlowConfig config;
  config.results_dir = "results";
  EXPECT_EQ(config.output_path("run.csv"), "results/run.csv");
  EXPECT_EQ(config.output_path("/abs/run.csv"), "/abs/run.csv");
  config.results_dir = "";
  EXPECT_EQ(config.output_path("run.csv"), "run.csv");
}

TEST(FlowConfig, MapsToOptimizerAndAnnealOptions) {
  flow::FlowConfig config;
  ASSERT_TRUE(config.set("slew_margin", "0.07").ok());
  ASSERT_TRUE(config.set("uncertainty_margin", "0.08").ok());
  ASSERT_TRUE(config.set("em_margin", "0.02").ok());
  ASSERT_TRUE(config.set("skew_margin", "0.15").ok());
  ASSERT_TRUE(config.set("power_weight", "0.5").ok());
  const ndr::OptimizerOptions opt = config.optimizer_options();
  const ndr::AnnealOptions ann = config.anneal_options();
  // One set of margin keys reaches both searches through the one context.
  for (const ndr::MoveMargins& m :
       {opt.search.margins, ann.search.margins}) {
    EXPECT_EQ(m.slew, 0.07);
    EXPECT_EQ(m.uncertainty, 0.08);
    EXPECT_EQ(m.em, 0.02);
    EXPECT_EQ(m.skew, 0.15);
  }
  EXPECT_EQ(ann.power_weight, 0.5);

  // `prewarm` is not a key (the batched prewarm always runs), and no known
  // key is close enough to be offered in its place.
  const Status s = config.set("prewarm", "false");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unknown option 'prewarm'"), std::string::npos)
      << s.message();
  EXPECT_EQ(s.message().find("did you mean"), std::string::npos)
      << s.message();
}

TEST(FlowConfig, RejectsOutOfRangeMarginsAndTemperatures) {
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"slew_margin", "1.5"},          {"slew_margin", "1"},
      {"uncertainty_margin", "-3"},    {"em_margin", "-0.01"},
      {"skew_margin", "2"},            {"anneal_t_start_frac", "0"},
      {"anneal_t_end_frac", "-1"},     {"dse_uncertainty_margin", "0.05,1.2"},
      {"dse_uncertainty_margin", "-0.1"},
  };
  for (const auto& [key, value] : bad) {
    flow::FlowConfig config;
    const flow::FlowConfig before = config;
    const Status s = config.set(key, value);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << key << "=" << value;
    EXPECT_NE(s.message().find(key), std::string::npos) << s.message();
    // A rejected value must not half-apply.
    EXPECT_EQ(config.slew_margin, before.slew_margin);
    EXPECT_EQ(config.uncertainty_margin, before.uncertainty_margin);
    EXPECT_EQ(config.em_margin, before.em_margin);
    EXPECT_EQ(config.skew_margin, before.skew_margin);
    EXPECT_EQ(config.anneal_t_start_frac, before.anneal_t_start_frac);
    EXPECT_EQ(config.anneal_t_end_frac, before.anneal_t_end_frac);
    EXPECT_EQ(config.dse_uncertainty_margin, before.dse_uncertainty_margin);
  }
  // The edges of the valid ranges are accepted.
  flow::FlowConfig config;
  EXPECT_TRUE(config.set("slew_margin", "0").ok());
  EXPECT_TRUE(config.set("skew_margin", "0.999").ok());
  EXPECT_TRUE(config.set("anneal_t_end_frac", "1e-9").ok());
  EXPECT_TRUE(config.set("dse_uncertainty_margin", "0,0.5").ok());
}

TEST(FlowConfig, SearchesLeaveTheGlobalThreadCountAlone) {
  // Only the Session's ThreadBudget applies FlowConfig::threads; a search
  // mutating the process-wide pool would race other jobs' parallel
  // regions.
  struct Restore {
    ~Restore() { common::set_thread_count(-1); }
  } restore;
  common::set_thread_count(3);
  flow::FlowConfig config;
  config.threads = 1;
  config.anneal_iterations = 200;
  const test::Flow f = test::small_flow();
  const ndr::SmartNdrResult greedy = ndr::optimize_smart_ndr(
      f.cts.tree, f.design, f.tech, f.nets, config.optimizer_options());
  EXPECT_EQ(common::thread_count(), 3);
  EXPECT_EQ(greedy.stats.threads_used, 3);
  ndr::anneal_rules(f.cts.tree, f.design, f.tech, f.nets, greedy.assignment,
                    config.anneal_options());
  EXPECT_EQ(common::thread_count(), 3);
}

// ---- Typed loader boundaries ----------------------------------------------

TEST(TypedBoundaries, DesignLoader) {
  const std::string missing = temp_path("flow_test_no_such_design.txt");
  auto r = io::load_design_file(missing);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_NE(r.status().message().find(missing), std::string::npos);

  const std::string bad = write_file("flow_test_bad_design.txt", "garbage\n");
  r = io::load_design_file(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(bad + ":1:"), std::string::npos)
      << r.status().message();

  const std::string good = temp_path("flow_test_good_design.txt");
  io::write_design_file(good, test::small_design(32, 5));
  auto ok = io::load_design_file(good);
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  EXPECT_EQ(ok->sinks.size(), 32u);
}

TEST(TypedBoundaries, TechnologyLoader) {
  auto r = tech::load_technology_file(temp_path("flow_test_no_tech.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  const std::string bad =
      write_file("flow_test_bad_tech.txt", "no equals sign here\n");
  r = tech::load_technology_file(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(bad + ":1:"), std::string::npos)
      << r.status().message();
}

TEST(TypedBoundaries, SpefLoader) {
  auto r = io::load_spef_file(temp_path("flow_test_no_spef.spef"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  const std::string bad = write_file("flow_test_bad.spef", "*D_NET\n");
  r = io::load_spef_file(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(bad + ":1:"), std::string::npos)
      << r.status().message();
}

TEST(TypedBoundaries, BufferLibraryLoader) {
  auto r =
      tech::load_buffer_library_file(temp_path("flow_test_no_bufs.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);

  const std::string bad = write_file("flow_test_bad_bufs.txt",
                                     "# kit\nbuffer = BUFX2 not numbers\n");
  r = tech::load_buffer_library_file(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(bad + ":2:"), std::string::npos)
      << r.status().message();

  const std::string empty = write_file("flow_test_empty_bufs.txt", "# kit\n");
  r = tech::load_buffer_library_file(empty);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);

  const std::string good = write_file(
      "flow_test_good_bufs.txt",
      "buffer = BUFX2 1200 4e-15 20e-12 1.2e-15 80e-15 0.6\n"
      "buffer = BUFX8 400 9e-15 14e-12 2.8e-15 200e-15 0.5\n");
  auto ok = tech::load_buffer_library_file(good);
  ASSERT_TRUE(ok.ok()) << ok.status().to_string();
  const tech::BufferLibrary& lib = ok.value();
  ASSERT_EQ(lib.size(), 2);
  // Sorted weakest-first (descending drive resistance).
  EXPECT_GE(lib[0].drive_res, lib[1].drive_res);
}

// ---- Session / Flow -------------------------------------------------------

TEST(Session, LoadRequiresADesign) {
  flow::Session session((flow::FlowConfig()));
  Status s = session.load();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(Session, LoadsDesignAndTechFromFilesIdempotently) {
  flow::FlowConfig config;
  config.design_path = temp_path("flow_test_session_design.txt");
  io::write_design_file(config.design_path, test::small_design(48, 7));
  flow::Session session(config);
  ASSERT_TRUE(session.load().ok());
  EXPECT_TRUE(session.loaded());
  EXPECT_EQ(session.design().sinks.size(), 48u);
  EXPECT_TRUE(session.load().ok());  // idempotent.
}

// The nets and extract stages build nothing for a borrowed tree, so a
// hook set that lends the tree must lend everything built from it.
TEST(Session, BorrowedTreeNeedsItsDesignNetsAndGeometry) {
  const test::Flow f = test::small_flow(16, 3);
  const extract::GeometryCache geometry(f.cts.tree, f.design, f.nets, 0, {});
  flow::ReuseHooks full;
  full.design = &f.design;
  full.cts = &f.cts;
  full.nets = &f.nets;
  full.geometry = &geometry;
  flow::Session session((flow::FlowConfig()));
  EXPECT_NO_THROW(session.set_reuse(full));
  for (int missing = 0; missing < 3; ++missing) {
    flow::ReuseHooks partial = full;
    if (missing == 0) partial.design = nullptr;
    if (missing == 1) partial.nets = nullptr;
    if (missing == 2) partial.geometry = nullptr;
    EXPECT_THROW(session.set_reuse(partial), std::invalid_argument) << missing;
  }
  // Without a borrowed tree the other hooks stay independent.
  flow::ReuseHooks no_tree = full;
  no_tree.cts = nullptr;
  no_tree.nets = nullptr;
  EXPECT_NO_THROW(session.set_reuse(no_tree));
}

TEST(Flow, LoadFailureSurfacesAsTypedStatus) {
  flow::FlowConfig config;
  config.design_path = temp_path("flow_test_absent_design.txt");
  flow::Session session(config);
  flow::Flow f(session);
  common::Result<flow::FlowResult> r = f.run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  ASSERT_FALSE(f.stages().empty());
  EXPECT_EQ(f.stages()[0].name, "load");
  EXPECT_NE(f.stages()[0].status.find("not_found"), std::string::npos);
}

flow::FlowConfig small_run_config() {
  flow::FlowConfig config;
  config.smart = true;
  config.training_samples = 60;  // keep the optimizer quick.
  return config;
}

std::unique_ptr<flow::Session> run_small_flow(int sinks, std::uint64_t seed,
                                              flow::FlowResult& out) {
  auto session = std::make_unique<flow::Session>(small_run_config());
  session->set_design(test::small_design(sinks, seed));
  flow::Flow f(*session);
  common::Result<flow::FlowResult> r = f.run();
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  if (r.ok()) out = std::move(r.value());
  return session;
}

void expect_bit_identical(const ndr::FlowEvaluation& a,
                          const ndr::FlowEvaluation& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.power.total_power, b.power.total_power);
  EXPECT_EQ(a.power.switched_cap, b.power.switched_cap);
  EXPECT_EQ(a.timing.sink_arrival, b.timing.sink_arrival);
  EXPECT_EQ(a.timing.sink_slew, b.timing.sink_slew);
  EXPECT_EQ(a.slew_violations, b.slew_violations);
  EXPECT_EQ(a.uncertainty_violations, b.uncertainty_violations);
  EXPECT_EQ(a.em_violations, b.em_violations);
  EXPECT_EQ(a.feasible(), b.feasible());
}

TEST(Flow, RunsAllStagesInOrder) {
  flow::FlowResult result;
  auto session = run_small_flow(48, 1, result);
  const std::vector<std::string> expected = {
      "load", "cts",      "route",  "nets",    "extract",
      "optimize", "anneal", "corners", "report"};
  ASSERT_EQ(result.stages.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.stages[i].name, expected[i]);
  }
  // anneal/corners are off by default -> recorded as skipped, not absent.
  EXPECT_EQ(result.stages[5].status, "ok");
  EXPECT_EQ(result.stages[6].status, "skipped");
  EXPECT_EQ(result.stages[7].status, "skipped");
  EXPECT_EQ(result.stages[8].status, "ok");
  ASSERT_TRUE(result.smart.has_value());
  EXPECT_EQ(result.final_assignment(), &result.smart->assignment);
}

// A greedy-only run evaluates the full tree three times: the all-default
// and blanket table rows, and the optimizer's final signoff (greedy starts
// from the blanket row's evaluation). The route stage builds the one
// geometry cache that skew refinement and every later consumer extract
// from, so no net is ever walked outside it.
TEST(Flow, GreedyRunEvaluatesThreeTimesAndBuildsGeometryOnce) {
  flow::FlowResult result;
  auto session = run_small_flow(48, 1, result);
  ASSERT_TRUE(result.smart.has_value());
  const auto snap = session->obs_scope().metrics().snapshot();
  EXPECT_EQ(snap.counter("ndr.evaluations"), 3);
  EXPECT_EQ(result.smart->stats.full_evals, 1);
  EXPECT_EQ(snap.counter("extract.geometry.builds"), session->nets().size());
  EXPECT_EQ(snap.counter("extract.nets_fresh_walks"), 0);
}

// With the annealer on, it starts from greedy's signed-off result: the
// run adds only the annealer's final evaluation. Both searches work on the
// flow's one search state, and every signoff reads its memo: the two
// baseline rows, greedy's final one and the annealer's.
TEST(Flow, AnnealRunEvaluatesFourTimes) {
  flow::FlowConfig config = small_run_config();
  config.anneal_iterations = 500;
  flow::Session session(config);
  session.set_design(test::small_design(48, 1));
  flow::Flow f(session);
  common::Result<flow::FlowResult> r = f.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_TRUE(r.value().anneal.has_value());
  const auto snap = session.obs_scope().metrics().snapshot();
  EXPECT_EQ(snap.counter("ndr.evaluations"), 4);
  EXPECT_EQ(snap.counter("ndr.search_states"), 1);
  EXPECT_EQ(snap.counter("ndr.memo_signoffs"), 4);
  EXPECT_EQ(r.value().smart->stats.full_evals, 1);
  EXPECT_EQ(snap.counter("extract.geometry.builds"), session.nets().size());
  EXPECT_EQ(snap.counter("extract.nets_fresh_walks"), 0);
}

// The optimize stage signs the all-default and blanket-NDR rows off from
// the flow's search memo when smart NDR is on (the first warms every row),
// and extracts them when it is off. Either way each row must equal a
// cache-free extracted evaluation field by field and over every report
// array.
void expect_baseline_rows_extracted(const flow::Session& session,
                                    const flow::FlowResult& result) {
  const netlist::NetList& nets = session.nets();
  const auto extracted = [&](int rule) {
    return ndr::evaluate(session.cts().tree, session.design(),
                         session.technology(), nets,
                         ndr::assign_all(nets, rule));
  };
  {
    SCOPED_TRACE("all-default");
    test::expect_evaluations_bitwise(result.default_eval, extracted(0));
  }
  {
    SCOPED_TRACE("blanket-NDR");
    test::expect_evaluations_bitwise(
        result.blanket_eval,
        extracted(session.technology().rules.blanket_index()));
  }
}

void expect_flow_baseline_rows_extracted(const flow::FlowConfig& config,
                                         netlist::Design design) {
  flow::Session session(config);
  session.set_design(std::move(design));
  flow::Flow f(session);
  common::Result<flow::FlowResult> r = f.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().smart.has_value(), config.smart);
  const auto snap = session.obs_scope().metrics().snapshot();
  if (config.smart) {
    EXPECT_GE(snap.counter("ndr.memo_signoffs"), 2);  // the two rows.
  } else {
    EXPECT_EQ(snap.counter("ndr.memo_signoffs"), 0);
  }
  expect_baseline_rows_extracted(session, r.value());
}

TEST(Flow, BaselineRowsEqualExtractionOnCongestedDesign) {
  expect_flow_baseline_rows_extracted(small_run_config(),
                                      test::congested_flow().design);
}

TEST(Flow, BaselineRowsEqualExtractionUnder64KiBBudget) {
  flow::FlowConfig config = small_run_config();
  config.memory_budget_bytes = std::size_t{64} << 10;
  expect_flow_baseline_rows_extracted(config, test::congested_flow().design);
}

TEST(Flow, BaselineRowsEqualExtractionWithoutSmartNdr) {
  flow::FlowConfig config = small_run_config();
  config.smart = false;
  expect_flow_baseline_rows_extracted(config, test::congested_flow().design);
}

// Flow has no input for domain annotations, so the scenario's annotated
// tree is swapped in after prepare(): its nets and a geometry cache over
// them replace the synthesized ones before run() reaches the optimize
// stage.
TEST(Flow, BaselineRowsEqualExtractionOnMultiDomainScenario) {
  const test::fuzz::Scenario sc =
      test::fuzz::make_scenario(test::fuzz::scenario_seed(43, 0));
  SCOPED_TRACE(sc.label());
  workload::DomainWorkload w = test::fuzz::build(
      sc, tech::Technology::make_default_45nm());
  ASSERT_TRUE(w.design.clock_domains.enabled());
  flow::Session session(small_run_config());
  session.set_design(w.design);
  flow::Flow f(session);
  ASSERT_TRUE(f.prepare().ok());
  session.build_cts().tree = std::move(w.tree);
  session.nets() = std::move(w.nets);
  session.set_geometry(std::make_unique<extract::GeometryCache>(
      session.cts().tree, session.design(), session.nets(), 0,
      extract::ExtractOptions{}));
  common::Result<flow::FlowResult> r = f.run();
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  ASSERT_TRUE(r.value().smart.has_value());
  expect_baseline_rows_extracted(session, r.value());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Evaluations keep no parasitics, so the report stage re-extracts the
// final assignment from the session's geometry cache for --spef. The file
// must equal, byte for byte, a no-cache extract_all of final_assignment()
// written with write_spef_file — unbudgeted and under a 64 KiB budget,
// for a greedy and an annealed final assignment.
TEST(Flow, SpefEqualsNoCacheExtractionOfFinalAssignment) {
  for (const std::size_t budget : {std::size_t{0}, std::size_t{64} << 10}) {
    for (const int anneal : {0, 300}) {
      SCOPED_TRACE(testing::Message() << "budget=" << budget
                                      << " anneal=" << anneal);
      flow::FlowConfig config = small_run_config();
      config.memory_budget_bytes = budget;
      config.anneal_iterations = anneal;
      config.results_dir = temp_path("flow_test_spef");
      config.spef_out = "run.spef";
      flow::Session session(config);
      session.set_design(test::small_design(96, 5));
      flow::Flow f(session);
      common::Result<flow::FlowResult> r = f.run();
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      const ndr::RuleAssignment* final_assignment =
          r.value().final_assignment();
      ASSERT_NE(final_assignment, nullptr);
      EXPECT_EQ(r.value().anneal.has_value(), anneal > 0);
      const std::string ref = temp_path("flow_test_spef_ref.spef");
      io::write_spef_file(
          ref, session.cts().tree, session.design(), session.nets(),
          extract::Extractor(session.technology(), session.design())
              .extract_all(session.cts().tree, session.nets(),
                           *final_assignment));
      const std::string run = read_bytes(config.output_path(config.spef_out));
      EXPECT_FALSE(run.empty());
      EXPECT_EQ(run, read_bytes(ref));
    }
  }
}

TEST(Flow, CancelledSessionReturnsTypedCancelledStatus) {
  flow::Session session(small_run_config());
  session.set_design(test::small_design(48, 1));
  session.cancel_token().cancel();
  flow::Flow f(session);
  common::Result<flow::FlowResult> r = f.run();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  // The stage table records where the run stopped, not a partial "ok".
  ASSERT_FALSE(f.stages().empty());
  EXPECT_EQ(f.stages().back().status, "cancelled");
}

/// Counter-by-counter equality, except that which lane ran a pool chunk
/// depends on thread scheduling (a side that never ran a chunk on a
/// worker has no such counter at all): only the caller + worker chunk SUM
/// is deterministic at a fixed thread count, so that is what is compared.
void expect_same_counters(const obs::MetricsRegistry::Snapshot& got,
                          const obs::MetricsRegistry::Snapshot& want) {
  using Counters = std::vector<std::pair<std::string, std::int64_t>>;
  const auto split = [](const obs::MetricsRegistry::Snapshot& s) {
    Counters rest;
    std::int64_t chunks = 0;
    for (const auto& [name, value] : s.counters) {
      if (name == "pool.chunks_on_caller" ||
          name == "pool.chunks_on_workers") {
        chunks += value;
      } else {
        rest.emplace_back(name, value);
      }
    }
    return std::make_pair(rest, chunks);
  };
  const auto [got_rest, got_chunks] = split(got);
  const auto [want_rest, want_chunks] = split(want);
  EXPECT_EQ(got_rest, want_rest);
  EXPECT_EQ(got_chunks, want_chunks);
}

// The headline isolation property: two sessions on two threads produce
// bit-identical results to the same two sessions run serially, and their
// metrics snapshots are fully disjoint (each scope saw only its own run).
TEST(Flow, ConcurrentSessionsMatchSerialWithDisjointMetrics) {
  // Serial reference runs.
  flow::FlowResult serial_a, serial_b;
  auto ref_a = run_small_flow(48, 1, serial_a);
  auto ref_b = run_small_flow(64, 3, serial_b);
  const auto ref_snap_a = ref_a->obs_scope().metrics().snapshot();
  const auto ref_snap_b = ref_b->obs_scope().metrics().snapshot();

  const auto default_before =
      obs::ObsScope::default_scope().metrics().snapshot();

  // The same two runs, concurrently.
  flow::FlowResult par_a, par_b;
  std::unique_ptr<flow::Session> sess_a, sess_b;
  std::thread ta([&] { sess_a = run_small_flow(48, 1, par_a); });
  std::thread tb([&] { sess_b = run_small_flow(64, 3, par_b); });
  ta.join();
  tb.join();

  expect_bit_identical(serial_a.default_eval, par_a.default_eval);
  expect_bit_identical(serial_a.blanket_eval, par_a.blanket_eval);
  expect_bit_identical(serial_a.final_eval(), par_a.final_eval());
  expect_bit_identical(serial_b.default_eval, par_b.default_eval);
  expect_bit_identical(serial_b.blanket_eval, par_b.blanket_eval);
  expect_bit_identical(serial_b.final_eval(), par_b.final_eval());

  // Disjoint observation: each concurrent session's snapshot equals its
  // serial twin's snapshot — nothing leaked across sessions in either
  // direction (a leak would inflate one and deflate the other).
  const auto snap_a = sess_a->obs_scope().metrics().snapshot();
  const auto snap_b = sess_b->obs_scope().metrics().snapshot();
  EXPECT_GT(snap_a.counter("ndr.evaluations"), 0);
  EXPECT_GT(snap_b.counter("ndr.evaluations"), 0);
  expect_same_counters(snap_a, ref_snap_a);
  expect_same_counters(snap_b, ref_snap_b);

  // And none of it went to the process default scope.
  const auto default_after =
      obs::ObsScope::default_scope().metrics().snapshot();
  EXPECT_EQ(default_after.counter("ndr.evaluations"),
            default_before.counter("ndr.evaluations"));
}

}  // namespace
}  // namespace sndr
