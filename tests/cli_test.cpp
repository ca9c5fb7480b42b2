// End-to-end smoke test of the sndr CLI binary: real process invocations
// pinned to the documented exit-code contract (0 ok, 2 usage, 3 missing
// file, 4 parse error) and to the artifacts a run leaves behind (manifest
// schema sndr.run_manifest/2 with a stages array, CSV under the results
// dir). The binary path comes from the SNDR_CLI_PATH compile definition
// (tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "flow/config.hpp"

namespace {

namespace fs = std::filesystem;

/// A fresh scratch directory per test *process*. ctest runs each
/// discovered test in its own process, concurrently under -j — a shared
/// path would let one process's cleanup race another's fixtures.
const fs::path& scratch_dir() {
  static const fs::path dir = [] {
    fs::path d = fs::temp_directory_path() /
                 ("sndr_cli_test_" + std::to_string(::getpid()));
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::string path_in_scratch(const std::string& name) {
  return (scratch_dir() / name).string();
}

/// Runs `sndr <args>`, returns the exit code; captures stdout+stderr.
int run_cli(const std::string& args, std::string* output = nullptr) {
  const std::string log = path_in_scratch("last_run.log");
  const std::string cmd =
      std::string(SNDR_CLI_PATH) + " " + args + " > " + log + " 2>&1";
  const int raw = std::system(cmd.c_str());
  if (output != nullptr) {
    std::ifstream f(log);
    std::stringstream ss;
    ss << f.rdbuf();
    *output = ss.str();
  }
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Generates the shared test design once; returns its path.
const std::string& design_path() {
  static const std::string path = [] {
    const std::string p = path_in_scratch("design.txt");
    EXPECT_EQ(run_cli("generate --sinks 64 --seed 3 --out " + p), 0);
    return p;
  }();
  return path;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  std::string out;
  EXPECT_EQ(run_cli("", &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownFlagIsAUsageError) {
  std::string out;
  EXPECT_EQ(run_cli("run --design " + design_path() + " --bogus 1", &out), 2);
  EXPECT_NE(out.find("--bogus"), std::string::npos);
}

TEST(Cli, OutOfRangeGuardBandsAndTemperaturesAreUsageErrors) {
  // Guard bands must lie in [0, 1) and anneal temperatures be > 0; the
  // run must stop at argument parsing, naming the offending key.
  const std::pair<std::string, std::string> cases[] = {
      {"--slew-margin 1.5", "slew-margin"},
      {"--uncertainty-margin -3", "uncertainty-margin"},
      {"--anneal 500 --anneal-t-start-frac 0", "anneal-t-start-frac"},
      {"--anneal-t-end-frac -1", "anneal-t-end-frac"},
  };
  for (const auto& [flags, key] : cases) {
    std::string out;
    EXPECT_EQ(run_cli("run --design " + design_path() + " " + flags, &out),
              2)
        << flags;
    EXPECT_NE(out.find(key), std::string::npos) << out;
  }
}

TEST(Cli, DsePowerAxisWithoutAnnealIsAUsageError) {
  // Only the annealer reads power_weight, so the axis would sweep
  // identical points: exit 2 naming the axis, and no sweep written.
  const std::string results = path_in_scratch("inert_axis");
  std::string out;
  EXPECT_EQ(run_cli("dse --design " + design_path() + " --results-dir " +
                        results + " --dse-power-weight 0.5,2",
                    &out),
            2);
  EXPECT_NE(out.find("dse_power_weight"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(results + "/dse"));
}

TEST(Cli, MissingDesignFileExitsNotFound) {
  std::string out;
  EXPECT_EQ(run_cli("run --design " + path_in_scratch("absent.txt"), &out),
            3);
  EXPECT_NE(out.find("not_found"), std::string::npos);
}

TEST(Cli, MalformedDesignFileExitsParseError) {
  const std::string bad = path_in_scratch("bad_design.txt");
  std::ofstream(bad) << "garbage line\n";
  std::string out;
  EXPECT_EQ(run_cli("run --design " + bad, &out), 4);
  // The diagnostic carries a path:line prefix.
  EXPECT_NE(out.find("bad_design.txt:1:"), std::string::npos) << out;
}

TEST(Cli, MissingConfigFileExitsNotFound) {
  EXPECT_EQ(run_cli("run --design " + design_path() + " --config " +
                    path_in_scratch("absent.conf")),
            3);
}

TEST(Cli, RunWithConfigFileWritesArtifactsAndManifest) {
  const std::string results = path_in_scratch("results");
  const std::string conf = path_in_scratch("flow.conf");
  std::ofstream(conf) << "# e2e smoke config\n"
                      << "threads = 1\n"
                      << "training_samples = 60\n"
                      << "results_dir = " << results << "\n"
                      << "csv = run.csv\n"
                      << "metrics_out = manifest.json\n";
  std::string out;
  ASSERT_EQ(run_cli("run --design " + design_path() + " --config " + conf,
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("smart vs blanket"), std::string::npos);
  EXPECT_TRUE(fs::exists(results + "/run.csv"));

  // The manifest is schema /2 with a per-stage record of this run.
  const std::string manifest = read_file(results + "/manifest.json");
  EXPECT_NE(manifest.find("\"schema\": \"sndr.run_manifest/2\""),
            std::string::npos);
  EXPECT_NE(manifest.find("\"stages\": ["), std::string::npos);
  // Every pipeline stage appears — including "report", which writes the
  // manifest mid-stage and records itself provisionally.
  for (const char* stage :
       {"load", "cts", "route", "nets", "extract", "optimize", "report"}) {
    EXPECT_NE(manifest.find("{\"name\": \"" + std::string(stage) + "\""),
              std::string::npos)
        << stage;
  }
  EXPECT_NE(manifest.find("\"status\": \"skipped\""), std::string::npos)
      << "anneal/corners are off and must be recorded as skipped";
}

TEST(Cli, NoSmartSkipsOptimizer) {
  std::string out;
  EXPECT_EQ(run_cli("run --design " + design_path() +
                        " --no-smart --threads 1",
                    &out),
            0)
      << out;
  // The optimizer stage is off: only the baseline rows print, and the
  // smart-vs-blanket comparison line never appears.
  EXPECT_NE(out.find("all-default"), std::string::npos);
  EXPECT_NE(out.find("blanket-NDR"), std::string::npos);
  EXPECT_EQ(out.find("smart-NDR"), std::string::npos) << out;
  EXPECT_EQ(out.find("smart vs blanket"), std::string::npos) << out;
}

TEST(Cli, NoSmartEchoesOnlyArtifactsItWrote) {
  // SPEF and SVG are views of the optimized assignment, so a run with the
  // smart optimizer off writes neither — and must not claim it did.
  const std::string results = path_in_scratch("results_no_smart");
  const std::string conf = path_in_scratch("no_smart.conf");
  std::ofstream(conf) << "smart = false\n"
                      << "threads = 1\n"
                      << "results_dir = " << results << "\n";
  std::string out;
  ASSERT_EQ(run_cli("run --design " + design_path() + " --config " + conf +
                        " --spef x.spef --svg x.svg --csv x.csv",
                    &out),
            0)
      << out;
  EXPECT_EQ(out.find("x.spef"), std::string::npos) << out;
  EXPECT_EQ(out.find("x.svg"), std::string::npos) << out;
  EXPECT_FALSE(fs::exists(results + "/x.spef"));
  EXPECT_FALSE(fs::exists(results + "/x.svg"));
  // The table CSV is written either way, and echoed.
  EXPECT_NE(out.find("wrote " + results + "/x.csv"), std::string::npos)
      << out;
  EXPECT_TRUE(fs::exists(results + "/x.csv"));
}

TEST(Cli, CliFlagsOverrideConfigFileValues) {
  const std::string results = path_in_scratch("results_override");
  const std::string conf = path_in_scratch("override.conf");
  std::ofstream(conf) << "threads = 1\n"
                      << "training_samples = 60\n"
                      << "results_dir = " << results << "\n"
                      << "csv = from_file.csv\n";
  ASSERT_EQ(run_cli("run --design " + design_path() + " --config " + conf +
                    " --csv from_cli.csv"),
            0);
  EXPECT_TRUE(fs::exists(results + "/from_cli.csv"));
  EXPECT_FALSE(fs::exists(results + "/from_file.csv"));
}

TEST(Cli, EvalUniformRule) {
  std::string out;
  EXPECT_EQ(run_cli("eval --design " + design_path() +
                        " --rule 2W2S --threads 1",
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("2W2S"), std::string::npos);
  EXPECT_EQ(run_cli("eval --design " + design_path() + " --rule NOPE"), 2);
}

TEST(Cli, HelpExitsZeroOnEverySpelling) {
  // Requested help is not an error: stdout + exit 0, unlike the bare
  // mis-invocation above (stderr + exit 2, same text).
  for (const std::string spelling :
       {"help", "--help", "-h", "run --help", "generate --help"}) {
    std::string out;
    EXPECT_EQ(run_cli(spelling, &out), 0) << spelling;
    EXPECT_NE(out.find("usage:"), std::string::npos) << spelling;
    EXPECT_NE(out.find("exit codes:"), std::string::npos) << spelling;
  }
}

TEST(Cli, HelpDocumentsEveryFlowConfigKey) {
  // The drift guard: every key FlowConfig::set() accepts must appear in
  // the help text (flag spelling --foo-bar and key spelling foo_bar are
  // the same up to hyphen/underscore, so compare normalized).
  std::string out;
  ASSERT_EQ(run_cli("help", &out), 0);
  std::replace(out.begin(), out.end(), '-', '_');
  for (const std::string& key : sndr::flow::FlowConfig::known_keys()) {
    EXPECT_NE(out.find(key), std::string::npos)
        << "help text does not mention config key '" << key << "'";
  }
}

TEST(Cli, VersionPrintsSchemasAndExitsZero) {
  for (const std::string spelling : {"version", "--version"}) {
    std::string out;
    EXPECT_EQ(run_cli(spelling, &out), 0) << spelling;
    // Git describe (never empty: "unknown" when git is unavailable) plus
    // both on-disk schema versions, pinned so a schema bump must touch
    // this test.
    EXPECT_EQ(out.rfind("sndr ", 0), 0u) << out;
    EXPECT_GT(out.size(), std::string("sndr \n").size()) << out;
    EXPECT_NE(out.find("sndr.run_manifest/2"), std::string::npos) << out;
    EXPECT_NE(out.find("sndr.anneal_checkpoint/3"), std::string::npos) << out;
  }
}

TEST(Cli, CancelledExitCodeIsDocumented) {
  std::string out;
  ASSERT_EQ(run_cli("help", &out), 0);
  EXPECT_NE(out.find("7 cancelled"), std::string::npos)
      << "help must document the kCancelled exit code";
  EXPECT_NE(out.find("version"), std::string::npos)
      << "help must mention the version subcommand";
}

TEST(Cli, CorruptCheckpointExitsParseError) {
  const std::string results = path_in_scratch("results_ckpt");
  const std::string base = "run --design " + design_path() +
                           " --threads 1 --training-samples 60 --anneal 60" +
                           " --checkpoint-interval 20 --checkpoint anneal.ck" +
                           " --results-dir " + results;
  ASSERT_EQ(run_cli(base), 0);
  const std::string ck = results + "/anneal.ck";
  ASSERT_TRUE(fs::exists(ck));
  // Truncate the snapshot mid-field: the rerun must refuse it with the
  // parse-error exit code and a path:line diagnostic, not resume quietly.
  const std::string text = read_file(ck);
  std::ofstream(ck, std::ios::trunc)
      << text.substr(0, text.find("rng_state") + 11);
  std::string out;
  EXPECT_EQ(run_cli(base, &out), 4) << out;
  EXPECT_NE(out.find("anneal.ck:"), std::string::npos) << out;
}

// "N rule changes" counts nets whose final rule differs from the blanket,
// not greedy commits: on this design repair falls back to the blanket
// assignment after hundreds of commits, so the smart row equals the
// blanket row and nothing changed.
TEST(Cli, RuleChangesCountNetsOffTheBlanketRule) {
  const std::string design = path_in_scratch("design_6000.txt");
  ASSERT_EQ(run_cli("generate --sinks 6000 --dist mixed --seed 17 --out " +
                    design),
            0);
  std::string out;
  ASSERT_EQ(run_cli("run --design " + design +
                        " --scoring exact_net --max-skew 40 --results-dir " +
                        path_in_scratch("results_changes"),
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("+0.0% power, 0 rule changes"), std::string::npos)
      << out;
}

}  // namespace
