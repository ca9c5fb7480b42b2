// Anneal checkpoint/resume tests (DESIGN.md "Memory budget" / checkpoint
// contract).
//
// The load-bearing property: a run resumed from a checkpoint taken at
// iteration k reproduces the uninterrupted run bit for bit — same final
// assignment, same counters, same energies. That holds through the
// in-memory snapshot AND through the text file (hexfloats round-trip
// doubles exactly), and the flow-level wiring (checkpoint_path config)
// picks an on-disk snapshot up across Session lifetimes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "extract/net_geometry.hpp"
#include "flow/checkpoint.hpp"
#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "flow/session.hpp"
#include "ndr/smart_ndr.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

using common::StatusCode;
using flow::checkpoint_fingerprint;
using flow::load_checkpoint;
using flow::save_checkpoint;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void expect_anneal_eq(const ndr::AnnealResult& a, const ndr::AnnealResult& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.end_cap, b.end_cap);
  EXPECT_EQ(a.final_eval.power.switched_cap, b.final_eval.power.switched_cap);
  EXPECT_EQ(a.final_eval.timing.sink_arrival, b.final_eval.timing.sink_arrival);
  EXPECT_EQ(a.uphill_accepted, b.uphill_accepted);
}

// ---- file format ----------------------------------------------------------

ndr::AnnealCheckpoint awkward_checkpoint() {
  ndr::AnnealCheckpoint ck;
  ck.iteration = 1234;
  // Values chosen to break any decimal round-trip: %a must carry them.
  ck.temperature = 0.1 * 3.0e-15;
  ck.cooling = 0.99973210431532987;
  ck.rng_state = 0xdeadbeefcafef00dULL;
  ck.proposed = 1234;
  ck.accepted = 600;
  ck.rejected = 634;
  ck.uphill_accepted = 41;
  ck.delta_updates = 555;
  ck.start_cap = 4.6366462191032524e-12;
  ck.start_feasible = true;
  ck.assignment = {0, 3, 1, 2, 0, 1};
  ck.best = {0, 2, 1, 2, 0, 1};
  ck.best_cap = 4.0366462191032524e-12;
  return ck;
}

TEST(CheckpointFile, SaveLoadRoundTripsEveryFieldExactly) {
  const std::string path = temp_path("ck_roundtrip.txt");
  const ndr::AnnealCheckpoint ck = awkward_checkpoint();
  const std::uint64_t fp = checkpoint_fingerprint(6, 4, 7, 2000);
  ASSERT_TRUE(save_checkpoint(path, ck, fp).ok());

  common::Result<ndr::AnnealCheckpoint> r = load_checkpoint(path, fp);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const ndr::AnnealCheckpoint& got = r.value();
  EXPECT_EQ(got.iteration, ck.iteration);
  EXPECT_EQ(got.temperature, ck.temperature);  // exact, not near.
  EXPECT_EQ(got.cooling, ck.cooling);
  EXPECT_EQ(got.rng_state, ck.rng_state);
  EXPECT_EQ(got.proposed, ck.proposed);
  EXPECT_EQ(got.accepted, ck.accepted);
  EXPECT_EQ(got.rejected, ck.rejected);
  EXPECT_EQ(got.uphill_accepted, ck.uphill_accepted);
  EXPECT_EQ(got.delta_updates, ck.delta_updates);
  EXPECT_EQ(got.start_cap, ck.start_cap);
  EXPECT_EQ(got.start_feasible, ck.start_feasible);
  EXPECT_EQ(got.assignment, ck.assignment);
  EXPECT_EQ(got.best, ck.best);
  EXPECT_EQ(got.best_cap, ck.best_cap);
  std::remove(path.c_str());
}

TEST(CheckpointFile, FingerprintMismatchIsRejectedWithDiagnostic) {
  const std::string path = temp_path("ck_fingerprint.txt");
  const std::uint64_t fp = checkpoint_fingerprint(6, 4, 7, 2000);
  ASSERT_TRUE(save_checkpoint(path, awkward_checkpoint(), fp).ok());
  common::Result<ndr::AnnealCheckpoint> r =
      load_checkpoint(path, checkpoint_fingerprint(6, 4, 8, 2000));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("different inputs"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointFile, MissingFileIsNotFound) {
  common::Result<ndr::AnnealCheckpoint> r =
      load_checkpoint(temp_path("ck_does_not_exist.txt"), 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointFile, MalformedFilesAreRejected) {
  const std::uint64_t fp = 99;
  const auto write = [](const std::string& name, const std::string& text) {
    const std::string path = temp_path(name);
    std::ofstream(path) << text;
    return path;
  };
  // Wrong magic.
  std::string p = write("ck_bad_magic.txt", "not a checkpoint\n");
  EXPECT_EQ(load_checkpoint(p, fp).status().code(),
            StatusCode::kParseError);
  std::remove(p.c_str());
  // Files from older schemas are refused by their schema line, with a hint:
  // /1 before any of its retired fields could read as "unknown field", /2
  // because its stored energies were summed in a different order.
  for (const std::string old_schema :
       {"sndr.anneal_checkpoint/1", "sndr.anneal_checkpoint/2"}) {
    p = write("ck_old_schema.txt",
              old_schema + "\nfingerprint 99\niteration 5\n");
    const common::Status old = load_checkpoint(p, fp).status();
    EXPECT_EQ(old.code(), StatusCode::kParseError) << old_schema;
    EXPECT_NE(old.message().find(p + ":1: unsupported checkpoint schema '" +
                                 old_schema + "'"),
              std::string::npos)
        << old.to_string();
    EXPECT_NE(old.message().find("delete it to start over"),
              std::string::npos)
        << old.to_string();
    std::remove(p.c_str());
  }
  // Unknown key.
  p = write("ck_bad_key.txt",
            "sndr.anneal_checkpoint/3\nfingerprint 99\nbogus 1\n");
  EXPECT_EQ(load_checkpoint(p, fp).status().code(),
            StatusCode::kParseError);
  std::remove(p.c_str());
  // Non-numeric value.
  p = write("ck_bad_value.txt",
            "sndr.anneal_checkpoint/3\nfingerprint 99\ntemperature oops\n");
  EXPECT_EQ(load_checkpoint(p, fp).status().code(),
            StatusCode::kParseError);
  std::remove(p.c_str());
  // Fingerprint present but assignment vectors missing.
  p = write("ck_no_assignment.txt",
            "sndr.anneal_checkpoint/3\nfingerprint 99\niteration 5\n");
  EXPECT_EQ(load_checkpoint(p, fp).status().code(),
            StatusCode::kParseError);
  std::remove(p.c_str());
}

// Corruption classes a crash mid-write (or a flaky disk) actually
// produces. All must reject as kParseError with a path:line diagnostic —
// never load half a checkpoint.
TEST(CheckpointFile, TruncatedMidFieldIsAParseError) {
  const std::string path = temp_path("ck_truncated.txt");
  const std::uint64_t fp = checkpoint_fingerprint(6, 4, 7, 2000);
  ASSERT_TRUE(save_checkpoint(path, awkward_checkpoint(), fp).ok());
  std::string text;
  {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  // Cut in the middle of the "start_cap 0x1...." line (mid-field).
  const std::size_t cut = text.find("start_cap");
  ASSERT_NE(cut, std::string::npos);
  std::ofstream(path, std::ios::trunc) << text.substr(0, cut + 12);
  const common::Result<ndr::AnnealCheckpoint> r = load_checkpoint(path, fp);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(path + ":"), std::string::npos)
      << r.status().to_string();
  std::remove(path.c_str());
}

TEST(CheckpointFile, DuplicatedKeyIsAParseError) {
  const std::string path = temp_path("ck_dup_key.txt");
  std::ofstream(path) << "sndr.anneal_checkpoint/3\n"
                         "fingerprint 99\n"
                         "iteration 5\n"
                         "iteration 6\n";
  const common::Result<ndr::AnnealCheckpoint> r = load_checkpoint(path, 99);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find(":4:"), std::string::npos)
      << r.status().to_string();
  EXPECT_NE(r.status().message().find("duplicate"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointFile, HexfloatTrailingJunkIsAParseError) {
  // Junk fused to the token ("0x1.8p+1junk") and junk after it
  // ("0x1.8p+1 junk") are both rejected, with the line number named.
  const auto check = [](const std::string& name, const std::string& line) {
    const std::string path = temp_path(name);
    std::ofstream(path) << "sndr.anneal_checkpoint/3\n"
                           "fingerprint 99\n" +
                               line + "\n";
    const common::Result<ndr::AnnealCheckpoint> r = load_checkpoint(path, 99);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_EQ(r.status().code(), StatusCode::kParseError) << line;
    EXPECT_NE(r.status().message().find(":3:"), std::string::npos)
        << r.status().to_string();
    std::remove(path.c_str());
  };
  check("ck_hex_fused.txt", "temperature 0x1.8p+1junk");
  check("ck_hex_extra.txt", "temperature 0x1.8p+1 junk");
  check("ck_int_extra.txt", "iteration 5 5");
}

TEST(CheckpointFile, FingerprintMismatchStaysInvalidArgument) {
  // A well-formed checkpoint for OTHER inputs is not a parse error: the
  // caller can act on the distinction (re-anneal vs report corruption).
  const std::string path = temp_path("ck_other_inputs.txt");
  const std::uint64_t fp = checkpoint_fingerprint(6, 4, 7, 2000);
  ASSERT_TRUE(save_checkpoint(path, awkward_checkpoint(), fp).ok());
  const common::Result<ndr::AnnealCheckpoint> r =
      load_checkpoint(path, fp + 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// The fingerprint is part of the file format: a changed hash would make
// every stored checkpoint unloadable. The literal pins its value.
TEST(CheckpointFile, FingerprintValueIsPinned) {
  EXPECT_EQ(checkpoint_fingerprint(6, 4, 7, 2000), 9735738670602019501ULL);
}

// A checkpoint of awkward_checkpoint() as written by an earlier build,
// byte for byte: it must keep loading to exactly the same fields, and a
// save today must write the same bytes.
TEST(CheckpointFile, StoredFileFromEarlierBuildStillLoads) {
  const std::string stored =
      "sndr.anneal_checkpoint/3\n"
      "fingerprint 9735738670602019501\n"
      "iteration 1234\n"
      "temperature 0x1.59e05f1e2674dp-52\n"
      "cooling 0x1.ffdce2e997593p-1\n"
      "rng_state 16045690984503111693\n"
      "proposed 1234\n"
      "accepted 600\n"
      "rejected 634\n"
      "uphill_accepted 41\n"
      "delta_updates 555\n"
      "start_cap 0x1.4646648a811e2p-38\n"
      "start_feasible 1\n"
      "best_cap 0x1.1c0dc0ee12ec6p-38\n"
      "assignment 0 3 1 2 0 1\n"
      "best 0 2 1 2 0 1\n";
  const std::string path = temp_path("ck_stored.txt");
  std::ofstream(path) << stored;
  const std::uint64_t fp = checkpoint_fingerprint(6, 4, 7, 2000);
  const common::Result<ndr::AnnealCheckpoint> r = load_checkpoint(path, fp);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const ndr::AnnealCheckpoint want = awkward_checkpoint();
  EXPECT_EQ(r->iteration, want.iteration);
  EXPECT_EQ(r->temperature, want.temperature);
  EXPECT_EQ(r->cooling, want.cooling);
  EXPECT_EQ(r->rng_state, want.rng_state);
  EXPECT_EQ(r->proposed, want.proposed);
  EXPECT_EQ(r->accepted, want.accepted);
  EXPECT_EQ(r->rejected, want.rejected);
  EXPECT_EQ(r->uphill_accepted, want.uphill_accepted);
  EXPECT_EQ(r->delta_updates, want.delta_updates);
  EXPECT_EQ(r->start_cap, want.start_cap);
  EXPECT_EQ(r->start_feasible, want.start_feasible);
  EXPECT_EQ(r->best_cap, want.best_cap);
  EXPECT_EQ(r->assignment, want.assignment);
  EXPECT_EQ(r->best, want.best);

  ASSERT_TRUE(save_checkpoint(path, want, fp).ok());
  std::stringstream written;
  written << std::ifstream(path).rdbuf();
  EXPECT_EQ(written.str(), stored);
  std::remove(path.c_str());
}

// ---- bitwise resume -------------------------------------------------------

class CheckpointResumeFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(128, 31);

  ndr::AnnealOptions base_options() const {
    ndr::AnnealOptions opt;
    opt.iterations = 900;
    opt.seed = 7;
    return opt;
  }
};

TEST_F(CheckpointResumeFixture, ResumeReproducesUninterruptedRunBitwise) {
  const ndr::RuleAssignment blanket =
      ndr::assign_all(f.nets, f.tech.rules.blanket_index());

  // Reference run, snapshotting every 300 iterations along the way.
  ndr::AnnealOptions opt = base_options();
  std::vector<ndr::AnnealCheckpoint> snaps;
  opt.checkpoint_interval = 300;
  opt.checkpoint_sink = [&snaps](const ndr::AnnealCheckpoint& ck) {
    snaps.push_back(ck);
  };
  const ndr::AnnealResult ref =
      ndr::anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  ASSERT_EQ(snaps.size(), 3u);  // 300, 600, 900.
  EXPECT_EQ(snaps.back().iteration, opt.iterations);

  // Resuming from every mid-run snapshot converges to the same bits.
  for (std::size_t i = 0; i + 1 < snaps.size(); ++i) {
    ndr::AnnealOptions resume_opt = base_options();
    resume_opt.resume = snaps[i];
    const ndr::AnnealResult got = ndr::anneal_rules(
        f.cts.tree, f.design, f.tech, f.nets, blanket, resume_opt);
    expect_anneal_eq(ref, got);
    EXPECT_EQ(ref.proposed, got.proposed);
    EXPECT_EQ(ref.accepted, got.accepted);
    EXPECT_EQ(ref.rejected, got.rejected);
    EXPECT_EQ(ref.delta_updates, got.delta_updates);
    EXPECT_EQ(ref.start_cap, got.start_cap);
  }

  // And a geometry budget on the resumed run still changes nothing.
  const extract::GeometryCache budget(f.cts.tree, f.design, f.nets,
                                      64 * 1024, {});
  ndr::AnnealOptions budget_opt = base_options();
  budget_opt.resume = snaps[0];
  budget_opt.search.geometry = &budget;
  const ndr::AnnealResult budgeted = ndr::anneal_rules(
      f.cts.tree, f.design, f.tech, f.nets, blanket, budget_opt);
  expect_anneal_eq(ref, budgeted);
}

TEST_F(CheckpointResumeFixture, ResumeThroughFileIsStillBitwise) {
  const ndr::RuleAssignment blanket =
      ndr::assign_all(f.nets, f.tech.rules.blanket_index());

  ndr::AnnealOptions opt = base_options();
  std::vector<ndr::AnnealCheckpoint> snaps;
  opt.checkpoint_interval = 450;
  opt.checkpoint_sink = [&snaps](const ndr::AnnealCheckpoint& ck) {
    snaps.push_back(ck);
  };
  const ndr::AnnealResult ref =
      ndr::anneal_rules(f.cts.tree, f.design, f.tech, f.nets, blanket, opt);
  ASSERT_EQ(snaps.size(), 2u);

  // Round-trip the mid-run snapshot through the text format: the resumed
  // trajectory depends on temperature/rng bits surviving serialization.
  const std::string path = temp_path("ck_resume_file.txt");
  const std::uint64_t fp = checkpoint_fingerprint(
      static_cast<int>(f.nets.size()),
      static_cast<int>(f.tech.rules.size()), opt.seed, opt.iterations);
  ASSERT_TRUE(save_checkpoint(path, snaps[0], fp).ok());
  common::Result<ndr::AnnealCheckpoint> loaded = load_checkpoint(path, fp);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();

  ndr::AnnealOptions resume_opt = base_options();
  resume_opt.resume = std::move(loaded).value();
  const ndr::AnnealResult got = ndr::anneal_rules(f.cts.tree, f.design, f.tech,
                                             f.nets, blanket, resume_opt);
  expect_anneal_eq(ref, got);
  std::remove(path.c_str());
}

// ---- flow-level wiring ----------------------------------------------------

TEST(FlowCheckpoint, ResumesAcrossSessionsFromCheckpointPath) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sndr_ck_flow").string();
  std::filesystem::remove_all(dir);

  flow::FlowConfig config;
  config.smart = true;
  config.training_samples = 60;
  config.anneal_iterations = 200;
  config.checkpoint_interval = 80;
  config.checkpoint_path = "anneal.ck";
  config.results_dir = dir;

  const auto run = [&config](flow::FlowResult& out) {
    flow::Session session(config);
    session.set_design(test::small_design(48, 1));
    flow::Flow fl(session);
    common::Result<flow::FlowResult> r = fl.run();
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    out = std::move(r).value();
  };

  flow::FlowResult first;
  run(first);
  ASSERT_TRUE(first.anneal.has_value());
  EXPECT_EQ(first.resumed_from_iteration, 0);
  EXPECT_TRUE(std::filesystem::exists(config.output_path("anneal.ck")));

  // Second session finds the completed run's checkpoint: it resumes at
  // the final iteration (no annealing left) and lands on the same bits.
  flow::FlowResult second;
  run(second);
  ASSERT_TRUE(second.anneal.has_value());
  EXPECT_EQ(second.resumed_from_iteration, config.anneal_iterations);
  expect_anneal_eq(*first.anneal, *second.anneal);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sndr
