// Service-layer tests (DESIGN.md §12): the SharedCache content-fingerprint
// contract, concurrent server submits bitwise-matching serial CLI runs
// (also with the parallel gate off, so jobs at 1, 2 and 8 workers drive
// fanned-out regions on one 4-lane pool at once),
// admission control (reject undeclared/oversized, never oversubscribe),
// cooperative cancellation (mid-anneal unwind with kCancelled, no partial
// artifacts, checkpoint resume bitwise identical to an uninterrupted run),
// and graceful shutdown in both drain and cancel modes.
//
// The concurrent tests also run under TSan in scripts/tier1.sh.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "flow/config.hpp"
#include "io/design_io.hpp"
#include "serve/server.hpp"
#include "serve/shared_cache.hpp"
#include "serve/submit.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

using common::StatusCode;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = temp_path(name);
  std::ofstream(path) << text;
  return path;
}

/// A design written to disk (the service consumes configs, not objects).
std::string design_file(const std::string& name, int sinks,
                        std::uint64_t seed) {
  const std::string path = temp_path(name);
  io::write_design_file(path, test::small_design(sinks, seed));
  return path;
}

flow::FlowConfig small_config(const std::string& design_path,
                              std::uint64_t seed = 1) {
  flow::FlowConfig c;
  c.design_path = design_path;
  c.seed = seed;
  c.training_samples = 40;
  return c;
}

void expect_outcome_eq(const serve::JobOutcome& a,
                       const serve::JobOutcome& b) {
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a.result->final_assignment(), *b.result->final_assignment());
  EXPECT_EQ(a.result->final_eval().power.total_power,
            b.result->final_eval().power.total_power);
  EXPECT_EQ(a.result->final_eval().power.switched_cap,
            b.result->final_eval().power.switched_cap);
  EXPECT_EQ(a.result->final_eval().timing.sink_arrival,
            b.result->final_eval().timing.sink_arrival);
  EXPECT_EQ(a.result->feasible, b.result->feasible);
  EXPECT_EQ(a.sinks, b.sinks);
  EXPECT_EQ(a.nets, b.nets);
}

// ---- SharedCache ----------------------------------------------------------

TEST(SharedCacheFingerprint, ContentKeyedNotNameKeyed) {
  const std::string a = write_file("serve_fp_a.txt", "same bytes\n");
  const std::string b = write_file("serve_fp_b.txt", "same bytes\n");
  const std::string c = write_file("serve_fp_c.txt", "other bytes\n");
  auto fa = serve::file_fingerprint(a);
  auto fb = serve::file_fingerprint(b);
  auto fc = serve::file_fingerprint(c);
  ASSERT_TRUE(fa.ok());
  ASSERT_TRUE(fb.ok());
  ASSERT_TRUE(fc.ok());
  EXPECT_EQ(fa.value(), fb.value());  // renaming does not defeat sharing.
  EXPECT_NE(fa.value(), fc.value());  // editing does.
  EXPECT_EQ(fa.value().size(), 16u);  // 64-bit hex.
}

TEST(SharedCacheFingerprint, ValueIsPinned) {
  const auto fp = serve::file_fingerprint(
      write_file("serve_fp_pin.txt", "sndr content key\n"));
  ASSERT_TRUE(fp.ok());
  EXPECT_EQ(fp.value(), "a2f59b315f79b5ac");
}

TEST(SharedCacheFingerprint, MissingFileIsNotFound) {
  auto r = serve::file_fingerprint(temp_path("serve_fp_missing.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SharedCache, TechParsedOncePerContent) {
  const std::string design = design_file("serve_cache_d.txt", 32, 5);
  serve::SharedCache cache;
  flow::FlowConfig c = small_config(design);

  serve::SharedCache::Lease first = cache.acquire(c);
  ASSERT_TRUE(first.valid);
  serve::SharedCache::Lease second = cache.acquire(c);
  ASSERT_TRUE(second.valid);
  EXPECT_EQ(first.world.tech.get(), second.world.tech.get());  // shared.
  EXPECT_EQ(cache.stats().tech_misses, 1);
  EXPECT_EQ(cache.stats().tech_hits, 1);
}

TEST(SharedCache, PredictorHarvestedThenReusedBitwise) {
  const std::string design = design_file("serve_cache_p.txt", 48, 7);
  serve::SharedCache cache;

  serve::JobOutcome first = serve::execute_job(small_config(design), &cache);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(cache.stats().predictor_misses, 1);
  EXPECT_EQ(cache.stats().predictor_stores, 1);

  serve::JobOutcome second = serve::execute_job(small_config(design), &cache);
  EXPECT_EQ(cache.stats().predictor_hits, 1);
  expect_outcome_eq(first, second);

  // And both identical to a no-cache run: reuse changes cost, not bits.
  serve::JobOutcome bare = serve::execute_job(small_config(design), nullptr);
  expect_outcome_eq(bare, second);
}

TEST(SharedCache, PredictorKeyTracksTrainingSamples) {
  const std::string design = design_file("serve_cache_k.txt", 32, 9);
  serve::SharedCache cache;
  flow::FlowConfig a = small_config(design);
  flow::FlowConfig b = small_config(design);
  b.training_samples = 80;
  EXPECT_NE(cache.acquire(a).predictor_key, cache.acquire(b).predictor_key);

  flow::FlowConfig no_models = small_config(design);
  no_models.scoring = "exact_net";
  EXPECT_TRUE(cache.acquire(no_models).predictor_key.empty());
}

TEST(SharedCache, MissingInputsNeverMaskTheCanonicalError) {
  serve::SharedCache cache;

  // Missing design, default tech: the lease still carries the shared
  // default technology (no predictor key — nothing to fingerprint), and
  // the job itself reports the canonical loader error.
  flow::FlowConfig no_design =
      small_config(temp_path("serve_cache_missing.txt"));
  serve::SharedCache::Lease lease = cache.acquire(no_design);
  EXPECT_TRUE(lease.valid);
  EXPECT_TRUE(lease.predictor_key.empty());
  serve::JobOutcome out = serve::execute_job(no_design, &cache);
  EXPECT_EQ(out.status.code(), StatusCode::kNotFound);

  // Missing tech file: nothing to share — invalid lease, and the job's
  // Session walks the loaders itself (design first, then tech) for the
  // same diagnostics as the standalone CLI.
  flow::FlowConfig no_tech =
      small_config(design_file("serve_cache_nt.txt", 32, 6));
  no_tech.tech_path = temp_path("serve_cache_missing_tech.txt");
  EXPECT_FALSE(cache.acquire(no_tech).valid);
  serve::JobOutcome out2 = serve::execute_job(no_tech, &cache);
  EXPECT_EQ(out2.status.code(), StatusCode::kNotFound);
}

// ---- Server: concurrency and identity -------------------------------------

TEST(Server, ConcurrentSubmitsMatchSerialBitwise) {
  const std::vector<std::string> designs = {
      design_file("serve_cc_1.txt", 32, 11),
      design_file("serve_cc_2.txt", 48, 12),
      design_file("serve_cc_3.txt", 64, 13),
  };
  const int jobs = 12;
  std::vector<flow::FlowConfig> configs;
  for (int i = 0; i < jobs; ++i) {
    configs.push_back(
        small_config(designs[i % designs.size()], 100 + i));
  }

  std::vector<serve::JobOutcome> serial;
  for (const flow::FlowConfig& c : configs) {
    serial.push_back(serve::execute_job(c, nullptr));
  }

  serve::ServerOptions options;
  options.workers = 3;
  serve::Server server(options);
  std::vector<int> ids;
  for (const flow::FlowConfig& c : configs) {
    common::Result<int> id = server.submit(c);
    ASSERT_TRUE(id.ok()) << id.status().to_string();
    ids.push_back(id.value());
  }
  for (int i = 0; i < jobs; ++i) {
    common::Result<serve::JobRecord> rec = server.wait(ids[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, serve::JobState::kDone);
    expect_outcome_eq(serial[i], rec.value().outcome);
  }
  const auto snap = server.metrics_snapshot();
  EXPECT_EQ(snap.counter("serve.jobs_admitted"), jobs);
  EXPECT_EQ(snap.counter("serve.jobs_completed"), jobs);
  EXPECT_EQ(snap.counter("serve.jobs_failed"), 0);
  server.shutdown(serve::Server::Shutdown::kDrain);
}

/// A 4-lane process pool with the parallel gate off, so every loop of a
/// small job really fans out; both restored on exit.
struct FannedOutPool {
  FannedOutPool() {
    common::set_thread_count(4);
    common::set_parallel_min_us(0.0);
  }
  ~FannedOutPool() {
    common::set_parallel_min_us(-1.0);
    common::set_thread_count(-1);
  }
};

/// Jobs with parallel regions at every stage: plain, anneal and corners.
std::vector<flow::FlowConfig> fanned_out_configs() {
  const std::vector<std::string> designs = {
      design_file("serve_fan_1.txt", 96, 21),
      design_file("serve_fan_2.txt", 160, 22),
  };
  std::vector<flow::FlowConfig> configs;
  for (int i = 0; i < 6; ++i) {
    flow::FlowConfig c = small_config(designs[i % designs.size()], 200 + i);
    if (i % 3 == 1) c.anneal_iterations = 1500;
    if (i % 3 == 2) c.corners = true;
    configs.push_back(c);
  }
  return configs;
}

TEST(Server, ConcurrentRegionsMatchSerialBitwise) {
  // Busy workers count as lanes: at 1 worker the pool threads join the
  // job's regions, at 2 they share what is left, at 8 every region runs
  // alone on its worker while the others run theirs. Every outcome must
  // equal the serial execute_job bits.
  const FannedOutPool pool;
  const std::vector<flow::FlowConfig> configs = fanned_out_configs();
  std::vector<serve::JobOutcome> serial;
  common::set_thread_count(1);
  for (const flow::FlowConfig& c : configs) {
    serial.push_back(serve::execute_job(c, nullptr));
  }
  for (const int workers : {1, 2, 8}) {
    serve::ServerOptions options;
    options.workers = workers;
    options.thread_budget = common::ThreadBudget(4);
    serve::Server server(options);
    std::vector<int> ids;
    for (const flow::FlowConfig& c : configs) {
      common::Result<int> id = server.submit(c);
      ASSERT_TRUE(id.ok()) << id.status().to_string();
      ids.push_back(id.value());
    }
    for (std::size_t i = 0; i < configs.size(); ++i) {
      common::Result<serve::JobRecord> rec = server.wait(ids[i]);
      ASSERT_TRUE(rec.ok());
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " job=" + std::to_string(i));
      expect_outcome_eq(serial[i], rec.value().outcome);
    }
    EXPECT_GT(server.metrics_snapshot().counter("pool.jobs"), 0);
  }
}

TEST(Server, CancelledJobLeavesConcurrentFannedOutJobBitwise) {
  // Job A is cancelled while it and job B run with every loop fanned out;
  // A unwinds with kCancelled and B still equals its serial run. The
  // cancel lands wherever A is (mostly its anneal loop's own check); a
  // cancel raised inside a chunk while another caller's region runs is
  // pinned by PoolDrivers.FailuresReachOnlyTheirOwnCaller.
  const FannedOutPool pool;
  flow::FlowConfig victim =
      small_config(design_file("serve_fan_victim.txt", 400, 23));
  victim.corners = true;
  victim.anneal_iterations = 400000;
  flow::FlowConfig bystander =
      small_config(design_file("serve_fan_bystander.txt", 160, 24));
  bystander.corners = true;
  bystander.anneal_iterations = 1500;
  common::set_thread_count(1);
  const serve::JobOutcome ref = serve::execute_job(bystander, nullptr);

  serve::ServerOptions options;
  options.workers = 2;
  options.thread_budget = common::ThreadBudget(4);
  serve::Server server(options);
  common::Result<int> a = server.submit(victim);
  common::Result<int> b = server.submit(bystander);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  while (server.queue_depth() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(server.cancel(a.value()));
  common::Result<serve::JobRecord> arec = server.wait(a.value());
  common::Result<serve::JobRecord> brec = server.wait(b.value());
  ASSERT_TRUE(arec.ok());
  ASSERT_TRUE(brec.ok());
  EXPECT_EQ(arec.value().outcome.status.code(), StatusCode::kCancelled)
      << arec.value().outcome.status.to_string();
  expect_outcome_eq(ref, brec.value().outcome);
}

TEST(Server, FailedJobSurfacesTypedStatusInRecord) {
  serve::Server server({});
  common::Result<int> id =
      server.submit(small_config(temp_path("serve_no_such_design.txt")));
  ASSERT_TRUE(id.ok());
  common::Result<serve::JobRecord> rec = server.wait(id.value());
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().outcome.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server.metrics_snapshot().counter("serve.jobs_failed"), 1);
}

TEST(Server, WaitOnUnknownIdIsInvalidArgument) {
  serve::Server server({});
  EXPECT_EQ(server.wait(42).status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(server.cancel(42));
}

// A done record never changes and is never erased, so wait() copies it
// after releasing the server lock: concurrent and repeated waits on one id
// (and the drain after them) return equal records, and an unknown id is
// still kInvalidArgument.
TEST(Server, RepeatedWaitsReturnEqualRecords) {
  const std::string design = design_file("serve_rewait.txt", 32, 17);
  serve::ServerOptions options;
  options.workers = 2;
  serve::Server server(options);
  const common::Result<int> id = server.submit(small_config(design, 7));
  ASSERT_TRUE(id.ok());
  std::optional<const common::Result<serve::JobRecord>> concurrent;
  std::thread waiter([&] { concurrent.emplace(server.wait(id.value())); });
  const common::Result<serve::JobRecord> first = server.wait(id.value());
  waiter.join();
  const common::Result<serve::JobRecord> second = server.wait(id.value());
  EXPECT_EQ(server.wait(id.value() + 1).status().code(),
            StatusCode::kInvalidArgument);
  const std::vector<serve::JobRecord> drained = server.drain();
  ASSERT_EQ(drained.size(), 1u);

  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(concurrent.has_value() && concurrent->ok());
  for (const serve::JobRecord* r :
       {&second.value(), &concurrent->value(), &drained[0]}) {
    EXPECT_EQ(r->id, first.value().id);
    EXPECT_EQ(r->design_path, first.value().design_path);
    EXPECT_EQ(r->state, serve::JobState::kDone);
    EXPECT_EQ(r->queue_seconds, first.value().queue_seconds);
    EXPECT_EQ(r->outcome.wall_seconds, first.value().outcome.wall_seconds);
    expect_outcome_eq(r->outcome, first.value().outcome);
  }
}

// ---- Server: admission control --------------------------------------------

TEST(Server, RejectsUndeclaredOrOversizedMemoryUnderBudget) {
  const std::string design = design_file("serve_adm.txt", 32, 21);
  serve::ServerOptions options;
  options.memory_budget_bytes = 64u << 20;
  serve::Server server(options);

  flow::FlowConfig undeclared = small_config(design);
  common::Result<int> r1 = server.submit(undeclared);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("declare"), std::string::npos);

  flow::FlowConfig oversized = small_config(design);
  oversized.memory_budget_bytes = 128u << 20;
  common::Result<int> r2 = server.submit(oversized);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  flow::FlowConfig fits = small_config(design);
  fits.memory_budget_bytes = 16u << 20;
  common::Result<int> r3 = server.submit(fits);
  ASSERT_TRUE(r3.ok()) << r3.status().to_string();
  ASSERT_TRUE(server.wait(r3.value()).ok());
  EXPECT_EQ(server.metrics_snapshot().counter("serve.jobs_rejected"), 2);
}

TEST(Server, BlocksRatherThanOversubscribesMemory) {
  // Two jobs each declaring > half the budget cannot run together; the
  // server must serialize them and still finish both.
  const std::string design = design_file("serve_adm_blk.txt", 32, 22);
  serve::ServerOptions options;
  options.workers = 2;
  options.memory_budget_bytes = 100u << 20;
  serve::Server server(options);

  flow::FlowConfig big = small_config(design);
  big.memory_budget_bytes = 70u << 20;
  common::Result<int> a = server.submit(big);
  common::Result<int> b = server.submit(big);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(server.wait(a.value()).value().outcome.ok());
  ASSERT_TRUE(server.wait(b.value()).value().outcome.ok());
  EXPECT_EQ(server.metrics_snapshot().counter("serve.jobs_completed"), 2);
}

// ---- Cancellation ---------------------------------------------------------

TEST(Cancel, PreCancelledJobReturnsCancelledAndWritesNothing) {
  const std::string dir = temp_path("serve_cancel_pre");
  std::filesystem::remove_all(dir);
  flow::FlowConfig c = small_config(design_file("serve_cancel_d.txt", 32, 31));
  c.results_dir = dir;
  c.metrics_out = "run.json";
  c.spef_out = "out.spef";

  common::CancelToken token;
  token.cancel();
  serve::JobOutcome out = serve::execute_job(c, nullptr, token);
  EXPECT_EQ(out.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_FALSE(std::filesystem::exists(dir));  // nothing written at all.
}

TEST(Cancel, MidAnnealReturnsCancelledLeavesNoPartialArtifacts) {
  const std::string design = design_file("serve_cancel_anneal.txt", 48, 33);
  const std::string ref_dir = temp_path("serve_cancel_ref");
  const std::string dir = temp_path("serve_cancel_mid");
  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);

  flow::FlowConfig base = small_config(design);
  base.anneal_iterations = 400000;
  base.checkpoint_interval = 100;
  base.checkpoint_path = "anneal.ck";
  base.metrics_out = "run.json";
  base.spef_out = "out.spef";

  // Uninterrupted reference (its own results dir, its own checkpoint).
  flow::FlowConfig ref_config = base;
  ref_config.results_dir = ref_dir;
  const serve::JobOutcome ref = serve::execute_job(ref_config, nullptr);
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE(ref.result->anneal.has_value());

  // Cancelled run: fire the token once the first checkpoint exists, i.e.
  // provably mid-anneal.
  flow::FlowConfig cancelled_config = base;
  cancelled_config.results_dir = dir;
  const std::string ck = cancelled_config.output_path("anneal.ck");
  common::CancelToken token;
  serve::JobOutcome cancelled;
  std::thread runner([&cancelled, &cancelled_config, &token] {
    cancelled = serve::execute_job(cancelled_config, nullptr, token);
  });
  while (!std::filesystem::exists(ck)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  token.cancel();
  runner.join();

  ASSERT_EQ(cancelled.status.code(), StatusCode::kCancelled)
      << cancelled.status.to_string()
      << " (the run finished before the cancel landed; raise "
         "anneal_iterations)";
  // The checkpoint is the ONLY artifact: no manifest, no SPEF, no tmp
  // leftovers from the atomic writers.
  EXPECT_TRUE(std::filesystem::exists(ck));
  EXPECT_FALSE(
      std::filesystem::exists(cancelled_config.output_path("run.json")));
  EXPECT_FALSE(
      std::filesystem::exists(cancelled_config.output_path("out.spef")));
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "partial file: " << entry.path();
  }

  // Resubmit the same config: it resumes from the cancelled run's
  // checkpoint and lands on the uninterrupted run's bits.
  const serve::JobOutcome resumed =
      serve::execute_job(cancelled_config, nullptr);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed.result->anneal.has_value());
  EXPECT_GT(resumed.result->resumed_from_iteration, 0);
  EXPECT_EQ(ref.result->anneal->assignment, resumed.result->anneal->assignment);
  EXPECT_EQ(ref.result->anneal->final_eval.power.switched_cap,
            resumed.result->anneal->final_eval.power.switched_cap);
  expect_outcome_eq(ref, resumed);

  std::filesystem::remove_all(ref_dir);
  std::filesystem::remove_all(dir);
}

TEST(Cancel, QueuedJobCancelledBeforeStartNeverRuns) {
  const std::string design = design_file("serve_cancel_q.txt", 48, 35);
  serve::ServerOptions options;
  options.workers = 1;  // one lane: the second job must queue.
  serve::Server server(options);

  flow::FlowConfig slow = small_config(design);
  slow.anneal_iterations = 400000;
  common::Result<int> running = server.submit(slow);
  ASSERT_TRUE(running.ok());

  const std::string victim_dir = temp_path("serve_cancel_q_out");
  std::filesystem::remove_all(victim_dir);
  flow::FlowConfig queued = small_config(design);
  queued.results_dir = victim_dir;
  queued.metrics_out = "run.json";
  common::Result<int> victim = server.submit(queued);
  ASSERT_TRUE(victim.ok());

  EXPECT_TRUE(server.cancel(victim.value()));
  EXPECT_TRUE(server.cancel(running.value()));  // unwind the anneal too.

  common::Result<serve::JobRecord> vrec = server.wait(victim.value());
  ASSERT_TRUE(vrec.ok());
  EXPECT_EQ(vrec.value().outcome.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(std::filesystem::exists(victim_dir));  // never started.

  common::Result<serve::JobRecord> rrec = server.wait(running.value());
  ASSERT_TRUE(rrec.ok());
  // The running job either unwound with kCancelled or (tiny race) had
  // already finished; both are terminal, nothing hangs.
  EXPECT_TRUE(rrec.value().outcome.status.code() == StatusCode::kCancelled ||
              rrec.value().outcome.ok());
  EXPECT_GE(server.metrics_snapshot().counter("serve.jobs_cancelled"), 1);
}

// ---- Shutdown -------------------------------------------------------------

TEST(Shutdown, DrainFinishesEveryQueuedJob) {
  const std::string design = design_file("serve_drain.txt", 32, 41);
  serve::ServerOptions options;
  options.workers = 2;
  serve::Server server(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(server.submit(small_config(design, 50 + i)).ok());
  }
  const std::vector<serve::JobRecord> records = server.drain();
  ASSERT_EQ(records.size(), 6u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, static_cast<int>(i) + 1);  // ascending ids.
    EXPECT_EQ(records[i].state, serve::JobState::kDone);
    EXPECT_TRUE(records[i].outcome.ok());
  }
  // Post-shutdown submits are rejected, not queued.
  common::Result<int> late = server.submit(small_config(design));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kInvalidArgument);
}

TEST(Shutdown, CancelModeTerminatesWithoutFinishingTheQueue) {
  const std::string design = design_file("serve_shutdown.txt", 48, 43);
  serve::ServerOptions options;
  options.workers = 1;
  serve::Server server(options);
  flow::FlowConfig slow = small_config(design);
  slow.anneal_iterations = 400000;
  std::vector<int> ids;
  for (int i = 0; i < 4; ++i) {
    common::Result<int> id = server.submit(slow);
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  server.shutdown(serve::Server::Shutdown::kCancel);
  int cancelled = 0;
  for (const int id : ids) {
    common::Result<serve::JobRecord> rec = server.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, serve::JobState::kDone);
    if (rec.value().outcome.status.code() == StatusCode::kCancelled) {
      ++cancelled;
    }
  }
  // The queued jobs (at least) must have been cancelled, not run.
  EXPECT_GE(cancelled, 3);
}

// ---- sndr_serve tool ------------------------------------------------------

/// Runs `sndr_serve <args>`, returns the exit code; captures stdout+stderr.
int run_serve_tool(const std::string& args, std::string* output = nullptr) {
  const std::string log = temp_path("serve_tool_run.log");
  const std::string cmd =
      std::string(SNDR_SERVE_PATH) + " " + args + " > " + log + " 2>&1";
  const int raw = std::system(cmd.c_str());
  if (output != nullptr) {
    std::ifstream f(log);
    std::stringstream ss;
    ss << f.rdbuf();
    *output = ss.str();
  }
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(ServeTool, SpoolExitCodeSeparatesCleanFromRejected) {
  namespace fs = std::filesystem;
  const std::string design = design_file("serve_tool_design.txt", 24, 7);
  const fs::path spool = fs::path(temp_path("serve_tool_spool"));
  fs::remove_all(spool);
  fs::create_directories(spool);
  std::ofstream((spool / "a.job").string())
      << "design = " << design << "\n"
      << "training_samples = 40\n"
      << "memory_budget = 4M\n";

  // Budget declared and under the server budget: clean run, exit 0.
  std::string out;
  EXPECT_EQ(run_serve_tool("--spool " + spool.string() +
                               " --memory-budget 64M --threads 1",
                           &out),
            0)
      << out;
  EXPECT_NE(out.find("submitted"), std::string::npos) << out;
  EXPECT_NE(out.find("feasible"), std::string::npos) << out;

  // An undeclared-budget job is rejected at admission; even though the
  // drained record list is empty the spool run must NOT read as success.
  std::ofstream((spool / "a.job").string(), std::ios::trunc)
      << "design = " << design << "\n"
      << "training_samples = 40\n";
  EXPECT_EQ(run_serve_tool("--spool " + spool.string() +
                               " --memory-budget 64M --threads 1",
                           &out),
            1)
      << out;
  EXPECT_NE(out.find("rejected"), std::string::npos) << out;
}

}  // namespace
}  // namespace sndr
