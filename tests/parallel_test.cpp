// Determinism and cache-correctness contract of the parallel subsystem:
// every parallel primitive and every parallelized flow stage must be
// bit-identical at threads=1 and threads=N, and a cached exact_eval must
// match a fresh evaluation after arbitrary move/rebuild sequences. The
// PoolDrivers tests drive regions from several threads at once on one
// pool: results, progress, the busy-driver lane cap and failure routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "tech/corners.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

/// Restores the global thread budget on scope exit so tests stay isolated.
struct ThreadGuard {
  ~ThreadGuard() { common::set_thread_count(-1); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  common::set_thread_count(8);
  std::vector<std::atomic<int>> hits(1000);
  common::parallel_for(1000, 7, [&](std::int64_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackAndZeroLength) {
  ThreadGuard guard;
  common::set_thread_count(0);  // 0 = serial fallback.
  EXPECT_EQ(common::thread_count(), 1);
  int calls = 0;
  common::parallel_for(5, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 5);
  common::parallel_for(0, 2, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ParallelFor, PropagatesLowestChunkException) {
  ThreadGuard guard;
  common::set_thread_count(4);
  try {
    common::parallel_for(100, 1, [&](std::int64_t i) {
      if (i >= 40) throw std::runtime_error("chunk " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "chunk 40");
  }
}

/// Restores the grain-gate threshold to its env/default resolution.
struct MinUsGuard {
  ~MinUsGuard() { common::set_parallel_min_us(-1.0); }
};

TEST(ParallelGrain, SmallEstimatedWorkStaysOnCallerThread) {
  ThreadGuard guard;
  MinUsGuard min_guard;
  common::set_thread_count(8);
  common::set_parallel_min_us(1000.0);
  // 100 items x 1 us = 100 us of estimated work, below the 1000 us gate:
  // the loop must run inline on the calling thread, never on the pool.
  std::vector<std::thread::id> ids(100);
  common::parallel_for(100, 4, /*est_us_per_item=*/1.0, [&](std::int64_t i) {
    ids[static_cast<std::size_t>(i)] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
  // 100 x 50 us = 5000 us clears the gate: the pool path is eligible, and
  // the coverage contract (every i exactly once) still holds.
  std::vector<std::atomic<int>> hits(100);
  common::parallel_for(100, 4, /*est_us_per_item=*/50.0,
                       [&](std::int64_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelGrain, GatedReduceBitIdenticalToUngated) {
  ThreadGuard guard;
  MinUsGuard min_guard;
  common::set_thread_count(8);
  const auto map = [](std::int64_t i) {
    return 1.0 / (1.0 + static_cast<double>(i));
  };
  const auto combine = [](double a, double b) { return a + b; };
  const double ungated =
      common::parallel_reduce(10000, 64, 0.0, map, combine);
  // Force the gate closed: the serial path must reduce through the same
  // chunk association, so the sum is bitwise equal.
  common::set_parallel_min_us(1e9);
  EXPECT_EQ(common::parallel_reduce(10000, 64, /*est_us_per_item=*/1.0, 0.0,
                                    map, combine),
            ungated);
  // Gate disabled (threshold 0): the annotated overload defers to the
  // plain parallel path.
  common::set_parallel_min_us(0.0);
  EXPECT_EQ(common::parallel_reduce(10000, 64, /*est_us_per_item=*/1.0, 0.0,
                                    map, combine),
            ungated);
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // Floating-point sums depend on association; the chunked reduction must
  // associate identically at any thread count.
  const auto run = [] {
    return common::parallel_reduce(
        100000, 64, 0.0,
        [](std::int64_t i) { return 1.0 / (1.0 + static_cast<double>(i)); },
        [](double a, double b) { return a + b; });
  };
  common::set_thread_count(1);
  const double serial = run();
  for (const int threads : {2, 3, 8}) {
    common::set_thread_count(threads);
    EXPECT_EQ(serial, run()) << "threads=" << threads;
  }
}

TEST(ParallelInvoke, RunsAllTasks) {
  ThreadGuard guard;
  common::set_thread_count(4);
  std::atomic<int> mask{0};
  common::parallel_invoke([&] { mask |= 1; }, [&] { mask |= 2; },
                          [&] { mask |= 4; });
  EXPECT_EQ(mask.load(), 7);
}

// ---- Many drivers on one pool ----------------------------------------------

/// A 4-lane pool with the parallel gate off, both restored on exit.
struct FourLanePool {
  ThreadGuard threads;
  MinUsGuard min_us;
  FourLanePool() {
    common::set_thread_count(4);
    common::set_parallel_min_us(0.0);
  }
};

/// One caller's mixed workload: a slot-writing parallel_for, a gated and
/// an ungated FP reduction, and a parallel_invoke. Returns every value it
/// produced, so two runs compare bitwise.
std::vector<double> drive_regions(int salt) {
  std::vector<double> out(3000);
  common::parallel_for(3000, 7, [&](std::int64_t i) {
    out[static_cast<std::size_t>(i)] =
        std::sin(0.001 * static_cast<double>(i * (salt + 1)));
  });
  const auto map = [salt](std::int64_t i) {
    return 1.0 / (1.0 + static_cast<double>(i + salt));
  };
  const auto add = [](double a, double b) { return a + b; };
  out.push_back(common::parallel_reduce(20000, 64, 0.0, map, add));
  out.push_back(common::parallel_reduce(20000, 32, 1.0, 0.0, map, add));
  double a = 0.0, b = 0.0, c = 0.0;
  common::parallel_invoke([&] { a = std::sqrt(2.0 + salt); },
                          [&] { b = std::log(3.0 + salt); },
                          [&] { c = std::exp(-1.0 * salt); });
  out.insert(out.end(), {a, b, c});
  return out;
}

TEST(PoolDrivers, ConcurrentCallersMatchSerialBitwise) {
  FourLanePool pool;
  for (const int callers : {2, 3, 4}) {
    std::vector<std::vector<double>> serial;
    common::set_thread_count(1);
    for (int t = 0; t < callers; ++t) serial.push_back(drive_regions(t));
    common::set_thread_count(4);
    std::vector<std::vector<double>> got(callers);
    for (int round = 0; round < 5; ++round) {
      std::vector<std::thread> threads;
      for (int t = 0; t < callers; ++t) {
        threads.emplace_back([&got, t] { got[t] = drive_regions(t); });
      }
      for (std::thread& th : threads) th.join();
      for (int t = 0; t < callers; ++t) {
        EXPECT_EQ(got[t], serial[t])
            << "callers=" << callers << " round=" << round << " caller=" << t;
      }
    }
  }
}

TEST(PoolDrivers, CallerNeverWaitsForAnotherCallersRegion) {
  // Caller A's region holds a chunk open until caller B's region has run.
  // A pool that runs one region at a time deadlocks here; the timeout
  // turns that into a failure instead of a hang.
  FourLanePool pool;
  std::mutex m;
  std::condition_variable cv;
  bool a_holding = false;
  bool b_done = false;
  bool timed_out = false;
  std::thread a([&] {
    common::parallel_for(8, 1, [&](std::int64_t i) {
      if (i != 0) return;
      std::unique_lock<std::mutex> lock(m);
      a_holding = true;
      cv.notify_all();
      if (!cv.wait_for(lock, std::chrono::seconds(20),
                       [&] { return b_done; })) {
        timed_out = true;
      }
    });
  });
  std::thread b([&] {
    {
      std::unique_lock<std::mutex> lock(m);
      cv.wait(lock, [&] { return a_holding; });
    }
    const std::vector<double> got = drive_regions(7);
    std::lock_guard<std::mutex> lock(m);
    b_done = !got.empty();
    cv.notify_all();
  });
  a.join();
  b.join();
  EXPECT_TRUE(b_done);
  EXPECT_FALSE(timed_out) << "caller B waited for caller A's region";
}

/// Runs a region of `chunks` sleeping chunks and returns the peak number
/// of pool threads (threads other than the caller) inside chunks at once.
int peak_pool_threads_inside(int chunks, std::chrono::microseconds nap) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  common::parallel_for(chunks, 1, [&](std::int64_t) {
    if (std::this_thread::get_id() == caller) {
      std::this_thread::sleep_for(nap);
      return;
    }
    const int now = inside.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(nap);
    inside.fetch_sub(1);
  });
  return peak.load();
}

TEST(PoolDrivers, BusyMarksCapPoolThreadsInsideChunks) {
  FourLanePool pool;
  const int lanes = common::global_pool()->lanes();
  ASSERT_EQ(lanes, 4);
  for (const int k : {0, 1, 2, 3, 4, 6}) {
    std::vector<std::unique_ptr<common::BusyDriver>> marks;
    for (int i = 0; i < k; ++i) {
      marks.push_back(std::make_unique<common::BusyDriver>());
    }
    const int peak =
        peak_pool_threads_inside(48, std::chrono::microseconds(500));
    EXPECT_LE(peak, std::max(0, lanes - std::max(1, k))) << "marks=" << k;
    // With no mark the one implicit driver leaves every pool thread free,
    // and 24 ms of sleeping chunks give them time to join.
    if (k == 0) {
      EXPECT_GE(peak, 1);
    }
  }
}

TEST(PoolDrivers, ReleasedMarkWakesIdlePoolThreads) {
  // Three marks leave one pool thread free; releasing them mid-region lets
  // the sleeping ones join the region that is still being worked.
  FourLanePool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::unique_ptr<common::BusyDriver>> marks;
  for (int i = 0; i < 3; ++i) {
    marks.push_back(std::make_unique<common::BusyDriver>());
  }
  std::atomic<int> inside{0};
  std::atomic<int> peak_before{0};
  std::atomic<int> peak_after{0};
  std::atomic<bool> released{false};
  common::parallel_for(400, 1, [&](std::int64_t i) {
    const bool pool_thread = std::this_thread::get_id() != caller;
    if (i >= 20 && !pool_thread && !released) {
      // Flag first: a pool thread that joins after the release must never
      // be counted against the before-release cap.
      released = true;
      marks.clear();
    }
    const int now = pool_thread ? inside.fetch_add(1) + 1 : inside.load();
    std::atomic<int>& peak = released ? peak_after : peak_before;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
    if (pool_thread) inside.fetch_sub(1);
  });
  marks.clear();
  EXPECT_LE(peak_before.load(), 1);
  if (released) {
    EXPECT_GE(peak_after.load(), 2);
  }
}

TEST(PoolDrivers, FailuresReachOnlyTheirOwnCaller) {
  FourLanePool pool;
  for (int round = 0; round < 5; ++round) {
    std::string thrown;
    bool cancelled = false;
    bool clean_failed = false;
    std::vector<double> clean;
    std::thread failing([&] {
      try {
        common::parallel_for(100, 1, [&](std::int64_t i) {
          if (i >= 40) throw std::runtime_error("chunk " + std::to_string(i));
        });
      } catch (const std::runtime_error& e) {
        thrown = e.what();
      }
    });
    std::thread cancelling([&] {
      common::CancelToken token;
      common::CancelBinding binding(token);
      try {
        common::parallel_for(200, 1, [&](std::int64_t i) {
          if (i == 10) token.cancel();
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
      } catch (const common::Cancelled&) {
        cancelled = true;
      }
    });
    std::thread bystander([&] {
      try {
        clean = drive_regions(3);
      } catch (...) {
        clean_failed = true;
      }
    });
    failing.join();
    cancelling.join();
    bystander.join();
    EXPECT_EQ(thrown, "chunk 40") << "round " << round;
    EXPECT_TRUE(cancelled) << "round " << round;
    EXPECT_FALSE(clean_failed) << "round " << round;
    common::set_thread_count(1);
    EXPECT_EQ(clean, drive_regions(3)) << "round " << round;
    common::set_thread_count(4);
  }
}

class ParallelFlowFixture : public ::testing::Test {
 protected:
  test::Flow f = test::small_flow(192, 11);
  ndr::RuleAssignment blanket =
      ndr::assign_all(f.nets, f.tech.rules.blanket_index());
  ThreadGuard guard;
};

/// Exact (bitwise) equality of two full evaluations.
void expect_identical(const ndr::FlowEvaluation& a,
                      const ndr::FlowEvaluation& b) {
  ASSERT_EQ(a.timing.sink_arrival.size(), b.timing.sink_arrival.size());
  for (std::size_t i = 0; i < a.timing.sink_arrival.size(); ++i) {
    EXPECT_EQ(a.timing.sink_arrival[i], b.timing.sink_arrival[i]);
    EXPECT_EQ(a.timing.sink_slew[i], b.timing.sink_slew[i]);
  }
  ASSERT_EQ(a.variation.net_sigma.size(), b.variation.net_sigma.size());
  for (std::size_t i = 0; i < a.variation.net_sigma.size(); ++i) {
    EXPECT_EQ(a.variation.net_sigma[i], b.variation.net_sigma[i]);
    EXPECT_EQ(a.variation.net_xtalk[i], b.variation.net_xtalk[i]);
  }
  EXPECT_EQ(a.variation.max_uncertainty, b.variation.max_uncertainty);
  EXPECT_EQ(a.power.total_power, b.power.total_power);
  EXPECT_EQ(a.power.switched_cap, b.power.switched_cap);
  EXPECT_EQ(a.em.worst_density, b.em.worst_density);
  EXPECT_EQ(a.timing.max_slew, b.timing.max_slew);
  EXPECT_EQ(a.timing.skew(), b.timing.skew());
  EXPECT_EQ(a.max_track_util, b.max_track_util);
  // The delta-timer seed arrays.
  EXPECT_EQ(a.timing.node_wire_delay, b.timing.node_wire_delay);
  EXPECT_EQ(a.timing.node_step_slew, b.timing.node_step_slew);
  EXPECT_EQ(a.timing.net_wire_delay_worst, b.timing.net_wire_delay_worst);
}

/// Evaluations keep no parasitics: extract_all itself must be bitwise
/// identical at 1 and 8 threads.
void expect_extraction_identical(const test::Flow& f,
                                 const tech::Technology& tech,
                                 const ndr::RuleAssignment& assignment) {
  const extract::Extractor extractor(tech, f.design);
  common::set_thread_count(1);
  const std::vector<extract::NetParasitics> a =
      extractor.extract_all(f.cts.tree, f.nets, assignment);
  common::set_thread_count(8);
  const std::vector<extract::NetParasitics> b =
      extractor.extract_all(f.cts.tree, f.nets, assignment);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].wirelength, b[i].wirelength);
    EXPECT_EQ(a[i].wire_cap_gnd, b[i].wire_cap_gnd);
    EXPECT_EQ(a[i].wire_cap_cpl, b[i].wire_cap_cpl);
  }
}

TEST_F(ParallelFlowFixture, EvaluateBitIdenticalAtOneAndEightThreads) {
  common::set_thread_count(1);
  const ndr::FlowEvaluation serial =
      ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket);
  common::set_thread_count(8);
  const ndr::FlowEvaluation parallel =
      ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket);
  expect_identical(serial, parallel);
  expect_extraction_identical(f, f.tech, blanket);
}

TEST_F(ParallelFlowFixture, CornersBitIdenticalAtOneAndEightThreads) {
  common::set_thread_count(1);
  const ndr::MultiCornerReport serial =
      ndr::evaluate_corners(f.cts.tree, f.design, f.tech, f.nets, blanket);
  common::set_thread_count(8);
  const ndr::MultiCornerReport parallel =
      ndr::evaluate_corners(f.cts.tree, f.design, f.tech, f.nets, blanket);
  ASSERT_EQ(serial.corners.size(), parallel.corners.size());
  for (std::size_t c = 0; c < serial.corners.size(); ++c) {
    EXPECT_EQ(serial.corners[c].corner.name, parallel.corners[c].corner.name);
    expect_identical(serial.corners[c].eval, parallel.corners[c].eval);
    expect_extraction_identical(
        f, tech::apply_corner(f.tech, serial.corners[c].corner), blanket);
  }
  EXPECT_EQ(serial.worst_slew_corner(), parallel.worst_slew_corner());
  EXPECT_EQ(serial.worst_power_corner(), parallel.worst_power_corner());
}

TEST_F(ParallelFlowFixture, SmartNdrBitIdenticalAcrossThreadCounts) {
  // End-to-end determinism: training, scoring, and signoff all run through
  // the parallel engine, and the committed assignment must not depend on
  // the thread count.
  ThreadGuard guard;
  common::set_thread_count(1);
  const ndr::SmartNdrResult serial =
      ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  common::set_thread_count(8);
  const ndr::SmartNdrResult parallel =
      ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);
  EXPECT_EQ(serial.assignment, parallel.assignment);
  EXPECT_EQ(serial.final_eval.power.total_power,
            parallel.final_eval.power.total_power);
  EXPECT_EQ(parallel.stats.threads_used, 8);
}

class ExactCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    f = test::small_flow(96, 23);
    blanket = ndr::assign_all(f.nets, f.tech.rules.blanket_index());
    state = std::make_unique<ndr::AssignmentState>(f.cts.tree, f.design,
                                                   f.tech, f.nets, aopt);
    ev = ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt);
    state->rebuild(blanket, ev);
  }

  /// Fresh (uncached) reference evaluation of (net, rule).
  ndr::NetExact fresh(int net_id, int rule) const {
    return ndr::evaluate_net_exact(
        f.cts.tree, f.design, f.tech, f.nets[net_id], f.tech.rules[rule],
        state->summary(net_id).driver_res, f.design.constraints.clock_freq);
  }

  static void expect_scalars_equal(const ndr::NetExact& a,
                                   const ndr::NetExact& b) {
    EXPECT_EQ(a.cap_switched, b.cap_switched);
    EXPECT_EQ(a.step_slew_worst, b.step_slew_worst);
    EXPECT_EQ(a.sigma_worst, b.sigma_worst);
    EXPECT_EQ(a.xtalk_worst, b.xtalk_worst);
    EXPECT_EQ(a.em_peak, b.em_peak);
    EXPECT_EQ(a.wire_delay_mean, b.wire_delay_mean);
    EXPECT_EQ(a.wire_delay_worst, b.wire_delay_worst);
  }

  test::Flow f;
  timing::AnalysisOptions aopt;
  ndr::RuleAssignment blanket;
  std::unique_ptr<ndr::AssignmentState> state;
  ndr::FlowEvaluation ev;
};

TEST_F(ExactCacheFixture, SecondCallHitsAndMatches) {
  const int net = f.nets.size() / 2;
  const ndr::NetExact first = state->exact_eval(net, 1);
  const auto misses = state->exact_cache_misses();
  const ndr::NetExact second = state->exact_eval(net, 1);
  EXPECT_EQ(state->exact_cache_misses(), misses);  // no new miss.
  EXPECT_GE(state->exact_cache_hits(), 1);
  expect_scalars_equal(first, second);
  expect_scalars_equal(second, fresh(net, 1));
}

TEST_F(ExactCacheFixture, CachedMatchesFreshAfterMovesAndRebuild) {
  // Warm the cache broadly, then churn the state with moves and a rebuild;
  // every subsequent cached answer must equal a from-scratch evaluation.
  for (int net = 0; net < f.nets.size(); net += 3) {
    for (int r = 0; r < f.tech.rules.size(); ++r) state->exact_eval(net, r);
  }
  ndr::RuleAssignment a = blanket;
  for (const int net : {1, f.nets.size() / 3, f.nets.size() - 1}) {
    state->apply_move(net, 1);
    a[net] = 1;
  }
  for (const int net : {0, 1, f.nets.size() / 3, f.nets.size() - 1}) {
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      expect_scalars_equal(state->exact_eval(net, r), fresh(net, r));
    }
  }

  const ndr::FlowEvaluation ev2 =
      ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets, a, aopt);
  state->rebuild(a, ev2);
  for (const int net : {0, f.nets.size() / 2}) {
    for (int r = 0; r < f.tech.rules.size(); ++r) {
      expect_scalars_equal(state->exact_eval(net, r), fresh(net, r));
    }
  }
}

TEST_F(ExactCacheFixture, ApplyMoveKeepsCacheWarmAndConsistent) {
  // A move changes no exact_eval input (the rule is part of the key), so
  // the whole cache survives it — and every surviving entry must still
  // agree with a from-scratch evaluation.
  const int moved = 2;
  const int other = f.nets.size() - 1;
  state->exact_eval(moved, 0);
  state->exact_eval(other, 1);
  const auto misses_before = state->exact_cache_misses();

  state->apply_move(moved, 1);

  expect_scalars_equal(state->exact_eval(other, 1), fresh(other, 1));
  expect_scalars_equal(state->exact_eval(moved, 0), fresh(moved, 0));
  expect_scalars_equal(state->exact_eval(moved, 1), fresh(moved, 1));
  EXPECT_EQ(state->exact_cache_misses(), misses_before);  // all hits.
}

TEST_F(ExactCacheFixture, RebuildKeepsEntriesWithUnchangedContext) {
  // exact_eval is keyed on the net's electrical context (driver_res); a
  // rebuild that does not change it must keep the memoized rows warm — this
  // is what lets the cache survive the optimizer's repair rebuilds.
  state->exact_eval(0, 1);
  state->rebuild(blanket, ev);
  const auto misses_before = state->exact_cache_misses();
  const ndr::NetExact cached = state->exact_eval(0, 1);
  EXPECT_EQ(state->exact_cache_misses(), misses_before);
  EXPECT_GE(state->exact_cache_hits(), 1);
  expect_scalars_equal(cached, fresh(0, 1));
}

}  // namespace
}  // namespace sndr
