// Budgeted GeometryCache tests (DESIGN.md "Memory budget").
//
// The contract under test: a byte budget changes WHEN geometry is built
// (LRU eviction + lazy rebuild) but never WHAT is built — every flow
// result is bitwise identical to the unbounded path, at any thread count.
// Alongside the identity checks, the accounting invariants: resident
// bytes return under the budget once pins are released, pinned entries
// survive arbitrary eviction pressure, and the unbounded-only entry
// points refuse to run in budgeted mode.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/smart_ndr.hpp"
#include "test_util.hpp"

namespace sndr {
namespace {

using extract::GeometryCache;
using extract::NetGeometry;

/// A budget small enough to force heavy eviction on the test design but
/// large enough to hold the single largest net (the cache must always be
/// able to pin at least one entry).
std::size_t heavy_eviction_budget(const GeometryCache& unbounded) {
  return unbounded.resident_bytes() / 8 + 1024;
}

void expect_geom_eq(const NetGeometry& a, const NetGeometry& b) {
  EXPECT_EQ(a.piece_parent, b.piece_parent);
  EXPECT_EQ(a.piece_len, b.piece_len);
  EXPECT_EQ(a.piece_occ, b.piece_occ);
  EXPECT_EQ(a.node_tree_node, b.node_tree_node);
  EXPECT_EQ(a.postorder, b.postorder);
  EXPECT_EQ(a.node_rc, b.node_rc);
  EXPECT_EQ(a.wirelength, b.wirelength);
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t i = 0; i < a.loads.size(); ++i) {
    EXPECT_EQ(a.loads[i].rc_index, b.loads[i].rc_index);
    EXPECT_EQ(a.loads[i].buffer_cell, b.loads[i].buffer_cell);
    EXPECT_EQ(a.loads[i].sink_cap, b.loads[i].sink_cap);
  }
}

void expect_eval_eq(const ndr::FlowEvaluation& a,
                    const ndr::FlowEvaluation& b) {
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.power.switched_cap, b.power.switched_cap);
  EXPECT_EQ(a.power.total_power, b.power.total_power);
  EXPECT_EQ(a.power.net_switched_cap, b.power.net_switched_cap);
  EXPECT_EQ(a.timing.max_slew, b.timing.max_slew);
  EXPECT_EQ(a.timing.min_latency, b.timing.min_latency);
  EXPECT_EQ(a.timing.max_latency, b.timing.max_latency);
  EXPECT_EQ(a.timing.sink_arrival, b.timing.sink_arrival);
  EXPECT_EQ(a.timing.sink_slew, b.timing.sink_slew);
  EXPECT_EQ(a.variation.max_uncertainty, b.variation.max_uncertainty);
  EXPECT_EQ(a.variation.sink_uncertainty, b.variation.sink_uncertainty);
  EXPECT_EQ(a.em.worst_density, b.em.worst_density);
  EXPECT_EQ(a.max_track_util, b.max_track_util);
  EXPECT_EQ(a.overflow_cells, b.overflow_cells);
  EXPECT_EQ(a.slew_violations, b.slew_violations);
  EXPECT_EQ(a.uncertainty_violations, b.uncertainty_violations);
  EXPECT_EQ(a.em_violations, b.em_violations);
  EXPECT_EQ(a.window_violations, b.window_violations);
  EXPECT_EQ(a.skew_ok, b.skew_ok);
}

TEST(GeometryBudget, PinnedMatchesUnboundedBitwise) {
  const test::Flow f = test::small_flow();
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const GeometryCache budgeted(f.cts.tree, f.design, f.nets,
                               heavy_eviction_budget(unbounded), {});
  ASSERT_TRUE(budgeted.budgeted());
  // Two passes: the second re-reads entries the budget already evicted,
  // so rebuilt geometry is compared too, not just first builds.
  for (int pass = 0; pass < 2; ++pass) {
    for (int id = 0; id < unbounded.net_count(); ++id) {
      const GeometryCache::Pinned p = budgeted.pinned(id);
      expect_geom_eq(unbounded.geometry(id), *p);
    }
  }
  EXPECT_GT(budgeted.evictions(), 0);
  EXPECT_GT(budgeted.builds(), unbounded.builds());
}

// The routing footprint is whole-tree and always resident: a 64 KiB
// budgeted cache records the same footprint as an unbounded one, keeps it
// through heavy eviction, and does not count it against the budget.
TEST(GeometryBudget, FootprintResidentOutsideBudget) {
  const test::Flow f = test::small_flow(1500);
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const std::size_t budget = 64 * 1024;
  const GeometryCache budgeted(f.cts.tree, f.design, f.nets, budget, {});
  EXPECT_EQ(budgeted.footprint(), unbounded.footprint());
  for (int id = 0; id < budgeted.net_count(); ++id) budgeted.pinned(id);
  EXPECT_GT(budgeted.evictions(), 0);
  EXPECT_EQ(budgeted.footprint(), unbounded.footprint());
  EXPECT_GT(budgeted.footprint().bytes(), budget);
  EXPECT_LE(budgeted.resident_bytes(), budget);
}

TEST(GeometryBudget, GeometryThrowsInBudgetedMode) {
  const test::Flow f = test::small_flow(16);
  const GeometryCache budgeted(f.cts.tree, f.design, f.nets, 4096, {});
  EXPECT_THROW(budgeted.geometry(0), std::logic_error);
  EXPECT_NO_THROW(budgeted.pinned(0));
}

TEST(GeometryBudget, AccountingInvariantsUnderEvictionPressure) {
  const test::Flow f = test::small_flow();
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const std::size_t budget = heavy_eviction_budget(unbounded);
  const GeometryCache cache(f.cts.tree, f.design, f.nets, budget, {});
  EXPECT_EQ(cache.budget_bytes(), budget);
  EXPECT_EQ(cache.resident_bytes(), 0u);
  for (int id = 0; id < cache.net_count(); ++id) {
    const GeometryCache::Pinned p = cache.pinned(id);
    EXPECT_GT(cache.resident_bytes(), 0u);
  }
  // No pins outstanding: eviction has brought residency under the budget.
  EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
  EXPECT_GE(cache.highwater_bytes(), cache.resident_bytes());
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_GE(cache.builds(), cache.net_count());
  // A full second sweep rebuilds evicted entries.
  const std::int64_t builds_before = cache.builds();
  for (int id = 0; id < cache.net_count(); ++id) cache.pinned(id);
  EXPECT_GT(cache.builds(), builds_before);
  EXPECT_LE(cache.resident_bytes(), cache.budget_bytes());
}

TEST(GeometryBudget, PinnedEntrySurvivesEviction) {
  const test::Flow f = test::small_flow();
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const GeometryCache cache(f.cts.tree, f.design, f.nets,
                            heavy_eviction_budget(unbounded), {});
  const GeometryCache::Pinned held = cache.pinned(0);
  const NetGeometry* addr = held.get();
  const NetGeometry copy = *held;  // contents before the churn.
  // Cycle every other net several times — plenty of eviction pressure.
  for (int pass = 0; pass < 3; ++pass) {
    for (int id = 1; id < cache.net_count(); ++id) cache.pinned(id);
  }
  EXPECT_GT(cache.evictions(), 0);
  EXPECT_EQ(held.get(), addr);  // never relocated while pinned.
  expect_geom_eq(copy, *held);  // never clobbered while pinned.
}

TEST(GeometryBudget, InvalidateWhilePinnedThrowsThenRebuildsLazily) {
  const test::Flow f = test::small_flow(16);
  GeometryCache cache(f.cts.tree, f.design, f.nets, 1 << 20, {});
  {
    const GeometryCache::Pinned held = cache.pinned(0);
    EXPECT_THROW(cache.invalidate(), std::logic_error);
  }
  EXPECT_NO_THROW(cache.invalidate());
  EXPECT_EQ(cache.resident_bytes(), 0u);
  const std::int64_t builds_before = cache.builds();
  cache.pinned(0);
  EXPECT_EQ(cache.builds(), builds_before + 1);
}

TEST(GeometryBudget, EvaluateBitwiseIdenticalUnderBudget) {
  const test::Flow f = test::small_flow();
  const ndr::RuleAssignment blanket = ndr::assign_all(f.nets, 0);
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const GeometryCache budgeted(f.cts.tree, f.design, f.nets,
                               heavy_eviction_budget(unbounded), {});
  const ndr::FlowEvaluation ref = ndr::evaluate(
      f.cts.tree, f.design, f.tech, f.nets, blanket, {}, &unbounded);
  for (const int threads : {1, 8}) {
    common::set_thread_count(threads);
    const ndr::FlowEvaluation got = ndr::evaluate(
        f.cts.tree, f.design, f.tech, f.nets, blanket, {}, &budgeted);
    expect_eval_eq(ref, got);
  }
  common::set_thread_count(-1);
  EXPECT_GT(budgeted.evictions(), 0);
}

TEST(GeometryBudget, CornersBitwiseIdenticalUnderBudget) {
  const test::Flow f = test::small_flow();
  const ndr::RuleAssignment blanket = ndr::assign_all(f.nets, 0);
  const GeometryCache unbounded(f.cts.tree, f.design, f.nets);
  const GeometryCache budgeted(f.cts.tree, f.design, f.nets,
                               heavy_eviction_budget(unbounded), {});
  const ndr::MultiCornerReport ref =
      ndr::evaluate_corners(f.cts.tree, f.design, f.tech, f.nets, blanket,
                            tech::standard_corners(), {}, &unbounded);
  const ndr::MultiCornerReport got =
      ndr::evaluate_corners(f.cts.tree, f.design, f.tech, f.nets, blanket,
                            tech::standard_corners(), {}, &budgeted);
  ASSERT_EQ(ref.corners.size(), got.corners.size());
  for (std::size_t c = 0; c < ref.corners.size(); ++c) {
    expect_eval_eq(ref.corners[c].eval, got.corners[c].eval);
  }
}

TEST(GeometryBudget, OptimizeBitwiseIdenticalUnderBudget) {
  struct ThreadGuard {
    ~ThreadGuard() { common::set_thread_count(-1); }
  } guard;
  const test::Flow f = test::small_flow();
  common::set_thread_count(1);
  const ndr::SmartNdrResult ref =
      ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets);

  // Size the budget off the unbounded search's own footprint; the search
  // borrows a cache built under it.
  const GeometryCache probe(f.cts.tree, f.design, f.nets);
  for (const int threads : {1, 8}) {
    common::set_thread_count(threads);
    const GeometryCache budgeted(f.cts.tree, f.design, f.nets,
                                 heavy_eviction_budget(probe), {});
    ndr::OptimizerOptions opts;
    opts.search.geometry = &budgeted;
    const ndr::SmartNdrResult got =
        ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, opts);
    EXPECT_EQ(ref.assignment, got.assignment);
    expect_eval_eq(ref.final_eval, got.final_eval);
    EXPECT_EQ(ref.rule_histogram, got.rule_histogram);
    EXPECT_GT(budgeted.evictions(), 0);
  }
}

}  // namespace
}  // namespace sndr
