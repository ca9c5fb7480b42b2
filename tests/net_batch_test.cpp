// Cross-net lane batching: shape buckets partition the net list into
// groups whose geometries share piece topology, and the multi-net batched
// kernels return results bitwise identical to the scalar per-net path —
// lane interleaving changes throughput, never values.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/thread_pool.hpp"
#include "extract/batch.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/assignment_state.hpp"
#include "ndr/smart_ndr.hpp"
#include "tech/corners.hpp"
#include "test_util.hpp"
#include "timing/tree_timing.hpp"
#include "timing/variation.hpp"

namespace sndr::ndr {
namespace {

void expect_exact_eq(const NetExact& got, const NetExact& want) {
  EXPECT_EQ(got.cap_switched, want.cap_switched);
  EXPECT_EQ(got.step_slew_worst, want.step_slew_worst);
  EXPECT_EQ(got.sigma_worst, want.sigma_worst);
  EXPECT_EQ(got.xtalk_worst, want.xtalk_worst);
  EXPECT_EQ(got.em_peak, want.em_peak);
  EXPECT_EQ(got.wire_delay_mean, want.wire_delay_mean);
  EXPECT_EQ(got.wire_delay_worst, want.wire_delay_worst);
  EXPECT_EQ(got.wire_cap_gnd, want.wire_cap_gnd);
  EXPECT_EQ(got.wire_cap_cpl, want.wire_cap_cpl);
  EXPECT_EQ(got.load_cap, want.load_cap);
  EXPECT_EQ(got.driver_load, want.driver_load);
}

void expect_same_bits(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what;
}

TEST(NetShapeBuckets, GroupsPartitionTheNetList) {
  test::Flow f = test::small_flow(256, 11);
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const extract::NetShapeBuckets b = extract::bucket_nets_by_shape(cache);

  ASSERT_EQ(static_cast<int>(b.group_of.size()), f.nets.size());
  std::vector<int> seen(f.nets.size(), 0);
  for (std::size_t g = 0; g < b.groups.size(); ++g) {
    ASSERT_FALSE(b.groups[g].empty());
    for (const int id : b.groups[g]) {
      EXPECT_EQ(b.group_of[id], static_cast<int>(g));
      ++seen[id];
    }
  }
  for (const int count : seen) EXPECT_EQ(count, 1);

  // Nets in one group really are same-shaped: identical piece topology and
  // load attach indices (the materialize_nets_batch precondition).
  for (const std::vector<int>& group : b.groups) {
    const extract::NetGeometry& g0 = cache.geometry(group[0]);
    for (const int id : group) {
      const extract::NetGeometry& gi = cache.geometry(id);
      EXPECT_EQ(gi.piece_parent, g0.piece_parent);
      ASSERT_EQ(gi.loads.size(), g0.loads.size());
      for (std::size_t k = 0; k < gi.loads.size(); ++k) {
        EXPECT_EQ(gi.loads[k].rc_index, g0.loads[k].rc_index);
      }
    }
  }
}

TEST(NetBatch, CrossNetAllRulesBitwiseMatchesScalar) {
  test::Flow f = test::small_flow(256, 11);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const extract::NetShapeBuckets buckets =
      extract::bucket_nets_by_shape(cache);
  const double freq = f.design.constraints.clock_freq;
  const int R = f.tech.rules.size();

  common::Arena arena;
  NetEvalScratch scratch;
  for (const std::vector<int>& group : buckets.groups) {
    // A one-net batch (the memo-row miss) and a multi-net batch per group.
    for (const int cap : {1, 8}) {
      const int n = std::min<int>(static_cast<int>(group.size()), cap);
      std::vector<const extract::NetGeometry*> geoms(n);
      std::vector<double> dres(n);
      for (int i = 0; i < n; ++i) {
        geoms[i] = &cache.geometry(group[i]);
        dres[i] = timing::net_driver_res(f.cts.tree, f.tech,
                                         f.nets[group[i]], aopt);
      }
      std::vector<NetExact> got(static_cast<std::size_t>(n * R));
      evaluate_nets_exact_all_rules(geoms.data(), dres.data(), n, f.tech,
                                    freq, arena, got.data());
      for (int i = 0; i < n; ++i) {
        SCOPED_TRACE("net " + std::to_string(group[i]));
        for (int r = 0; r < R; ++r) {
          SCOPED_TRACE("rule " + std::to_string(r));
          const NetExact want = evaluate_net_exact(
              *geoms[i], f.tech, f.tech.rules[r], dres[i], freq, scratch);
          expect_exact_eq(got[static_cast<std::size_t>(i * R + r)], want);
        }
      }
    }
  }
}

TEST(NetBatch, MixedRuleLanesMatchScalarScratchOverload) {
  test::Flow f = test::small_flow(256, 11);
  const timing::AnalysisOptions aopt;
  const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
  const extract::NetShapeBuckets buckets =
      extract::bucket_nets_by_shape(cache);
  const double freq = f.design.constraints.clock_freq;
  const int R = f.tech.rules.size();

  // The largest group, with a DIFFERENT rule per lane: lanes are
  // (net, rule) pairs, not a uniform rule sweep. A second batch also
  // gives every lane a different process corner.
  const std::vector<int>& group = *std::max_element(
      buckets.groups.begin(), buckets.groups.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  const int n = std::min<int>(static_cast<int>(group.size()), 6);
  ASSERT_GE(n, 2) << "flow too small to exercise cross-net lanes";
  std::vector<tech::Technology> cornered;
  for (const tech::Corner& c : tech::standard_corners()) {
    cornered.push_back(tech::apply_corner(f.tech, c));
  }
  const int C = static_cast<int>(cornered.size());

  std::vector<double> dres(n);
  for (int i = 0; i < n; ++i) {
    dres[i] = timing::net_driver_res(f.cts.tree, f.tech, f.nets[group[i]],
                                     aopt);
  }
  common::Arena arena;
  NetEvalScratch scratch;
  for (const bool mix_corners : {false, true}) {
    SCOPED_TRACE(mix_corners ? "corners x rules" : "rules");
    std::vector<extract::NetLane> lanes(n);
    for (int i = 0; i < n; ++i) {
      const tech::Technology& t = mix_corners ? cornered[i % C] : f.tech;
      lanes[i] = {&cache.geometry(group[i]), &t, &t.rules[i % R]};
    }
    arena.reset();
    std::vector<NetExact> got(static_cast<std::size_t>(n));
    evaluate_nets_exact_batch(lanes.data(), n, dres.data(), freq, arena,
                              got.data());
    for (int i = 0; i < n; ++i) {
      SCOPED_TRACE("lane " + std::to_string(i));
      const NetExact want =
          evaluate_net_exact(*lanes[i].geom, *lanes[i].tech, *lanes[i].rule,
                             dres[i], freq, scratch);
      expect_exact_eq(got[static_cast<std::size_t>(i)], want);
    }
  }
}

TEST(NetBatch, WarmRowsBitwiseMatchLazyEvalAtAnyThreadCount) {
  test::Flow f = test::small_flow(256, 11);
  const timing::AnalysisOptions aopt;
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  const int n_nets = f.nets.size();
  const int R = f.tech.rules.size();

  // Baseline: lazy per-net row fills, single-threaded.
  common::set_thread_count(1);
  AssignmentState lazy(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const FlowEvaluation ev = evaluate(f.cts.tree, f.design, f.tech, f.nets,
                                     blanket, aopt, &lazy.geometry_cache());
  lazy.rebuild(blanket, ev);
  std::vector<NetExact> base(static_cast<std::size_t>(n_nets * R));
  for (int net = 0; net < n_nets; ++net) {
    for (int r = 0; r < R; ++r) {
      base[static_cast<std::size_t>(net * R + r)] = lazy.exact_eval(net, r);
    }
  }
  EXPECT_EQ(lazy.exact_cache_misses(), n_nets);  // one per row fill.

  // Warmed: batched cross-net prefetch on 8 threads, then all hits.
  common::set_thread_count(8);
  AssignmentState warmed(f.cts.tree, f.design, f.tech, f.nets, aopt);
  const FlowEvaluation ev2 =
      evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt,
               &warmed.geometry_cache());
  warmed.rebuild(blanket, ev2);
  warmed.warm_all_rows();
  EXPECT_EQ(warmed.exact_cache_misses(), n_nets);
  const std::int64_t hits_before = warmed.exact_cache_hits();
  for (int net = 0; net < n_nets; ++net) {
    SCOPED_TRACE("net " + std::to_string(net));
    for (int r = 0; r < R; ++r) {
      expect_exact_eq(warmed.exact_eval(net, r),
                      base[static_cast<std::size_t>(net * R + r)]);
    }
  }
  EXPECT_EQ(warmed.exact_cache_hits() - hits_before,
            static_cast<std::int64_t>(n_nets) * R);
  EXPECT_EQ(warmed.exact_cache_misses(), n_nets);  // warm rows never refill.
  common::set_thread_count(-1);
}

/// Every memo row term equals the scalar kernels bitwise, for every (net,
/// rule): the per-load moment pairs RcTree::moments over a scalar
/// materialize at the state's driver resistance and timing Miller factor,
/// the per-load sigma / crosstalk timing::net_variation, the cap totals
/// the materialized NetParasitics, and the driver load plus every
/// moment-derived scalar the same moment solve (so a Miller-1.3 row is
/// Miller 1.3 throughout).
void expect_memo_rows_match_scalar(const AssignmentState& state) {
  const timing::AnalysisOptions& aopt = state.analysis();
  const tech::Technology& tech = state.tech();
  extract::NetParasitics par;
  extract::RcMoments m;
  timing::VariationScratch vscratch;
  timing::NetVariationDetail detail;
  for (const netlist::Net& net : state.nets().nets) {
    const double dres =
        timing::net_driver_res(state.tree(), tech, net, aopt);
    for (int r = 0; r < tech.rules.size(); ++r) {
      SCOPED_TRACE(testing::Message() << "net " << net.id << " rule " << r);
      extract::materialize(state.geometry_cache().geometry(net.id), tech,
                           tech.rules[r], par);
      par.rc.moments(dres, aopt.timing_miller, m);
      timing::net_variation(par, tech, tech.rules[r], dres, vscratch, detail);
      const std::span<const double> got = state.load_moments(net.id, r);
      const std::span<const double> sigma = state.load_sigma(net.id, r);
      const std::span<const double> xtalk = state.load_xtalk(net.id, r);
      ASSERT_EQ(got.size(), 2 * net.loads.size());
      ASSERT_EQ(sigma.size(), net.loads.size());
      ASSERT_EQ(xtalk.size(), net.loads.size());
      std::vector<double> m12;
      for (std::size_t li = 0; li < net.loads.size(); ++li) {
        const int rc = par.load_rc_index[li];
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[2 * li]),
                  std::bit_cast<std::uint64_t>(m.m1[rc]))
            << "load " << li;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[2 * li + 1]),
                  std::bit_cast<std::uint64_t>(m.m2[rc]))
            << "load " << li;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(sigma[li]),
                  std::bit_cast<std::uint64_t>(detail.load_sigma[li]))
            << "load " << li;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(xtalk[li]),
                  std::bit_cast<std::uint64_t>(detail.load_xtalk[li]))
            << "load " << li;
        m12.push_back(m.m1[rc]);
        m12.push_back(m.m2[rc]);
      }
      NetExact want;
      scan_load_moments(m12.data(), static_cast<int>(net.loads.size()),
                        want);
      const NetExact& row = state.signoff_row(net.id, r);
      expect_same_bits(row.wire_cap_gnd, par.wire_cap_gnd, "wire_cap_gnd");
      expect_same_bits(row.wire_cap_cpl, par.wire_cap_cpl, "wire_cap_cpl");
      expect_same_bits(row.load_cap, par.load_cap, "load_cap");
      expect_same_bits(row.cap_switched, par.switched_cap(tech.miller_power),
                       "cap_switched");
      expect_same_bits(row.driver_load, m.down[0], "driver_load");
      expect_same_bits(row.step_slew_worst, want.step_slew_worst,
                       "step_slew_worst");
      expect_same_bits(row.wire_delay_worst, want.wire_delay_worst,
                       "wire_delay_worst");
      expect_same_bits(row.wire_delay_mean, want.wire_delay_mean,
                       "wire_delay_mean");
      expect_same_bits(row.sigma_worst, detail.worst_sigma(), "sigma_worst");
      expect_same_bits(row.xtalk_worst, detail.worst_xtalk(), "xtalk_worst");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

void check_load_moments(const test::Flow& f) {
  const RuleAssignment blanket =
      assign_all(f.nets, f.tech.rules.blanket_index());
  for (const double miller : {1.0, 1.3}) {
    timing::AnalysisOptions aopt;
    aopt.timing_miller = miller;
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(testing::Message()
                   << "miller=" << miller << " threads=" << threads);
      common::set_thread_count(threads);
      AssignmentState state(f.cts.tree, f.design, f.tech, f.nets, aopt);
      const FlowEvaluation ev =
          evaluate(f.cts.tree, f.design, f.tech, f.nets, blanket, aopt,
                   &state.geometry_cache());
      state.rebuild(blanket, ev);
      state.warm_all_rows();  // parallel cross-net row fills.
      const std::int64_t misses = state.exact_cache_misses();
      expect_memo_rows_match_scalar(state);
      EXPECT_EQ(state.exact_cache_misses(), misses);  // warm reads only.
      EXPECT_EQ(state.exact_cache_hits(), 0);  // signoff reads count none.

      // Transplanted rows carry their load terms along.
      MemoSnapshot snap;
      state.export_memo(snap);
      AssignmentState twin(f.cts.tree, f.design, f.tech, f.nets, aopt,
                           &state.geometry_cache());
      twin.rebuild(blanket, ev);
      EXPECT_EQ(twin.import_memo(snap), f.nets.size());
      expect_memo_rows_match_scalar(twin);
      EXPECT_EQ(twin.exact_cache_misses(), 0);
      if (::testing::Test::HasFailure()) break;
    }
  }
  common::set_thread_count(-1);
}

TEST(LoadMoments, MatchScalarMomentsOnCongestedDesign) {
  check_load_moments(test::congested_flow());
}

TEST(LoadMoments, MatchScalarMomentsOn3000Sinks) {
  check_load_moments(test::small_flow(3000, 9));
}

TEST(LoadMoments, ImportRejectsSnapshotOfAnotherMillerFactor) {
  // The stored moments are solved at the state's timing Miller factor, so
  // a snapshot from a state timed at another factor transplants nothing.
  const test::Flow f = test::small_flow(96, 23);
  timing::AnalysisOptions a1;
  timing::AnalysisOptions a13;
  a13.timing_miller = 1.3;
  AssignmentState donor(f.cts.tree, f.design, f.tech, f.nets, a1);
  donor.warm_all_rows();
  MemoSnapshot snap;
  donor.export_memo(snap);
  AssignmentState other(f.cts.tree, f.design, f.tech, f.nets, a13,
                        &donor.geometry_cache());
  EXPECT_EQ(other.import_memo(snap), 0);
  AssignmentState same(f.cts.tree, f.design, f.tech, f.nets, a1,
                       &donor.geometry_cache());
  EXPECT_EQ(same.import_memo(snap), f.nets.size());
}

}  // namespace
}  // namespace sndr::ndr
