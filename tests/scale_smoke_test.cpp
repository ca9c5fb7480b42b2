// Scale workload smoke tests.
//
// make_scale_workload builds large pre-buffered trees without CTS, so what
// matters here is (1) structural validity at a real size — 10k nets, the
// tier-1 smoke rung — (2) bit-exact determinism from the seed, since the
// budget tests below compare budgeted and unbounded runs bit for bit, and
// (3) that the generated tree flows through extract -> evaluate and the
// whole optimizer under a tight memory budget with identical results.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "eval_compare.hpp"
#include "extract/net_geometry.hpp"
#include "ndr/smart_ndr.hpp"
#include "workload/scale.hpp"

namespace sndr {
namespace {

using workload::ScaleSpec;
using workload::ScaleWorkload;
using workload::make_scale_workload;

TEST(ScaleWorkload, TenThousandNetRungIsStructurallyValid) {
  ScaleSpec spec;
  spec.num_nets = 10000;
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const ScaleWorkload w = make_scale_workload(spec, tech);

  EXPECT_EQ(static_cast<int>(w.nets.size()), spec.num_nets);
  EXPECT_FALSE(w.design.sinks.empty());
  // Every net drives something: validate() (already run by the generator)
  // requires leaves to be sinks, so no net may be loadless.
  for (const netlist::Net& net : w.nets.nets) {
    EXPECT_FALSE(net.loads.empty());
  }
  // Sinks live inside the core and carry the configured pin cap.
  for (const netlist::Sink& s : w.design.sinks) {
    EXPECT_TRUE(w.design.core.contains(s.loc));
    EXPECT_EQ(s.pin_cap, spec.pin_cap);
  }
}

TEST(ScaleWorkload, SameSeedIsBitIdenticalDifferentSeedIsNot) {
  ScaleSpec spec;
  spec.num_nets = 2000;
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const ScaleWorkload a = make_scale_workload(spec, tech);
  const ScaleWorkload b = make_scale_workload(spec, tech);
  ASSERT_EQ(a.design.sinks.size(), b.design.sinks.size());
  for (std::size_t i = 0; i < a.design.sinks.size(); ++i) {
    EXPECT_EQ(a.design.sinks[i].loc.x, b.design.sinks[i].loc.x);
    EXPECT_EQ(a.design.sinks[i].loc.y, b.design.sinks[i].loc.y);
  }
  ASSERT_EQ(a.nets.size(), b.nets.size());

  spec.seed = 2;
  const ScaleWorkload c = make_scale_workload(spec, tech);
  ASSERT_EQ(a.design.sinks.size(), c.design.sinks.size());
  bool any_moved = false;
  for (std::size_t i = 0; i < a.design.sinks.size() && !any_moved; ++i) {
    any_moved = a.design.sinks[i].loc.x != c.design.sinks[i].loc.x;
  }
  EXPECT_TRUE(any_moved);
}

TEST(ScaleWorkload, NetCountKnobIsExactAcrossRungShapes) {
  const tech::Technology tech = tech::Technology::make_default_45nm();
  for (const int n : {1, 2, 7, 100, 1537}) {
    ScaleSpec spec;
    spec.num_nets = n;
    const ScaleWorkload w = make_scale_workload(spec, tech);
    EXPECT_EQ(static_cast<int>(w.nets.size()), n) << "rung " << n;
  }
}

TEST(ScaleWorkload, RejectsDegenerateSpecs) {
  const tech::Technology tech = tech::Technology::make_default_45nm();
  ScaleSpec spec;
  spec.num_nets = 0;
  EXPECT_THROW(make_scale_workload(spec, tech), std::invalid_argument);
  spec.num_nets = 10;
  spec.branching = 0;
  EXPECT_THROW(make_scale_workload(spec, tech), std::invalid_argument);
  spec.branching = 4;
  spec.sinks_per_leaf = 0;
  EXPECT_THROW(make_scale_workload(spec, tech), std::invalid_argument);
}

TEST(ScaleWorkload, EvaluatesIdenticallyUnderTightBudget) {
  ScaleSpec spec;
  spec.num_nets = 2000;
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const ScaleWorkload w = make_scale_workload(spec, tech);
  const ndr::RuleAssignment blanket = ndr::assign_all(w.nets, 0);

  const extract::GeometryCache unbounded(w.tree, w.design, w.nets);
  const extract::GeometryCache budgeted(
      w.tree, w.design, w.nets, unbounded.resident_bytes() / 8 + 1024, {});
  const ndr::FlowEvaluation ref = ndr::evaluate(
      w.tree, w.design, tech, w.nets, blanket, {}, &unbounded);
  const ndr::FlowEvaluation got = ndr::evaluate(
      w.tree, w.design, tech, w.nets, blanket, {}, &budgeted);
  EXPECT_GT(budgeted.evictions(), 0);
  EXPECT_EQ(ref.power.switched_cap, got.power.switched_cap);
  EXPECT_EQ(ref.power.net_switched_cap, got.power.net_switched_cap);
  EXPECT_EQ(ref.timing.sink_arrival, got.timing.sink_arrival);
  EXPECT_EQ(ref.timing.sink_slew, got.timing.sink_slew);
  EXPECT_EQ(ref.variation.sink_uncertainty, got.variation.sink_uncertainty);
  EXPECT_EQ(ref.em.worst_density, got.em.worst_density);
  EXPECT_EQ(ref.max_track_util, got.max_track_util);
}

// The budget contract end to end: the optimizer borrowing a cache held to
// 1/4 of the unbounded geometry footprint evicts, yet settles on the same
// assignment and signs off the same bits as the unbounded run. Eviction
// changes when geometry is built, never what.
TEST(ScaleWorkload, OptimizesIdenticallyUnderQuarterBudget) {
  ScaleSpec spec;
  spec.num_nets = 2000;
  const tech::Technology tech = tech::Technology::make_default_45nm();
  const ScaleWorkload w = make_scale_workload(spec, tech);

  ndr::OptimizerOptions opt;
  const ndr::SmartNdrResult ref =
      ndr::optimize_smart_ndr(w.tree, w.design, tech, w.nets, opt);
  // The search really moves: nets leave the blanket rule.
  ASSERT_NE(ref.assignment,
            ndr::assign_all(w.nets, tech.rules.blanket_index()));

  const extract::GeometryCache unbounded(w.tree, w.design, w.nets);
  const extract::GeometryCache budgeted(
      w.tree, w.design, w.nets, unbounded.resident_bytes() / 4, {});
  opt.search.geometry = &budgeted;
  const ndr::SmartNdrResult got =
      ndr::optimize_smart_ndr(w.tree, w.design, tech, w.nets, opt);

  EXPECT_GT(budgeted.evictions(), 0);
  EXPECT_EQ(got.assignment, ref.assignment);
  test::expect_evaluations_bitwise(got.final_eval, ref.final_eval);
}

}  // namespace
}  // namespace sndr
