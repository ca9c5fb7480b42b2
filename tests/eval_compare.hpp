// Bitwise comparison of two signoff evaluations, field by field and over
// every report array (memo_signoff_test, flow_test, scale_smoke_test).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "ndr/evaluation.hpp"

namespace sndr::test {

inline std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

inline std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Every field and every report array of two evaluations, bitwise.
inline void expect_evaluations_bitwise(const ndr::FlowEvaluation& got,
                                       const ndr::FlowEvaluation& want) {
  EXPECT_EQ(got.assignment, want.assignment);

  const timing::TimingReport& gt = got.timing;
  const timing::TimingReport& wt = want.timing;
  EXPECT_EQ(bits(gt.sink_arrival), bits(wt.sink_arrival));
  EXPECT_EQ(bits(gt.sink_slew), bits(wt.sink_slew));
  EXPECT_EQ(bits(gt.node_arrival), bits(wt.node_arrival));
  EXPECT_EQ(bits(gt.node_slew), bits(wt.node_slew));
  EXPECT_EQ(bits(gt.node_wire_delay), bits(wt.node_wire_delay));
  EXPECT_EQ(bits(gt.node_step_slew), bits(wt.node_step_slew));
  EXPECT_EQ(bits(gt.net_max_load_slew), bits(wt.net_max_load_slew));
  EXPECT_EQ(bits(gt.net_driver_load), bits(wt.net_driver_load));
  EXPECT_EQ(bits(gt.net_wire_delay_worst), bits(wt.net_wire_delay_worst));
  EXPECT_EQ(bits(gt.min_latency), bits(wt.min_latency));
  EXPECT_EQ(bits(gt.max_latency), bits(wt.max_latency));
  EXPECT_EQ(bits(gt.max_slew), bits(wt.max_slew));

  const timing::VariationReport& gv = got.variation;
  const timing::VariationReport& wv = want.variation;
  EXPECT_EQ(bits(gv.net_sigma), bits(wv.net_sigma));
  EXPECT_EQ(bits(gv.net_xtalk), bits(wv.net_xtalk));
  EXPECT_EQ(bits(gv.sink_sigma), bits(wv.sink_sigma));
  EXPECT_EQ(bits(gv.sink_xtalk), bits(wv.sink_xtalk));
  EXPECT_EQ(bits(gv.sink_uncertainty), bits(wv.sink_uncertainty));
  EXPECT_EQ(bits(gv.max_uncertainty), bits(wv.max_uncertainty));

  const power::PowerReport& gp = got.power;
  const power::PowerReport& wp = want.power;
  EXPECT_EQ(bits(gp.net_switched_cap), bits(wp.net_switched_cap));
  EXPECT_EQ(bits(gp.net_power), bits(wp.net_power));
  EXPECT_EQ(bits(gp.net_toggle_weight), bits(wp.net_toggle_weight));
  EXPECT_EQ(bits(gp.wire_cap_gnd), bits(wp.wire_cap_gnd));
  EXPECT_EQ(bits(gp.wire_cap_cpl), bits(wp.wire_cap_cpl));
  EXPECT_EQ(bits(gp.pin_cap), bits(wp.pin_cap));
  EXPECT_EQ(bits(gp.switched_cap), bits(wp.switched_cap));
  EXPECT_EQ(bits(gp.weighted_switched_cap), bits(wp.weighted_switched_cap));
  EXPECT_EQ(bits(gp.net_switching_power), bits(wp.net_switching_power));
  EXPECT_EQ(bits(gp.buffer_internal_power), bits(wp.buffer_internal_power));
  EXPECT_EQ(bits(gp.total_power), bits(wp.total_power));

  EXPECT_EQ(bits(got.em.net_peak_density), bits(want.em.net_peak_density));
  EXPECT_EQ(bits(got.em.net_slack), bits(want.em.net_slack));
  EXPECT_EQ(bits(got.em.worst_density), bits(want.em.worst_density));
  EXPECT_EQ(got.em.worst_net, want.em.worst_net);

  const report::InterClockReport& gi = got.inter_clock;
  const report::InterClockReport& wi = want.inter_clock;
  EXPECT_EQ(gi.enabled, wi.enabled);
  EXPECT_EQ(bits(gi.worst_skew), bits(wi.worst_skew));
  EXPECT_EQ(gi.violations, wi.violations);
  ASSERT_EQ(gi.pairs.size(), wi.pairs.size());
  for (std::size_t k = 0; k < gi.pairs.size(); ++k) {
    const report::InterClockPair& a = gi.pairs[k];
    const report::InterClockPair& b = wi.pairs[k];
    EXPECT_EQ(a.domain_a, b.domain_a);
    EXPECT_EQ(a.domain_b, b.domain_b);
    EXPECT_EQ(a.common_node, b.common_node);
    EXPECT_EQ(a.divisor_ratio, b.divisor_ratio);
    EXPECT_EQ(bits(a.skew), bits(b.skew));
    EXPECT_EQ(bits(a.guard), bits(b.guard));
    EXPECT_EQ(bits(a.budget), bits(b.budget));
    EXPECT_EQ(a.sink_early, b.sink_early);
    EXPECT_EQ(a.sink_late, b.sink_late);
    EXPECT_EQ(a.ok, b.ok);
  }

  EXPECT_EQ(bits(got.max_track_util), bits(want.max_track_util));
  EXPECT_EQ(got.overflow_cells, want.overflow_cells);
  EXPECT_EQ(got.slew_violations, want.slew_violations);
  EXPECT_EQ(got.uncertainty_violations, want.uncertainty_violations);
  EXPECT_EQ(got.em_violations, want.em_violations);
  EXPECT_EQ(got.window_violations, want.window_violations);
  EXPECT_EQ(got.inter_clock_violations, want.inter_clock_violations);
  EXPECT_EQ(got.skew_ok, want.skew_ok);
}

}  // namespace sndr::test
