// State-vs-fresh-rebuild comparer for AssignmentState: every incremental
// accumulator apply_move() maintains must stay BITWISE equal to a fresh
// rebuild() from a full evaluation of the same assignment. The searches
// never re-analyze the whole tree mid-run, so this is the check that
// keeps them honest (delta_timing_test, scenario_fuzz_test).
#pragma once

#include <gtest/gtest.h>

#include <vector>

#include "ndr/assignment_state.hpp"
#include "ndr/evaluation.hpp"

namespace sndr::test {

/// Every incremental accumulator AssignmentState maintains, snapshotted
/// for bitwise comparison (EXPECT_EQ on doubles is exact).
struct StateSnapshot {
  std::vector<double> sink_latency, sink_var, sink_xtalk;
  std::vector<double> net_cap, net_sigma, net_xtalk, net_wire_delay;
  double latency_sum = 0.0;
  double total_cap = 0.0;
  double total_energy = 0.0;
};

inline StateSnapshot snapshot(const ndr::AssignmentState& st) {
  StateSnapshot s;
  const int n_sinks = static_cast<int>(st.design().sinks.size());
  for (int i = 0; i < n_sinks; ++i) {
    s.sink_latency.push_back(st.sink_latency(i));
    s.sink_var.push_back(st.sink_var(i));
    s.sink_xtalk.push_back(st.sink_xtalk(i));
  }
  for (int n = 0; n < st.nets().size(); ++n) {
    s.net_cap.push_back(st.net_cap(n));
    s.net_sigma.push_back(st.net_sigma(n));
    s.net_xtalk.push_back(st.net_xtalk_of(n));
    s.net_wire_delay.push_back(st.net_wire_delay(n));
  }
  s.latency_sum = st.latency_sum();
  s.total_cap = st.total_cap();
  s.total_energy = st.total_energy();
  return s;
}

inline void expect_bitwise_eq(const StateSnapshot& got,
                              const StateSnapshot& want) {
  EXPECT_EQ(got.sink_latency, want.sink_latency);
  EXPECT_EQ(got.sink_var, want.sink_var);
  EXPECT_EQ(got.sink_xtalk, want.sink_xtalk);
  EXPECT_EQ(got.net_cap, want.net_cap);
  EXPECT_EQ(got.net_sigma, want.net_sigma);
  EXPECT_EQ(got.net_xtalk, want.net_xtalk);
  EXPECT_EQ(got.net_wire_delay, want.net_wire_delay);
  EXPECT_EQ(got.latency_sum, want.latency_sum);
  EXPECT_EQ(got.total_cap, want.total_cap);
  EXPECT_EQ(got.total_energy, want.total_energy);
}

/// Asserts `state` equals a fresh state rebuilt from a full evaluation of
/// state.assignment() (sharing its geometry cache, which is value-neutral).
inline void expect_matches_fresh_rebuild(const ndr::AssignmentState& state) {
  const ndr::FlowEvaluation fresh = ndr::evaluate(
      state.tree(), state.design(), state.tech(), state.nets(),
      state.assignment(), state.analysis(), &state.geometry_cache());
  ndr::AssignmentState ref(state.tree(), state.design(), state.tech(),
                           state.nets(), state.analysis(),
                           &state.geometry_cache());
  ref.rebuild(state.assignment(), fresh);
  expect_bitwise_eq(snapshot(state), snapshot(ref));
}

}  // namespace sndr::test
