// Multi-domain clock model tests: ClockDomainMap semantics,
// cts::derive_domains, workload::make_domain_workload, activity-weighted
// power / EM scaling, inter-clock signoff, and the pinned proof that the
// activity-weighted objective changes rule assignment vs capacitance-only.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "cts/domains.hpp"
#include "ndr/smart_ndr.hpp"
#include "workload/domains.hpp"

namespace sndr {
namespace {

const tech::Technology& tech45() {
  static const tech::Technology t = tech::Technology::make_default_45nm();
  return t;
}

workload::ScaleSpec small_spec(int nets = 40) {
  workload::ScaleSpec s;
  s.name = "domains_test";
  s.num_nets = nets;
  s.branching = 2;
  s.sinks_per_leaf = 2;
  return s;
}

/// First buffer child of `v` (the scale tree is all buffers below the
/// source, so this walks the b-ary hierarchy).
int first_buffer_child(const netlist::ClockTree& tree, int v) {
  for (const int c : tree.node(v).children) {
    if (tree.node(c).kind == netlist::NodeKind::kBuffer) return c;
  }
  return -1;
}

// ---- model basics ---------------------------------------------------------

TEST(ClockDomains, ElementNamesAreStable) {
  using netlist::DomainElement;
  EXPECT_STREQ(netlist::to_string(DomainElement::kRoot), "root");
  EXPECT_STREQ(netlist::to_string(DomainElement::kMux), "mux");
  EXPECT_STREQ(netlist::to_string(DomainElement::kGate), "icg");
  EXPECT_STREQ(netlist::to_string(DomainElement::kDivider), "div");
  EXPECT_STREQ(netlist::to_string(DomainElement::kInverter), "inv");
}

TEST(ClockDomains, DisabledMapAnswersNeutrally) {
  const netlist::ClockDomainMap map;
  EXPECT_FALSE(map.enabled());
  EXPECT_EQ(map.domain_of_node(3), 0);
  EXPECT_EQ(map.node_toggle_weight(3), 1.0);
  EXPECT_EQ(map.node_em_scale(3), 1.0);
}

TEST(ClockDomains, ToggleWeightAndEmScale) {
  netlist::ClockDomain d;
  d.activity = 0.5;
  d.divisor = 2;
  EXPECT_DOUBLE_EQ(d.toggle_weight(), 0.25);
  EXPECT_DOUBLE_EQ(d.em_scale(), 0.5);
  // The neutral domain weighs exactly 1.0 — the bitwise-degeneracy anchor.
  EXPECT_EQ(netlist::ClockDomain{}.toggle_weight(), 1.0);
  EXPECT_EQ(netlist::ClockDomain{}.em_scale(), 1.0);
}

TEST(ClockDomains, FirstDomainMustBeRoot) {
  netlist::ClockDomainMap map;
  netlist::ClockDomain gate;
  gate.element = netlist::DomainElement::kGate;
  EXPECT_THROW(map.add_domain(gate), std::invalid_argument);
}

TEST(ClockDomains, ValidateCatchesBadChains) {
  netlist::ClockDomainMap map;
  netlist::ClockDomain root;
  root.anchor = 0;
  map.add_domain(root);
  netlist::ClockDomain d;
  d.element = netlist::DomainElement::kDivider;
  d.anchor = 1;
  d.parent = 0;
  d.divisor = 2;
  map.add_domain(d);
  map.set_domain_of_node({0, 1});
  map.validate(2);  // well-formed.
  EXPECT_THROW(map.validate(1), std::invalid_argument);  // anchor range.

  netlist::ClockDomainMap bad;
  bad.add_domain(root);
  netlist::ClockDomain up;
  up.element = netlist::DomainElement::kGate;
  up.anchor = 1;
  up.parent = 0;
  up.activity = 1.5;  // not a duty.
  bad.add_domain(up);
  bad.set_domain_of_node({0, 1});
  EXPECT_THROW(bad.validate(2), std::invalid_argument);
}

// ---- derive_domains -------------------------------------------------------

TEST(DeriveDomains, SingleGateSplitsSubtree) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const int anchor = first_buffer_child(w.tree, w.tree.root());
  ASSERT_GE(anchor, 0);
  netlist::DomainAnnotation a;
  a.node = anchor;
  a.element = netlist::DomainElement::kGate;
  a.duty = 0.5;
  const netlist::ClockDomainMap map = cts::derive_domains(w.tree, {a});
  ASSERT_TRUE(map.enabled());
  ASSERT_EQ(map.size(), 2);
  EXPECT_EQ(map.domain(1).anchor, anchor);
  EXPECT_DOUBLE_EQ(map.domain(1).activity, 0.5);
  EXPECT_EQ(map.domain(1).divisor, 1);
  // Anchor and everything below it are in the new domain; the root and the
  // sibling subtree stay in domain 0.
  EXPECT_EQ(map.domain_of_node(anchor), 1);
  EXPECT_EQ(map.domain_of_node(w.tree.root()), 0);
  for (const int c : w.tree.node(anchor).children) {
    EXPECT_EQ(map.domain_of_node(c), 1);
  }
  // Sinks split between the domains and add up to the design total.
  EXPECT_GT(map.domain(0).sinks, 0);
  EXPECT_GT(map.domain(1).sinks, 0);
  EXPECT_EQ(map.domain(0).sinks + map.domain(1).sinks,
            static_cast<int>(w.design.sinks.size()));
}

TEST(DeriveDomains, NestedElementsAccumulate) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const int outer = first_buffer_child(w.tree, w.tree.root());
  const int inner = first_buffer_child(w.tree, outer);
  ASSERT_GE(inner, 0);
  netlist::DomainAnnotation gate;
  gate.node = outer;
  gate.element = netlist::DomainElement::kGate;
  gate.duty = 0.5;
  netlist::DomainAnnotation div;
  div.node = inner;
  div.element = netlist::DomainElement::kDivider;
  div.divide = 4;
  const netlist::ClockDomainMap map =
      cts::derive_domains(w.tree, {gate, div});
  ASSERT_EQ(map.size(), 3);
  EXPECT_EQ(map.domain(2).parent, 1);
  EXPECT_EQ(map.domain(2).divisor, 4);
  EXPECT_DOUBLE_EQ(map.domain(2).activity, 0.5);  // inherited from the ICG.
  EXPECT_DOUBLE_EQ(map.domain(2).toggle_weight(), 0.125);
  EXPECT_DOUBLE_EQ(map.node_em_scale(inner), std::sqrt(0.125));
}

TEST(DeriveDomains, InverterFlipsPolarityOnly) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const int outer = first_buffer_child(w.tree, w.tree.root());
  const int inner = first_buffer_child(w.tree, outer);
  netlist::DomainAnnotation inv1;
  inv1.node = outer;
  inv1.element = netlist::DomainElement::kInverter;
  netlist::DomainAnnotation inv2;
  inv2.node = inner;
  inv2.element = netlist::DomainElement::kInverter;
  const netlist::ClockDomainMap map =
      cts::derive_domains(w.tree, {inv1, inv2});
  ASSERT_EQ(map.size(), 3);
  EXPECT_TRUE(map.domain(1).inverted);
  EXPECT_FALSE(map.domain(2).inverted);  // double inversion cancels.
  EXPECT_EQ(map.domain(2).toggle_weight(), 1.0);  // rate-neutral, exactly.
  EXPECT_EQ(map.node_em_scale(inner), 1.0);
}

TEST(DeriveDomains, DerivedNamesEncodeIdAndKind) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  netlist::DomainAnnotation a;
  a.node = first_buffer_child(w.tree, w.tree.root());
  a.element = netlist::DomainElement::kDivider;
  a.divide = 2;
  const netlist::ClockDomainMap map = cts::derive_domains(w.tree, {a});
  EXPECT_EQ(map.domain(1).name, "d1_div");
  netlist::DomainAnnotation named = a;
  named.name = "cpu_half";
  EXPECT_EQ(cts::derive_domains(w.tree, {named}).domain(1).name, "cpu_half");
}

TEST(DeriveDomains, RejectsMalformedAnnotations) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const int anchor = first_buffer_child(w.tree, w.tree.root());
  netlist::DomainAnnotation ok;
  ok.node = anchor;

  netlist::DomainAnnotation bad = ok;
  bad.node = w.tree.size();  // out of range.
  EXPECT_THROW(cts::derive_domains(w.tree, {bad}), std::invalid_argument);
  bad.node = w.tree.root();  // the root can't be re-anchored.
  EXPECT_THROW(cts::derive_domains(w.tree, {bad}), std::invalid_argument);
  bad = ok;
  bad.element = netlist::DomainElement::kRoot;
  EXPECT_THROW(cts::derive_domains(w.tree, {bad}), std::invalid_argument);
  bad = ok;
  bad.divide = 0;
  EXPECT_THROW(cts::derive_domains(w.tree, {bad}), std::invalid_argument);
  bad = ok;
  bad.duty = 0.0;
  EXPECT_THROW(cts::derive_domains(w.tree, {bad}), std::invalid_argument);
  EXPECT_THROW(cts::derive_domains(w.tree, {ok, ok}),  // duplicate anchor.
               std::invalid_argument);
}

TEST(DeriveDomains, NoAnnotationsStaysDisabled) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const netlist::ClockDomainMap map = cts::derive_domains(w.tree, {});
  EXPECT_FALSE(map.enabled());
  EXPECT_EQ(map.node_toggle_weight(1), 1.0);
}

TEST(DeriveDomains, MuxPathAndDivisorRatioQueries) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(64), tech45());
  const int root = w.tree.root();
  ASSERT_GE(static_cast<int>(w.tree.node(root).children.size()), 2);
  const int left = w.tree.node(root).children[0];
  const int right = w.tree.node(root).children[1];
  const int under_left = first_buffer_child(w.tree, left);
  netlist::DomainAnnotation mux;
  mux.node = left;
  mux.element = netlist::DomainElement::kMux;
  netlist::DomainAnnotation div;
  div.node = under_left;
  div.element = netlist::DomainElement::kDivider;
  div.divide = 2;
  netlist::DomainAnnotation gate;
  gate.node = right;
  gate.element = netlist::DomainElement::kGate;
  gate.duty = 0.5;
  const netlist::ClockDomainMap map =
      cts::derive_domains(w.tree, {mux, div, gate});
  ASSERT_EQ(map.size(), 4);
  const int d_mux = map.domain_of_node(left);
  const int d_div = map.domain_of_node(under_left);
  const int d_gate = map.domain_of_node(right);
  EXPECT_EQ(map.domain_lca(d_div, d_gate), 0);
  EXPECT_EQ(map.domain_lca(d_div, d_mux), d_mux);
  EXPECT_TRUE(map.path_crosses_mux(d_div, d_gate));   // div sits below mux.
  EXPECT_TRUE(map.path_crosses_mux(d_mux, 0));
  EXPECT_FALSE(map.path_crosses_mux(d_gate, 0));      // gated, not muxed.
  EXPECT_EQ(map.divisor_ratio(d_div, d_gate), 2);
  EXPECT_EQ(map.divisor_ratio(d_gate, 0), 1);
}

TEST(DeriveDomains, AnnotationOrderDoesNotMatter) {
  // Domains derive from a topological walk of the tree, so the order the
  // annotations arrive in must not change a single field of the map.
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(64), tech45());
  const int root = w.tree.root();
  ASSERT_GE(static_cast<int>(w.tree.node(root).children.size()), 2);
  netlist::DomainAnnotation mux;
  mux.node = w.tree.node(root).children[0];
  mux.element = netlist::DomainElement::kMux;
  netlist::DomainAnnotation div;
  div.node = first_buffer_child(w.tree, mux.node);
  div.element = netlist::DomainElement::kDivider;
  div.divide = 3;
  netlist::DomainAnnotation gate;
  gate.node = w.tree.node(root).children[1];
  gate.element = netlist::DomainElement::kGate;
  gate.duty = 0.4;
  const netlist::ClockDomainMap fwd =
      cts::derive_domains(w.tree, {mux, div, gate});
  const netlist::ClockDomainMap rev =
      cts::derive_domains(w.tree, {gate, div, mux});
  ASSERT_EQ(fwd.size(), rev.size());
  for (int d = 0; d < fwd.size(); ++d) {
    EXPECT_EQ(fwd.domain(d).name, rev.domain(d).name);
    EXPECT_EQ(fwd.domain(d).anchor, rev.domain(d).anchor);
    EXPECT_EQ(fwd.domain(d).parent, rev.domain(d).parent);
    EXPECT_EQ(fwd.domain(d).divisor, rev.domain(d).divisor);
    EXPECT_EQ(fwd.domain(d).activity, rev.domain(d).activity);
    EXPECT_EQ(fwd.domain(d).sinks, rev.domain(d).sinks);
  }
  for (int node = 0; node < w.tree.size(); ++node) {
    EXPECT_EQ(fwd.domain_of_node(node), rev.domain_of_node(node));
  }
}

// ---- make_domain_workload -------------------------------------------------

TEST(DomainWorkload, DeterministicAcrossCalls) {
  workload::DomainSpec spec;
  spec.base = small_spec(48);
  const workload::DomainWorkload a =
      workload::make_domain_workload(spec, tech45());
  const workload::DomainWorkload b =
      workload::make_domain_workload(spec, tech45());
  ASSERT_EQ(a.annotations.size(), b.annotations.size());
  for (std::size_t i = 0; i < a.annotations.size(); ++i) {
    EXPECT_EQ(a.annotations[i].node, b.annotations[i].node);
    EXPECT_EQ(a.annotations[i].element, b.annotations[i].element);
    EXPECT_EQ(a.annotations[i].divide, b.annotations[i].divide);
    EXPECT_EQ(a.annotations[i].duty, b.annotations[i].duty);
  }
  ASSERT_EQ(a.design.clock_domains.size(), b.design.clock_domains.size());
  for (int d = 0; d < a.design.clock_domains.size(); ++d) {
    EXPECT_EQ(a.design.clock_domains.domain(d).anchor,
              b.design.clock_domains.domain(d).anchor);
    EXPECT_EQ(a.design.clock_domains.domain(d).activity,
              b.design.clock_domains.domain(d).activity);
  }

  workload::DomainSpec other = spec;
  other.domain_seed = spec.domain_seed + 1;
  const workload::DomainWorkload c =
      workload::make_domain_workload(other, tech45());
  bool same = a.annotations.size() == c.annotations.size();
  for (std::size_t i = 0; same && i < a.annotations.size(); ++i) {
    same = a.annotations[i].node == c.annotations[i].node &&
           a.annotations[i].duty == c.annotations[i].duty;
  }
  EXPECT_FALSE(same) << "domain_seed must move the element placement";
}

TEST(DomainWorkload, DomainSeedMovesElementsButKeepsBaseTree) {
  // domain_seed only reshuffles WHERE the mux/ICG/divider elements land;
  // the electrical base (tree topology, nets, sink count) is pinned by
  // the base ScaleSpec and must stay bitwise identical.
  workload::DomainSpec spec;
  spec.base = small_spec(48);
  workload::DomainSpec other = spec;
  other.domain_seed = spec.domain_seed + 17;
  const workload::DomainWorkload a =
      workload::make_domain_workload(spec, tech45());
  const workload::DomainWorkload b =
      workload::make_domain_workload(other, tech45());
  ASSERT_EQ(a.tree.size(), b.tree.size());
  for (int n = 0; n < a.tree.size(); ++n) {
    EXPECT_EQ(a.tree.node(n).parent, b.tree.node(n).parent);
    EXPECT_EQ(a.tree.node(n).loc.x, b.tree.node(n).loc.x);
    EXPECT_EQ(a.tree.node(n).loc.y, b.tree.node(n).loc.y);
  }
  ASSERT_EQ(a.nets.size(), b.nets.size());
  EXPECT_EQ(a.design.sinks.size(), b.design.sinks.size());
  EXPECT_EQ(a.annotations.size(), b.annotations.size());
}

TEST(DomainWorkload, ElementCountsClampToAvailableBuffers) {
  workload::DomainSpec spec;
  spec.base = small_spec(6);  // only a handful of buffers exist.
  spec.gates = 50;
  spec.dividers = 50;
  const workload::DomainWorkload w =
      workload::make_domain_workload(spec, tech45());
  EXPECT_LT(static_cast<int>(w.annotations.size()), spec.base.num_nets);
  EXPECT_EQ(w.design.clock_domains.size(),
            static_cast<int>(w.annotations.size()) + 1);
  w.design.clock_domains.validate(w.tree.size());
}

TEST(DomainWorkload, ZeroElementsDegeneratesToScaleWorkload) {
  workload::DomainSpec spec;
  spec.base = small_spec(48);
  spec.gates = spec.dividers = spec.muxes = spec.inverters = 0;
  const workload::DomainWorkload w =
      workload::make_domain_workload(spec, tech45());
  EXPECT_TRUE(w.annotations.empty());
  EXPECT_FALSE(w.design.clock_domains.enabled());
  const workload::ScaleWorkload plain =
      workload::make_scale_workload(spec.base, tech45());
  EXPECT_EQ(w.tree.size(), plain.tree.size());
  EXPECT_EQ(w.tree.total_wirelength(), plain.tree.total_wirelength());
  EXPECT_EQ(w.nets.size(), plain.nets.size());
}

// ---- weighted power and EM ------------------------------------------------

class GatedFlow : public ::testing::Test {
 protected:
  GatedFlow() {
    workload::DomainSpec spec;
    spec.base = small_spec(64);
    spec.gates = 1;
    spec.dividers = 1;
    spec.muxes = 0;
    spec.inverters = 0;
    spec.duty_min = spec.duty_max = 0.5;
    w_ = workload::make_domain_workload(spec, tech45());
    blanket_ = ndr::assign_all(w_.nets, tech45().rules.blanket_index());
  }

  workload::DomainWorkload w_;
  ndr::RuleAssignment blanket_;
};

TEST_F(GatedFlow, WeightedPowerBelowRawAndPerNetConsistent) {
  const ndr::FlowEvaluation ev = ndr::evaluate(
      w_.tree, w_.design, tech45(), w_.nets, blanket_);
  ASSERT_TRUE(w_.design.clock_domains.enabled());
  EXPECT_LT(ev.power.weighted_switched_cap, ev.power.switched_cap);
  int weighted_nets = 0;
  for (const netlist::Net& net : w_.nets.nets) {
    const double w = ev.power.net_toggle_weight[net.id];
    EXPECT_EQ(w, w_.design.clock_domains.node_toggle_weight(net.driver));
    if (w < 1.0) ++weighted_nets;
  }
  EXPECT_GT(weighted_nets, 0);
}

TEST_F(GatedFlow, NetPowerScalesWithToggleWeight) {
  const ndr::FlowEvaluation ev = ndr::evaluate(
      w_.tree, w_.design, tech45(), w_.nets, blanket_);
  // net_power = c_sw * vdd^2 * f * weight: recover the per-net constant
  // from an unweighted net and check weighted nets against it.
  double k = 0.0;
  for (const netlist::Net& net : w_.nets.nets) {
    if (ev.power.net_toggle_weight[net.id] == 1.0 &&
        ev.power.net_switched_cap[net.id] > 0.0) {
      k = ev.power.net_power[net.id] / ev.power.net_switched_cap[net.id];
      break;
    }
  }
  ASSERT_GT(k, 0.0);
  for (const netlist::Net& net : w_.nets.nets) {
    if (ev.power.net_switched_cap[net.id] <= 0.0) continue;
    const double expected = k * ev.power.net_switched_cap[net.id] *
                            ev.power.net_toggle_weight[net.id];
    EXPECT_NEAR(ev.power.net_power[net.id], expected,
                1e-9 * expected + 1e-30)
        << "net " << net.id;
  }
}

TEST_F(GatedFlow, EmDensityScalesBySqrtToggleWeight) {
  const ndr::FlowEvaluation gated = ndr::evaluate(
      w_.tree, w_.design, tech45(), w_.nets, blanket_);
  netlist::Design plain = w_.design;
  plain.clock_domains = netlist::ClockDomainMap();
  const ndr::FlowEvaluation ref = ndr::evaluate(
      w_.tree, plain, tech45(), w_.nets, blanket_);
  for (const netlist::Net& net : w_.nets.nets) {
    const double scale = w_.design.clock_domains.node_em_scale(net.driver);
    // Post-multiplication contract: scaled density == raw density * scale,
    // bitwise (this is exactly how analyze_em computes it).
    EXPECT_EQ(gated.em.net_peak_density[net.id],
              ref.em.net_peak_density[net.id] * scale)
        << "net " << net.id;
  }
}

// The acceptance pin: the activity-weighted objective provably changes
// rule assignment vs capacitance-only on a gated workload. At an elevated
// clock frequency EM makes cheap (narrow) rules infeasible for full-rate
// nets — but a subtree gated to a quarter of the toggle rate carries
// half the RMS current, so the SAME cheap rules are feasible there and
// the optimizer commits them. Capacitance-only (domains cleared) cannot
// see the difference and leaves those nets expensive.
TEST(DomainObjective, ActivityChangesRuleAssignment) {
  workload::DomainSpec spec;
  spec.base = small_spec(96);
  spec.gates = 1;
  spec.dividers = 1;
  spec.muxes = 0;
  spec.inverters = 0;
  spec.duty_min = spec.duty_max = 0.5;
  spec.max_divide = 4;
  workload::DomainWorkload w = workload::make_domain_workload(spec, tech45());
  ASSERT_TRUE(w.design.clock_domains.enabled());

  // Crank the frequency until EM pressure splits the rule choices between
  // the full-rate and gated subtrees (the exact multiple depends on the
  // library; scan a deterministic ladder and require a split to appear).
  netlist::Design plain = w.design;
  plain.clock_domains = netlist::ClockDomainMap();
  ndr::OptimizerOptions o;
  o.scoring = ndr::Scoring::kExactNet;
  bool split = false;
  for (const double mult : {10.0, 11.0, 12.0, 14.0}) {
    netlist::Design gated_d = w.design;
    gated_d.constraints.clock_freq *= mult;
    netlist::Design plain_d = plain;
    plain_d.constraints.clock_freq *= mult;
    const ndr::SmartNdrResult gated = ndr::optimize_smart_ndr(
        w.tree, gated_d, tech45(), w.nets, o);
    const ndr::SmartNdrResult capacity_only = ndr::optimize_smart_ndr(
        w.tree, plain_d, tech45(), w.nets, o);
    if (gated.assignment != capacity_only.assignment) {
      split = true;
      // The divergence must sit in the reduced-rate subtrees, and must
      // point toward CHEAPER rules there (that's the whole point).
      double gated_cap = 0.0;
      double plain_cap = 0.0;
      for (const netlist::Net& net : w.nets.nets) {
        if (w.design.clock_domains.node_toggle_weight(net.driver) >= 1.0) {
          EXPECT_EQ(gated.assignment[net.id],
                    capacity_only.assignment[net.id])
              << "full-rate net " << net.id << " should not change";
        } else {
          gated_cap += gated.final_eval.power.net_switched_cap[net.id];
          plain_cap += capacity_only.final_eval.power.net_switched_cap[net.id];
        }
      }
      EXPECT_LT(gated_cap, plain_cap);
      break;
    }
  }
  EXPECT_TRUE(split)
      << "activity weighting never changed the assignment on the ladder";
}

// ---- inter-clock signoff --------------------------------------------------

TEST(InterClock, DisabledWithoutDomains) {
  const workload::ScaleWorkload w =
      workload::make_scale_workload(small_spec(), tech45());
  const ndr::FlowEvaluation ev = ndr::evaluate(
      w.tree, w.design, tech45(), w.nets,
      ndr::assign_all(w.nets, tech45().rules.blanket_index()));
  EXPECT_FALSE(ev.inter_clock.enabled);
  EXPECT_TRUE(ev.inter_clock.pairs.empty());
  EXPECT_EQ(ev.inter_clock_violations, 0);
}

TEST(InterClock, MuxPairsLoseCommonNodeAndGainGuard) {
  workload::DomainSpec spec;
  spec.base = small_spec(64);
  spec.gates = 1;
  spec.dividers = 0;
  spec.muxes = 1;
  spec.inverters = 0;
  const workload::DomainWorkload w =
      workload::make_domain_workload(spec, tech45());
  const ndr::FlowEvaluation ev = ndr::evaluate(
      w.tree, w.design, tech45(), w.nets,
      ndr::assign_all(w.nets, tech45().rules.blanket_index()));
  ASSERT_TRUE(ev.inter_clock.enabled);
  ASSERT_FALSE(ev.inter_clock.pairs.empty());
  bool saw_mux_pair = false;
  for (const report::InterClockPair& p : ev.inter_clock.pairs) {
    const bool mux =
        w.design.clock_domains.path_crosses_mux(p.domain_a, p.domain_b);
    if (mux) {
      saw_mux_pair = true;
      EXPECT_EQ(p.common_node, -1);
      EXPECT_GT(p.guard, 0.0);
      EXPECT_GT(p.budget, w.design.constraints.max_skew);
    } else {
      EXPECT_GE(p.common_node, 0);
      EXPECT_EQ(p.guard, 0.0);
      EXPECT_EQ(p.budget, w.design.constraints.max_skew);
    }
  }
  EXPECT_TRUE(saw_mux_pair);
}

TEST(InterClock, TightBudgetOverrideFlagsViolations) {
  workload::DomainSpec spec;
  spec.base = small_spec(64);
  spec.gates = 2;
  const workload::DomainWorkload w =
      workload::make_domain_workload(spec, tech45());
  netlist::Design tight = w.design;
  tight.constraints.max_inter_clock_skew = 1e-15;  // 1 fs: nothing passes.
  const ndr::FlowEvaluation ev = ndr::evaluate(
      w.tree, tight, tech45(), w.nets,
      ndr::assign_all(w.nets, tech45().rules.blanket_index()));
  ASSERT_TRUE(ev.inter_clock.enabled);
  EXPECT_GT(ev.inter_clock_violations, 0);
  EXPECT_FALSE(ev.feasible());
  for (const report::InterClockPair& p : ev.inter_clock.pairs) {
    EXPECT_EQ(p.budget, 1e-15);
  }
}

TEST(InterClock, DefaultBudgetsAreAdditiveOnFeasibleDesigns) {
  // A design passing the global skew + uncertainty signoff must also pass
  // the derived inter-clock budgets (DESIGN.md section 11) — the check is
  // purely additive until a user pins max_inter_clock_skew.
  workload::DomainSpec spec;
  spec.base = small_spec(96);
  spec.gates = 2;
  spec.dividers = 1;
  spec.muxes = 1;
  const workload::DomainWorkload w =
      workload::make_domain_workload(spec, tech45());
  const ndr::SmartNdrResult r = ndr::optimize_smart_ndr(
      w.tree, w.design, tech45(), w.nets);
  ASSERT_TRUE(r.final_eval.feasible());
  EXPECT_EQ(r.final_eval.inter_clock_violations, 0);
  EXPECT_TRUE(r.final_eval.inter_clock.ok());
}

}  // namespace
}  // namespace sndr
