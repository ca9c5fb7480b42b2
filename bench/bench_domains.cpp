// Gated-domain bench — activity-weighted power and inter-clock signoff
// metrics on mux/ICG/divider clock architectures (DESIGN.md §11).
//
// Two rungs, both committed to BENCH_manifest.domains.json and gated by
// scripts/bench_check.sh:
//
//   g96   the acceptance pin as a bench: a gated+divided 96-net workload
//         swept up a deterministic frequency ladder until EM pressure
//         splits the rule assignment between the domain-aware objective
//         and the capacitance-only one. Gauges:
//           bench.domains.g96.activity_changes_assignment   (must stay 1)
//           bench.domains.g96.freq_mult            (ladder rung that split)
//           bench.domains.g96.gated_cap_ratio      (gated/plain, < 1)
//
//   g512  a richer domain graph (2 ICGs, divider, mux) at base frequency:
//         activity-weighted vs raw switched capacitance, the inter-clock
//         pair report, and pipeline throughput. Gauges:
//           bench.domains.g512.nets / .nets_per_s
//           bench.domains.g512.raw_switched_cap / .weighted_switched_cap
//           bench.domains.g512.weighted_over_raw            (must stay < 1)
//           bench.domains.g512.inter_clock_pairs / .inter_clock_worst_skew
//           bench.domains.g512.inter_clock_violations       (must stay 0)
//           bench.domains.g512.feasible                     (must stay 1)
//
// plus the usual per-stage RuntimeRecords in BENCH_runtime.json.
#include <chrono>

#include "common.hpp"
#include "ndr/smart_ndr.hpp"
#include "workload/domains.hpp"

namespace {

using namespace sndr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void set_gauge(const std::string& name, double value) {
  obs::MetricsRegistry::instance().set(
      obs::MetricsRegistry::instance().gauge(name), value);
}

}  // namespace

int main() {
  using namespace sndr::bench;

  const tech::Technology tech = tech::Technology::make_default_45nm();
  std::vector<RuntimeRecord> records;
  const int threads = common::thread_count();
  const auto record = [&records, threads](const std::string& stage,
                                          double seconds) {
    records.push_back({stage, threads, seconds});
  };
  report::Table t({"rung", "nets", "raw cap (fF)", "weighted (fF)",
                   "pairs", "worst skew (ps)", "split", "nets/s"});
  bool gates_ok = true;

  ndr::OptimizerOptions exact;
  exact.scoring = ndr::Scoring::kExactNet;

  // --- g96: does the activity-weighted objective move the assignment? ---
  {
    workload::DomainSpec spec;
    spec.base.name = "g96";
    spec.base.num_nets = 96;
    spec.base.branching = 2;
    spec.base.sinks_per_leaf = 2;
    spec.gates = 1;
    spec.dividers = 1;
    spec.muxes = 0;
    spec.inverters = 0;
    spec.duty_min = spec.duty_max = 0.5;
    auto t0 = Clock::now();
    const workload::DomainWorkload w = make_domain_workload(spec, tech);
    record("g96.generate", seconds_since(t0));

    netlist::Design plain = w.design;
    plain.clock_domains = netlist::ClockDomainMap();
    double split_mult = 0.0;
    double gated_cap_ratio = 0.0;
    t0 = Clock::now();
    // Same deterministic ladder the acceptance test pins: the exact
    // multiple where EM pressure forces the split depends on the library.
    for (const double mult : {10.0, 11.0, 12.0, 14.0}) {
      netlist::Design gated_d = w.design;
      gated_d.constraints.clock_freq *= mult;
      netlist::Design plain_d = plain;
      plain_d.constraints.clock_freq *= mult;
      const ndr::SmartNdrResult gated =
          ndr::optimize_smart_ndr(w.tree, gated_d, tech, w.nets, exact);
      const ndr::SmartNdrResult cap_only =
          ndr::optimize_smart_ndr(w.tree, plain_d, tech, w.nets, exact);
      if (gated.assignment == cap_only.assignment) continue;
      double gated_cap = 0.0;
      double plain_cap = 0.0;
      for (const netlist::Net& net : w.nets.nets) {
        if (w.design.clock_domains.node_toggle_weight(net.driver) < 1.0) {
          gated_cap += gated.final_eval.power.net_switched_cap[net.id];
          plain_cap += cap_only.final_eval.power.net_switched_cap[net.id];
        }
      }
      split_mult = mult;
      gated_cap_ratio = gated_cap / plain_cap;
      break;
    }
    record("g96.ladder", seconds_since(t0));
    const bool split = split_mult > 0.0 && gated_cap_ratio < 1.0;
    gates_ok = gates_ok && split;
    set_gauge("bench.domains.g96.activity_changes_assignment",
              split ? 1.0 : 0.0);
    set_gauge("bench.domains.g96.freq_mult", split_mult);
    set_gauge("bench.domains.g96.gated_cap_ratio", gated_cap_ratio);
    t.add_row({"g96", "96", "-", "-", "-", "-", split ? "yes" : "NO", "-"});
  }

  // --- g512: weighted power + inter-clock signoff on a mixed graph -------
  {
    workload::DomainSpec spec;
    spec.base.name = "g512";
    spec.base.num_nets = 512;
    spec.gates = 2;
    spec.dividers = 1;
    spec.muxes = 1;
    spec.inverters = 1;
    auto t0 = Clock::now();
    const workload::DomainWorkload w = make_domain_workload(spec, tech);
    const double gen_s = seconds_since(t0);
    record("g512.generate", gen_s);

    t0 = Clock::now();
    const ndr::SmartNdrResult opt =
        ndr::optimize_smart_ndr(w.tree, w.design, tech, w.nets, exact);
    const double opt_s = seconds_since(t0);
    record("g512.optimize", opt_s);
    const ndr::FlowEvaluation& ev = opt.final_eval;
    const double nets_per_s = spec.base.num_nets / opt_s;

    const bool weighted_below =
        ev.power.weighted_switched_cap < ev.power.switched_cap;
    gates_ok = gates_ok && weighted_below && ev.inter_clock.enabled &&
               ev.inter_clock_violations == 0 && ev.feasible();
    const std::string g = "bench.domains.g512.";
    set_gauge(g + "nets", spec.base.num_nets);
    set_gauge(g + "nets_per_s", nets_per_s);
    set_gauge(g + "raw_switched_cap", ev.power.switched_cap);
    set_gauge(g + "weighted_switched_cap", ev.power.weighted_switched_cap);
    set_gauge(g + "weighted_over_raw",
              ev.power.weighted_switched_cap / ev.power.switched_cap);
    set_gauge(g + "inter_clock_pairs",
              static_cast<double>(ev.inter_clock.pairs.size()));
    set_gauge(g + "inter_clock_worst_skew", ev.inter_clock.worst_skew);
    set_gauge(g + "inter_clock_violations",
              static_cast<double>(ev.inter_clock_violations));
    set_gauge(g + "feasible", ev.feasible() ? 1.0 : 0.0);
    t.add_row({"g512", "512",
               report::fmt(ev.power.switched_cap * 1e15, 2),
               report::fmt(ev.power.weighted_switched_cap * 1e15, 2),
               std::to_string(ev.inter_clock.pairs.size()),
               report::fmt(ev.inter_clock.worst_skew * 1e12, 2),
               "-", report::fmt(nets_per_s, 0)});
  }

  finish(t, "Gated domains: activity-weighted power and inter-clock signoff",
         "domains.csv");
  publish_runtime("domains", records);

  if (!gates_ok) {
    std::cerr << "bench_domains: a domain invariant failed (split missing, "
                 "weighted cap not below raw, or inter-clock violation)\n";
    return 1;
  }
  return 0;
}
