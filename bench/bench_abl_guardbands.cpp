// Ablation B — optimizer guard bands.
//
// The estimate-driven loop holds a slice of each constraint in reserve and
// validates commits exactly; the final signoff uses the raw limits. Sweep
// the guard-band width. Expected shape: zero margin leans fully on the
// exact commit validation (still feasible, slightly better power, more
// rejected-at-validation candidates); oversized margins freeze nets early
// and give up savings.
#include "common.hpp"

int main() {
  using namespace sndr;
  using namespace sndr::bench;

  workload::DesignSpec spec = workload::paper_benchmarks()[2];  // vga_like
  const Flow f = build_flow(spec);
  const auto blanket = eval_uniform(f, f.tech.rules.blanket_index());

  report::Table t({"margin", "P (mW)", "saving", "commits", "scored",
                   "exact evals", "feasible"});
  for (const double margin : {0.0, 0.02, 0.05, 0.10, 0.20, 0.35}) {
    ndr::OptimizerOptions opt;
    opt.search.margins = {margin, margin, margin, margin};
    const ndr::SmartNdrResult smart =
        ndr::optimize_smart_ndr(f.cts.tree, f.design, f.tech, f.nets, opt);
    t.add_row({report::fmt(margin, 2),
               report::fmt(units::to_mW(smart.final_eval.power.total_power),
                           3),
               report::fmt_pct(smart.final_eval.power.total_power /
                                   blanket.power.total_power -
                               1.0),
               std::to_string(smart.stats.commits),
               std::to_string(smart.stats.candidates_scored),
               std::to_string(smart.stats.exact_net_evals),
               smart.final_eval.feasible() ? "yes" : "NO"});
  }
  finish(t, "Ablation B: savings vs optimizer guard bands (vga_like)",
         "abl_guardbands.csv");
  return 0;
}
