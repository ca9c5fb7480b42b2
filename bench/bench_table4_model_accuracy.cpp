// Table IV — learned-model accuracy.
//
// Holdout quality of the per-rule impact models (the machine-learning
// component that makes per-net rule search affordable): mean absolute
// error, R^2, and Spearman rank correlation per predicted metric, averaged
// over rules, per benchmark. Expected shape: rank correlations near 1.0 —
// the optimizer needs correct candidate ordering far more than absolute
// accuracy.
#include "common.hpp"

int main() {
  using namespace sndr;
  using namespace sndr::bench;

  const char* metric_names[4] = {"step_slew", "sigma", "xtalk", "delay"};

  report::Table t({"design", "metric", "MAE (ps)", "R^2", "rank corr",
                   "train", "holdout"});
  for (const workload::DesignSpec& spec : workload::paper_benchmarks()) {
    if (spec.num_sinks > 10000) continue;  // larger designs add no new info.
    const Flow f = build_flow(spec);
    const timing::AnalysisOptions aopt;
    const extract::GeometryCache cache(f.cts.tree, f.design, f.nets);
    const ndr::RuleImpactPredictor pred = ndr::RuleImpactPredictor::train(
        f.cts.tree, f.design, f.tech, f.nets, cache, aopt, 400);
    const ndr::TrainReport& rep = pred.report();
    for (int m = 0; m < 4; ++m) {
      double mae = 0.0;
      double r2 = 0.0;
      double rho = 0.0;
      for (const auto& per_rule : rep.quality) {
        mae += per_rule[m].mae;
        r2 += per_rule[m].r2;
        rho += per_rule[m].rank_corr;
      }
      const double n = static_cast<double>(rep.quality.size());
      t.add_row({spec.name, metric_names[m],
                 report::fmt(units::to_ps(mae / n), 2),
                 report::fmt(r2 / n, 3), report::fmt(rho / n, 3),
                 std::to_string(rep.train_samples),
                 std::to_string(rep.holdout_samples)});
    }
  }
  finish(t, "Table IV: learned rule-impact model accuracy (holdout)",
         "table4_model_accuracy.csv");
  return 0;
}
