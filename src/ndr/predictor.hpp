// Learned per-rule impact models (the paper's machine-learning component).
//
// Re-extracting and re-timing every candidate (net, rule) pair inside the
// optimization loop is what makes naive per-net NDR assignment impractical;
// the paper's answer is to learn cheap models that map per-net features to
// the timing-relevant responses of each candidate rule. We train one ridge
// regression per (rule, metric) on a stratified sample of nets labeled by
// the exact per-net engines, and report holdout accuracy (Table IV). The
// metrics modeled are exactly the net-local quantities the optimizer needs:
//
//   step_slew — worst-load wire step slew (pre-PERI),
//   sigma     — worst-load process delay variation,
//   xtalk     — worst-load crosstalk delta-delay,
//   delay     — worst-load wire delay (for skew estimation).
//
// Switched capacitance and the EM bound are analytic (see net_eval.hpp) and
// need no model.
#pragma once

#include <array>
#include <vector>

#include "ndr/linear_model.hpp"
#include "ndr/net_eval.hpp"

namespace sndr::ndr {

/// Feature vector of a net (rule-independent).
std::vector<double> net_feature_vector(const NetSummary& s);

struct NetImpact {
  double step_slew = 0.0;  ///< s.
  double sigma = 0.0;      ///< s.
  double xtalk = 0.0;      ///< s.
  double delay = 0.0;      ///< s, worst-load wire delay.
};

struct ModelQuality {
  double mae = 0.0;
  double r2 = 0.0;
  double rank_corr = 0.0;
};

struct TrainReport {
  int train_samples = 0;
  int holdout_samples = 0;
  /// quality[rule][metric]; metric order: step_slew, sigma, xtalk, delay.
  std::vector<std::array<ModelQuality, 4>> quality;
};

class RuleImpactPredictor {
 public:
  /// Trains on up to `max_samples` nets of the given tree, stratified by
  /// net depth so root trunks and leaf nets are both represented.
  /// `holdout_frac` of samples are withheld for the accuracy report.
  /// Labeling is the dominant cost — one exact per-(sample, rule)
  /// evaluation each — and reads the pre-built `geometry` of the same
  /// tree and net list.
  static RuleImpactPredictor train(const netlist::ClockTree& tree,
                                   const netlist::Design& design,
                                   const tech::Technology& tech,
                                   const netlist::NetList& nets,
                                   const extract::GeometryCache& geometry,
                                   const timing::AnalysisOptions& options,
                                   int max_samples = 400,
                                   double holdout_frac = 0.2);

  NetImpact predict(const NetSummary& s, int rule) const;

  const TrainReport& report() const { return report_; }
  int rule_count() const { return static_cast<int>(models_.size()); }

 private:
  std::vector<std::array<RidgeRegression, 4>> models_;  ///< per rule.
  TrainReport report_;
};

}  // namespace sndr::ndr
