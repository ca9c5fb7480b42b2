#include "ndr/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sndr::ndr {

std::vector<double> net_feature_vector(const NetSummary& s) {
  // Scaled to O(1) magnitudes: lengths in mm, caps in tens of fF,
  // resistance in kohm. Interaction terms capture the R*C structure of the
  // underlying physics (delay ~ Rdrv*C + r*L*C terms).
  const double len = s.wirelength * 1e-3;
  const double occ = s.occ_length * 1e-3;
  const double maxp = s.max_path * 1e-3;
  const double lcap = s.load_cap * 1e14;
  const double rdrv = s.driver_res * 1e-3;
  const double nloads = static_cast<double>(s.load_count);
  return {
      len,
      occ,
      maxp,
      lcap,
      rdrv,
      nloads,
      len * len,
      maxp * maxp,
      rdrv * lcap,
      rdrv * len,
      maxp * len,
      occ * maxp,
  };
}

RuleImpactPredictor RuleImpactPredictor::train(
    const netlist::ClockTree& tree, const netlist::Design& design,
    const tech::Technology& tech, const netlist::NetList& nets,
    const extract::GeometryCache& geometry,
    const timing::AnalysisOptions& options, int max_samples,
    double holdout_frac) {
  SNDR_TRACE_SPAN("predictor_train");
  RuleImpactPredictor pred;
  const int n_rules = tech.rules.size();
  const double freq = design.constraints.clock_freq;

  // Stratified sample: nets are depth-ordered by construction, so a strided
  // pick covers every level of the hierarchy.
  std::vector<int> sample_ids;
  const int n_nets = nets.size();
  const int stride = std::max(1, n_nets / std::max(1, max_samples));
  for (int i = 0; i < n_nets; i += stride) sample_ids.push_back(i);

  // Deterministic Fisher-Yates shuffle so the train/holdout split is not
  // depth-biased (sample_ids start depth-ordered).
  std::uint64_t state = 0x853c49e6748fea9bULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (std::size_t i = sample_ids.size(); i > 1; --i) {
    std::swap(sample_ids[i - 1], sample_ids[next() % i]);
  }

  const int n_holdout = std::max(
      1, static_cast<int>(std::floor(sample_ids.size() * holdout_frac)));
  const int n_train = std::max(
      1, static_cast<int>(sample_ids.size()) - n_holdout);

  // Features are rule-independent: compute once per sampled net. Each
  // sample fills its own slot, so the loop parallelizes deterministically.
  std::vector<std::vector<double>> features(sample_ids.size());
  std::vector<NetSummary> summaries(sample_ids.size());
  common::parallel_for(
      static_cast<std::int64_t>(sample_ids.size()), /*grain=*/16,
      /*est_us_per_item=*/1.0, [&](std::int64_t i) {
        summaries[i] = summarize_net(tree, design, tech,
                                     nets[sample_ids[i]],
                                     geometry.footprint(), options);
        features[i] = net_feature_vector(summaries[i]);
      });

  pred.models_.resize(n_rules);
  pred.report_.quality.resize(n_rules);
  pred.report_.train_samples = n_train;
  pred.report_.holdout_samples =
      static_cast<int>(sample_ids.size()) - n_train;
  SNDR_COUNTER_ADD("predictor.train_samples", pred.report_.train_samples);
  SNDR_COUNTER_ADD("predictor.holdout_samples",
                   pred.report_.holdout_samples);

  // Exact labels for every (sample, rule) from the cached geometry, in
  // cross-net batches: sample slots are grouped by geometry shape so one
  // kernel call labels several same-shaped nets under every rule (lanes =
  // nets × rules). Per (sample, rule) the labels are bit-identical to the
  // scalar evaluate_net_exact (the batch replays each lane's scalar op
  // order), so the fitted models and the quality report are too.
  std::vector<std::vector<std::array<double, 4>>> labels(
      static_cast<std::size_t>(n_rules));
  for (auto& l : labels) l.resize(sample_ids.size());
  const std::vector<std::vector<int>> batches = extract::plan_net_batches(
      geometry.shape_buckets(), sample_ids, n_rules);
  common::parallel_for(
      static_cast<std::int64_t>(batches.size()), /*grain=*/1,
      [&](std::int64_t b) {
        const std::vector<int>& slots = batches[static_cast<std::size_t>(b)];
        thread_local common::Arena arena;
        thread_local std::vector<const extract::NetGeometry*> geoms;
        thread_local std::vector<double> dres;
        thread_local std::vector<NetExact> out;
        geoms.resize(slots.size());
        dres.resize(slots.size());
        out.resize(slots.size() * static_cast<std::size_t>(n_rules));
        std::vector<extract::GeometryCache::Pinned> pins;
        pins.reserve(slots.size());
        for (std::size_t k = 0; k < slots.size(); ++k) {
          pins.push_back(geometry.pinned(sample_ids[slots[k]]));
          geoms[k] = pins.back().get();
          dres[k] = summaries[slots[k]].driver_res;
        }
        evaluate_nets_exact_all_rules(geoms.data(), dres.data(),
                                      static_cast<int>(slots.size()), tech,
                                      freq, arena, out.data());
        for (std::size_t k = 0; k < slots.size(); ++k) {
          for (int r = 0; r < n_rules; ++r) {
            const NetExact& exact =
                out[k * static_cast<std::size_t>(n_rules) +
                    static_cast<std::size_t>(r)];
            labels[r][slots[k]] = {exact.step_slew_worst, exact.sigma_worst,
                                   exact.xtalk_worst, exact.wire_delay_worst};
          }
        }
      });

  for (int r = 0; r < n_rules; ++r) {
    for (int m = 0; m < 4; ++m) {
      std::vector<std::vector<double>> x_train(features.begin(),
                                               features.begin() + n_train);
      std::vector<double> y_train;
      y_train.reserve(n_train);
      for (int i = 0; i < n_train; ++i) y_train.push_back(labels[r][i][m]);
      pred.models_[r][m].fit(x_train, y_train);

      // Holdout quality.
      std::vector<double> truth;
      std::vector<double> est;
      for (std::size_t i = n_train; i < sample_ids.size(); ++i) {
        truth.push_back(labels[r][i][m]);
        est.push_back(pred.models_[r][m].predict(features[i]));
      }
      ModelQuality& q = pred.report_.quality[r][m];
      q.mae = mean_abs_error(truth, est);
      q.r2 = r_squared(truth, est);
      q.rank_corr = spearman_rank_correlation(truth, est);
    }
  }
  return pred;
}

NetImpact RuleImpactPredictor::predict(const NetSummary& s, int rule) const {
  const std::vector<double> x = net_feature_vector(s);
  const std::array<RidgeRegression, 4>& m = models_.at(rule);
  NetImpact out;
  out.step_slew = std::max(0.0, m[0].predict(x));
  out.sigma = std::max(0.0, m[1].predict(x));
  out.xtalk = std::max(0.0, m[2].predict(x));
  out.delay = std::max(0.0, m[3].predict(x));
  return out;
}

}  // namespace sndr::ndr
