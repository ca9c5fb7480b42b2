#include "ndr/assignment_state.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>

#include "common/parallel.hpp"
#include "route/congestion_route.hpp"
#include "timing/delay_metrics.hpp"

namespace sndr::ndr {
namespace {

/// Copies net `id`'s memo row between two memos of one shape: its
/// `n_rules` NetExact entries and its load-term block [off[id], off[id + 1]).
void copy_memo_row(int id, int n_rules, const std::vector<std::size_t>& off,
                   const NetExact* from_rows, const double* from_terms,
                   NetExact* to_rows, double* to_terms) {
  const std::size_t first = static_cast<std::size_t>(id) * n_rules;
  std::copy_n(from_rows + first, n_rules, to_rows + first);
  std::copy(from_terms + off[id], from_terms + off[id + 1],
            to_terms + off[id]);
}

}  // namespace

AssignmentState::AssignmentState(const netlist::ClockTree& tree,
                                 const netlist::Design& design,
                                 const tech::Technology& tech,
                                 const netlist::NetList& nets,
                                 const timing::AnalysisOptions& analysis,
                                 const extract::GeometryCache* shared_geometry)
    : tree_(&tree),
      design_(&design),
      tech_(&tech),
      nets_(&nets),
      analysis_(analysis),
      geometry_own_(shared_geometry
                        ? nullptr
                        : std::make_unique<extract::GeometryCache>(
                              tree, design, nets)),
      geometry_(shared_geometry ? shared_geometry : geometry_own_.get()),
      delta_(tree, design, tech, nets, analysis),
      usage_(&design.congestion) {
  SNDR_COUNTER_ADD("ndr.search_states", 1);
  const int n_nets = nets.size();
  const int n_sinks = static_cast<int>(design.sinks.size());

  // Depth-first walk: a net's sinks are exactly those below its driver, so
  // they form one contiguous run of the visit order, opened when the walk
  // enters the driver and closed (~driver on the stack) when it leaves.
  sink_lo_.assign(n_nets, 0);
  sink_hi_.assign(n_nets, 0);
  leaf_net_.assign(n_sinks, -1);
  sink_order_.reserve(n_sinks);
  std::vector<int> stack;
  if (!tree.empty()) stack.push_back(tree.root());
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    if (v < 0) {
      sink_hi_[nets.net_driven[~v]] = static_cast<int>(sink_order_.size());
      continue;
    }
    const netlist::TreeNode& n = tree.node(v);
    if (n.kind == netlist::NodeKind::kSink) {
      sink_order_.push_back(n.sink);
      leaf_net_[n.sink] = nets.net_of_edge[v];
    }
    const int driven = nets.net_driven[v];
    if (driven >= 0) {
      sink_lo_[driven] = static_cast<int>(sink_order_.size());
      stack.push_back(~v);
    }
    stack.insert(stack.end(), n.children.rbegin(), n.children.rend());
  }

  parent_net_.assign(n_nets, -1);
  for (const netlist::Net& net : nets.nets) {
    parent_net_[net.id] = nets.net_of_edge[net.driver];
  }
  drives_sinks_.assign(n_nets, 0);
  for (const int net : leaf_net_) {
    if (net >= 0) drives_sinks_[net] = 1;
  }
  path_var_.assign(n_nets, 0.0);
  path_xtalk_.assign(n_nets, 0.0);

  win_lo_.resize(n_sinks);
  win_hi_.resize(n_sinks);
  for (int s = 0; s < n_sinks; ++s) {
    if (design.useful_skew.enabled()) {
      win_lo_[s] = design.useful_skew.lo[s];
      win_hi_[s] = design.useful_skew.hi[s];
    } else {
      win_lo_[s] = -0.5 * design.constraints.max_skew;
      win_hi_[s] = 0.5 * design.constraints.max_skew;
    }
  }

  n_rules_ = tech.rules.size();
  exact_cache_.resize(static_cast<std::size_t>(n_nets) *
                      static_cast<std::size_t>(n_rules_));
  term_off_.assign(static_cast<std::size_t>(n_nets) + 1, 0);
  for (const netlist::Net& net : nets.nets) {
    term_off_[net.id + 1] = term_off_[net.id] +
                            kLoadTerms * static_cast<std::size_t>(n_rules_) *
                                net.loads.size();
  }
  load_terms_.resize(term_off_.back());
  row_gen_.assign(n_nets, 0);
  ctx_gen_.assign(n_nets, 1);

  net_weight_.assign(n_nets, 1.0);
  net_em_scale_.assign(n_nets, 1.0);
  for (const netlist::Net& net : nets.nets) {
    net_weight_[net.id] = design.clock_domains.node_toggle_weight(net.driver);
    net_em_scale_[net.id] = design.clock_domains.node_em_scale(net.driver);
  }

  nets_state_.resize(n_nets);
  for (const netlist::Net& net : nets.nets) {
    NetState& st = nets_state_[net.id];
    st.summary = summarize_net(tree, design, tech, net,
                               geometry_->footprint(), analysis_);
    const netlist::TreeNode& drv = tree.node(net.driver);
    st.base_slew = drv.kind == netlist::NodeKind::kSource
                       ? analysis_.source_slew
                       : 0.4 * tech.buffers[drv.cell].intrinsic_delay;
  }

  SNDR_GAUGE_SET(
      "extract.net_batch.buckets",
      static_cast<double>(geometry_->shape_buckets().groups.size()));
}

void AssignmentState::flush_metrics() const {
  const std::int64_t d_hits = cache_hits_ - flushed_hits_;
  const std::int64_t d_misses = cache_misses_ - flushed_misses_;
  if (d_hits > 0) SNDR_COUNTER_ADD("ndr.exact_cache.hits", d_hits);
  if (d_misses > 0) SNDR_COUNTER_ADD("ndr.exact_cache.misses", d_misses);
  flushed_hits_ = cache_hits_;
  flushed_misses_ = cache_misses_;
}

void AssignmentState::rebuild(const RuleAssignment& assignment,
                              const FlowEvaluation& ev) {
  flush_metrics();
  assignment_ = assignment;

  // Reseeds the delta-timing mirror from the evaluation's timing report
  // (per-load wire terms and arrival/slew arrays). The mirror's sink
  // arrivals are the state's sink latencies.
  delta_.rebuild(ev.timing);

  // Ascending net ids are root-first, so every path prefix reads a
  // finished parent.
  for (const netlist::Net& net : nets_->nets) {
    NetState& st = nets_state_[net.id];
    st.cap = ev.power.net_switched_cap[net.id];
    st.sigma = ev.variation.net_sigma[net.id];
    st.xtalk = ev.variation.net_xtalk[net.id];
    update_path_prefix(net.id);
    const double driver_res =
        timing::net_driver_res(*tree_, *tech_, net, analysis_);
    // The exact_eval memo is keyed on the net's electrical context; a
    // rebuild only invalidates a net's cached row when that context really
    // changed (exact results are otherwise independent of the assignment).
    if (driver_res != st.summary.driver_res) {
      st.summary.driver_res = driver_res;
      ++ctx_gen_[net.id];
    }
    st.wire_delay = delta_.net_wire_delay_worst(net.id);
  }

  const std::vector<double>& arrival = delta_.sink_arrival();
  latency_sum_.assign(sink_order_.size(), [&](std::size_t r) {
    return arrival[sink_order_[r]];
  });
  total_cap_.assign(nets_state_.size(),
                    [&](std::size_t i) { return nets_state_[i].cap; });
  total_energy_.assign(nets_state_.size(), [&](std::size_t i) {
    return net_weight_[i] * nets_state_[i].cap;
  });

  usage_ = route::compute_usage(geometry_->footprint(), *nets_, assignment_,
                                *tech_, design_->congestion);
}

void AssignmentState::update_path_prefix(int net_id) {
  const NetState& st = nets_state_[net_id];
  const int up = parent_net_[net_id];
  const double up_var = up < 0 ? 0.0 : path_var_[up];
  const double up_xtalk = up < 0 ? 0.0 : path_xtalk_[up];
  path_var_[net_id] = up_var + st.sigma * st.sigma;
  path_xtalk_[net_id] = up_xtalk + st.xtalk;
}

std::vector<int> AssignmentState::nets_on_path(int sink) const {
  std::vector<int> path;
  for (int net = leaf_net_[sink]; net >= 0; net = parent_net_[net]) {
    path.push_back(net);
  }
  return path;
}

double AssignmentState::slew_at_loads(int net_id, double step_slew) const {
  return timing::peri_slew(nets_state_[net_id].base_slew, step_slew);
}

bool AssignmentState::check_move(int net_id, int rule_idx,
                                 const NetImpact& impact,
                                 const MoveMargins& margins) const {
  const netlist::ClockConstraints& c = design_->constraints;
  const NetState& st = nets_state_[net_id];
  const tech::RoutingRule& rule = tech_->rules[rule_idx];

  if (slew_at_loads(net_id, impact.step_slew) >
      c.max_slew * (1.0 - margins.slew)) {
    return false;
  }
  if (net_em_bound(st.summary, *tech_, rule, c.clock_freq) *
          net_em_scale_[net_id] >
      tech_->clock_layer.em_jmax * (1.0 - margins.em)) {
    return false;
  }
  const double width_frac = tech_->clock_layer.width_frac();
  const double d_pitch =
      rule.pitch_mult(width_frac) -
      tech_->rules[assignment_[net_id]].pitch_mult(width_frac);
  if (d_pitch > 0.0) {
    const netlist::RoutingFootprint& fp = geometry_->footprint();
    for (int k = 0; k < fp.path_count(net_id); ++k) {
      if (!usage_.fits_steps(fp.path_steps(net_id, k), d_pitch)) return false;
    }
  }

  const double d_delay = impact.delay - st.wire_delay;
  const std::span<const int> under = sinks_under(net_id);
  const int n_sinks = static_cast<int>(design_->sinks.size());
  const double new_mean =
      (latency_sum() + d_delay * static_cast<double>(under.size())) /
      std::max(1, n_sinks);
  // A sink's uncertainty reads only its leaf net's path prefixes, so it is
  // tested once per sink-driving net of the subtree — every sink under the
  // net has its leaf net there — with the per-sink expression.
  const double d_var = impact.sigma * impact.sigma - st.sigma * st.sigma;
  const double d_xtalk = impact.xtalk - st.xtalk;
  const double max_unc = c.max_uncertainty * (1.0 - margins.uncertainty);
  for (const int leaf : delta_.subtree(net_id)) {
    if (!drives_sinks_[leaf]) continue;
    const double var = std::max(0.0, path_var_[leaf] + d_var);
    const double unc = 3.0 * std::sqrt(var) + path_xtalk_[leaf] + d_xtalk;
    if (unc > max_unc) return false;
  }
  const double win_scale = 1.0 - margins.skew;
  const std::vector<double>& arrival = delta_.sink_arrival();
  for (const int s : under) {
    const double off = arrival[s] + d_delay - new_mean;
    if (off < win_lo_[s] * win_scale || off > win_hi_[s] * win_scale) {
      return false;
    }
  }
  return true;
}

void AssignmentState::apply_move(int net_id, int rule_idx) {
  // Exact incremental timing from the memo row: the new rule's per-load
  // moments drive a replay of the net's subtree slice. Only the sinks
  // under this net can change arrival.
  const std::span<const double> m12 = load_moments(net_id, rule_idx);
  const NetExact& exact =
      exact_cache_[static_cast<std::size_t>(net_id) * n_rules_ + rule_idx];
  NetState& st = nets_state_[net_id];
  const double width_frac = tech_->clock_layer.width_frac();
  const double d_pitch =
      tech_->rules[rule_idx].pitch_mult(width_frac) -
      tech_->rules[assignment_[net_id]].pitch_mult(width_frac);
  if (d_pitch != 0.0) {
    usage_.add_steps(geometry_->footprint().net_steps(net_id), d_pitch);
  }

  delta_.apply_net_change(net_id, m12.data());

  // A move changes no input of evaluate_net_exact — the rule is part of
  // the memo key and coupling reads the static occupancy field, not
  // neighbor rules — so every cached row stays valid. If moves ever start
  // mutating per-net electrical context, advance ctx_gen_[net_id] here
  // (the rebuild() driver_res check is the model to follow).

  assignment_[net_id] = rule_idx;
  st.cap = exact.cap_switched;
  st.sigma = exact.sigma_worst;
  st.xtalk = exact.xtalk_worst;
  st.wire_delay = delta_.net_wire_delay_worst(net_id);

  // Re-derive the accumulators with rebuild()'s definitions, over what the
  // move touched: the path prefixes of the descendant nets the replay just
  // visited (parents first), the latency leaves of the net's
  // sink run, and one cap / energy leaf.
  for (const int id : delta_.last_updated_nets()) update_path_prefix(id);
  const std::vector<double>& arrival = delta_.sink_arrival();
  latency_sum_.set_range(sink_lo_[net_id], sink_hi_[net_id],
                         [&](std::size_t r) {
                           return arrival[sink_order_[r]];
                         });
  total_cap_.set(net_id, st.cap);
  total_energy_.set(net_id, net_weight_[net_id] * st.cap);
}

void AssignmentState::warm_rows(const std::vector<int>& net_ids) const {
  std::vector<int> cold;
  cold.reserve(net_ids.size());
  for (const int id : net_ids) {
    if (!row_warm(id)) cold.push_back(id);
  }
  std::sort(cold.begin(), cold.end());
  cold.erase(std::unique(cold.begin(), cold.end()), cold.end());
  if (cold.empty()) return;

  const std::vector<std::vector<int>> batches =
      extract::plan_net_batches(geometry_->shape_buckets(), cold, n_rules_);

  // Each batch fills the memo rows of disjoint nets, so workers never
  // touch the same cache slot; values are bitwise equal to the lazy
  // exact_eval path, making the warm-up invisible to every consumer.
  common::parallel_for(
      static_cast<std::int64_t>(batches.size()), /*grain=*/1,
      [&](std::int64_t b) {
        thread_local std::vector<int> ids;
        ids.clear();
        for (const int k : batches[static_cast<std::size_t>(b)]) {
          ids.push_back(cold[static_cast<std::size_t>(k)]);
        }
        fill_rows(ids.data(), static_cast<int>(ids.size()));
      });

  cache_misses_ += static_cast<std::int64_t>(cold.size());
  SNDR_COUNTER_ADD("extract.net_batch.lanes",
                   static_cast<std::int64_t>(cold.size()) * n_rules_);
}

void AssignmentState::warm_all_rows() const {
  std::vector<int> all(static_cast<std::size_t>(nets_->size()));
  std::iota(all.begin(), all.end(), 0);
  warm_rows(all);
}

void MemoSnapshot::copy_row(const MemoSnapshot& from, int id) {
  copy_memo_row(id, n_rules, term_off, from.rows.data(),
                from.load_terms.data(), rows.data(), load_terms.data());
  driver_res[id] = from.driver_res[id];
  row_warm[id] = 1;
}

void AssignmentState::export_memo(MemoSnapshot& out) const {
  const int n_nets = nets_->size();
  out.n_rules = n_rules_;
  out.timing_miller = analysis_.timing_miller;
  out.driver_res.assign(n_nets, 0.0);
  out.row_warm.assign(n_nets, 0);
  out.rows.assign(exact_cache_.size(), NetExact{});
  out.term_off = term_off_;
  out.load_terms.assign(load_terms_.size(), 0.0);
  for (int id = 0; id < n_nets; ++id) {
    out.driver_res[id] = nets_state_[id].summary.driver_res;
    if (!row_warm(id)) continue;
    copy_memo_row(id, n_rules_, term_off_, exact_cache_.data(),
                  load_terms_.data(), out.rows.data(), out.load_terms.data());
    out.row_warm[id] = 1;
  }
}

int AssignmentState::import_memo(const MemoSnapshot& in) {
  const int n_nets = nets_->size();
  if (in.n_rules != n_rules_ || in.timing_miller != analysis_.timing_miller ||
      in.driver_res.size() != static_cast<std::size_t>(n_nets) ||
      in.term_off != term_off_) {
    return 0;  // different search shape; nothing transplantable.
  }
  int adopted = 0;
  for (int id = 0; id < n_nets; ++id) {
    if (!in.row_warm[id]) continue;
    // Context guard: the donated row was computed under a specific driver
    // resistance; adopt only on bitwise match, so the row equals what a
    // cold eval here would produce (value-neutral).
    if (in.driver_res[id] != nets_state_[id].summary.driver_res) continue;
    if (row_warm(id)) continue;
    copy_memo_row(id, n_rules_, term_off_, in.rows.data(),
                  in.load_terms.data(), exact_cache_.data(),
                  load_terms_.data());
    row_gen_[id] = ctx_gen_[id];
    ++adopted;
  }
  if (adopted > 0) {
    SNDR_COUNTER_ADD("ndr.exact_cache.transplants", adopted);
  }
  return adopted;
}

bool AssignmentState::ensure_row(int net_id) const {
  if (row_warm(net_id)) return true;
  ++cache_misses_;
  // Miss path: one batched pass scores EVERY rule of the set over the
  // cached geometry (cheaper than two scalar evals), so a miss warms the
  // whole (net, ×rules) memo row and is counted once. Per-rule results are
  // bit-identical to the scalar evaluate_net_exact, which
  // tests/batch_kernel_test.cpp pins.
  fill_rows(&net_id, 1);
  return false;
}

const NetExact& AssignmentState::exact_eval(int net_id, int rule_idx) const {
  if (ensure_row(net_id)) ++cache_hits_;
  return exact_cache_[static_cast<std::size_t>(net_id) * n_rules_ + rule_idx];
}

const NetExact& AssignmentState::signoff_row(int net_id, int rule_idx) const {
  ensure_row(net_id);
  return exact_cache_[static_cast<std::size_t>(net_id) * n_rules_ + rule_idx];
}

const double* AssignmentState::load_block(int net_id, int rule_idx) const {
  ensure_row(net_id);
  return load_terms_.data() + term_off_[net_id] +
         static_cast<std::size_t>(rule_idx) * kLoadTerms *
             nets_->nets[net_id].loads.size();
}

std::span<const double> AssignmentState::load_moments(int net_id,
                                                      int rule_idx) const {
  return {load_block(net_id, rule_idx),
          2 * nets_->nets[net_id].loads.size()};
}

std::span<const double> AssignmentState::load_sigma(int net_id,
                                                    int rule_idx) const {
  const std::size_t n = nets_->nets[net_id].loads.size();
  return {load_block(net_id, rule_idx) + 2 * n, n};
}

std::span<const double> AssignmentState::load_xtalk(int net_id,
                                                    int rule_idx) const {
  const std::size_t n = nets_->nets[net_id].loads.size();
  return {load_block(net_id, rule_idx) + 3 * n, n};
}

void AssignmentState::fill_rows(const int* ids, int n) const {
  thread_local common::Arena arena;
  thread_local std::vector<const extract::NetGeometry*> geoms;
  thread_local std::vector<double> dres;
  thread_local std::vector<NetExact> out;
  thread_local std::vector<double> terms;
  // The whole batch stays pinned until its load terms are stored (budgeted
  // geometry caches evict only unpinned entries).
  thread_local std::vector<extract::GeometryCache::Pinned> pins;
  geoms.resize(static_cast<std::size_t>(n));
  dres.resize(static_cast<std::size_t>(n));
  out.resize(static_cast<std::size_t>(n) * n_rules_);
  for (int i = 0; i < n; ++i) {
    pins.push_back(geometry_->pinned(ids[i]));
    geoms[i] = pins.back().get();
    dres[i] = nets_state_[ids[i]].summary.driver_res;
  }
  // Batches are same-shaped, so every net's block has one size.
  const std::size_t block = term_off_[ids[0] + 1] - term_off_[ids[0]];
  terms.resize(static_cast<std::size_t>(n) * block);
  evaluate_nets_exact_all_rules(geoms.data(), dres.data(), n, *tech_,
                                design_->constraints.clock_freq, arena,
                                out.data(), terms.data());
  // The batch kernel solves its moments at Miller 1.0, which is what every
  // production search times with. Any other Miller factor re-solves each
  // rule's moments with the scalar kernels, and the row's moment-derived
  // scalars follow them, so the row is one Miller factor throughout.
  if (analysis_.timing_miller != 1.0) {
    thread_local extract::NetParasitics par;
    thread_local extract::RcMoments mom;
    const std::size_t rule_block = block / n_rules_;
    for (int i = 0; i < n; ++i) {
      for (int r = 0; r < n_rules_; ++r) {
        double* m12 = terms.data() + i * block + r * rule_block;
        extract::materialize(*geoms[i], *tech_, tech_->rules[r], par);
        par.rc.moments(dres[i], analysis_.timing_miller, mom);
        for (std::size_t li = 0; li < par.load_rc_index.size(); ++li) {
          m12[2 * li] = mom.m1[par.load_rc_index[li]];
          m12[2 * li + 1] = mom.m2[par.load_rc_index[li]];
        }
        NetExact& e = out[static_cast<std::size_t>(i) * n_rules_ + r];
        scan_load_moments(m12, static_cast<int>(par.load_rc_index.size()), e);
        e.driver_load = mom.down[0];
      }
    }
  }
  pins.clear();
  if (geometry_->budgeted()) arena.shrink_to(geometry_->budget_bytes());
  for (int i = 0; i < n; ++i) {
    const int id = ids[i];
    for (int r = 0; r < n_rules_; ++r) {
      NetExact& e = exact_cache_[static_cast<std::size_t>(id) * n_rules_ + r];
      e = out[static_cast<std::size_t>(i) * n_rules_ + r];
      // The kernels evaluate EM at the root clock rate; the net's domain
      // scale is applied here, once, as the row is memoized — so every
      // consumer (greedy feasibility, annealer vetoes, repair) sees the
      // same scaled density analyze_em reports. Neutral scale == 1.0 keeps
      // the single-domain world bit-identical.
      e.em_peak *= net_em_scale_[id];
    }
    std::copy_n(terms.data() + i * block, block,
                load_terms_.data() + term_off_[id]);
    row_gen_[id] = ctx_gen_[id];
  }
}

}  // namespace sndr::ndr
