#include "ndr/net_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "power/em.hpp"
#include "timing/delay_metrics.hpp"

namespace sndr::ndr {

NetSummary summarize_net(const netlist::ClockTree& tree,
                         const netlist::Design& design,
                         const tech::Technology& tech,
                         const netlist::Net& net,
                         const netlist::RoutingFootprint& footprint,
                         const timing::AnalysisOptions& options) {
  NetSummary s;
  s.depth = net.depth;
  s.driver_res = timing::net_driver_res(tree, tech, net, options);
  s.load_count = static_cast<int>(net.loads.size());

  // Per-node path length from the driver, along the tree. Only the
  // driver's and this net's wire entries are written before they are read
  // (wires come root-first and loads are wires), so a per-thread buffer is
  // reused instead of zero-filling a tree-sized array for every net.
  thread_local std::vector<double> dist;
  if (dist.size() < static_cast<std::size_t>(tree.size())) {
    dist.resize(static_cast<std::size_t>(tree.size()));
  }
  dist[net.driver] = 0.0;
  const netlist::CongestionMap& map = design.congestion;
  for (std::size_t k = 0; k < net.wires.size(); ++k) {
    const int v = net.wires[k];
    const netlist::TreeNode& n = tree.node(v);
    const double len = tree.edge_length(v);
    dist[v] = dist[n.parent] + len;  // driver's dist is 0.
    s.wirelength += len;
    if (!map.valid()) continue;
    // Length-weighted mean occupancy over the wire's recorded walk (the
    // path's own length, then its occupancy-weighted length), scaled by
    // the edge length; a zero-length walk takes its start cell's value.
    double walked = 0.0;
    double weighted = 0.0;
    for (const netlist::CellStep& st :
         footprint.path_steps(net.id, static_cast<int>(k))) {
      walked += st.len;
      weighted += st.len * map.occupancy_cell(st.cell);
    }
    const double occ =
        walked > 0.0
            ? weighted / walked
            : map.occupancy_at(n.path.size() >= 2 ? n.path.front()
                                                  : tree.loc(n.parent));
    s.occ_length += occ * len;
  }
  for (const int load : net.loads) {
    s.max_path = std::max(s.max_path, dist[load]);
    s.load_cap += extract::load_pin_cap(tree, design, tech, load);
  }
  return s;
}

double net_cap_under_rule(const NetSummary& s, const tech::Technology& tech,
                          const tech::RoutingRule& rule) {
  const tech::MetalLayer& layer = tech.clock_layer;
  const double cgnd = tech::wire_cap_gnd_per_um(layer, rule) * s.wirelength;
  const double ccpl =
      2.0 * tech::wire_cap_couple_per_um(layer, rule) * s.occ_length;
  return cgnd + tech.miller_power * ccpl + s.load_cap;
}

double net_em_bound(const NetSummary& s, const tech::Technology& tech,
                    const tech::RoutingRule& rule, double freq) {
  const double width = tech.clock_layer.min_width * rule.width_mult;
  const double cap = net_cap_under_rule(s, tech, rule);
  return tech.em_crest_factor * freq * tech.vdd * cap / width;
}

void scan_load_moments(const double* m12, int n_loads, NetExact& out) {
  out.step_slew_worst = 0.0;
  out.wire_delay_worst = 0.0;
  double delay_sum = 0.0;
  for (int li = 0; li < n_loads; ++li) {
    const double m1 = m12[2 * li];
    const double m2 = m12[2 * li + 1];
    out.step_slew_worst =
        std::max(out.step_slew_worst, timing::step_slew(m1, m2));
    const double d = timing::delay_d2m(m1, m2);
    delay_sum += d;
    out.wire_delay_worst = std::max(out.wire_delay_worst, d);
  }
  out.wire_delay_mean =
      n_loads == 0 ? 0.0 : delay_sum / static_cast<double>(n_loads);
}

NetExact evaluate_net_exact(const extract::NetGeometry& geom,
                            const tech::Technology& tech,
                            const tech::RoutingRule& rule, double driver_res,
                            double freq, NetEvalScratch& scratch) {
  NetExact out;
  extract::materialize(geom, tech, rule, scratch.par);
  const extract::NetParasitics& par = scratch.par;
  out.cap_switched = par.switched_cap(tech.miller_power);

  scratch.down_power.resize(static_cast<std::size_t>(par.rc.size()));
  extract::rc_downstream(par.rc.data(), par.rc.size(), tech.miller_power,
                         scratch.down_power.data());
  out.em_peak = power::net_peak_current_density(
      par, scratch.down_power.data(), tech, rule, freq);

  out.wire_cap_gnd = par.wire_cap_gnd;
  out.wire_cap_cpl = par.wire_cap_cpl;
  out.load_cap = par.load_cap;

  par.rc.moments(driver_res, 1.0, scratch.moments);
  out.driver_load = scratch.moments.down[0];
  scratch.m12.resize(2 * par.load_rc_index.size());
  for (std::size_t li = 0; li < par.load_rc_index.size(); ++li) {
    scratch.m12[2 * li] = scratch.moments.m1[par.load_rc_index[li]];
    scratch.m12[2 * li + 1] = scratch.moments.m2[par.load_rc_index[li]];
  }
  scan_load_moments(scratch.m12.data(),
                    static_cast<int>(par.load_rc_index.size()), out);

  timing::net_variation(par, tech, rule, driver_res, scratch.variation,
                        scratch.detail);
  out.sigma_worst = scratch.detail.worst_sigma();
  out.xtalk_worst = scratch.detail.worst_xtalk();
  return out;
}

void evaluate_nets_exact_batch(const extract::NetLane* lanes, int n_lanes,
                               const double* driver_res, double freq,
                               common::Arena& arena, NetExact* out,
                               double* load_terms) {
  const int L = n_lanes;
  extract::BatchParasitics bp;
  extract::materialize_nets_batch(lanes, L, arena, bp);
  const int n = bp.nodes;
  const std::int64_t plane = static_cast<std::int64_t>(n) * L;
  // Load attach indices are part of the shared shape; counts/rows come from
  // lane 0, per-lane caps already landed in the planes.
  const extract::NetGeometry& shape = *lanes[0].geom;
  const int n_loads = static_cast<int>(shape.loads.size());
  const double* __restrict__ wire_len = bp.wire_len;

  // Per-lane technology constants, hoisted exactly as the scalar kernels
  // hoist them (same values, so same per-lane arithmetic).
  double* miller_one = arena.alloc<double>(L);
  double* miller_power = arena.alloc<double>(L);
  double* miller_delay = arena.alloc<double>(L);
  double* em_fv = arena.alloc<double>(L);     ///< freq * vdd.
  double* em_crest = arena.alloc<double>(L);
  double* width = arena.alloc<double>(L);
  double* w_factor = arena.alloc<double>(L);  ///< width / (width + d_w).
  double* w_coef = arena.alloc<double>(L);    ///< c_area * d_w.
  double* t_scale = arena.alloc<double>(L);   ///< 1 + d_t.
  double* activity = arena.alloc<double>(L);
  for (int l = 0; l < L; ++l) {
    const tech::Technology& tech = *lanes[l].tech;
    const tech::MetalLayer& layer = tech.clock_layer;
    miller_one[l] = 1.0;
    miller_power[l] = tech.miller_power;
    miller_delay[l] = tech.miller_delay;
    em_fv[l] = freq * tech.vdd;
    em_crest[l] = tech.em_crest_factor;
    width[l] = layer.min_width * lanes[l].rule->width_mult;
    w_factor[l] = width[l] / (width[l] + layer.sigma_width);
    w_coef[l] = layer.c_area * layer.sigma_width;
    t_scale[l] = 1.0 + layer.sigma_thickness;
    activity[l] = tech.aggressor_activity;

    out[l] = NetExact{};
    out[l].cap_switched = bp.wire_cap_gnd[l] + bp.load_cap[l] +
                          miller_power[l] * bp.wire_cap_cpl[l];
    out[l].wire_cap_gnd = bp.wire_cap_gnd[l];
    out[l].wire_cap_cpl = bp.wire_cap_cpl[l];
    out[l].load_cap = bp.load_cap[l];
  }

  // EM: downstream sweep at the power Miller factor, then the worst
  // piece-current scan in node order (the scalar net_peak_current_density
  // loop, lanes innermost). Wire lengths differ per lane, so its skip of
  // non-wire nodes is a per-(node, lane) test; each lane still performs
  // the scalar loop's operations on exactly its own wire nodes.
  double* __restrict__ down_power = arena.alloc<double>(plane);
  extract::rc_downstream_batch(n, L, bp.parent, bp.cap_gnd, bp.cap_cpl,
                               miller_power, down_power);
  for (int i = 0; i < n; ++i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * L;
    for (int l = 0; l < L; ++l) {
      if (wire_len[row + l] <= 0.0) continue;
      const double i_avg = em_fv[l] * down_power[row + l];
      const double i_rms = em_crest[l] * i_avg;
      out[l].em_peak = std::max(out[l].em_peak, i_rms / width[l]);
    }
  }

  // Fused moments at miller = 1.0, then the per-load slew/delay scan.
  double* __restrict__ down = arena.alloc<double>(plane);
  double* __restrict__ subtree = arena.alloc<double>(plane);
  double* __restrict__ m1 = arena.alloc<double>(plane);
  double* __restrict__ m2 = arena.alloc<double>(plane);
  extract::rc_moments_batch(n, L, bp.parent, bp.res, bp.cap_gnd, bp.cap_cpl,
                            driver_res, miller_one, down, subtree, m1, m2);
  for (int l = 0; l < L; ++l) out[l].driver_load = down[l];  // node 0.
  double* delay_sum = arena.alloc_zeroed<double>(L);
  for (int li = 0; li < n_loads; ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) {
      out[l].step_slew_worst = std::max(
          out[l].step_slew_worst, timing::step_slew(m1[row + l], m2[row + l]));
      const double d = timing::delay_d2m(m1[row + l], m2[row + l]);
      delay_sum[l] += d;
      out[l].wire_delay_worst = std::max(out[l].wire_delay_worst, d);
    }
  }
  for (int l = 0; l < L; ++l) {
    out[l].wire_delay_mean =
        n_loads == 0 ? 0.0 : delay_sum[l] / static_cast<double>(n_loads);
  }
  // Lane l's per-load block: (m1, m2) pairs, then sigmas, then crosstalk.
  const std::int64_t block = static_cast<std::int64_t>(kLoadTerms) * n_loads;
  if (load_terms != nullptr) {
    for (int li = 0; li < n_loads; ++li) {
      const std::int64_t row =
          static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
      for (int l = 0; l < L; ++l) {
        double* at = load_terms + l * block;
        at[2 * li] = m1[row + l];
        at[2 * li + 1] = m2[row + l];
      }
    }
  }

  // Variation: the nominal (base) Elmore at miller 1.0 is bitwise equal to
  // the m1 plane of the fused moment kernel (identical recurrence — see
  // rc_tree.hpp), so the three remaining solves reuse two perturbation
  // planes and one Elmore output pair.
  double* __restrict__ pert_res = arena.alloc<double>(plane);
  double* __restrict__ pert_cap = arena.alloc<double>(plane);
  double* __restrict__ pdown = arena.alloc<double>(plane);
  double* __restrict__ pm1 = arena.alloc<double>(plane);
  const double* __restrict__ b_res = bp.res;
  const double* __restrict__ b_cgnd = bp.cap_gnd;
  const double* __restrict__ b_ccpl = bp.cap_cpl;
  double* w_pert = arena.alloc<double>(static_cast<std::int64_t>(n_loads) * L);
  double* t_pert = arena.alloc<double>(static_cast<std::int64_t>(n_loads) * L);
  double* x_pert = arena.alloc<double>(static_cast<std::int64_t>(n_loads) * L);

  // Width +1 sigma: R scales W/(W+dW); area cap grows by c_area*dW per um.
  // Non-wire (node, lane) cells keep base values (a copy, no FP op — the
  // scalar path's `continue`).
  for (int i = 0; i < n; ++i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * L;
    for (int l = 0; l < L; ++l) {
      const double wl = wire_len[row + l];
      if (wl <= 0.0) {
        pert_res[row + l] = b_res[row + l];
        pert_cap[row + l] = b_cgnd[row + l];
      } else {
        pert_res[row + l] = b_res[row + l] * w_factor[l];
        pert_cap[row + l] = b_cgnd[row + l] + w_coef[l] * wl;
      }
    }
  }
  extract::rc_elmore_batch(n, L, bp.parent, pert_res, pert_cap, bp.cap_cpl,
                           driver_res, miller_one, pdown, pm1);
  for (int li = 0; li < n_loads; ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) w_pert[li * L + l] = pm1[row + l];
  }

  // Thickness +1 sigma: R scales 1/(1+dT) (kept as a per-node division,
  // like the scalar path); coupling scales (1+dT).
  for (int i = 0; i < n; ++i) {
    const std::int64_t row = static_cast<std::int64_t>(i) * L;
    for (int l = 0; l < L; ++l) {
      if (wire_len[row + l] <= 0.0) {
        pert_res[row + l] = b_res[row + l];
        pert_cap[row + l] = b_ccpl[row + l];
      } else {
        pert_res[row + l] = b_res[row + l] / t_scale[l];
        pert_cap[row + l] = b_ccpl[row + l] * t_scale[l];
      }
    }
  }
  extract::rc_elmore_batch(n, L, bp.parent, pert_res, bp.cap_gnd, pert_cap,
                           driver_res, miller_one, pdown, pm1);
  for (int li = 0; li < n_loads; ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) t_pert[li * L + l] = pm1[row + l];
  }

  // Crosstalk: nominal planes at the delay Miller factor.
  extract::rc_elmore_batch(n, L, bp.parent, bp.res, bp.cap_gnd, bp.cap_cpl,
                           driver_res, miller_delay, pdown, pm1);
  for (int li = 0; li < n_loads; ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) x_pert[li * L + l] = pm1[row + l];
  }

  for (int li = 0; li < n_loads; ++li) {
    const std::int64_t row =
        static_cast<std::int64_t>(shape.loads[li].rc_index) * L;
    for (int l = 0; l < L; ++l) {
      const double base = m1[row + l];
      const double dw = w_pert[li * L + l] - base;
      const double dt = t_pert[li * L + l] - base;
      const double sigma = std::sqrt(dw * dw + dt * dt);
      const double xtalk =
          activity[l] * std::max(0.0, x_pert[li * L + l] - base);
      out[l].sigma_worst = std::max(out[l].sigma_worst, sigma);
      out[l].xtalk_worst = std::max(out[l].xtalk_worst, xtalk);
      if (load_terms != nullptr) {
        double* at = load_terms + l * block;
        at[2 * n_loads + li] = sigma;
        at[3 * n_loads + li] = xtalk;
      }
    }
  }
}

void evaluate_nets_exact_all_rules(const extract::NetGeometry* const* geoms,
                                   const double* driver_res, int n_nets,
                                   const tech::Technology& tech, double freq,
                                   common::Arena& arena, NetExact* out,
                                   double* load_terms) {
  arena.reset();
  const int R = tech.rules.size();
  const int L = n_nets * R;
  extract::NetLane* lanes =
      arena.alloc<extract::NetLane>(static_cast<std::size_t>(L));
  double* dres = arena.alloc<double>(static_cast<std::size_t>(L));
  for (int i = 0; i < n_nets; ++i) {
    for (int r = 0; r < R; ++r) {
      lanes[i * R + r] = {geoms[i], &tech, &tech.rules[r]};
      dres[i * R + r] = driver_res[i];
    }
  }
  evaluate_nets_exact_batch(lanes, L, dres, freq, arena, out, load_terms);
  common::note_arena_highwater(arena);
}

NetExact evaluate_net_exact(const netlist::ClockTree& tree,
                            const netlist::Design& design,
                            const tech::Technology& tech,
                            const netlist::Net& net,
                            const tech::RoutingRule& rule, double driver_res,
                            double freq) {
  // Fresh evaluation = geometry walk + the shared scratch-based kernels, so
  // cached (GeometryCache) and fresh results agree bit for bit.
  const extract::NetGeometry geom =
      extract::build_net_geometry(tree, design, net);
  NetEvalScratch scratch;
  return evaluate_net_exact(geom, tech, rule, driver_res, freq, scratch);
}

}  // namespace sndr::ndr
