#include "cts/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "geom/segment.hpp"
#include "tech/wire_model.hpp"

namespace sndr::cts {

namespace {

struct EmbNode {
  geom::Point p;
  int sink = -1;
  int buffer_cell = -1;  ///< buffer inserted at p driving the subtree.
  int left = -1;
  int right = -1;
  geom::Path left_path;   ///< p -> left child's point.
  geom::Path right_path;  ///< p -> right child's point.
  double cap_up = 0.0;    ///< F, load presented to the wire above p.
  double t = 0.0;         ///< s, balanced delay from p down to every sink.
  int stages = 0;         ///< buffer stages between p and every sink.
  double unbuf_len = 0.0; ///< um, longest in-net wire run below p.
  // Set when buffer_cell >= 0, so the cell can be re-chosen for delay
  // matching at merge time:
  double pre_buf_t = 0.0;   ///< s, balanced delay before the root buffer.
  double buf_load = 0.0;    ///< F, load the root buffer drives.
};

/// Parallel-gate cost estimates (µs): embedding per sink, emission per
/// node.
constexpr double kEmbedUsPerSink = 1.25;
constexpr double kEmitUsPerNode = 0.3;

struct Embedder {
  const netlist::Design* design;
  const tech::Technology* tech;
  CtsOptions opt;
  double r = 0.0;  ///< ohm/um at the planning rule.
  double c = 0.0;  ///< F/um at the planning rule and occupancy.

  /// Nodes in creation order: every child precedes its parent.
  std::vector<EmbNode> emb;
  /// um, each merge's snaking increment in creation order; the result's
  /// elongation is their running sum, taken in this order.
  std::vector<double> elongation_steps;
  double residual_imbalance = 0.0;  ///< s, worst unabsorbed merge mismatch.
  /// Fork-level subtrees (Topology::fork_roots order) already embedded by
  /// their own embedders; build() splices each in where it reaches it.
  std::vector<Embedder> parts;
  std::size_t next_part = 0;

  /// Elmore delay of a wire of length `len` driving a subtree with load
  /// `cap` and internal balanced delay `t`.
  double wire_delay(double len, double cap, double t) const {
    return t + r * len * (cap + 0.5 * c * len);
  }

  /// Length of wire needed so that a subtree (cap, t) matches target delay
  /// `t_target` >= t. Solves r*L*(cap + c*L/2) = t_target - t.
  double elongated_length(double cap, double t, double t_target) const {
    const double need = t_target - t;
    if (need <= 0.0) return 0.0;
    const double a = 0.5 * r * c;
    const double b = r * cap;
    return (-b + std::sqrt(b * b + 4.0 * a * need)) / (2.0 * a);
  }

  double sizing_slew() const { return opt.sizing_derate * opt.target_slew; }

  void add_buffer(EmbNode& n, double load_cap) {
    const int cell = tech->buffers.best_for_load(load_cap, sizing_slew());
    const tech::BufferCell& buf = tech->buffers[cell];
    n.buffer_cell = cell;
    n.pre_buf_t = n.t;
    n.buf_load = load_cap;
    n.t += buf.delay(load_cap, opt.nominal_slew);
    n.cap_up = buf.input_cap;
    n.stages += 1;
    n.unbuf_len = 0.0;
  }

  /// If both subtree roots carry buffers, re-pick the two cells jointly to
  /// minimize the sibling delay mismatch (subject to the slew/load limits).
  /// Matching delays with sizing is far cheaper than matching them with
  /// snaked wire, which is the only other lever the merge has.
  void match_sibling_buffers(int li, int ri) {
    EmbNode& a = emb[li];
    EmbNode& b = emb[ri];
    if (a.buffer_cell < 0 && b.buffer_cell < 0) return;
    if (a.buffer_cell < 0 || b.buffer_cell < 0) {
      // One side buffered: re-size that buffer alone to chase the other
      // side's delay (slew and load limits still apply).
      EmbNode& buffered = a.buffer_cell >= 0 ? a : b;
      const double target = a.buffer_cell >= 0 ? b.t : a.t;
      const tech::BufferLibrary& lib = tech->buffers;
      int best = buffered.buffer_cell;
      double best_gap = std::abs(buffered.t - target);
      for (int cc = 0; cc < lib.size(); ++cc) {
        if (buffered.buf_load > lib[cc].max_cap ||
            lib[cc].output_slew(buffered.buf_load) > sizing_slew()) {
          continue;
        }
        const double t = buffered.pre_buf_t +
                         lib[cc].delay(buffered.buf_load, opt.nominal_slew);
        if (std::abs(t - target) + 1e-18 < best_gap) {
          best_gap = std::abs(t - target);
          best = cc;
        }
      }
      if (best != buffered.buffer_cell) {
        buffered.buffer_cell = best;
        buffered.t = buffered.pre_buf_t +
                     lib[best].delay(buffered.buf_load, opt.nominal_slew);
        buffered.cap_up = lib[best].input_cap;
      }
      return;
    }
    const tech::BufferLibrary& lib = tech->buffers;
    int best_a = a.buffer_cell;
    int best_b = b.buffer_cell;
    double best_gap = std::abs(a.t - b.t);
    for (int ca = 0; ca < lib.size(); ++ca) {
      if (a.buf_load > lib[ca].max_cap ||
          lib[ca].output_slew(a.buf_load) > sizing_slew()) {
        continue;
      }
      const double ta = a.pre_buf_t + lib[ca].delay(a.buf_load,
                                                    opt.nominal_slew);
      for (int cb = 0; cb < lib.size(); ++cb) {
        if (b.buf_load > lib[cb].max_cap ||
            lib[cb].output_slew(b.buf_load) > sizing_slew()) {
          continue;
        }
        const double tb = b.pre_buf_t + lib[cb].delay(b.buf_load,
                                                      opt.nominal_slew);
        const double gap = std::abs(ta - tb);
        if (gap + 1e-18 < best_gap) {
          best_gap = gap;
          best_a = ca;
          best_b = cb;
        }
      }
    }
    if (best_a != a.buffer_cell) {
      a.buffer_cell = best_a;
      a.t = a.pre_buf_t + lib[best_a].delay(a.buf_load, opt.nominal_slew);
      a.cap_up = lib[best_a].input_cap;
    }
    if (best_b != b.buffer_cell) {
      b.buffer_cell = best_b;
      b.t = b.pre_buf_t + lib[best_b].delay(b.buf_load, opt.nominal_slew);
      b.cap_up = lib[best_b].input_cap;
    }
  }

  /// Adds one buffer stage at the root point of subtree emb[idx]; sinks and
  /// already-buffered roots get a zero-length wrapper node so a node never
  /// carries two roles. Returns the (possibly new) subtree root index.
  int push_buffer(int idx) {
    if (emb[idx].buffer_cell < 0 && emb[idx].sink < 0) {
      add_buffer(emb[idx], emb[idx].cap_up);
      return idx;
    }
    EmbNode wrap;
    wrap.p = emb[idx].p;
    wrap.left = idx;
    wrap.left_path = {wrap.p, wrap.p};
    wrap.cap_up = emb[idx].cap_up;
    wrap.t = emb[idx].t;
    wrap.stages = emb[idx].stages;
    add_buffer(wrap, wrap.cap_up);
    emb.push_back(std::move(wrap));
    return static_cast<int>(emb.size()) - 1;
  }

  /// Ensures the subtree rooted at emb[idx] carries at least `stages`
  /// buffer stages by stacking buffers at its root point. Keeping sibling
  /// stage counts equal is what keeps skew balanced without resorting to
  /// kilometer-scale snaking.
  int align_stages(int idx, int stages) {
    while (emb[idx].stages < stages) idx = push_buffer(idx);
    return idx;
  }

  /// Extends the subtree emb[idx] with a wire of length `hop` from its root
  /// point toward `target` (rectilinear), terminated by a repeater sized for
  /// the load. Returns the new subtree root (at the hop's far end).
  int advance_toward(int idx, geom::Point target, double hop, int depth) {
    // The hop wire joins the net below the new repeater; make sure the
    // combined run stays within the length budget.
    if (emb[idx].unbuf_len + hop > opt.max_unbuffered_len) {
      idx = push_buffer(idx);
    }
    const geom::Point from = emb[idx].p;
    const geom::Path full = geom::l_path(from, target, depth % 2 == 0);
    auto [head, tail] = geom::split_at(full, hop);
    EmbNode n;
    n.p = head.back();
    n.left = idx;
    n.left_path = geom::reversed(head);
    const double load = emb[idx].cap_up + c * hop;
    n.t = wire_delay(hop, emb[idx].cap_up, emb[idx].t);
    n.stages = emb[idx].stages;
    add_buffer(n, load);
    emb.push_back(std::move(n));
    return static_cast<int>(emb.size()) - 1;
  }

  /// Appends a finished part's nodes as the one recursion would have
  /// created them here: child indices offset by the nodes already built,
  /// its snaking increments replayed after ours. Moves the nodes and frees
  /// the part. Returns the part's root (its last node, as build() always
  /// creates a subtree's root last).
  int splice(Embedder& part) {
    const int offset = static_cast<int>(emb.size());
    for (EmbNode& n : part.emb) {
      if (n.left >= 0) n.left += offset;
      if (n.right >= 0) n.right += offset;
      emb.push_back(std::move(n));
    }
    elongation_steps.insert(elongation_steps.end(),
                            part.elongation_steps.begin(),
                            part.elongation_steps.end());
    residual_imbalance =
        std::max(residual_imbalance, part.residual_imbalance);
    part = Embedder{};
    return static_cast<int>(emb.size()) - 1;
  }

  int build(const Topology& topo, int topo_id, int depth) {
    const TopoNode& tn = topo[topo_id];
    if (tn.is_leaf()) {
      EmbNode n;
      n.p = design->sinks[tn.sink].loc;
      n.sink = tn.sink;
      n.cap_up = design->sinks[tn.sink].pin_cap;
      n.t = 0.0;
      emb.push_back(std::move(n));
      return static_cast<int>(emb.size()) - 1;
    }
    if (depth == kForkDepth && !parts.empty()) {
      return splice(parts[next_part++]);
    }

    int li = build(topo, tn.left, depth + 1);
    int ri = build(topo, tn.right, depth + 1);

    // Long merge spans: repeat the faster side toward the other with
    // buffered hops of at most max_unbuffered_len, so no net ends up with a
    // trunk run whose wire resistance destroys slew. Advancing the side
    // with the smaller accumulated delay doubles as delay equalization.
    while (geom::manhattan(emb[li].p, emb[ri].p) >
           opt.max_unbuffered_len) {
      const double d = geom::manhattan(emb[li].p, emb[ri].p);
      const double hop = std::min(opt.max_unbuffered_len,
                                  d - 0.5 * opt.max_unbuffered_len);
      if (emb[li].t <= emb[ri].t) {
        li = advance_toward(li, emb[ri].p, hop, depth);
      } else {
        ri = advance_toward(ri, emb[li].p, hop, depth);
      }
    }

    // If merging the raw children would clearly bust the cap budget, buffer
    // both children first (two just-under-budget subtrees would otherwise
    // merge into a ~2x-budget net whose driver cannot hold slew). The
    // at-merge backstop below handles mild overshoot.
    const double d_est = geom::manhattan(emb[li].p, emb[ri].p);
    if (emb[li].cap_up + emb[ri].cap_up + c * d_est >
        1.4 * opt.max_unbuffered_cap) {
      li = push_buffer(li);
      ri = push_buffer(ri);
    }
    // Likewise for accumulated unbuffered wire runs: if a child's in-net
    // run plus this merge's span would exceed the length budget, isolate
    // the child behind a buffer now.
    if (emb[li].unbuf_len + d_est > opt.max_unbuffered_len) {
      li = push_buffer(li);
    }
    if (emb[ri].unbuf_len + d_est > opt.max_unbuffered_len) {
      ri = push_buffer(ri);
    }
    // Equalize buffer stage counts before balancing the wire, so the wire
    // only has to absorb wire/cap asymmetry (ps), not buffer delays (tens
    // of ps).
    const int stages = std::max(emb[li].stages, emb[ri].stages);
    li = align_stages(li, stages);
    ri = align_stages(ri, stages);
    match_sibling_buffers(li, ri);
    // Copy child POD state (emb may reallocate when we push the merge node).
    const geom::Point pa = emb[li].p;
    const geom::Point pb = emb[ri].p;
    const double ca = emb[li].cap_up;
    const double cb = emb[ri].cap_up;
    const double ta = emb[li].t;
    const double tb = emb[ri].t;

    const bool horizontal_first = depth % 2 == 0;
    const geom::Path base = geom::l_path(pa, pb, horizontal_first);
    const double d = geom::path_length(base);

    EmbNode n;
    n.left = li;
    n.right = ri;
    n.stages = stages;

    const double g0 = ta - wire_delay(d, cb, tb);   // merge at pa.
    const double gd = wire_delay(d, ca, ta) - tb;   // merge at pb.
    double len_a = 0.0;
    double len_b = 0.0;
    if (g0 >= 0.0) {
      // Left side slower even with the whole span on the right: snake right,
      // but never past the unbuffered-length budget - a small residual
      // imbalance beats an unbuffered run that cannot hold slew.
      n.p = pa;
      len_a = 0.0;
      const double allowed =
          std::max(d, opt.max_unbuffered_len - emb[ri].unbuf_len);
      len_b = std::min(std::max(d, elongated_length(cb, tb, ta)), allowed);
      n.left_path = {pa, pa};
      n.right_path = geom::detour_path(n.p, pb, len_b, horizontal_first);
      elongation_steps.push_back(len_b - d);
      n.t = ta;
      residual_imbalance =
          std::max(residual_imbalance, ta - wire_delay(len_b, cb, tb));
    } else if (gd <= 0.0) {
      n.p = pb;
      len_b = 0.0;
      const double allowed =
          std::max(d, opt.max_unbuffered_len - emb[li].unbuf_len);
      len_a = std::min(std::max(d, elongated_length(ca, ta, tb)), allowed);
      n.right_path = {pb, pb};
      n.left_path = geom::detour_path(n.p, pa, len_a, !horizontal_first);
      elongation_steps.push_back(len_a - d);
      n.t = tb;
      residual_imbalance =
          std::max(residual_imbalance, tb - wire_delay(len_a, ca, ta));
    } else {
      // Balanced tapping point exists on the span: bisect the monotone
      // difference g(x) = delay_left(x) - delay_right(d - x).
      double lo = 0.0;
      double hi = d;
      for (int it = 0; it < 100 && hi - lo > 1e-9 * std::max(1.0, d); ++it) {
        const double mid = 0.5 * (lo + hi);
        const double g =
            wire_delay(mid, ca, ta) - wire_delay(d - mid, cb, tb);
        (g >= 0.0 ? hi : lo) = mid;
      }
      const double x = 0.5 * (lo + hi);
      len_a = x;
      len_b = d - x;
      auto [head, tail] = geom::split_at(base, x);
      n.p = head.back();
      n.left_path = geom::reversed(head);
      n.right_path = tail;
      n.t = wire_delay(len_a, ca, ta);
    }

    n.unbuf_len = std::max(len_a + emb[li].unbuf_len,
                           len_b + emb[ri].unbuf_len);
    const double merged_cap = ca + cb + c * (len_a + len_b);
    if (merged_cap > opt.max_unbuffered_cap ||
        n.unbuf_len > opt.max_unbuffered_len) {
      add_buffer(n, merged_cap);
    } else {
      n.cap_up = merged_cap;
    }
    emb.push_back(std::move(n));
    return static_cast<int>(emb.size()) - 1;
  }

  /// One emission job: emb node `v` becomes tree node `id` under tree
  /// node `parent`, routed along `edge` (its parent's path to it).
  struct EmitTask {
    int v;
    int parent;
    int id;
    geom::Path* edge;
  };

  /// Writes the subtree of `t` into `out` at DFS-preorder ids: a node's
  /// left subtree starts right after it, its right subtree right after
  /// that, so `size` (emb nodes per subtree) fixes every id up front.
  /// Routed paths move out of emb. With `deferred`, subtrees of at most
  /// `cutoff` nodes are queued there instead of written.
  void emit(std::span<netlist::TreeNode> out, const std::vector<int>& size,
            const EmitTask& t, int cutoff, std::vector<EmitTask>* deferred) {
    if (deferred != nullptr && size[t.v] <= cutoff) {
      deferred->push_back(t);
      return;
    }
    EmbNode& n = emb[t.v];
    netlist::TreeNode& node = out[t.id];
    node.loc = n.p;
    node.parent = t.parent;
    if (n.sink >= 0) {
      node.kind = netlist::NodeKind::kSink;
      node.sink = n.sink;
    } else if (n.buffer_cell >= 0) {
      node.kind = netlist::NodeKind::kBuffer;
      node.cell = n.buffer_cell;
    } else {
      node.kind = netlist::NodeKind::kSteiner;
    }
    if (t.edge->size() >= 2) {
      node.path = std::move(*t.edge);
    } else {
      node.path = {out[t.parent].loc, n.p};
    }
    const int left_id = t.id + 1;
    const int right_id = n.left >= 0 ? left_id + size[n.left] : left_id;
    if (n.left >= 0 && n.right >= 0) {
      node.children = {left_id, right_id};
    } else if (n.left >= 0 || n.right >= 0) {
      node.children = {left_id};
    }
    if (n.left >= 0) {
      emit(out, size, {n.left, t.id, left_id, &n.left_path}, cutoff,
           deferred);
    }
    if (n.right >= 0) {
      emit(out, size, {n.right, t.id, right_id, &n.right_path}, cutoff,
           deferred);
    }
  }

  /// Emits the subtree of emb[top] under a source at `source`, reached
  /// along `root_path`: the top levels serially, then the remaining
  /// subtrees (each at most 1/2^kForkDepth of the nodes) concurrently
  /// into the pre-sized node storage.
  void emit_tree(netlist::ClockTree& tree, geom::Point source, int top,
                 geom::Path& root_path) {
    std::vector<int> size(emb.size(), 1);
    for (std::size_t i = 0; i < emb.size(); ++i) {
      if (emb[i].left >= 0) size[i] += size[emb[i].left];
      if (emb[i].right >= 0) size[i] += size[emb[i].right];
    }
    const std::span<netlist::TreeNode> out =
        tree.build_nodes(1 + size[top], source);
    out[0].children = {1};
    std::vector<EmitTask> tasks;
    emit(out, size, {top, 0, 1, &root_path}, size[top] >> kForkDepth,
         &tasks);
    const double us_per_task =
        tasks.empty() ? 0.0
                      : kEmitUsPerNode * size[top] /
                            static_cast<double>(tasks.size());
    common::parallel_for(
        static_cast<std::int64_t>(tasks.size()), 1, us_per_task,
        [&](std::int64_t i) {
          emit(out, size, tasks[static_cast<std::size_t>(i)], 0, nullptr);
        });
  }
};

}  // namespace

CtsResult synthesize(const netlist::Design& design,
                     const tech::Technology& tech, const CtsOptions& options) {
  if (design.sinks.empty()) {
    throw std::invalid_argument("cts::synthesize: design has no sinks");
  }

  Embedder e;
  e.design = &design;
  e.tech = &tech;
  e.opt = options;
  const int rule_idx = options.planning_rule >= 0
                           ? options.planning_rule
                           : tech.rules.blanket_index();
  const tech::WireRc rc = tech::wire_rc_per_um(
      tech.clock_layer, tech.rules[rule_idx], options.planning_occupancy);
  e.r = rc.res_per_um;
  e.c = rc.cap_gnd_per_um + rc.cap_cpl_per_um;

  const Topology topo =
      options.topology == TopologyMode::kHybridHtree
          ? build_topology_hybrid(design.sinks, design.core,
                                  options.htree_levels)
          : build_topology_mmm(design.sinks);
  // Fork-level subtrees first, each by its own copy of the (still empty)
  // embedder; the top-level recursion then splices them in as it reaches
  // them, in the order it would have built them itself.
  const std::vector<int> roots = topo.fork_roots();
  std::vector<Embedder> parts(roots.size(), e);
  const double us_per_part =
      roots.empty() ? 0.0
                    : kEmbedUsPerSink *
                          static_cast<double>(design.sinks.size()) /
                          static_cast<double>(roots.size());
  common::parallel_for(static_cast<std::int64_t>(roots.size()), 1,
                       us_per_part, [&](std::int64_t i) {
                         const auto k = static_cast<std::size_t>(i);
                         parts[k].build(topo, roots[k], kForkDepth);
                       });
  std::size_t part_nodes = 0;
  for (const Embedder& part : parts) part_nodes += part.emb.size();
  // Room for the top levels' merges, buffers and repeaters as well.
  e.emb.reserve(part_nodes + 1024);
  e.parts = std::move(parts);
  const int top = e.build(topo, topo.root, 0);

  // A lightly loaded top merge still needs a driver between the source and
  // the tree; give it one unless the caller opted out.
  int top_final = top;
  if (options.buffer_root && e.emb[top].buffer_cell < 0 &&
      e.emb[top].sink < 0) {
    top_final = e.align_stages(top, e.emb[top].stages + 1);
  }
  // A long run from the clock entry point to the tree top gets repeaters
  // like any other trunk route.
  while (geom::manhattan(design.clock_root, e.emb[top_final].p) >
         options.max_unbuffered_len) {
    const double d = geom::manhattan(design.clock_root, e.emb[top_final].p);
    const double hop = std::min(options.max_unbuffered_len,
                                d - 0.5 * options.max_unbuffered_len);
    top_final = e.advance_toward(top_final, design.clock_root, hop, 0);
  }

  CtsResult result;
  geom::Path root_path =
      geom::l_path(design.clock_root, e.emb[top_final].p, true);
  result.planned_latency =
      e.wire_delay(geom::path_length(root_path), e.emb[top_final].cap_up,
                   e.emb[top_final].t);
  e.emit_tree(result.tree, design.clock_root, top_final, root_path);
  result.tree.validate(static_cast<int>(design.sinks.size()));
  for (const netlist::TreeNode& n : result.tree.nodes()) {
    if (n.kind == netlist::NodeKind::kBuffer) ++result.buffers;
    if (n.children.size() == 2) ++result.merges;
  }

  result.wirelength = result.tree.total_wirelength();
  for (const double step : e.elongation_steps) result.elongation += step;
  result.residual_imbalance = e.residual_imbalance;
  return result;
}

}  // namespace sndr::cts
