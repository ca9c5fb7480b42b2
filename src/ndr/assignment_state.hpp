// Incremental bookkeeping for rule-assignment search.
//
// Both the greedy optimizer and the annealer explore (net, rule) moves and
// need the same machinery: per-net summaries and current metrics, per-sink
// latency / variance / crosstalk accumulators, routing-usage tracking, and
// latency windows. Routing usage reads the geometry cache's footprint (the
// grid walk of every wire, recorded once), so neither a capacity check nor
// a move walks a path. This class owns that state and offers move checking /
// application with exactly the approximations documented in optimizer.hpp.
// Callers seed it with rebuild() from a full evaluation (at search start and
// after a repair); apply_move() keeps it bitwise equal to a fresh rebuild.
//
// One state serves a whole flow: the flow builds it once and lends it to
// the greedy search and then to the annealer (SearchContext::state), which
// reseeds it with rebuild(). Its exact-eval memo rows outlive both
// searches' moves, and they carry every per-net term a whole-tree signoff
// reads — cap totals, driver load, per-load moments, sigmas and crosstalk
// — so a search signs off an assignment with evaluate(state, assignment)
// (evaluation.hpp) instead of re-extracting it.
//
// Two summation definitions make that equality hold by construction
// rather than by replaying a whole-design loop:
//  * the latency, cap and energy totals are common::PairwiseSum trees
//    (fixed shape, zero-padded), whose total depends only on the leaf
//    values, never on the order they were updated in;
//  * a sink's variance / crosstalk is a root-first per-net prefix,
//    path[net] = path[parent net] + term(net), read at the sink's leaf net.
// A move therefore costs O(sinks under the net + descendant nets + log n).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/pairwise_sum.hpp"
#include "ndr/evaluation.hpp"
#include "ndr/net_eval.hpp"
#include "ndr/predictor.hpp"
#include "ndr/search_context.hpp"
#include "obs/metrics.hpp"
#include "timing/delta_timing.hpp"

namespace sndr::ndr {

/// Portable snapshot of the exact-eval memo for cross-search transplant
/// (the DSE sweep hands one search's warm rows to the next point). A row
/// is importable only where the net's evaluation context is bitwise
/// unchanged — `driver_res` records the context each row was computed
/// under, and import_memo() re-checks it against the receiving state, so
/// an adopted row always equals what a cold eval would produce. A row is
/// the net's NetExact per rule plus its per-load terms (see
/// AssignmentState::load_moments), whose moments were solved at
/// `timing_miller`.
struct MemoSnapshot {
  int n_rules = 0;
  double timing_miller = 1.0;      ///< Miller factor of the moments.
  std::vector<double> driver_res;  ///< per-net context the rows assume.
  std::vector<char> row_warm;      ///< per-net: the row is valid.
  std::vector<NetExact> rows;      ///< [net][rule] flat.
  /// Net n's [rule] per-load blocks (kLoadTerms doubles per load) are
  /// load_terms[term_off[n], term_off[n + 1]).
  std::vector<std::size_t> term_off;
  std::vector<double> load_terms;

  bool empty() const { return rows.empty(); }

  /// Overwrites net `id`'s row (scalars, load terms and context) with the one
  /// in `from`, a snapshot of the same search shape, and marks it warm.
  void copy_row(const MemoSnapshot& from, int id);
};

class AssignmentState {
 public:
  /// `shared_geometry`, when non-null, borrows an externally owned cache
  /// (value-neutral; see SearchContext::geometry); null builds an unbounded
  /// one here. Every construction counts one ndr.search_states.
  AssignmentState(const netlist::ClockTree& tree,
                  const netlist::Design& design,
                  const tech::Technology& tech, const netlist::NetList& nets,
                  const timing::AnalysisOptions& analysis,
                  const extract::GeometryCache* shared_geometry = nullptr);

  /// Reseeds every incremental accumulator from a full evaluation of
  /// `assignment` (which becomes the current assignment), made under this
  /// state's analysis options. Reads only the evaluation's reports, and
  /// recomputes routing usage from the footprint, so whatever the state
  /// held before (another search's moves included) is gone. Memo rows
  /// survive unless their net's context changed.
  void rebuild(const RuleAssignment& assignment, const FlowEvaluation& ev);

  const RuleAssignment& assignment() const { return assignment_; }
  int rule_of(int net_id) const { return assignment_.at(net_id); }

  /// Rule-independent summary of a net.
  const NetSummary& summary(int net_id) const {
    return nets_state_[net_id].summary;
  }
  /// Current switched cap of a net under its assigned rule (raw).
  double net_cap(int net_id) const { return nets_state_[net_id].cap; }
  /// Total raw switched capacitance (pairwise sum over nets).
  double total_cap() const { return total_cap_.total(); }

  /// Clock-domain toggle weight of a net (1.0 in the single-domain world).
  double net_weight(int net_id) const { return net_weight_[net_id]; }
  /// Activity-weighted switched cap of a net — the optimization energy
  /// term. Bitwise equal to net_cap() when domains are disabled.
  double net_energy(int net_id) const {
    return net_weight_[net_id] * nets_state_[net_id].cap;
  }
  /// Total activity-weighted switched capacitance (the search energy);
  /// bitwise equal to total_cap() when domains are disabled.
  double total_energy() const { return total_energy_.total(); }

  /// Transition at the loads of `net_id` if its wire step slew were `step`.
  double slew_at_loads(int net_id, double step_slew) const;

  /// Checks a candidate move against every constraint using predicted or
  /// exact per-net metrics in `impact`. The skew window is tested per sink
  /// under the net; the uncertainty bound, which reads only a sink's leaf
  /// net path prefixes, once per sink-driving net of the subtree.
  bool check_move(int net_id, int rule_idx, const NetImpact& impact,
                  const MoveMargins& margins) const;

  /// Applies a validated move of `net_id` to rule `rule_idx`.
  ///
  /// Exact and incremental, and it reads only the memo: the net's NetExact
  /// row gives its new cap / sigma / crosstalk, and its stored per-load
  /// moments feed the delta timer, which replays the net's subtree slice
  /// (O(loads + subtree)). Nothing is re-extracted and no moment is solved
  /// here; a cold row is filled first and counted as one miss, as in
  /// exact_eval(). The accumulators follow with the same definitions
  /// rebuild() uses: the variance / crosstalk path prefixes are recomputed
  /// over the descendant nets the replay visited, the latency sum tree
  /// over the net's contiguous run of sinks, and the cap / energy sum trees
  /// at one leaf. No loop covers all sinks or all nets — a move costs
  /// O(sinks under the net + descendant nets + log n) — and the state
  /// stays BITWISE identical to a fresh
  /// rebuild() of the same assignment (pinned by the state-vs-rebuild
  /// comparer in tests/state_compare.hpp). Routing usage keeps its own
  /// += bookkeeping and may drift by FP rounding; the tests pin that
  /// check_move() answers agree with a fresh rebuild regardless. Usage
  /// moves by `d_pitch * len` over the net's recorded footprint steps
  /// (GeometryCache::footprint()); no path is walked.
  void apply_move(int net_id, int rule_idx);

  /// Exact per-net evaluation of a candidate rule (driver model included).
  ///
  /// Results are memoized per (net, rule) under a per-net context stamp
  /// keyed on what actually feeds evaluate_net_exact. The candidate rule is
  /// part of the key, so the only mutable input is the net's electrical
  /// context (today: its driver resistance). rebuild() is the invalidation
  /// point: it advances a net's stamp (dropping its cached row) iff that
  /// input changed; a move changes no exact-eval input, so the cache
  /// survives it. Entries are scalars (a few doubles, no RC tree). A miss
  /// warms the WHOLE rule row: the batched kernels
  /// (evaluate_nets_exact_all_rules, one net) score every rule in one pass
  /// over the shared GeometryCache — no geometry walk, no congestion
  /// query, no allocation past a warm per-thread arena — and store every
  /// rule's per-load terms next to it (load_moments(), load_sigma(),
  /// load_xtalk()). One miss is counted per row fill, so hit rates read
  /// as "rows already warm".
  ///
  /// Returns a reference to the memo slot. It stays valid (and holds this
  /// value) until the next rebuild(), import_memo() or row fill
  /// (exact_eval miss, warm_rows); copy it to keep it past those.
  const NetExact& exact_eval(int net_id, int rule_idx) const;

  /// Per-load moments of `net_id` under `rule_idx`, from the memo row: m1
  /// then m2 per load in Net::loads order, at the net's driver resistance
  /// and this state's timing_miller — bitwise RcTree::moments over
  /// extract::materialize of the net under the rule. At Miller 1.0 (every
  /// production search) the row fill's batched kernel writes them; any
  /// other Miller factor solves them per rule with the scalar kernels, and
  /// the row's step_slew_worst, wire_delay_* and driver_load follow those
  /// moments, so check_move and the delta timer agree on one Miller
  /// factor. A cold row is filled and counted as one miss; a warm read
  /// counts nothing. Valid as long as an exact_eval() reference would be.
  std::span<const double> load_moments(int net_id, int rule_idx) const;

  /// Per-load process sigma / crosstalk delta of `net_id` under `rule_idx`
  /// (Net::loads order), from the memo row: bitwise timing::net_variation's
  /// load_sigma / load_xtalk. Filled and counted like load_moments().
  std::span<const double> load_sigma(int net_id, int rule_idx) const;
  std::span<const double> load_xtalk(int net_id, int rule_idx) const;

  /// The memo row of (`net_id`, `rule_idx`) for a signoff read: filled
  /// (one miss) if cold, but a warm read counts no hit — a memo-fed
  /// evaluate() reads every net and would otherwise drown the search's
  /// own hit rate. Valid as long as an exact_eval() reference would be.
  const NetExact& signoff_row(int net_id, int rule_idx) const;

  /// Prefetches the exact-eval memo rows of `net_ids` (cold rows only)
  /// using CROSS-NET batches: nets are grouped by geometry shape
  /// (GeometryCache::shape_buckets) and same-shaped nets ride one
  /// lane-interleaved kernel call, so single-rule consumers (greedy sweeps,
  /// pending annealer proposals) fill the SIMD lanes a per-net rule sweep
  /// leaves empty. Batch composition is deterministic and independent of
  /// the thread count; workers fill disjoint memo rows with values bitwise
  /// equal to the lazy exact_eval path, so warming never changes any
  /// downstream result — only when the work happens. One miss is counted
  /// per row filled, as in exact_eval.
  void warm_rows(const std::vector<int>& net_ids) const;

  /// warm_rows over every net (the annealer's prewarm, and the first step
  /// of a memo-fed evaluate()).
  void warm_all_rows() const;

  /// Rule-independent net geometry shared by every evaluation this state
  /// drives (exact_eval misses, full evaluate() calls, corner signoff).
  /// Built once in the constructor (or borrowed; see the ctor); the tree
  /// and congestion map are fixed for the lifetime of a search, so it is
  /// never invalidated here.
  const extract::GeometryCache& geometry_cache() const { return *geometry_; }

  /// Copies every warm memo row (scalars, per-load terms and the per-net
  /// context) into `out`, replacing its contents. Rows whose context stamp
  /// moved since they were filled are skipped.
  void export_memo(MemoSnapshot& out) const;

  /// Adopts rows from a snapshot taken by a search over the same
  /// (tree, nets, tech) shape and timing Miller factor: a row lands only if
  /// the snapshot's recorded driver resistance is bitwise equal to this
  /// state's current one and the row here is still cold. Returns the
  /// number of rows adopted.
  /// Value-neutral by the exact_eval memo contract.
  int import_memo(const MemoSnapshot& in);

  /// exact_eval cache counters since construction.
  std::int64_t exact_cache_hits() const { return cache_hits_; }
  std::int64_t exact_cache_misses() const { return cache_misses_; }
  double exact_cache_hit_rate() const {
    return obs::safe_ratio(cache_hits_, cache_hits_ + cache_misses_);
  }

  /// Pushes the delta of hit/miss counts since the last flush into the
  /// global registry (ndr.exact_cache.{hits,misses}). exact_eval itself
  /// stays registry-free — it is the hottest path in the search — so the
  /// counts reach the registry in batches: rebuild(), the destructor, and
  /// flow ends all flush. Idempotent between new evals.
  void flush_metrics() const;

  ~AssignmentState() { flush_metrics(); }

  const netlist::ClockTree& tree() const { return *tree_; }
  const netlist::Design& design() const { return *design_; }
  const tech::Technology& tech() const { return *tech_; }
  const netlist::NetList& nets() const { return *nets_; }
  const timing::AnalysisOptions& analysis() const { return analysis_; }

  /// Design sinks downstream of a net, in depth-first tree order (every
  /// net's sinks are one contiguous run of that order).
  std::span<const int> sinks_under(int net_id) const {
    return std::span<const int>(sink_order_).subspan(
        sink_lo_[net_id], sink_hi_[net_id] - sink_lo_[net_id]);
  }
  /// Nets on a sink's source path, leaf net first.
  std::vector<int> nets_on_path(int sink) const;

  // Accumulator accessors (tests pin these against a fresh rebuild()).
  double sink_latency(int sink) const { return delta_.sink_arrival()[sink]; }
  /// Sum of net_sigma² over the sink's path nets, root first.
  double sink_var(int sink) const {
    return leaf_net_[sink] < 0 ? 0.0 : path_var_[leaf_net_[sink]];
  }
  /// Sum of net_xtalk_of over the sink's path nets, root first.
  double sink_xtalk(int sink) const {
    return leaf_net_[sink] < 0 ? 0.0 : path_xtalk_[leaf_net_[sink]];
  }
  double latency_sum() const { return latency_sum_.total(); }
  /// Per-cell routing usage under the current assignment.
  const netlist::RoutingUsage& usage() const { return usage_; }
  double net_sigma(int net_id) const { return nets_state_[net_id].sigma; }
  double net_xtalk_of(int net_id) const { return nets_state_[net_id].xtalk; }
  double net_wire_delay(int net_id) const {
    return nets_state_[net_id].wire_delay;
  }

 private:
  struct NetState {
    NetSummary summary;
    double cap = 0.0;
    double sigma = 0.0;
    double xtalk = 0.0;
    double wire_delay = 0.0;
    double base_slew = 0.0;
  };

  /// Recomputes path_var_/path_xtalk_[net_id] from its parent's prefix.
  void update_path_prefix(int net_id);

  bool row_warm(int net_id) const {
    return row_gen_[net_id] == ctx_gen_[net_id];
  }
  /// Fills the net's row if it is cold, counting one miss; returns whether
  /// it was already warm.
  bool ensure_row(int net_id) const;

  /// Scores every rule of the `n` same-shaped nets `ids` in one batch and
  /// memoizes their rows under the current context stamps. Safe to run
  /// concurrently on disjoint nets (per-thread scratch).
  void fill_rows(const int* ids, int n) const;

  const netlist::ClockTree* tree_;
  const netlist::Design* design_;
  const tech::Technology* tech_;
  const netlist::NetList* nets_;
  timing::AnalysisOptions analysis_;
  /// Owned when built here, null when borrowing; `geometry_` always points
  /// at the cache in use.
  std::unique_ptr<extract::GeometryCache> geometry_own_;
  const extract::GeometryCache* geometry_ = nullptr;
  timing::DeltaTimer delta_;  ///< incremental arrival/slew mirror.

  RuleAssignment assignment_;
  std::vector<NetState> nets_state_;
  int n_rules_ = 0;
  /// The exact-eval memo. Rows are filled whole: net n's row (its R
  /// NetExact entries and its per-load terms) is valid iff
  /// row_gen_[n] == ctx_gen_[n] (gen 0 is never valid: context stamps
  /// start at 1 and only grow).
  mutable std::vector<NetExact> exact_cache_;  ///< [net][rule] flat.
  /// [net][rule] per-load blocks of kLoadTerms * loads doubles ((m1, m2)
  /// pairs, sigmas, crosstalk; see evaluate_nets_exact_batch); net n's
  /// blocks start at term_off_[n], a prefix sum of kLoadTerms * R * loads.
  mutable std::vector<double> load_terms_;
  std::vector<std::size_t> term_off_;  ///< n_nets + 1 entries.

  /// Start of (net, rule)'s per-load block in load_terms_.
  const double* load_block(int net_id, int rule_idx) const;
  mutable std::vector<std::uint64_t> row_gen_;  ///< per-net fill stamp.
  std::vector<std::uint64_t> ctx_gen_;  ///< per-net exact-eval context stamp.
  mutable std::int64_t cache_hits_ = 0;
  mutable std::int64_t cache_misses_ = 0;
  mutable std::int64_t flushed_hits_ = 0;    ///< already in the registry.
  mutable std::int64_t flushed_misses_ = 0;
  /// Sinks in depth-first tree order; net n's sinks are
  /// sink_order_[sink_lo_[n], sink_hi_[n]).
  std::vector<int> sink_order_;
  std::vector<int> sink_lo_;
  std::vector<int> sink_hi_;
  std::vector<int> parent_net_;  ///< net feeding a net's driver, -1 at root.
  std::vector<int> leaf_net_;    ///< per sink: the net it loads, -1 if none.
  std::vector<char> drives_sinks_;  ///< per net: some load is a sink.
  /// Root-first path prefixes: path_var_[n] = path_var_[parent] + sigma_n²,
  /// path_xtalk_[n] = path_xtalk_[parent] + xtalk_n.
  std::vector<double> path_var_;
  std::vector<double> path_xtalk_;
  std::vector<double> win_lo_;  ///< raw windows (no margin).
  std::vector<double> win_hi_;
  /// Per-net clock-domain rate factors (clock_domains.hpp), all exactly
  /// 1.0 when domains are disabled: `net_weight_` scales switched cap in
  /// the search energy; `net_em_scale_` post-scales every EM density the
  /// exact evaluators produce (applied at memo-fill time so cached rows,
  /// check_move bounds, and analyze_em agree bitwise).
  std::vector<double> net_weight_;
  std::vector<double> net_em_scale_;
  common::PairwiseSum latency_sum_;   ///< leaves: sink_order_ arrivals.
  common::PairwiseSum total_cap_;     ///< leaves: per-net cap.
  common::PairwiseSum total_energy_;  ///< leaves: net_weight_[i] * cap_i.
  netlist::RoutingUsage usage_;
};

}  // namespace sndr::ndr
