// Session: one run's world, owned in one object.
//
// A Session owns everything that used to live in process-globals or loose
// locals of the CLI: the design and technology, the synthesized tree and
// net list, the shared extraction GeometryCache, the thread-budget handle,
// and — the point of the exercise — a private obs::ObsScope, so two
// Sessions running concurrently in one process keep fully disjoint
// metrics/trace state. Anything observing on behalf of a session must run
// under `obs::ScopeBinding binding(session.obs_scope())`; flow::Flow does
// this for every stage, and the thread pool re-binds the submitting
// session's scope on its workers (common/thread_pool.cpp), so session code
// rarely binds by hand.
//
// Loading goes through the typed boundaries (io::load_design_file,
// tech::load_technology_file): load() returns a Status instead of
// throwing, and the caller branches on the code (DESIGN.md §9).
#pragma once

#include <memory>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "cts/embedding.hpp"
#include "extract/net_geometry.hpp"
#include "flow/config.hpp"
#include "flow/world.hpp"
#include "netlist/clock_nets.hpp"
#include "netlist/design.hpp"
#include "obs/scope.hpp"
#include "tech/technology.hpp"

namespace sndr::ndr {
struct MemoSnapshot;  // assignment_state.hpp
}  // namespace sndr::ndr

namespace sndr::flow {

/// Cross-session reuse hooks (the DSE sweep's channel). Everything here is
/// value-neutral: a session with hooks set produces results bitwise equal
/// to one without. `geometry` borrows another session's GeometryCache (a
/// pure function of the tree); `memo_in`/`memo_out` transplant exact-eval
/// memo rows under the per-net context guard
/// (ndr::AssignmentState::import_memo): the flow's one search state adopts
/// `memo_in` when it is built and exports into `memo_out` after the last
/// search. All pointers are borrowed and must
/// outlive the flow run.
struct ReuseHooks {
  const extract::GeometryCache* geometry = nullptr;
  const ndr::MemoSnapshot* memo_in = nullptr;
  ndr::MemoSnapshot* memo_out = nullptr;
  /// Prepared front-end state from another session over the same design
  /// input. The whole load→cts→route→nets pipeline is deterministic and
  /// independent of the swept axes, so copying its output is bitwise
  /// identical to rebuilding it — the flow's load/cts/route/nets stages
  /// copy instead of re-parsing/re-synthesizing. `design` must be the
  /// PRISTINE post-load design (before any max_skew override); `cts` must
  /// already be routed and skew-refined (Flow mutates it in place, so an
  /// anchor session's cts() after prepare() qualifies).
  const netlist::Design* design = nullptr;
  const cts::CtsResult* cts = nullptr;
  const netlist::NetList* nets = nullptr;
};

class Session {
 public:
  explicit Session(FlowConfig config);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const FlowConfig& config() const { return config_; }
  obs::ObsScope& obs_scope() { return scope_; }
  common::ThreadBudget& thread_budget() { return thread_budget_; }

  /// Loads the design (and technology, when configured) through the typed
  /// boundaries. Idempotent; kInvalidArgument when no design is configured
  /// or the design has no sinks.
  common::Status load();
  bool loaded() const { return loaded_; }

  /// Hands the session a design directly (tests, library callers); the
  /// technology stays at its current value until load()/set_technology.
  void set_design(netlist::Design design);
  void set_technology(tech::Technology tech);

  /// Installs a shared immutable World (flow/world.hpp). load() then skips
  /// the technology file — the World *is* the technology (and optionally a
  /// warm predictor); the serve layer resolves config.tech_path through its
  /// SharedCache before constructing the session.
  void set_world(World world);
  const World& world() const { return world_; }

  /// This run's cooperative cancel token. Flow checks it between stages;
  /// it is forwarded into the searches' shared ndr::SearchContext, whose
  /// loops poll it. Copy the token out (it is a shared handle) to cancel from
  /// another thread.
  common::CancelToken& cancel_token() { return cancel_; }
  const common::CancelToken& cancel_token() const { return cancel_; }

  // State owned by the session; tree/nets/geometry are populated by the
  // flow's build stages (Flow::prepare).
  netlist::Design& design() { return design_; }
  const netlist::Design& design() const { return design_; }
  const tech::Technology& technology() const { return *world_.tech; }
  /// The synthesized tree — the session's own, or the one borrowed through
  /// the reuse hooks (a DSE warm point reads the anchor's tree in place;
  /// Flow then never builds or mutates a private copy).
  const cts::CtsResult& cts() const {
    return reuse_.cts != nullptr ? *reuse_.cts : cts_;
  }
  /// Mutable handle for the build stages (cts/route) only; reads must go
  /// through cts() so borrowed trees resolve.
  cts::CtsResult& build_cts() { return cts_; }
  netlist::NetList& nets() { return nets_; }
  const netlist::NetList& nets() const { return nets_; }

  /// The shared per-session geometry cache; built by Flow's route stage
  /// (null before that), or borrowed through the reuse hooks (which then
  /// take precedence). Reset to cover tree/congestion edits.
  const extract::GeometryCache* geometry() const {
    return reuse_.geometry != nullptr ? reuse_.geometry : geometry_.get();
  }
  void set_geometry(std::unique_ptr<extract::GeometryCache> geometry) {
    geometry_ = std::move(geometry);
  }

  /// Cross-session reuse hooks (DSE). Set before Flow::run(); everything
  /// referenced must outlive the run. Value-neutral by contract. A
  /// borrowed tree comes with everything built from it: hooks with `cts`
  /// but without `design`, `nets` or `geometry` throw
  /// std::invalid_argument.
  void set_reuse(const ReuseHooks& hooks);
  const ReuseHooks& reuse() const { return reuse_; }

 private:
  FlowConfig config_;
  obs::ObsScope scope_;
  common::ThreadBudget thread_budget_;
  common::CancelToken cancel_;
  bool loaded_ = false;
  bool world_external_ = false;  ///< set_world called; load() keeps it.

  netlist::Design design_;
  World world_ = World::make_default();
  cts::CtsResult cts_;
  netlist::NetList nets_;
  std::unique_ptr<extract::GeometryCache> geometry_;
  ReuseHooks reuse_;
};

}  // namespace sndr::flow
