// The inputs the greedy optimizer and the annealer share.
//
// Both searches check (net, rule) moves under the same guard bands, read
// the same borrowed geometry, work on one lent search state and stop on
// the same cancel token. SearchContext holds exactly that, once:
// OptimizerOptions and AnnealOptions each embed one as `.search`.
// FlowConfig fills the margins; Flow::run adds the session's cancel token
// and geometry, builds the flow's one AssignmentState (adopting the DSE
// memo transplant into it) and lends it here, and passes the same context
// to both stages (the DSE sweep axes reach both searches through it), each
// with its own already-evaluated start.
#pragma once

#include "common/cancel.hpp"

namespace sndr::extract {
class GeometryCache;  // net_geometry.hpp
}  // namespace sndr::extract

namespace sndr::ndr {

class AssignmentState;  // assignment_state.hpp
struct FlowEvaluation;  // evaluation.hpp

/// Guard bands used during move checking, as fractions of each constraint
/// kept in reserve by the estimate-driven loops (the final exact
/// verification uses the raw limits). The defaults are the flow's.
struct MoveMargins {
  double slew = 0.05;
  double uncertainty = 0.05;
  double em = 0.05;
  double skew = 0.10;
};

struct SearchContext {
  MoveMargins margins;

  /// Borrow an externally owned GeometryCache instead of building one.
  /// The cache is a pure function of (tree, design, nets, budget, extract
  /// options), so sharing it across searches over the same tree is
  /// value-neutral: results are bitwise identical to building fresh. The
  /// pointer must outlive the search. Null = the search builds an
  /// unbounded cache of its own; a caller that wants a byte budget builds
  /// the cache with that budget and passes it here (as the flow does).
  const extract::GeometryCache* geometry = nullptr;

  /// A search state to work on instead of building one (the flow lends
  /// its one state to greedy, then to the annealer). It must be built over
  /// the same tree, design, technology and nets with default analysis
  /// options; its geometry cache serves the search (and `geometry` is not
  /// read). The search reseeds it with rebuild() from its start
  /// evaluation, so whatever assignment and usage it held are dropped and
  /// only its warm memo rows carry over — value-neutral by the exact_eval
  /// memo contract: results are bitwise those of a fresh state. Borrowed;
  /// it must outlive the search, and a result never keeps it. Null = the
  /// search builds its own.
  AssignmentState* state = nullptr;

  /// The caller's evaluate() of the search's start assignment (the flow
  /// hands greedy its blanket-NDR row and the annealer greedy's final
  /// signoff), used in place of the search's own start evaluation. It must
  /// come from evaluate() over the same tree, design and technology, so
  /// reusing it is value-neutral. The search reseeds its state from the
  /// evaluation's reports alone (the delta timer from its TimingReport);
  /// no parasitics are needed. A search whose start assignment differs
  /// from `start_eval->assignment` throws std::invalid_argument. Borrowed;
  /// null = the search evaluates its start itself.
  const FlowEvaluation* start_eval = nullptr;

  /// Cooperative cancellation (each option struct says where its search
  /// polls it). A cancelled search unwinds with common::Cancelled and
  /// returns no partial result; the flow boundary classifies it as
  /// kCancelled. A default token is never cancelled.
  common::CancelToken cancel;
};

}  // namespace sndr::ndr
