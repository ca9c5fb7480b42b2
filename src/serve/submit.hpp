// The one submit path: a FlowConfig in, a JobOutcome out.
//
// execute_job is the single function through which every run enters the
// core — the standalone CLI (`sndr run`) calls it with no cache, the
// server's workers call it with the shared cache and a live cancel token.
// Both therefore execute the identical Session/Flow sequence, which is
// what makes "service results are bitwise identical to the CLI" true by
// construction rather than by test alone (serve_test's
// Server.ConcurrentSubmitsMatchSerialBitwise asserts it anyway).
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "common/cancel.hpp"
#include "common/status.hpp"
#include "dse/explorer.hpp"
#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "obs/metrics.hpp"
#include "serve/shared_cache.hpp"

namespace sndr::serve {

struct JobOutcome {
  /// ok() iff the flow ran to completion (feasibility is separate —
  /// result->feasible, exit code 1 in the CLI map).
  common::Status status;
  std::optional<flow::FlowResult> result;
  /// Sweep result when the job was a DSE job (config.dse) — `result` is
  /// then empty; the per-point numbers live in the sweep.
  std::optional<dse::SweepResult> dse;

  // Loaded-design summary, captured on success (the line the CLI prints
  // above the evaluation table).
  std::string design_name;
  std::size_t sinks = 0;
  int buffers = 0;
  int nets = 0;
  double wirelength = 0.0;  ///< meters of clock wire.

  /// This job's private ObsScope registry, snapshot at the end — the
  /// server accumulates these into its server-level registry.
  obs::MetricsRegistry::Snapshot metrics;
  double wall_seconds = 0.0;

  bool ok() const { return status.ok(); }
  bool feasible() const {
    return status.ok() && ((result && result->feasible) ||
                           (dse && !dse->front.empty()));
  }
};

/// Runs one job to completion (or cancellation) in the calling thread.
///
/// `cache` may be null (standalone CLI): the session then loads its own
/// technology and trains its own predictor. With a cache, the session is
/// seeded with a shared World and a predictor trained during the run is
/// harvested back into the cache. `token` cancels cooperatively; a
/// default-constructed token never fires.
///
/// Never throws; every failure (including cancellation) comes back as
/// outcome.status.
JobOutcome execute_job(flow::FlowConfig config, SharedCache* cache,
                       common::CancelToken token = {});

}  // namespace sndr::serve
