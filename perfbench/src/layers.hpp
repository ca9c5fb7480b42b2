// The traced pass's composed job: one flow job rebuilt from each layer's
// public function, called in Flow::run order with a harness span around
// every call, so per-layer time is measured at the layer boundary without
// any tracing inside the program.
#pragma once

#include "flow/config.hpp"
#include "flow/flow.hpp"
#include "harness.hpp"

namespace perfbench {

/// Runs `config` (a standalone, non-DSE job) layer by layer and returns a
/// FlowResult holding the same evaluations Flow::run would produce:
/// default/blanket rows, smart result, anneal and corners when configured.
/// Per-call options come only from config.optimizer_options() and
/// config.anneal_options(). The library's own spans recorded during the
/// pass are adopted into `log` under job id `job`.
flow::FlowResult run_layers(const flow::FlowConfig& config, SpanLog& log,
                            int job);

}  // namespace perfbench
