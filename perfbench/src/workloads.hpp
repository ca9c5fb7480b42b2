// The benchmark's three workloads. Each runs its set-up, its timed loop
// (or, with Options::trace, the traced pass) and its output checks, and
// returns the process exit code from Report::finish.
#pragma once

#include "harness.hpp"

namespace perfbench {

int run_flow_40k(const Options& opt);
int run_dse_anneal(const Options& opt);
int run_serve_mix(const Options& opt);

}  // namespace perfbench
