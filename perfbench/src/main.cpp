// perfbench: the repository's end-to-end benchmark, one workload per run.
//
//   perfbench --workload flow-40k|dse-anneal|serve-mix --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--tiny] [--fault F]
//
// Prints human-readable lines, then one JSON line with `correct`,
// `attempted`, `failed` and `metrics` (end-to-end metrics untraced; the
// per-layer metrics with --trace 1). Exit code 0 iff every output check
// passed; 2 on a usage or internal error (no result printed).
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common_loops.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload flow-40k|dse-anneal|serve-mix"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--tiny] [--fault flip-rule]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--tiny") {
        opt.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--fault") {
        opt.fault = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (!opt.fault.empty() && opt.fault != "flip-rule") {
    return usage("unknown fault " + opt.fault);
  }

  try {
    std::filesystem::create_directories(opt.work_dir);
    perfbench::set_obs(false);  // untimed runs observe nothing.
    if (opt.workload == "flow-40k") return perfbench::run_flow_40k(opt);
    if (opt.workload == "dse-anneal") return perfbench::run_dse_anneal(opt);
    if (opt.workload == "serve-mix") return perfbench::run_serve_mix(opt);
    return usage("unknown workload '" + opt.workload + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: internal error: " << e.what() << "\n";
    return 2;
  }
}
