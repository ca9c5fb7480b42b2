// Shared flow driver for the paper-reproduction bench binaries.
//
// Every bench binary prints the table/series it reproduces to stdout and
// writes the same rows as CSV under results/ (relative to where the binary
// is invoked; override with SNDR_RESULTS_DIR), so results can be
// re-plotted without littering the repository root.
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "ndr/smart_ndr.hpp"
#include "report/table.hpp"
#include "route/congestion_route.hpp"
#include "tech/technology.hpp"
#include "tech/units.hpp"
#include "workload/generator.hpp"

namespace sndr::bench {

struct Flow {
  netlist::Design design;
  tech::Technology tech;
  cts::CtsResult cts;
  netlist::NetList nets;
};

inline Flow build_flow(const workload::DesignSpec& spec,
                       const cts::CtsOptions& copt = {}) {
  Flow f;
  f.design = workload::make_design(spec);
  f.tech = tech::Technology::make_default_45nm();
  f.cts = cts::synthesize(f.design, f.tech, copt);
  route::reroute_for_congestion(f.cts.tree, f.design.congestion);
  cts::refine_skew(f.cts.tree, f.design, f.tech);
  f.nets = netlist::build_nets(f.cts.tree);
  return f;
}

inline ndr::FlowEvaluation eval_uniform(const Flow& f, int rule) {
  return ndr::evaluate(f.cts.tree, f.design, f.tech, f.nets,
                       ndr::assign_all(f.nets, rule));
}

/// Where result CSVs go: $SNDR_RESULTS_DIR or ./results (created on use).
inline std::string results_path(const std::string& name) {
  const char* env = std::getenv("SNDR_RESULTS_DIR");
  const std::string dir = env != nullptr && env[0] != '\0' ? env : "results";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

inline void finish(report::Table& table, const std::string& title,
                   const std::string& csv_name) {
  std::cout << "== " << title << " ==\n\n";
  table.print(std::cout);
  const std::string path = results_path(csv_name);
  table.write_csv(path);
  std::cout << "\n[csv: " << path << "]\n";
}

}  // namespace sndr::bench
