#include "layers.hpp"

#include <stdexcept>

#include "cts/embedding.hpp"
#include "cts/refine.hpp"
#include "extract/net_geometry.hpp"
#include "io/design_io.hpp"
#include "netlist/clock_nets.hpp"
#include "obs/scope.hpp"
#include "route/congestion_route.hpp"
#include "tech/corners.hpp"
#include "tech/technology.hpp"

namespace perfbench {

flow::FlowResult run_layers(const flow::FlowConfig& config, SpanLog& log,
                            int job) {
  if (config.dse || !config.warm_start.empty() || !config.tech_path.empty()) {
    throw std::invalid_argument(
        "run_layers: only standalone default-technology jobs compose");
  }
  obs::ObsScope scope;  // the library's spans and counters for this pass.
  obs::ScopeBinding binding(scope);
  flow::FlowResult result;

  log.time("job", job, [&] {
    netlist::Design design = log.time("io.load", job, [&] {
      common::Result<netlist::Design> d =
          io::load_design_file(config.design_path);
      if (!d.ok()) throw std::runtime_error(d.status().to_string());
      return std::move(d).value();
    });
    const tech::Technology tech = tech::Technology::make_default_45nm();

    cts::CtsResult cts = log.time(
        "cts.synthesize", job, [&] { return cts::synthesize(design, tech); });
    log.time("route.reroute", job, [&] {
      return route::reroute_for_congestion(cts.tree, design.congestion);
    });
    log.time("cts.refine_skew", job,
             [&] { return cts::refine_skew(cts.tree, design, tech); });
    const netlist::NetList nets = log.time("netlist.build_nets", job, [&] {
      return netlist::build_nets(cts.tree);
    });
    const extract::GeometryCache geometry =
        log.time("extract.geometry_build", job, [&] {
          return extract::GeometryCache(cts.tree, design, nets,
                                        config.memory_budget_bytes,
                                        extract::ExtractOptions{});
        });
    if (config.max_skew_ps > 0.0) {
      design.constraints.max_skew = config.max_skew_ps * 1e-12;
    }

    log.time("ndr.baseline_rows", job, [&] {
      result.default_eval =
          ndr::evaluate(cts.tree, design, tech, nets, ndr::assign_all(nets, 0),
                        {}, &geometry);
      result.blanket_eval = ndr::evaluate(
          cts.tree, design, tech, nets,
          ndr::assign_all(nets, tech.rules.blanket_index()), {}, &geometry);
      return 0;
    });
    if (config.smart) {
      result.smart = log.time("ndr.optimize", job, [&] {
        return ndr::optimize_smart_ndr(cts.tree, design, tech, nets,
                                       config.optimizer_options());
      });
      if (config.anneal_iterations > 0) {
        result.anneal = log.time("ndr.anneal", job, [&] {
          return ndr::anneal_rules(cts.tree, design, tech, nets,
                                   result.smart->assignment,
                                   config.anneal_options());
        });
      }
    }
    if (config.corners) {
      const ndr::RuleAssignment* assignment = result.final_assignment();
      result.corners = log.time("ndr.corners", job, [&] {
        return ndr::evaluate_corners(
            cts.tree, design, tech, nets,
            assignment != nullptr
                ? *assignment
                : ndr::assign_all(nets, tech.rules.blanket_index()),
            tech::standard_corners(), {}, &geometry);
      });
    }
    result.feasible = result.smart ? result.final_eval().feasible() : true;
    return 0;
  });
  log.adopt_library_spans(scope.trace(), job);
  return result;
}

}  // namespace perfbench
