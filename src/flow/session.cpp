#include "flow/session.hpp"

#include <stdexcept>
#include <utility>

#include "io/design_io.hpp"

namespace sndr::flow {

Session::Session(FlowConfig config)
    : config_(std::move(config)), thread_budget_(config_.threads) {}

void Session::set_reuse(const ReuseHooks& hooks) {
  if (hooks.cts != nullptr &&
      (hooks.design == nullptr || hooks.nets == nullptr ||
       hooks.geometry == nullptr)) {
    throw std::invalid_argument(
        "reuse hooks: a borrowed cts needs its design, nets and geometry");
  }
  reuse_ = hooks;
}

common::Status Session::load() {
  if (loaded_) return common::Status::Ok();
  if (config_.design_path.empty()) {
    return common::Status::InvalidArgument("no design configured");
  }
  if (!config_.tech_path.empty() && !world_external_) {
    common::Result<tech::Technology> tech =
        tech::load_technology_file(config_.tech_path);
    if (!tech.ok()) return tech.status();
    world_.tech = std::make_shared<const tech::Technology>(
        std::move(tech.value()));
  }
  // Reuse hooks (DSE): another session already parsed this same file —
  // copying its pristine design is bitwise identical to re-parsing.
  if (reuse_.design != nullptr) {
    design_ = *reuse_.design;
    loaded_ = true;
    return common::Status::Ok();
  }
  common::Result<netlist::Design> design =
      io::load_design_file(config_.design_path);
  if (!design.ok()) return design.status();
  if (design->sinks.empty()) {
    return common::Status::InvalidArgument("design " + config_.design_path +
                                           " has no sinks");
  }
  design_ = std::move(design.value());
  loaded_ = true;
  return common::Status::Ok();
}

void Session::set_design(netlist::Design design) {
  design_ = std::move(design);
  loaded_ = true;
}

void Session::set_technology(tech::Technology tech) {
  world_.tech =
      std::make_shared<const tech::Technology>(std::move(tech));
}

void Session::set_world(World world) {
  world_ = std::move(world);
  world_external_ = true;
}

}  // namespace sndr::flow
