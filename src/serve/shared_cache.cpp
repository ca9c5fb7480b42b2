#include "serve/shared_cache.hpp"

#include <cstdio>
#include <fstream>

#include "io/durable.hpp"
#include "tech/technology.hpp"

namespace sndr::serve {

namespace {

/// Built-in default technology key — no file to fingerprint, the content
/// is the binary itself.
constexpr const char* kDefaultTechKey = "tech:default";

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

common::Result<std::string> file_fingerprint(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return common::Status::NotFound("cannot open " + path);
  }
  // Content keys have always started from this basis, one digit short of
  // the standard 14695981039346656037. Keys are only compared with each
  // other, so it costs nothing; it stays so that every key keeps its value.
  io::Fnv1a h(1469598103934665603ULL);
  char buf[1 << 16];
  while (f.read(buf, sizeof buf) || f.gcount() > 0) {
    h.bytes(buf, static_cast<std::size_t>(f.gcount()));
    if (!f) break;
  }
  if (f.bad()) {
    return common::Status::IoError("read failure on " + path);
  }
  return to_hex(h.value());
}

SharedCache::Lease SharedCache::acquire(const flow::FlowConfig& config) {
  Lease lease;

  // Technology handle, content-keyed. Parse outside the lock; two jobs
  // racing the same miss both parse and the second insert loses — wasted
  // work, never a wrong value.
  std::string tech_key = kDefaultTechKey;
  std::string tech_fp = "default";
  if (!config.tech_path.empty()) {
    common::Result<std::string> fp = file_fingerprint(config.tech_path);
    if (!fp.ok()) return lease;  // job's Session reports the real error.
    tech_fp = fp.value();
    tech_key = "tech:" + tech_fp;
  }
  std::shared_ptr<const tech::Technology> tech;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tech_.find(tech_key);
    if (it != tech_.end()) {
      tech = it->second;
      ++stats_.tech_hits;
    } else {
      ++stats_.tech_misses;
    }
  }
  if (!tech) {
    if (config.tech_path.empty()) {
      tech = std::make_shared<const tech::Technology>(
          tech::Technology::make_default_45nm());
    } else {
      common::Result<tech::Technology> parsed =
          tech::load_technology_file(config.tech_path);
      if (!parsed.ok()) return lease;  // Session reproduces the diagnosis.
      tech = std::make_shared<const tech::Technology>(
          std::move(parsed.value()));
    }
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = tech_.emplace(tech_key, tech);
    if (!inserted) tech = it->second;  // lost the race: share the winner's.
  }
  lease.world.tech = std::move(tech);
  lease.valid = true;

  // Predictor handle. Applicable only to the flow shape whose training the
  // key captures completely: smart optimization under models scoring
  // (training reads tree/design/tech/nets/analysis — all derived
  // deterministically from the design file, the tech, and
  // training_samples; geometry budgets change memory, never values).
  if (config.smart && config.scoring == "models") {
    common::Result<std::string> design_fp =
        file_fingerprint(config.design_path);
    if (design_fp.ok()) {
      lease.predictor_key = "predictor:" + design_fp.value() + ":" +
                            tech_fp + ":" +
                            std::to_string(config.training_samples);
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = predictors_.find(lease.predictor_key);
      if (it != predictors_.end()) {
        lease.world.predictor = it->second;
        ++stats_.predictor_hits;
      } else {
        ++stats_.predictor_misses;
      }
    }
  }
  return lease;
}

void SharedCache::store_predictor(
    const std::string& key,
    std::shared_ptr<const ndr::RuleImpactPredictor> predictor) {
  if (key.empty() || predictor == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  predictors_[key] = std::move(predictor);
  ++stats_.predictor_stores;
}

SharedCache::Stats SharedCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace sndr::serve
