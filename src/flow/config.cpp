#include "flow/config.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

namespace sndr::flow {

namespace {

bool parse_bool(const std::string& v, bool& out) {
  if (v == "true" || v == "1" || v == "yes" || v.empty()) {
    out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "no") {
    out = false;
    return true;
  }
  return false;
}

bool parse_int(const std::string& v, int& out) {
  std::istringstream is(v);
  return static_cast<bool>(is >> out) && is.eof();
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  std::istringstream is(v);
  return static_cast<bool>(is >> out) && is.eof();
}

bool parse_double(const std::string& v, double& out) {
  std::istringstream is(v);
  return static_cast<bool>(is >> out) && is.eof();
}

/// Byte size with an optional K/M/G (or KB/MB/GB) suffix: "64M" = 64 MiB.
bool parse_byte_size(const std::string& v, std::size_t& out) {
  if (v.empty()) return false;
  std::size_t end = v.size();
  std::size_t mult = 1;
  if (end > 0 && (v[end - 1] == 'b' || v[end - 1] == 'B')) --end;
  if (end > 0) {
    switch (v[end - 1]) {
      case 'k': case 'K': mult = std::size_t{1} << 10; --end; break;
      case 'm': case 'M': mult = std::size_t{1} << 20; --end; break;
      case 'g': case 'G': mult = std::size_t{1} << 30; --end; break;
      default: break;
    }
  }
  if (end == 0) return false;
  std::istringstream is(v.substr(0, end));
  std::uint64_t n = 0;
  if (!(is >> n) || !is.eof()) return false;
  if (n > std::numeric_limits<std::size_t>::max() / mult) return false;
  out = static_cast<std::size_t>(n) * mult;
  return true;
}

/// One settable key: how to parse it into the config.
using Setter =
    std::function<bool(FlowConfig&, const std::string&)>;  // false = bad value.

/// A guard band: the fraction of a constraint held in reserve, so it must
/// leave some of the constraint usable.
bool valid_margin(double d) { return d >= 0.0 && d < 1.0; }

Setter margin_key(double FlowConfig::*field) {
  return [field](FlowConfig& c, const std::string& v) {
    return parse_double(v, c.*field) && valid_margin(c.*field);
  };
}

const std::map<std::string, Setter>& setters() {
  static const std::map<std::string, Setter>* table = new std::map<
      std::string, Setter>{
      {"design", [](FlowConfig& c, const std::string& v) {
         c.design_path = v;
         return !v.empty();
       }},
      {"tech", [](FlowConfig& c, const std::string& v) {
         c.tech_path = v;
         return true;
       }},
      {"smart", [](FlowConfig& c, const std::string& v) {
         return parse_bool(v, c.smart);
       }},
      {"anneal", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.anneal_iterations) && c.anneal_iterations >= 0;
       }},
      {"corners", [](FlowConfig& c, const std::string& v) {
         return parse_bool(v, c.corners);
       }},
      {"seed", [](FlowConfig& c, const std::string& v) {
         return parse_u64(v, c.seed);
       }},
      {"threads", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.threads) && c.threads >= 0;
       }},
      {"memory_budget", [](FlowConfig& c, const std::string& v) {
         return parse_byte_size(v, c.memory_budget_bytes);
       }},
      {"checkpoint", [](FlowConfig& c, const std::string& v) {
         c.checkpoint_path = v;
         return !v.empty();
       }},
      {"checkpoint_interval", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.checkpoint_interval) &&
                c.checkpoint_interval > 0;
       }},
      {"power_weight", [](FlowConfig& c, const std::string& v) {
         return parse_double(v, c.power_weight) && c.power_weight > 0.0;
       }},
      {"max_skew", [](FlowConfig& c, const std::string& v) {
         return parse_double(v, c.max_skew_ps) && c.max_skew_ps >= 0.0;
       }},
      {"warm_start", [](FlowConfig& c, const std::string& v) {
         c.warm_start = v;
         return !v.empty();
       }},
      {"dse", [](FlowConfig& c, const std::string& v) {
         return parse_bool(v, c.dse);
       }},
      {"dse_mode", [](FlowConfig& c, const std::string& v) {
         if (v != "grid" && v != "refine") return false;
         c.dse_mode = v;
         return true;
       }},
      {"dse_points", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.dse_points) && c.dse_points >= 0;
       }},
      {"dse_out", [](FlowConfig& c, const std::string& v) {
         c.dse_out = v;
         return !v.empty();
       }},
      {"scoring", [](FlowConfig& c, const std::string& v) {
         if (v != "models" && v != "exact_net" && v != "full_sta") {
           return false;
         }
         c.scoring = v;
         return true;
       }},
      {"training_samples", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.training_samples) && c.training_samples > 0;
       }},
      {"slew_margin", margin_key(&FlowConfig::slew_margin)},
      {"uncertainty_margin", margin_key(&FlowConfig::uncertainty_margin)},
      {"em_margin", margin_key(&FlowConfig::em_margin)},
      {"skew_margin", margin_key(&FlowConfig::skew_margin)},
      {"max_passes", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.max_passes) && c.max_passes > 0;
       }},
      {"max_repair_rounds", [](FlowConfig& c, const std::string& v) {
         return parse_int(v, c.max_repair_rounds) && c.max_repair_rounds >= 0;
       }},
      {"anneal_t_start_frac", [](FlowConfig& c, const std::string& v) {
         return parse_double(v, c.anneal_t_start_frac) &&
                c.anneal_t_start_frac > 0.0;
       }},
      {"anneal_t_end_frac", [](FlowConfig& c, const std::string& v) {
         return parse_double(v, c.anneal_t_end_frac) &&
                c.anneal_t_end_frac > 0.0;
       }},
      {"results_dir", [](FlowConfig& c, const std::string& v) {
         c.results_dir = v;
         return !v.empty();
       }},
      {"spef", [](FlowConfig& c, const std::string& v) {
         c.spef_out = v;
         return true;
       }},
      {"svg", [](FlowConfig& c, const std::string& v) {
         c.svg_out = v;
         return true;
       }},
      {"csv", [](FlowConfig& c, const std::string& v) {
         c.csv_out = v;
         return true;
       }},
      {"metrics_out", [](FlowConfig& c, const std::string& v) {
         c.metrics_out = v;
         return true;
       }},
      {"trace_out", [](FlowConfig& c, const std::string& v) {
         c.trace_out = v;
         return true;
       }},
  };
  return *table;
}

/// One list-valued key: parses the already-split element strings. The DSE
/// axes are all doubles today; each carries the matching scalar key's
/// validation so `dse_power_weight = 0,1` fails the same way
/// `power_weight = 0` does.
using ListSetter =
    std::function<bool(FlowConfig&, const std::vector<std::string>&)>;

bool parse_double_list(const std::vector<std::string>& values,
                       std::vector<double>& out,
                       bool (*valid)(double) = nullptr) {
  std::vector<double> parsed;
  parsed.reserve(values.size());
  for (const std::string& v : values) {
    double d = 0.0;
    if (!parse_double(v, d)) return false;
    if (valid != nullptr && !valid(d)) return false;
    parsed.push_back(d);
  }
  if (parsed.empty()) return false;
  out = std::move(parsed);
  return true;
}

const std::map<std::string, ListSetter>& list_setters() {
  static const std::map<std::string, ListSetter>* table =
      new std::map<std::string, ListSetter>{
          {"dse_power_weight",
           [](FlowConfig& c, const std::vector<std::string>& vs) {
             return parse_double_list(vs, c.dse_power_weight,
                                      [](double d) { return d > 0.0; });
           }},
          {"dse_max_skew",
           [](FlowConfig& c, const std::vector<std::string>& vs) {
             return parse_double_list(vs, c.dse_max_skew,
                                      [](double d) { return d >= 0.0; });
           }},
          {"dse_uncertainty_margin",
           [](FlowConfig& c, const std::vector<std::string>& vs) {
             return parse_double_list(vs, c.dse_uncertainty_margin,
                                      valid_margin);
           }},
      };
  return *table;
}

std::vector<std::string> split_commas(const std::string& value) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= value.size()) {
    const std::size_t comma = value.find(',', at);
    const std::size_t end = comma == std::string::npos ? value.size() : comma;
    std::string item = value.substr(at, end - at);
    const auto b = item.find_first_not_of(" \t");
    const auto e = item.find_last_not_of(" \t");
    out.push_back(b == std::string::npos ? "" : item.substr(b, e - b + 1));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

/// Levenshtein distance, the plain O(a*b) two-row form — key names are a
/// couple dozen characters, so no need for anything cleverer.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// The nearest known key, or empty when nothing is plausibly close (more
/// than half the typed key's characters would have to change).
std::string nearest_known_key(const std::string& key) {
  std::string best;
  std::size_t best_d = key.size() / 2 + 1;
  const auto consider = [&](const std::string& known) {
    const std::size_t d = edit_distance(key, known);
    if (d < best_d) {
      best_d = d;
      best = known;
    }
  };
  for (const auto& [known, setter] : setters()) consider(known);
  for (const auto& [known, setter] : list_setters()) consider(known);
  return best;
}

}  // namespace

common::Status FlowConfig::set(const std::string& key,
                               const std::string& value) {
  // Flag spelling and file spelling are the same key: --metrics-out and
  // `metrics_out = ...` both land on "metrics_out".
  std::string canonical = key;
  std::replace(canonical.begin(), canonical.end(), '-', '_');
  // List-valued keys ride the same entry point: the scalar string splits
  // on commas, so `dse_power_weight = 0.5,1.0` works in files and flags.
  if (list_setters().count(canonical) > 0) {
    return set_list(canonical, split_commas(value));
  }
  const auto it = setters().find(canonical);
  if (it == setters().end()) {
    std::string message = "unknown option '" + key + "'";
    if (const std::string near = nearest_known_key(canonical); !near.empty()) {
      message += " (did you mean '" + near + "'?)";
    }
    return common::Status::InvalidArgument(std::move(message));
  }
  // Parse into a copy: a setter may write its field before rejecting the
  // value, and a rejected value must leave this config as it was.
  FlowConfig next = *this;
  if (!it->second(next, value)) {
    return common::Status::InvalidArgument("bad value '" + value +
                                           "' for option '" + key + "'");
  }
  *this = std::move(next);
  return common::Status::Ok();
}

common::Status FlowConfig::set_list(const std::string& key,
                                    const std::vector<std::string>& values) {
  std::string canonical = key;
  std::replace(canonical.begin(), canonical.end(), '-', '_');
  const auto it = list_setters().find(canonical);
  if (it == list_setters().end()) {
    std::string message = setters().count(canonical) > 0
                              ? "option '" + key + "' is not list-valued"
                              : "unknown option '" + key + "'";
    if (const std::string near = nearest_known_key(canonical);
        !near.empty() && near != canonical) {
      message += " (did you mean '" + near + "'?)";
    }
    return common::Status::InvalidArgument(std::move(message));
  }
  if (!it->second(*this, values)) {
    std::string joined;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) joined += ",";
      joined += values[i];
    }
    return common::Status::InvalidArgument("bad value '" + joined +
                                           "' for option '" + key + "'");
  }
  return common::Status::Ok();
}

common::Status FlowConfig::from_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    return common::Status::NotFound("cannot open config file " + path);
  }
  std::string line;
  int line_no = 0;
  while (std::getline(f, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const auto eq = line.find('=');
    const std::string at = path + ":" + std::to_string(line_no) + ": ";
    if (eq == std::string::npos) {
      return common::Status::InvalidArgument(at + "expected 'key = value'");
    }
    std::istringstream key_is(line.substr(0, eq));
    std::string key;
    key_is >> key;
    std::string tail;
    if (key.empty() || (key_is >> tail)) {
      return common::Status::InvalidArgument(at + "expected one key");
    }
    std::istringstream val_is(line.substr(eq + 1));
    std::string value;
    std::getline(val_is, value);
    const auto b = value.find_first_not_of(" \t\r");
    const auto e = value.find_last_not_of(" \t\r");
    value = b == std::string::npos ? "" : value.substr(b, e - b + 1);
    if (const common::Status s = set(key, value); !s.ok()) {
      return common::Status::InvalidArgument(at + s.message());
    }
  }
  return common::Status::Ok();
}

std::vector<std::string> FlowConfig::known_keys() {
  std::vector<std::string> keys;
  keys.reserve(setters().size() + list_setters().size());
  for (const auto& [key, setter] : setters()) keys.push_back(key);
  for (const auto& [key, setter] : list_setters()) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

ndr::SearchContext FlowConfig::search_context() const {
  ndr::SearchContext search;
  search.margins = {slew_margin, uncertainty_margin, em_margin, skew_margin};
  return search;
}

ndr::OptimizerOptions FlowConfig::optimizer_options() const {
  ndr::OptimizerOptions o;
  o.search = search_context();
  if (scoring == "exact_net") {
    o.scoring = ndr::Scoring::kExactNet;
  } else if (scoring == "full_sta") {
    o.scoring = ndr::Scoring::kFullSta;
  }
  o.training_samples = training_samples;
  o.max_passes = max_passes;
  o.max_repair_rounds = max_repair_rounds;
  return o;
}

ndr::AnnealOptions FlowConfig::anneal_options() const {
  ndr::AnnealOptions a;
  a.search = search_context();
  a.iterations = anneal_iterations;
  a.t_start_frac = anneal_t_start_frac;
  a.t_end_frac = anneal_t_end_frac;
  a.seed = seed;
  a.power_weight = power_weight;
  return a;
}

std::string FlowConfig::output_path(const std::string& name) const {
  if (name.empty() || name.front() == '/' || results_dir.empty()) {
    return name;
  }
  return results_dir + "/" + name;
}

}  // namespace sndr::flow
