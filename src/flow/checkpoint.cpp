#include "flow/checkpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace sndr::flow {

namespace {

constexpr const char* kMagic = kCheckpointSchema;

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// istream operator>> does not accept hexfloat; strtod does.
bool read_hexfloat(std::istream& is, double& out) {
  std::string tok;
  if (!(is >> tok)) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end != tok.c_str() && *end == '\0';
}

/// One `key value...` line per field; assignment vectors are
/// space-separated rule indices on a single line.
void write_fields(std::ostream& os, const ndr::AnnealCheckpoint& ck,
                  std::uint64_t fingerprint) {
  os << kMagic << "\n";
  os << "fingerprint " << fingerprint << "\n";
  os << "iteration " << ck.iteration << "\n";
  os << "temperature " << hexfloat(ck.temperature) << "\n";
  os << "cooling " << hexfloat(ck.cooling) << "\n";
  os << "rng_state " << ck.rng_state << "\n";
  os << "proposed " << ck.proposed << "\n";
  os << "accepted " << ck.accepted << "\n";
  os << "rejected " << ck.rejected << "\n";
  os << "uphill_accepted " << ck.uphill_accepted << "\n";
  os << "delta_updates " << ck.delta_updates << "\n";
  os << "start_cap " << hexfloat(ck.start_cap) << "\n";
  os << "start_feasible " << (ck.start_feasible ? 1 : 0) << "\n";
  os << "best_cap " << hexfloat(ck.best_cap) << "\n";
  os << "assignment";
  for (const int r : ck.assignment) os << ' ' << r;
  os << "\n";
  os << "best";
  for (const int r : ck.best) os << ' ' << r;
  os << "\n";
}

}  // namespace

std::uint64_t checkpoint_fingerprint(int n_nets, int n_rules,
                                     std::uint64_t seed, int iterations) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(n_nets));
  mix(static_cast<std::uint64_t>(n_rules));
  mix(seed);
  mix(static_cast<std::uint64_t>(iterations));
  return h;
}

common::Status save_checkpoint(const std::string& path,
                               const ndr::AnnealCheckpoint& ck,
                               std::uint64_t fingerprint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) {
      return common::Status::IoError("cannot write checkpoint " + tmp);
    }
    write_fields(f, ck, fingerprint);
    if (!f.flush()) {
      return common::Status::IoError("short write to checkpoint " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return common::Status::IoError("cannot move checkpoint into place: " +
                                   ec.message());
  }
  return common::Status::Ok();
}

common::Result<ndr::AnnealCheckpoint> load_checkpoint(
    const std::string& path, std::uint64_t fingerprint) {
  std::ifstream f(path);
  if (!f) {
    return common::Status::NotFound("no checkpoint at " + path);
  }
  int line_no = 0;
  // Malformed CONTENT is a parse error (path:line: message); a checkpoint
  // for different inputs is well-formed but unusable — invalid argument.
  const auto bad = [&](const std::string& what) {
    return common::Status::ParseFailure(
        path + ":" + std::to_string(line_no) + ": " + what);
  };
  const auto mismatch = [&](const std::string& what) {
    return common::Status::InvalidArgument(
        path + ":" + std::to_string(line_no) + ": " + what);
  };

  std::string line;
  ++line_no;
  if (!std::getline(f, line) || line != kMagic) {
    const std::string family = "sndr.anneal_checkpoint/";
    if (line.rfind(family, 0) == 0) {
      return bad("unsupported checkpoint schema '" + line + "' (expected " +
                 kMagic + "); delete it to start over");
    }
    return bad(std::string("expected ") + kMagic);
  }

  ndr::AnnealCheckpoint ck;
  bool saw_fingerprint = false;
  std::set<std::string> seen;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (!seen.insert(key).second) {
      return bad("duplicate field '" + key + "'");
    }
    const auto want = [&](auto& out) { return static_cast<bool>(is >> out); };
    bool ok = true;
    if (key == "fingerprint") {
      std::uint64_t fp = 0;
      ok = want(fp);
      if (ok && fp != fingerprint) {
        return mismatch(
            "checkpoint is for different inputs (fingerprint " +
            std::to_string(fp) + " != " + std::to_string(fingerprint) +
            "); delete it to start over");
      }
      saw_fingerprint = ok;
    } else if (key == "iteration") {
      ok = want(ck.iteration) && ck.iteration >= 0;
    } else if (key == "temperature") {
      ok = read_hexfloat(is, ck.temperature);
    } else if (key == "cooling") {
      ok = read_hexfloat(is, ck.cooling);
    } else if (key == "rng_state") {
      ok = want(ck.rng_state);
    } else if (key == "proposed") {
      ok = want(ck.proposed);
    } else if (key == "accepted") {
      ok = want(ck.accepted);
    } else if (key == "rejected") {
      ok = want(ck.rejected);
    } else if (key == "uphill_accepted") {
      ok = want(ck.uphill_accepted);
    } else if (key == "delta_updates") {
      ok = want(ck.delta_updates);
    } else if (key == "start_cap") {
      ok = read_hexfloat(is, ck.start_cap);
    } else if (key == "start_feasible") {
      int v = 0;
      ok = want(v);
      ck.start_feasible = v != 0;
    } else if (key == "best_cap") {
      ok = read_hexfloat(is, ck.best_cap);
    } else if (key == "assignment" || key == "best") {
      std::vector<int>& out = key == "best" ? ck.best : ck.assignment;
      int r = 0;
      while (is >> r) out.push_back(r);
      ok = is.eof();
    } else {
      return bad("unknown field '" + key + "'");
    }
    if (!ok) return bad("bad value for '" + key + "'");
    // Scalar fields are exactly `key value`; anything after the value
    // (the classic truncation-then-append corruption) is rejected rather
    // than silently dropped. Vector fields consume the whole line above.
    std::string extra;
    if (is >> extra) {
      return bad("trailing junk '" + extra + "' after '" + key + "'");
    }
  }
  if (!saw_fingerprint) return bad("missing fingerprint");
  if (ck.assignment.empty() || ck.assignment.size() != ck.best.size()) {
    return bad("missing or mismatched assignment vectors");
  }
  return ck;
}

std::uint64_t assignment_seed_fingerprint(int n_nets, int n_rules) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(n_nets));
  mix(static_cast<std::uint64_t>(n_rules));
  return h;
}

common::Status save_assignment_seed(const std::string& path,
                                    const std::vector<int>& assignment,
                                    std::uint64_t fingerprint) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) {
      return common::Status::IoError("cannot write assignment seed " + tmp);
    }
    f << kAssignmentSeedSchema << "\n";
    f << "fingerprint " << fingerprint << "\n";
    f << "assignment";
    for (const int r : assignment) f << ' ' << r;
    f << "\n";
    if (!f.flush()) {
      return common::Status::IoError("short write to assignment seed " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return common::Status::IoError("cannot move assignment seed into place: " +
                                   ec.message());
  }
  return common::Status::Ok();
}

common::Result<std::vector<int>> load_assignment_seed(
    const std::string& path, std::uint64_t fingerprint) {
  std::ifstream f(path);
  if (!f) {
    return common::Status::NotFound("no assignment seed at " + path);
  }
  int line_no = 0;
  const auto bad = [&](const std::string& what) {
    return common::Status::ParseFailure(
        path + ":" + std::to_string(line_no) + ": " + what);
  };

  std::string line;
  ++line_no;
  if (!std::getline(f, line) || line != kAssignmentSeedSchema) {
    return bad(std::string("expected ") + kAssignmentSeedSchema);
  }

  std::vector<int> assignment;
  bool saw_fingerprint = false;
  bool saw_assignment = false;
  std::set<std::string> seen;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string key;
    is >> key;
    if (!seen.insert(key).second) {
      return bad("duplicate field '" + key + "'");
    }
    if (key == "fingerprint") {
      std::uint64_t fp = 0;
      if (!(is >> fp)) return bad("bad value for 'fingerprint'");
      if (fp != fingerprint) {
        return common::Status::InvalidArgument(
            path + ":" + std::to_string(line_no) +
            ": assignment seed is for different inputs (fingerprint " +
            std::to_string(fp) + " != " + std::to_string(fingerprint) +
            "); delete it to start over");
      }
      saw_fingerprint = true;
      std::string extra;
      if (is >> extra) {
        return bad("trailing junk '" + extra + "' after 'fingerprint'");
      }
    } else if (key == "assignment") {
      int r = 0;
      while (is >> r) {
        if (r < 0) return bad("negative rule index in 'assignment'");
        assignment.push_back(r);
      }
      if (!is.eof()) return bad("bad value for 'assignment'");
      saw_assignment = true;
    } else {
      return bad("unknown field '" + key + "'");
    }
  }
  if (!saw_fingerprint) return bad("missing fingerprint");
  if (!saw_assignment || assignment.empty()) {
    return bad("missing assignment vector");
  }
  return assignment;
}

}  // namespace sndr::flow
