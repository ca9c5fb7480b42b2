#include "flow/checkpoint.hpp"

#include <set>
#include <sstream>

#include "io/durable.hpp"

namespace sndr::flow {

namespace {

/// One `key value...` line per field; assignment vectors are
/// space-separated rule indices on a single line.
void write_fields(std::ostream& os, const ndr::AnnealCheckpoint& ck,
                  std::uint64_t fingerprint) {
  os << kCheckpointSchema << "\n";
  os << "fingerprint " << fingerprint << "\n";
  os << "iteration " << ck.iteration << "\n";
  os << "temperature " << io::hexfloat(ck.temperature) << "\n";
  os << "cooling " << io::hexfloat(ck.cooling) << "\n";
  os << "rng_state " << ck.rng_state << "\n";
  os << "proposed " << ck.proposed << "\n";
  os << "accepted " << ck.accepted << "\n";
  os << "rejected " << ck.rejected << "\n";
  os << "uphill_accepted " << ck.uphill_accepted << "\n";
  os << "delta_updates " << ck.delta_updates << "\n";
  os << "start_cap " << io::hexfloat(ck.start_cap) << "\n";
  os << "start_feasible " << (ck.start_feasible ? 1 : 0) << "\n";
  os << "best_cap " << io::hexfloat(ck.best_cap) << "\n";
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
  io::Fnv1a h;
  h.u64(static_cast<std::uint64_t>(n_nets));
  h.u64(static_cast<std::uint64_t>(n_rules));
  h.u64(seed);
  h.u64(static_cast<std::uint64_t>(iterations));
  return h.value();
}

common::Status save_checkpoint(const std::string& path,
                               const ndr::AnnealCheckpoint& ck,
                               std::uint64_t fingerprint) {
  return io::write_file_atomically(
      path, "checkpoint",
      [&](std::ostream& os) { write_fields(os, ck, fingerprint); });
}

common::Result<ndr::AnnealCheckpoint> load_checkpoint(
    const std::string& path, std::uint64_t fingerprint) {
  // Malformed CONTENT is a parse error (path:line: message); a checkpoint
  // for different inputs is well-formed but unusable — invalid argument.
  io::RecordReader in(path, "checkpoint");
  if (common::Status st = in.open(kCheckpointSchema); !st.ok()) {
    if (in.line().rfind("sndr.anneal_checkpoint/", 0) == 0) {
      return in.bad("unsupported checkpoint schema '" + in.line() +
                    "' (expected " + kCheckpointSchema +
                    "); delete it to start over");
    }
    return st;
  }

  ndr::AnnealCheckpoint ck;
  bool saw_fingerprint = false;
  std::set<std::string> seen;
  std::istringstream is;
  while (in.next(is)) {
    if (in.line().empty()) continue;
    std::string key;
    is >> key;
    if (!seen.insert(key).second) {
      return in.bad("duplicate field '" + key + "'");
    }
    const auto want = [&](auto& out) { return static_cast<bool>(is >> out); };
    bool ok = true;
    if (key == "fingerprint") {
      std::uint64_t fp = 0;
      ok = want(fp);
      if (ok && fp != fingerprint) {
        return in.mismatch(fp, fingerprint);
      }
      saw_fingerprint = ok;
    } else if (key == "iteration") {
      ok = want(ck.iteration) && ck.iteration >= 0;
    } else if (key == "temperature") {
      ok = io::read_hexfloat(is, ck.temperature);
    } else if (key == "cooling") {
      ok = io::read_hexfloat(is, ck.cooling);
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
      ok = io::read_hexfloat(is, ck.start_cap);
    } else if (key == "start_feasible") {
      int v = 0;
      ok = want(v);
      ck.start_feasible = v != 0;
    } else if (key == "best_cap") {
      ok = io::read_hexfloat(is, ck.best_cap);
    } else if (key == "assignment" || key == "best") {
      std::vector<int>& out = key == "best" ? ck.best : ck.assignment;
      int r = 0;
      while (is >> r) out.push_back(r);
      ok = is.eof();
    } else {
      return in.bad("unknown field '" + key + "'");
    }
    if (!ok) return in.bad("bad value for '" + key + "'");
    // Scalar fields are exactly `key value`; anything after the value
    // (the classic truncation-then-append corruption) is rejected rather
    // than silently dropped. Vector fields consume the whole line above.
    std::string extra;
    if (is >> extra) {
      return in.bad("trailing junk '" + extra + "' after '" + key + "'");
    }
  }
  if (!saw_fingerprint) return in.bad("missing fingerprint");
  if (ck.assignment.empty() || ck.assignment.size() != ck.best.size()) {
    return in.bad("missing or mismatched assignment vectors");
  }
  return ck;
}

std::uint64_t assignment_seed_fingerprint(int n_nets, int n_rules) {
  io::Fnv1a h;
  h.u64(static_cast<std::uint64_t>(n_nets));
  h.u64(static_cast<std::uint64_t>(n_rules));
  return h.value();
}

common::Status save_assignment_seed(const std::string& path,
                                    const std::vector<int>& assignment,
                                    std::uint64_t fingerprint) {
  return io::write_file_atomically(
      path, "assignment seed", [&](std::ostream& os) {
        os << kAssignmentSeedSchema << "\n";
        os << "fingerprint " << fingerprint << "\n";
        os << "assignment";
        for (const int r : assignment) os << ' ' << r;
        os << "\n";
      });
}

common::Result<std::vector<int>> load_assignment_seed(
    const std::string& path, std::uint64_t fingerprint) {
  io::RecordReader in(path, "assignment seed");
  if (common::Status st = in.open(kAssignmentSeedSchema); !st.ok()) return st;

  std::vector<int> assignment;
  bool saw_fingerprint = false;
  bool saw_assignment = false;
  std::set<std::string> seen;
  std::istringstream is;
  while (in.next(is)) {
    if (in.line().empty()) continue;
    std::string key;
    is >> key;
    if (!seen.insert(key).second) {
      return in.bad("duplicate field '" + key + "'");
    }
    if (key == "fingerprint") {
      std::uint64_t fp = 0;
      if (!(is >> fp)) return in.bad("bad value for 'fingerprint'");
      if (fp != fingerprint) {
        return in.mismatch(fp, fingerprint);
      }
      saw_fingerprint = true;
      std::string extra;
      if (is >> extra) {
        return in.bad("trailing junk '" + extra + "' after 'fingerprint'");
      }
    } else if (key == "assignment") {
      int r = 0;
      while (is >> r) {
        if (r < 0) return in.bad("negative rule index in 'assignment'");
        assignment.push_back(r);
      }
      if (!is.eof()) return in.bad("bad value for 'assignment'");
      saw_assignment = true;
    } else {
      return in.bad("unknown field '" + key + "'");
    }
  }
  if (!saw_fingerprint) return in.bad("missing fingerprint");
  if (!saw_assignment || assignment.empty()) {
    return in.bad("missing assignment vector");
  }
  return assignment;
}

}  // namespace sndr::flow
