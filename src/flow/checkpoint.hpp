// Durable anneal checkpoints: the flow-level half of preemption survival.
//
// The annealer emits AnnealCheckpoint snapshots (see ndr/annealer.hpp);
// this module gives them a file format and a validity check so a killed
// million-net run restarts where it left off instead of from iteration 0.
//
// Format: `sndr.anneal_checkpoint/3`, line-oriented text; a file of any
// other schema version is rejected by its first line. Floating-point
// fields are written as hexfloats (%a), which round-trip bit-exactly —
// the resumed trajectory is bitwise identical to the uninterrupted run.
// Saves are atomic (write to <path>.tmp, then rename), so a crash during
// a save leaves the previous snapshot intact.
//
// A fingerprint of the search inputs (net count, rule count, seed,
// iteration budget) is stored in the file; loading with a different
// fingerprint fails with kInvalidArgument rather than silently resuming a
// checkpoint from some other design or configuration.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "ndr/annealer.hpp"

namespace sndr::flow {

/// Schema tag written as the first line of every checkpoint file; also
/// printed by `sndr version` so operators can match binaries to on-disk
/// checkpoints.
inline constexpr const char* kCheckpointSchema = "sndr.anneal_checkpoint/3";

/// FNV-1a over the inputs the checkpoint is only valid against.
std::uint64_t checkpoint_fingerprint(int n_nets, int n_rules,
                                     std::uint64_t seed, int iterations);

/// Atomically writes `ck` to `path`. kIoError on filesystem failure.
common::Status save_checkpoint(const std::string& path,
                               const ndr::AnnealCheckpoint& ck,
                               std::uint64_t fingerprint);

/// kNotFound when `path` does not exist; kInvalidArgument on a malformed
/// file or a fingerprint mismatch (path:line in the message).
common::Result<ndr::AnnealCheckpoint> load_checkpoint(
    const std::string& path, std::uint64_t fingerprint);

/// Assignment seed files: a bare rule assignment with a shape fingerprint,
/// the durable form of a warm start. The DSE sweep writes one per point
/// (the nearest solved neighbor's assignment) and names it in the point's
/// `warm_start` config key, so re-running that config standalone replays
/// the identical starting state. Same atomicity/diagnostic contract as
/// the anneal checkpoint format above.
inline constexpr const char* kAssignmentSeedSchema = "sndr.assignment_seed/1";

/// FNV-1a over the search shape a seed is valid against.
std::uint64_t assignment_seed_fingerprint(int n_nets, int n_rules);

/// Atomically writes `assignment` to `path`. kIoError on failure.
common::Status save_assignment_seed(const std::string& path,
                                    const std::vector<int>& assignment,
                                    std::uint64_t fingerprint);

/// kNotFound when `path` does not exist; kInvalidArgument on fingerprint
/// mismatch; parse failures carry path:line.
common::Result<std::vector<int>> load_assignment_seed(
    const std::string& path, std::uint64_t fingerprint);

}  // namespace sndr::flow
