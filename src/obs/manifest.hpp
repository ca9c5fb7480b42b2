// Run manifests: one schema-versioned JSON document per invocation.
//
// A manifest is the durable record of a run — what was run (tool,
// command, args, git state, host), how (threads, seed), and what the
// observability layer saw (per-stage span rollup, every registry
// counter/gauge/histogram, derived rates). The CLI writes one per
// invocation behind --metrics-out, the flow one per job (a DSE sweep one
// per point) and sndr_serve one for the whole server.
//
// Schema "sndr.run_manifest/2" — one key per line, keys in fixed order,
// metric names sorted — so the document is diffable, greppable, and
// golden-testable (tests/manifest_golden_test.cpp normalizes the
// volatile fields: git, host, started_utc, wall_seconds, span times and
// *.seconds gauges). /2 added the "stages" array: the flow runner
// (src/flow) records one entry per pipeline stage (name, wall seconds,
// ok/skipped/error), so every run's manifest doubles as a stage-by-stage
// execution record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sndr::obs {

inline constexpr const char* kManifestSchema = "sndr.run_manifest/2";

/// One pipeline stage as executed (flow::Flow fills these).
struct StageInfo {
  std::string name;       ///< e.g. "load", "cts", "optimize".
  double seconds = -1.0;  ///< stage wall time; < 0 = unknown.
  std::string status = "ok";  ///< "ok", "skipped", or an error summary.
};

struct RunInfo {
  std::string tool;     ///< e.g. "sndr_cli", "sndr_serve".
  std::string command;  ///< e.g. "run", "dse".
  std::vector<std::string> args;
  int threads = 0;            ///< resolved lane count.
  std::uint64_t seed = 0;
  double wall_seconds = -1.0;  ///< whole-run wall time; < 0 = unknown.
  std::vector<StageInfo> stages;  ///< empty for non-staged tools.
};

/// The manifest document for the current process state (full registry
/// snapshot + span rollup + derived rates).
std::string run_manifest_json(const RunInfo& info);

/// The `git describe --always --dirty` of the working tree at first call
/// ("unknown" outside a checkout), cached for the process lifetime. This
/// is the value every manifest's "git" key carries; `sndr version` prints
/// the same string.
std::string git_describe();

/// Writes run_manifest_json to `path` atomically (<path>.tmp + rename, the
/// same discipline as checkpoints — a reader never sees a torn manifest
/// and a cancelled run leaves either the complete document or nothing).
/// Throws std::runtime_error on I/O failure.
void write_run_manifest(const std::string& path, const RunInfo& info);

/// Writes the Chrome-trace JSON of every recorded span to `path`.
void write_chrome_trace_file(const std::string& path);

}  // namespace sndr::obs
