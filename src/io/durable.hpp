// The durability policy, in one place: every file that must survive a
// crash and replay bit for bit (the anneal checkpoint, the assignment
// seed and the DSE sweep log in flow/ and dse/) and every content key
// (serve::file_fingerprint) goes through these primitives.
//
//  * Fnv1a — the one fingerprint hash. A file stores the hash of the
//    inputs it is valid against, and a load under other inputs is
//    refused rather than silently resumed.
//  * hexfloat / read_hexfloat — %a text, which round-trips every double
//    bit-exactly.
//  * write_file_atomically — tmp + flush + rename, so a crash mid-save
//    leaves the previous file intact.
//  * RecordReader — numbered line input with the shared `path:line:`
//    diagnostics (kParseError for malformed content, kInvalidArgument for
//    a well-formed file for other inputs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "common/status.hpp"

namespace sndr::io {

/// 64-bit FNV-1a accumulator.
class Fnv1a {
 public:
  Fnv1a() = default;
  /// Starts from `basis` instead of the standard offset basis.
  explicit Fnv1a(std::uint64_t basis) : h_(basis) {}

  void bytes(const void* data, std::size_t n);
  /// `v` as 8 little-endian bytes.
  void u64(std::uint64_t v);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// `v` as %a text.
std::string hexfloat(double v);

/// Reads one whitespace-delimited hexfloat token (istream operator>> does
/// not accept them; strtod does). False on exhaustion or junk in the
/// token.
bool read_hexfloat(std::istream& is, double& out);

/// Writes `path` through `writer` into `path`.tmp, flushes, and renames it
/// into place. kIoError names `what` ("checkpoint", ...) on any failure;
/// the tmp file is removed then.
common::Status write_file_atomically(
    const std::string& path, const std::string& what,
    const std::function<void(std::ostream&)>& writer);

/// Reads the next token and compares it with `key`.
bool expect_key(std::istream& is, const char* key);

/// True when nothing but whitespace is left in `is`.
bool no_extra(std::istream& is);

/// Numbered line input over one durable file. `noun` names the kind of
/// file in diagnostics ("checkpoint", "assignment seed", ...).
class RecordReader {
 public:
  RecordReader(std::string path, std::string noun)
      : path_(std::move(path)), noun_(std::move(noun)) {}

  /// Opens the file and checks that line 1 is `schema`: kNotFound "no
  /// <noun> at <path>" when it cannot be opened, otherwise a parse
  /// failure "expected <schema>" on any other line 1 (kept in line()).
  common::Status open(const char* schema);

  /// Reads the next line into `is`; false at EOF.
  bool next(std::istringstream& is);

  const std::string& line() const { return line_; }

  /// kParseError "path:line: what".
  common::Status bad(const std::string& what) const;

  /// kInvalidArgument "path:line: <noun> is for different inputs
  /// (fingerprint got != want); delete it to start over".
  common::Status mismatch(std::uint64_t got, std::uint64_t want) const;

 private:
  std::string path_;
  std::string noun_;
  std::ifstream f_;
  std::string line_;
  int line_no_ = 0;
};

}  // namespace sndr::io
