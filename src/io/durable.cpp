#include "io/durable.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace sndr::io {

void Fnv1a::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Fnv1a::u64(std::uint64_t v) {
  unsigned char le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(le, sizeof le);
}

std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

bool read_hexfloat(std::istream& is, double& out) {
  std::string tok;
  if (!(is >> tok)) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end != tok.c_str() && *end == '\0';
}

common::Status write_file_atomically(
    const std::string& path, const std::string& what,
    const std::function<void(std::ostream&)>& writer) {
  const std::string tmp = path + ".tmp";
  common::Status st;
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) return common::Status::IoError("cannot write " + what + " " + tmp);
    writer(f);
    if (!f.flush()) {
      st = common::Status::IoError("short write to " + what + " " + tmp);
    }
  }
  std::error_code ec;
  if (st.ok()) {
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      st = common::Status::IoError("cannot move " + what +
                                   " into place: " + ec.message());
    }
  }
  if (!st.ok()) std::filesystem::remove(tmp, ec);
  return st;
}

bool expect_key(std::istream& is, const char* key) {
  std::string k;
  return static_cast<bool>(is >> k) && k == key;
}

bool no_extra(std::istream& is) {
  std::string extra;
  return !(is >> extra);
}

common::Status RecordReader::open(const char* schema) {
  f_.open(path_);
  if (!f_) return common::Status::NotFound("no " + noun_ + " at " + path_);
  line_no_ = 1;
  if (!std::getline(f_, line_) || line_ != schema) {
    return bad(std::string("expected ") + schema);
  }
  return common::Status::Ok();
}

bool RecordReader::next(std::istringstream& is) {
  if (!std::getline(f_, line_)) return false;
  ++line_no_;
  is.clear();
  is.str(line_);
  return true;
}

common::Status RecordReader::bad(const std::string& what) const {
  return common::Status::ParseFailure(path_ + ":" + std::to_string(line_no_) +
                                      ": " + what);
}

common::Status RecordReader::mismatch(std::uint64_t got,
                                      std::uint64_t want) const {
  return common::Status::InvalidArgument(
      path_ + ":" + std::to_string(line_no_) + ": " + noun_ +
      " is for different inputs (fingerprint " + std::to_string(got) +
      " != " + std::to_string(want) + "); delete it to start over");
}

}  // namespace sndr::io
