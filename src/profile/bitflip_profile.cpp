#include "profile/bitflip_profile.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/crc32.h"
#include "runtime/error.h"
#include "runtime/fault_inject.h"

namespace rowpress::profile {
namespace {

using runtime::ErrorCategory;
using runtime::TrialError;

// Header grammar: "#rpbp v<version> n=<entries> crc=<8 hex digits>\n".
constexpr int kProfileVersion = 2;

[[noreturn]] void corrupt_at(const std::string& source, std::size_t offset,
                             const std::string& what) {
  throw TrialError(ErrorCategory::kCorrupt,
                   "corrupt bit-flip profile " + source + ": " + what +
                       " at byte offset " + std::to_string(offset),
                   source);
}

// Serializes the entry lines (everything the checksum covers).
std::string body_text(const BitFlipProfile& p) {
  std::ostringstream os;
  for (const auto& vb : p.sorted_bits()) {
    os << vb.linear_bit << ' '
       << (vb.direction == dram::FlipDirection::kOneToZero ? "1to0" : "0to1")
       << '\n';
  }
  return os.str();
}

// Parses entry lines into `p`; `base_offset` is where the body starts in
// the original stream, so error offsets are absolute.
void parse_body(BitFlipProfile& p, const std::string& body,
                std::size_t base_offset, const std::string& source) {
  std::size_t line_start = 0;
  while (line_start < body.size()) {
    std::size_t line_end = body.find('\n', line_start);
    if (line_end == std::string::npos) line_end = body.size();
    const std::string line = body.substr(line_start, line_end - line_start);
    if (!line.empty()) {
      std::istringstream ls(line);
      std::int64_t addr = 0;
      std::string dir;
      if (!(ls >> addr >> dir) || (dir != "1to0" && dir != "0to1"))
        corrupt_at(source, base_offset + line_start,
                   "malformed entry line '" + line + "'");
      std::string extra;
      if (ls >> extra)
        corrupt_at(source, base_offset + line_start,
                   "trailing token '" + extra + "' on entry line");
      p.add(addr, dir == "1to0" ? dram::FlipDirection::kOneToZero
                                : dram::FlipDirection::kZeroToOne);
    }
    line_start = line_end + 1;
  }
}

}  // namespace

void BitFlipProfile::add(std::int64_t linear_bit,
                         dram::FlipDirection direction) {
  bits_.emplace_hint(bits_.end(), linear_bit, direction);
}

std::optional<dram::FlipDirection> BitFlipProfile::lookup(
    std::int64_t linear_bit) const {
  const auto it = bits_.find(linear_bit);
  if (it == bits_.end()) return std::nullopt;
  return it->second;
}

std::int64_t BitFlipProfile::max_linear_bit() const {
  return bits_.empty() ? -1 : bits_.rbegin()->first;
}

std::vector<VulnerableBit> BitFlipProfile::sorted_bits() const {
  std::vector<VulnerableBit> out;
  out.reserve(bits_.size());
  for (const auto& [addr, dir] : bits_)
    out.push_back(VulnerableBit{addr, dir});
  return out;
}

std::vector<VulnerableBit> BitFlipProfile::bits_in_range(
    std::int64_t begin_bit, std::int64_t end_bit) const {
  std::vector<VulnerableBit> out;
  for (auto it = bits_.lower_bound(begin_bit);
       it != bits_.end() && it->first < end_bit; ++it)
    out.push_back(VulnerableBit{it->first, it->second});
  return out;
}

BitFlipProfile::DirectionStats BitFlipProfile::direction_stats() const {
  DirectionStats s;
  for (const auto& [addr, dir] : bits_) {
    if (dir == dram::FlipDirection::kOneToZero)
      ++s.one_to_zero;
    else
      ++s.zero_to_one;
  }
  return s;
}

std::size_t BitFlipProfile::overlap(const BitFlipProfile& other) const {
  const auto& small = bits_.size() <= other.bits_.size() ? bits_ : other.bits_;
  const auto& large = bits_.size() <= other.bits_.size() ? other.bits_ : bits_;
  std::size_t n = 0;
  for (const auto& [addr, dir] : small)
    if (large.contains(addr)) ++n;
  return n;
}

void BitFlipProfile::save(std::ostream& os) const {
  const std::string body = body_text(*this);
  char header[64];
  std::snprintf(header, sizeof(header), "#rpbp v%d n=%zu crc=%08x\n",
                kProfileVersion, bits_.size(), crc32(body));
  os << header << body;
}

BitFlipProfile BitFlipProfile::load(std::istream& is,
                                    std::string mechanism_name,
                                    const std::string& source) {
  std::string content;
  {
    std::ostringstream ss;
    ss << is.rdbuf();
    content = ss.str();
  }
  if (is.bad())
    throw TrialError(ErrorCategory::kIo,
                     "read error on bit-flip profile " + source, source);

  BitFlipProfile p(std::move(mechanism_name));
  if (content.empty() || content[0] != '#') {
    // Pre-checksum format: bare entry lines with nothing to validate
    // against (structural errors still come back typed).
    std::fprintf(stderr,
                 "warning: %s: headerless bit-flip profile (pre-checksum "
                 "format); loading without integrity validation\n",
                 source.c_str());
    parse_body(p, content, 0, source);
    return p;
  }

  std::size_t header_end = content.find('\n');
  if (header_end == std::string::npos)
    corrupt_at(source, content.size(), "truncated header line");
  const std::string header = content.substr(0, header_end);
  int version = 0;
  std::size_t n = 0;
  unsigned expected_crc = 0;
  if (std::sscanf(header.c_str(), "#rpbp v%d n=%zu crc=%08x", &version, &n,
                  &expected_crc) != 3)
    corrupt_at(source, 0, "malformed header '" + header + "'");
  if (version != kProfileVersion)
    throw TrialError(ErrorCategory::kVersion,
                     "bit-flip profile " + source + " has format version " +
                         std::to_string(version) + " (supported: " +
                         std::to_string(kProfileVersion) + ")",
                     source);

  const std::size_t body_at = header_end + 1;
  const std::string body = content.substr(body_at);
  const std::uint32_t actual_crc = crc32(body);
  if (actual_crc != expected_crc)
    corrupt_at(source, body_at,
               "body checksum mismatch (stored " +
                   std::to_string(expected_crc) + ", computed " +
                   std::to_string(actual_crc) + ")");
  parse_body(p, body, body_at, source);
  if (p.size() != n)
    corrupt_at(source, body_at,
               "entry count mismatch (header says " + std::to_string(n) +
                   ", body has " + std::to_string(p.size()) + ")");
  return p;
}

void BitFlipProfile::save_file(const std::string& path) const {
  runtime::fault::hit("profile_save");
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream os(path, std::ios::binary);
  if (!os.good())
    throw TrialError(ErrorCategory::kIo,
                     "cannot open bit-flip profile for writing: " + path,
                     path);
  save(os);
  os.flush();
  if (!os.good())
    throw TrialError(ErrorCategory::kIo,
                     "short write to bit-flip profile: " + path, path);
}

BitFlipProfile BitFlipProfile::load_file(const std::string& path,
                                         std::string mechanism_name) {
  runtime::fault::hit("profile_load");
  std::ifstream is(path, std::ios::binary);
  if (!is.good())
    throw TrialError(ErrorCategory::kIo,
                     "cannot open bit-flip profile: " + path, path);
  return load(is, std::move(mechanism_name), path);
}

}  // namespace rowpress::profile
