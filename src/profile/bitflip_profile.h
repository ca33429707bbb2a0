// DRAM bit-flip profiles: the attacker's map of vulnerable bit locations
// (C_rh / C_rp, Sec. VI).  Each entry records the linear bit address of a
// cell that was observed to flip during profiling plus its flip direction,
// which the profile-aware attack must respect (a cell that flips 0->1 can
// only inject that polarity of weight perturbation).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dram/cell_model.h"  // FlipDirection

namespace rowpress::profile {

struct VulnerableBit {
  std::int64_t linear_bit = 0;
  dram::FlipDirection direction = dram::FlipDirection::kOneToZero;
};

class BitFlipProfile {
 public:
  BitFlipProfile() = default;
  explicit BitFlipProfile(std::string mechanism_name)
      : mechanism_name_(std::move(mechanism_name)) {}

  const std::string& mechanism_name() const { return mechanism_name_; }

  /// Adds a vulnerable bit (idempotent; keeps the first direction seen).
  /// Amortized constant time when bits arrive in ascending order, as
  /// they do from a saved profile.
  void add(std::int64_t linear_bit, dram::FlipDirection direction);

  /// Direction the cell flips in, or nullopt if not in the profile.
  std::optional<dram::FlipDirection> lookup(std::int64_t linear_bit) const;

  bool contains(std::int64_t linear_bit) const {
    return lookup(linear_bit).has_value();
  }

  std::size_t size() const { return bits_.size(); }
  bool empty() const { return bits_.empty(); }

  /// Largest linear bit address in the profile, or -1 when empty.  Lets
  /// consumers check that a profile fits a device geometry (a profile built
  /// for a bigger chip would silently map weights to nonexistent cells).
  std::int64_t max_linear_bit() const;

  /// All entries, sorted by linear bit address.
  std::vector<VulnerableBit> sorted_bits() const;

  /// Entries with addresses in [begin_bit, end_bit), sorted.  Logarithmic
  /// in the profile size plus the entries returned.
  std::vector<VulnerableBit> bits_in_range(std::int64_t begin_bit,
                                           std::int64_t end_bit) const;

  struct DirectionStats {
    std::size_t one_to_zero = 0;
    std::size_t zero_to_one = 0;
  };
  DirectionStats direction_stats() const;

  /// Number of addresses present in both profiles (Fig. 4 overlap).
  std::size_t overlap(const BitFlipProfile& other) const;

  /// Text (de)serialization: a versioned header line
  /// "#rpbp v2 n=<entries> crc=<crc32-of-body-hex>" followed by one
  /// "linear_bit direction" pair per line.  load() validates entry count
  /// and checksum and throws runtime::TrialError (kCorrupt / kVersion)
  /// with `source` (e.g. the file path) and the offending byte offset on
  /// any mismatch; headerless streams from the pre-checksum format still
  /// load, with a warning on stderr.
  void save(std::ostream& os) const;
  static BitFlipProfile load(std::istream& is, std::string mechanism_name,
                             const std::string& source = "<stream>");

  /// File convenience wrappers.  load_file throws TrialError(kIo) when the
  /// file cannot be opened.  Injection points: "profile_save" /
  /// "profile_load".
  void save_file(const std::string& path) const;
  static BitFlipProfile load_file(const std::string& path,
                                  std::string mechanism_name);

 private:
  std::string mechanism_name_;
  /// Ordered by address, so range queries and the sorted dump need no
  /// scan or sort.
  std::map<std::int64_t, dram::FlipDirection> bits_;
};

}  // namespace rowpress::profile
