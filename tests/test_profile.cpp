#include "profile/profiler.h"

#include <sstream>

#include <gtest/gtest.h>

#include "runtime/error.h"
#include "test_util.h"

namespace rowpress::profile {
namespace {

using dram::CellAddress;
using dram::Device;
using dram::FlipDirection;
using dram::Mechanism;
using testutil::dense_device_config;

TEST(BitFlipProfile, AddLookupAndStats) {
  BitFlipProfile p("RowHammer");
  p.add(100, FlipDirection::kOneToZero);
  p.add(200, FlipDirection::kZeroToOne);
  p.add(100, FlipDirection::kZeroToOne);  // duplicate keeps the first
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.lookup(100), FlipDirection::kOneToZero);
  EXPECT_EQ(p.lookup(200), FlipDirection::kZeroToOne);
  EXPECT_FALSE(p.lookup(300).has_value());
  const auto ds = p.direction_stats();
  EXPECT_EQ(ds.one_to_zero, 1u);
  EXPECT_EQ(ds.zero_to_one, 1u);
}

TEST(BitFlipProfile, SortedBitsAndRangeQueries) {
  BitFlipProfile p("x");
  p.add(500, FlipDirection::kOneToZero);
  p.add(10, FlipDirection::kOneToZero);
  p.add(300, FlipDirection::kZeroToOne);
  const auto sorted = p.sorted_bits();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].linear_bit, 10);
  EXPECT_EQ(sorted[2].linear_bit, 500);
  const auto in_range = p.bits_in_range(10, 500);
  ASSERT_EQ(in_range.size(), 2u);  // half-open: 500 excluded
  EXPECT_EQ(in_range[1].linear_bit, 300);
  EXPECT_TRUE(p.bits_in_range(300, 300).empty());  // empty range
  EXPECT_TRUE(p.bits_in_range(301, 500).empty());  // between entries
  EXPECT_TRUE(p.bits_in_range(501, 10'000).empty());  // past the last entry
  ASSERT_EQ(p.bits_in_range(-5, 11).size(), 1u);
  EXPECT_EQ(p.max_linear_bit(), 500);

  // A duplicate keeps the first direction seen, wherever it lands.
  p.add(300, FlipDirection::kOneToZero);
  p.add(500, FlipDirection::kZeroToOne);
  p.add(7, FlipDirection::kZeroToOne);
  p.add(7, FlipDirection::kOneToZero);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.lookup(300), FlipDirection::kZeroToOne);
  EXPECT_EQ(p.lookup(500), FlipDirection::kOneToZero);
  EXPECT_EQ(p.lookup(7), FlipDirection::kZeroToOne);
  const auto all = p.sorted_bits();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all.front().linear_bit, 7);
  EXPECT_EQ(all[2].direction, FlipDirection::kZeroToOne);
  EXPECT_EQ(p.bits_in_range(7, 501).size(), 4u);

  const BitFlipProfile empty("none");
  EXPECT_EQ(empty.max_linear_bit(), -1);
  EXPECT_TRUE(empty.sorted_bits().empty());
  EXPECT_TRUE(empty.bits_in_range(0, 1'000).empty());
}

TEST(BitFlipProfile, OverlapCount) {
  BitFlipProfile a("a"), b("b");
  for (int i = 0; i < 10; ++i) a.add(i, FlipDirection::kOneToZero);
  for (int i = 5; i < 20; ++i) b.add(i, FlipDirection::kZeroToOne);
  EXPECT_EQ(a.overlap(b), 5u);
  EXPECT_EQ(b.overlap(a), 5u);
}

TEST(BitFlipProfile, SaveLoadRoundtrip) {
  BitFlipProfile p("RowPress");
  p.add(1234, FlipDirection::kOneToZero);
  p.add(99, FlipDirection::kZeroToOne);
  std::stringstream ss;
  p.save(ss);
  const BitFlipProfile q = BitFlipProfile::load(ss, "RowPress");
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.lookup(1234), FlipDirection::kOneToZero);
  EXPECT_EQ(q.lookup(99), FlipDirection::kZeroToOne);
  EXPECT_EQ(q.mechanism_name(), "RowPress");
}

TEST(BitFlipProfile, LoadRejectsGarbage) {
  std::stringstream ss("12 sideways\n");
  EXPECT_THROW(BitFlipProfile::load(ss, "x"), rowpress::runtime::TrialError);
}

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest() : device_(dense_device_config(123)) {}
  Device device_;
};

TEST_F(ProfilerTest, RowHammerProfileIsSoundAgainstOracle) {
  // Every discovered bit must be a RowHammer-susceptible cell with the
  // matching direction and a threshold within the profiling budget.
  ProfilerConfig cfg;
  cfg.rh_total_hammers = 200000;
  Profiler profiler(cfg);
  const BitFlipProfile prof = profiler.profile_rowhammer(device_);
  ASSERT_GT(prof.size(), 0u);
  for (const auto& vb : prof.sorted_bits()) {
    const CellAddress addr = device_.address_map().cell_address(vb.linear_bit);
    const auto* cell = device_.cell_model().find(addr);
    ASSERT_NE(cell, nullptr) << "profiled a non-vulnerable cell";
    EXPECT_TRUE(cell->rowhammer_susceptible());
    EXPECT_EQ(cell->direction, vb.direction);
    EXPECT_LE(cell->hc_threshold, cfg.rh_total_hammers);
  }
}

TEST_F(ProfilerTest, RowHammerProfileIsCompleteForInteriorRows) {
  // Every RowHammer cell with a threshold within budget, in a row with two
  // neighbours, must be discovered (the two polarity passes cover both
  // directions).
  ProfilerConfig cfg;
  cfg.rh_total_hammers = 200000;
  Profiler profiler(cfg);
  const BitFlipProfile prof = profiler.profile_rowhammer(device_);
  const auto& geom = device_.geometry();
  for (int b = 0; b < geom.num_banks; ++b) {
    for (const auto& [pos, cell] : device_.cell_model().bank_cells(b)) {
      if (!cell.rowhammer_susceptible()) continue;
      if (cell.hc_threshold > static_cast<std::uint32_t>(cfg.rh_total_hammers))
        continue;
      const int row = static_cast<int>(pos / geom.row_bits());
      if (row < 1 || row > geom.rows_per_bank - 2) continue;
      const CellAddress addr{b, row, pos % geom.row_bits()};
      EXPECT_TRUE(prof.contains(device_.address_map().linear_bit(addr)))
          << device_.address_map().to_string(addr);
    }
  }
}

TEST_F(ProfilerTest, RowPressProfileIsSoundAndDenser) {
  Profiler profiler;
  const BitFlipProfile rh = profiler.profile_rowhammer(device_);
  const BitFlipProfile rp = profiler.profile_rowpress(device_);
  ASSERT_GT(rp.size(), 0u);
  for (const auto& vb : rp.sorted_bits()) {
    const CellAddress addr = device_.address_map().cell_address(vb.linear_bit);
    const auto* cell = device_.cell_model().find(addr);
    ASSERT_NE(cell, nullptr);
    EXPECT_TRUE(cell->rowpress_susceptible());
  }
  // Fig. 4: the RowPress profile contains notably more vulnerable bits.
  EXPECT_GT(rp.size(), rh.size());
}

TEST_F(ProfilerTest, ProfilesAreRepeatable) {
  Profiler profiler;
  const BitFlipProfile a = profiler.profile_rowpress(device_);
  const BitFlipProfile b = profiler.profile_rowpress(device_);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.overlap(b), a.size());
}

TEST_F(ProfilerTest, RowRangeRestriction) {
  ProfilerConfig cfg;
  cfg.first_row = 10;
  cfg.last_row = 20;
  Profiler profiler(cfg);
  const BitFlipProfile prof = profiler.profile_rowpress(device_);
  for (const auto& vb : prof.sorted_bits()) {
    const CellAddress addr = device_.address_map().cell_address(vb.linear_bit);
    EXPECT_GE(addr.row, 9);   // pattern rows extend one beyond the range
    EXPECT_LE(addr.row, 21);
  }
}

TEST_F(ProfilerTest, ReportsSimulatedProfilingTime) {
  ProfilerConfig cfg;
  cfg.first_row = 1;
  cfg.last_row = 4;
  Profiler profiler(cfg);
  (void)profiler.profile_rowhammer(device_);
  (void)profiler.profile_rowpress(device_);
  EXPECT_GT(profiler.last_run_info().rh_profiling_time_ns, 0.0);
  EXPECT_GT(profiler.last_run_info().rp_profiling_time_ns, 0.0);
}

}  // namespace
}  // namespace rowpress::profile
