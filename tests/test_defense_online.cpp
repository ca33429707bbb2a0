// Online integrity guard tests.  Everything here is DETERMINISTIC: tests
// drive IntegrityGuard::run_round() directly (the round counter is the
// guard's clock), so the exact round a flip is detected, rolled back,
// remapped around, or recovered from is pinned — no sleeps, no cadence
// thread, no tolerance windows.
#include "defense/online/guard.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "attack/eval.h"
#include "attack/runner.h"
#include "data/vision_synth.h"
#include "defense/online/canary.h"
#include "defense/online/policy.h"
#include "defense/online/sentinel.h"
#include "dram/device.h"
#include "exp/experiment.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "runtime/jsonl.h"
#include "serve/monitor.h"
#include "serve/placement.h"
#include "serve/server.h"
#include "serve/trace_reader.h"
#include "test_util.h"

namespace rowpress::defense::online {
namespace {

using namespace std::chrono_literals;

// --- Policies -----------------------------------------------------------

TEST(DefensePolicy, AllNamedPoliciesConstructAndSelfIdentify) {
  for (const auto& name : policy_names()) {
    const auto p = make_policy(name);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), name);
  }
}

TEST(DefensePolicy, UnknownNameThrowsLogicError) {
  EXPECT_THROW(make_policy("firewall"), std::logic_error);
  EXPECT_THROW(make_policy("off"), std::logic_error);  // off = no guard
}

TEST(DefensePolicy, RollbackLocalizesScrubHitsAndSweepsOnCanary) {
  const auto p = make_policy("rollback");
  Detection scrub;
  scrub.source = Detection::Source::kScrub;
  const ActionPlan on_scrub = p->decide(scrub);
  EXPECT_TRUE(on_scrub.rollback_page);
  EXPECT_FALSE(on_scrub.full_scrub);
  EXPECT_FALSE(on_scrub.remap);

  // A canary drop proves damage without locating it: full sweep.
  Detection canary;
  canary.source = Detection::Source::kCanary;
  const ActionPlan on_canary = p->decide(canary);
  EXPECT_FALSE(on_canary.rollback_page);
  EXPECT_TRUE(on_canary.full_scrub);
}

TEST(DefensePolicy, CombinedPolicyAddsRemapToBothSources) {
  const auto p = make_policy("rollback+remap");
  Detection scrub;
  scrub.source = Detection::Source::kScrub;
  Detection canary;
  canary.source = Detection::Source::kCanary;
  EXPECT_TRUE(p->decide(scrub).remap);
  EXPECT_TRUE(p->decide(canary).remap);
  EXPECT_TRUE(p->decide(scrub).rollback_page);
  EXPECT_TRUE(p->decide(canary).full_scrub);
}

// --- Shared fixture: a small trained model ------------------------------

data::SplitDataset tiny_vision() {
  data::VisionSynthConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 40;
  cfg.test_per_class = 25;
  return data::make_vision_dataset(cfg);
}

models::ModelSpec tiny_spec() {
  models::ModelSpec s;
  s.name = "TinyMLP";
  s.paper_dataset = "synthetic";
  s.dataset = models::DatasetKind::kVision10;
  s.factory = [](Rng& rng) -> std::unique_ptr<nn::Module> {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Linear>(144, 16, rng, true, "fc1");
    net->emplace<nn::ReLU>();
    net->emplace<nn::Linear>(16, 4, rng, true, "fc2");
    return net;
  };
  s.recipe = models::TrainRecipe{.epochs = 8, .batch_size = 32, .lr = 2e-3,
                                 .weight_decay = 1e-4};
  return s;
}

class DefenseOnlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new data::SplitDataset(tiny_vision());
    spec_ = new models::ModelSpec(tiny_spec());
    Rng rng(11);
    auto model = spec_->factory(rng);
    exp::train_classifier(*model, *data_, spec_->recipe, rng);
    trained_ = new nn::ModelState(nn::snapshot_state(*model));
  }
  static void TearDownTestSuite() {
    delete trained_;
    delete spec_;
    delete data_;
    trained_ = nullptr;
    spec_ = nullptr;
    data_ = nullptr;
  }

  /// MSB flips spread across fc1's output rows — enough of them wreck the
  /// learned features (same helper as the serve tests).
  static std::vector<nn::WeightBitRef> msb_flips(int n) {
    std::vector<nn::WeightBitRef> flips;
    for (int i = 0; i < n; ++i)
      flips.push_back(nn::WeightBitRef{0, (i % 16) * 144 + i, 6});
    return flips;
  }

  /// Sign-bit flips: the hardest-hitting single-bit corruption (+-128 on
  /// the int8 code) — used where a test needs a LARGE accuracy drop.
  static std::vector<nn::WeightBitRef> sign_flips(int n) {
    std::vector<nn::WeightBitRef> flips;
    for (int i = 0; i < n; ++i)
      flips.push_back(nn::WeightBitRef{0, (i % 16) * 144 + i, 7});
    return flips;
  }

  static data::SplitDataset* data_;
  static models::ModelSpec* spec_;
  static nn::ModelState* trained_;
};

data::SplitDataset* DefenseOnlineTest::data_ = nullptr;
models::ModelSpec* DefenseOnlineTest::spec_ = nullptr;
nn::ModelState* DefenseOnlineTest::trained_ = nullptr;

// --- WeightSentinel -----------------------------------------------------

TEST_F(DefenseOnlineTest, SentinelGoldenMatchesPristineImage) {
  serve::SharedModel sm(*spec_, *trained_);
  WeightSentinel s(sm, SentinelConfig{256, 1});
  EXPECT_EQ(static_cast<std::int64_t>(s.golden().size()),
            sm.total_weight_bytes());
  EXPECT_EQ(s.golden(), sm.read_image_range(0, sm.total_weight_bytes()));
  EXPECT_TRUE(s.full_sweep().empty());  // pristine: every page clean
}

TEST_F(DefenseOnlineTest, SentinelDetectsFlipExactlyWhenCursorReachesPage) {
  serve::SharedModel sm(*spec_, *trained_);
  SentinelConfig cfg{256, 1};
  WeightSentinel s(sm, cfg);

  const nn::WeightBitRef ref{0, 600, 6};
  const std::int64_t page = sm.image_bit_offset(ref) / 8 / cfg.page_bytes;
  ASSERT_GT(page, 0);  // the interesting case: cursor must travel first
  sm.apply_bit_flip(ref);

  // One page per round, cursor from 0: detection lands exactly at round
  // `page`, not a round earlier or later.
  for (std::int64_t r = 0; r < page; ++r)
    EXPECT_TRUE(s.scrub_round().empty()) << "false positive at round " << r;
  const auto dirty = s.scrub_round();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].page, page);

  // Rollback restores the single bit through a fresh published version.
  const std::int64_t v_before = sm.version();
  const serve::RepairOutcome out = s.rollback(dirty[0]);
  EXPECT_EQ(out.bits_restored, 1);
  EXPECT_EQ(out.version, v_before + 1);
  EXPECT_EQ(sm.bits_repaired(), 1);
  EXPECT_TRUE(s.full_sweep().empty());
  EXPECT_EQ(s.golden(), sm.read_image_range(0, sm.total_weight_bytes()));
}

TEST_F(DefenseOnlineTest, SentinelFullSweepFindsEveryCorruptPage) {
  serve::SharedModel sm(*spec_, *trained_);
  SentinelConfig cfg{128, 2};
  WeightSentinel s(sm, cfg);
  std::vector<std::int64_t> pages;
  for (const auto& ref : msb_flips(6)) {
    sm.apply_bit_flip(ref);
    pages.push_back(sm.image_bit_offset(ref) / 8 / cfg.page_bytes);
  }
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());

  const auto dirty = s.full_sweep();
  ASSERT_EQ(dirty.size(), pages.size());
  for (std::size_t i = 0; i < dirty.size(); ++i)
    EXPECT_EQ(dirty[i].page, pages[i]);
}

// --- AccuracyCanary -----------------------------------------------------

TEST_F(DefenseOnlineTest, CanarySeedsBaselineAndHoldsOnHealthyModel) {
  serve::SharedModel sm(*spec_, *trained_);
  CanaryConfig cfg;
  AccuracyCanary canary(sm, data_->train, cfg);
  const auto first = canary.run();
  EXPECT_FALSE(first.detected);  // first run seeds, never detects
  EXPECT_EQ(canary.baseline(), first.accuracy);
  // Same weights, same fixed batch: identical accuracy, EWMA fixed point.
  const auto second = canary.run();
  EXPECT_EQ(second.accuracy, first.accuracy);
  EXPECT_FALSE(second.detected);
  EXPECT_EQ(canary.baseline(), first.accuracy);
}

TEST_F(DefenseOnlineTest, CanaryDetectsDropAndDoesNotChaseItDownward) {
  serve::SharedModel sm(*spec_, *trained_);
  CanaryConfig cfg;
  cfg.drop_threshold = 0.05;
  AccuracyCanary canary(sm, data_->train, cfg);
  const auto clean = canary.run();
  ASSERT_GT(clean.accuracy, 0.5);  // the tiny MLP must have learned

  for (const auto& ref : sign_flips(64)) sm.apply_bit_flip(ref);
  const auto hit = canary.run();
  EXPECT_TRUE(hit.detected);
  EXPECT_GT(hit.drop, cfg.drop_threshold);
  // The baseline must NOT absorb the attacked sample — otherwise a slow
  // chain of small drops would walk the EWMA down and never fire.
  EXPECT_EQ(canary.baseline(), clean.accuracy);
  const auto again = canary.run();
  EXPECT_TRUE(again.detected);
  EXPECT_EQ(canary.baseline(), clean.accuracy);
}

// --- IntegrityGuard: rollback ------------------------------------------

TEST_F(DefenseOnlineTest, GuardDetectsAndRollsBackAtDeterministicRound) {
  serve::SharedModel sm(*spec_, *trained_);
  GuardConfig cfg;
  cfg.sentinel = SentinelConfig{256, 1};
  cfg.canary_every = 1 << 20;  // isolate the scrub path
  IntegrityGuard guard(sm, make_policy("rollback"), data_->train, cfg);
  const std::int64_t pages = guard.sentinel().pages();

  const nn::WeightBitRef ref{0, 600, 6};
  const std::int64_t page =
      sm.image_bit_offset(ref) / 8 / cfg.sentinel.page_bytes;
  sm.apply_bit_flip(ref);

  // Rounds 0..page-1 scrub clean pages; round `page` detects + repairs.
  for (std::int64_t r = 0; r <= page; ++r) guard.run_round();
  GuardStats s = guard.stats();
  EXPECT_EQ(s.rounds, page + 1);
  EXPECT_EQ(s.first_detection_round, page);
  EXPECT_EQ(s.scrub_detections, 1);
  EXPECT_EQ(s.rollbacks, 1);
  EXPECT_EQ(s.bits_restored, 1);
  EXPECT_EQ(s.recoveries, 0);  // not yet: the cycle must wrap clean

  // One full clean cycle after the repair declares recovery — exactly
  // when the cursor wraps back to page 0.
  while (guard.stats().recoveries == 0 &&
         guard.stats().rounds < page + 1 + 2 * pages)
    guard.run_round();
  s = guard.stats();
  EXPECT_EQ(s.recoveries, 1);
  // Cursor wrapped: rounds is the next multiple of `pages` after the
  // detection round, plus the full clean cycle.
  EXPECT_EQ(s.rounds % pages, 0);
  EXPECT_EQ(guard.sentinel().golden(),
            sm.read_image_range(0, sm.total_weight_bytes()));
}

// The guard's stage timers record nanoseconds; a canary run and a scrub
// round (milliseconds or less) must land in a finite bucket, not overflow.
TEST_F(DefenseOnlineTest, GuardTimersLandInFiniteBuckets) {
  serve::SharedModel sm(*spec_, *trained_);
  GuardConfig cfg;
  cfg.canary_every = 1;
  telemetry::MetricsRegistry reg;
  IntegrityGuard guard(sm, make_policy("alarm"), data_->train, cfg, nullptr,
                       nullptr, nullptr, &reg);
  guard.run_round();
  const telemetry::Snapshot snap = reg.snapshot();
  for (const char* name :
       {"defense.online.canary_ms", "defense.online.scrub_ms"}) {
    const auto* h = snap.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, 1) << name;
    EXPECT_EQ(h->bucket_counts.back(), 0) << name << " overflowed";
    EXPECT_GT(h->sum, 0.0) << name;
  }
}

TEST_F(DefenseOnlineTest, RecoverNowRestoresBitExactPristineAccuracy) {
  serve::SharedModel sm(*spec_, *trained_);
  GuardConfig cfg;
  cfg.canary_every = 1 << 20;
  IntegrityGuard guard(sm, make_policy("alarm"), data_->train, cfg);

  std::vector<int> idx(static_cast<std::size_t>(data_->test.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<int>(i);
  serve::ModelReplica replica(*spec_);
  const auto v0 = sm.pin();
  const double pristine =
      attack::subset_accuracy(replica.at(*v0), data_->test, idx);

  for (const auto& ref : msb_flips(64)) sm.apply_bit_flip(ref);
  const std::int64_t restored = guard.recover_now();
  EXPECT_EQ(restored, 64);  // every flip undone
  EXPECT_EQ(guard.sentinel().golden(),
            sm.read_image_range(0, sm.total_weight_bytes()));

  const auto head = sm.pin();
  EXPECT_GT(head->id, 64);  // repair published new versions, not rewinds
  const double recovered =
      attack::subset_accuracy(replica.at(*head), data_->test, idx);
  EXPECT_EQ(recovered, pristine);  // bit-exact restore => exact accuracy
}

// --- IntegrityGuard: remap ---------------------------------------------

TEST_F(DefenseOnlineTest, GuardRemapStrandsTheRestOfThePhysicalChain) {
  serve::SharedModel sm(*spec_, *trained_);
  const dram::Device device(exp::default_chip_config());
  serve::VictimPlacement placement(device.geometry(),
                                   sm.total_weight_bytes(), /*seed=*/5);

  // The attacker resolves its planned refs to physical addresses under
  // the placement current at planning time.
  const auto plan_map = placement.mapping();
  std::vector<std::int64_t> chain_bits;
  for (const auto& ref : msb_flips(8))
    chain_bits.push_back(plan_map->linear_bit_for(sm.image_bit_offset(ref)));

  GuardConfig cfg;
  cfg.sentinel = SentinelConfig{4096, 1};  // whole image in few pages
  cfg.canary_every = 1 << 20;
  IntegrityGuard guard(sm, make_policy("remap"), data_->train, cfg,
                       &placement);

  // First flip lands under the original placement...
  sm.apply_bit_flip(sm.bit_ref_from_image_offset(
      plan_map->image_bit_for(chain_bits[0])));
  // ...the guard detects it within one full cycle and remaps.
  for (std::int64_t r = 0; r < guard.sentinel().pages(); ++r)
    guard.run_round();
  const GuardStats s = guard.stats();
  EXPECT_EQ(s.scrub_detections, 1);
  EXPECT_EQ(s.remaps, 1);
  EXPECT_EQ(s.rollbacks, 0);  // remap does not undo landed damage
  EXPECT_EQ(placement.epoch(), 1);
  EXPECT_NE(placement.base_byte(), plan_map->base_byte());

  // The attacker's remaining profiled addresses now miss the image or hit
  // unintended weights: under this device geometry (image << DRAM), a
  // re-derived placement leaves the stale chain stranded.
  const auto live = placement.mapping();
  int stale = 0;
  for (std::size_t i = 1; i < chain_bits.size(); ++i) {
    if (!live->contains_linear_bit(chain_bits[i]) ||
        live->image_bit_for(chain_bits[i]) !=
            plan_map->image_bit_for(chain_bits[i]))
      ++stale;
  }
  EXPECT_EQ(stale, static_cast<int>(chain_bits.size()) - 1);
}

// --- IntegrityGuard: throttle ------------------------------------------

TEST_F(DefenseOnlineTest, GuardThrottlesOnDetectionAndReleasesAfterClean) {
  serve::SharedModel sm(*spec_, *trained_);
  serve::ServerConfig scfg;
  scfg.threads = 1;
  serve::InferenceServer server(sm, data_->test, scfg);

  GuardConfig cfg;
  // Whole image per round: detection at round 0, recovery declarable
  // every round, so the release schedule is exact.
  cfg.sentinel = SentinelConfig{1 << 20, 1};
  cfg.canary_every = 1 << 20;
  cfg.throttle_admit_one_in = 4;
  cfg.unthrottle_after_clean = 3;
  IntegrityGuard guard(sm, make_policy("throttle"), data_->train, cfg,
                       nullptr, &server);

  sm.apply_bit_flip(nn::WeightBitRef{0, 3, 6});
  guard.run_round();  // round 0: detect -> throttle engages
  EXPECT_TRUE(guard.throttled());
  EXPECT_EQ(server.admit_one_in(), 4);
  EXPECT_EQ(guard.stats().throttles, 1);

  // Throttle never repairs, so the page stays dirty and the guard keeps
  // re-detecting — admission must stay degraded.
  guard.run_round();
  EXPECT_TRUE(guard.throttled());

  // Heal out-of-band (the operator restores the weights); the guard then
  // needs `unthrottle_after_clean` consecutive clean rounds to release.
  for (const auto& page : guard.sentinel().full_sweep())
    guard.sentinel().rollback(page);
  guard.run_round();  // clean #1 (also declares recovery)
  EXPECT_TRUE(guard.throttled());
  guard.run_round();  // clean #2
  EXPECT_TRUE(guard.throttled());
  guard.run_round();  // clean #3: released
  EXPECT_FALSE(guard.throttled());
  EXPECT_EQ(server.admit_one_in(), 1);
  EXPECT_EQ(guard.stats().recoveries, 1);
}

// --- Guard events in the serve trace ------------------------------------

TEST_F(DefenseOnlineTest, GuardEventsAreJournaledAndReadBack) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("rp_guard_trace_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  serve::SharedModel sm(*spec_, *trained_);
  serve::ServerConfig scfg;
  scfg.threads = 1;
  serve::InferenceServer server(sm, data_->test, scfg);
  {
    serve::ServeMonitor monitor(server, nullptr, path, 10ms);
    GuardConfig cfg;
    cfg.sentinel = SentinelConfig{1 << 20, 1};
    cfg.canary_every = 1 << 20;
    IntegrityGuard guard(sm, make_policy("rollback"), data_->train, cfg,
                         nullptr, nullptr, &monitor);
    sm.apply_bit_flip(nn::WeightBitRef{0, 3, 6});
    guard.run_round();  // detect + rollback
    guard.run_round();  // clean cycle -> recovered
    EXPECT_EQ(monitor.guard_events(), 3);
    monitor.stop();  // flush (also emits the final tick)
  }

  serve::TraceReadStats stats;
  std::vector<std::string> events;
  for (const auto& rec : serve::read_trace(path, &stats)) {
    if (rec.kind != "guard") continue;
    const auto event = runtime::json_get_string(rec.line, "event");
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(runtime::json_get_string(rec.line, "policy").value_or(""),
              "rollback");
    ASSERT_TRUE(runtime::json_get_int(rec.line, "round").has_value());
    events.push_back(*event);
  }
  EXPECT_EQ(stats.dropped_lines, 0u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  const std::vector<std::string> expected = {"scrub_mismatch", "rollback",
                                             "recovered"};
  EXPECT_EQ(events, expected);
  std::filesystem::remove(path);
}

// --- Canary-driven full scrub (end to end through the guard) ------------

TEST_F(DefenseOnlineTest, CanaryDropTriggersFullScrubRepair) {
  serve::SharedModel sm(*spec_, *trained_);
  GuardConfig cfg;
  // Scrub is deliberately slow (one tiny page per round) so the canary,
  // which runs every round here, must be the sensor that fires.
  cfg.sentinel = SentinelConfig{64, 1};
  cfg.canary_every = 1;
  IntegrityGuard guard(sm, make_policy("rollback"), data_->train, cfg);

  // Corrupt a page the scrub cursor will not reach at round 0: the flip
  // sits well past the first 64-byte page.
  for (const auto& ref : sign_flips(64)) sm.apply_bit_flip(ref);
  guard.run_round();
  const GuardStats s = guard.stats();
  EXPECT_GE(s.canary_detections, 1);
  // The canary's full-scrub response repaired the WHOLE image, including
  // every page the round-robin cursor never visited.
  EXPECT_EQ(guard.sentinel().golden(),
            sm.read_image_range(0, sm.total_weight_bytes()));
  EXPECT_EQ(s.bits_restored, 64);
}

}  // namespace
}  // namespace rowpress::defense::online
