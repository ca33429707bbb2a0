#include "attack/bfa.h"

#include <set>

#include <gtest/gtest.h>

#include "data/vision_synth.h"
#include "exp/experiment.h"
#include "models/resnet.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "test_util.h"

namespace rowpress::attack {
namespace {

// A small trained CNN shared across the attack tests (training once keeps
// the suite fast; each test quantizes a fresh restored copy).  A *deep*
// victim matters: the attack exploits the cascade amplification of deep
// networks, which is exactly what the paper's models expose; a shallow MLP
// is pathologically robust to constrained bit-flips.
class BfaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new data::SplitDataset(
        data::make_vision_dataset(data::vision10_config()));
    Rng rng(11);
    model_ = new std::unique_ptr<nn::Module>(
        models::make_resnet_cifar(20, 1, 10, 6, rng));
    models::TrainRecipe recipe{.epochs = 3, .batch_size = 32, .lr = 2e-3,
                               .weight_decay = 1e-4};
    const auto stats = exp::train_classifier(**model_, *data_, recipe, rng);
    ASSERT_GT(stats.test_accuracy, 0.6);
    state_ = new nn::ModelState(nn::snapshot_state(**model_));
  }
  static void TearDownTestSuite() {
    delete state_;
    delete model_;
    delete data_;
    state_ = nullptr;
    model_ = nullptr;
    data_ = nullptr;
  }

  void SetUp() override { nn::restore_state(**model_, *state_); }

  nn::Module& model() { return **model_; }

  static data::SplitDataset* data_;
  static std::unique_ptr<nn::Module>* model_;
  static nn::ModelState* state_;
};

data::SplitDataset* BfaTest::data_ = nullptr;
std::unique_ptr<nn::Module>* BfaTest::model_ = nullptr;
nn::ModelState* BfaTest::state_ = nullptr;

TEST_F(BfaTest, UnconstrainedAttackReachesRandomGuessQuickly) {
  nn::QuantizedModel qm(model());
  Rng rng(1);
  BfaConfig cfg;
  ProgressiveBitFlipAttack bfa(cfg, rng);
  const AttackResult r = bfa.run_unconstrained(qm, data_->test, data_->test);
  EXPECT_TRUE(r.objective_reached);
  EXPECT_GT(r.accuracy_before, 0.6);
  EXPECT_LE(r.accuracy_after, 0.105 + cfg.accuracy_margin);
  EXPECT_GT(r.num_flips(), 0);
  EXPECT_LT(r.num_flips(), 60);
  EXPECT_EQ(qm.flips_applied() % 2,
            static_cast<std::int64_t>(r.num_flips()) % 2);
}

TEST_F(BfaTest, AccuracyTraceIsRecordedPerFlip) {
  nn::QuantizedModel qm(model());
  Rng rng(2);
  ProgressiveBitFlipAttack bfa(BfaConfig{}, rng);
  const AttackResult r = bfa.run_unconstrained(qm, data_->test, data_->test);
  ASSERT_GT(r.num_flips(), 1);
  for (const auto& flip : r.flips) {
    EXPECT_GE(flip.accuracy_after, 0.0);
    EXPECT_LE(flip.accuracy_after, 1.0);
    EXPECT_GT(flip.loss_after, 0.0);
    EXPECT_NE(flip.weight_delta, 0.0f);
  }
  EXPECT_EQ(r.flips.back().accuracy_after, r.accuracy_after);
}

TEST_F(BfaTest, EmptyProfileMeansNoAttack) {
  nn::QuantizedModel qm(model());
  Rng rng(3);
  ProgressiveBitFlipAttack bfa(BfaConfig{}, rng);
  const AttackResult r =
      bfa.run_profile_aware(qm, {}, data_->test, data_->test);
  EXPECT_FALSE(r.objective_reached);
  EXPECT_EQ(r.num_flips(), 0);
  EXPECT_EQ(r.candidate_pool_size, 0);
  EXPECT_DOUBLE_EQ(r.accuracy_after, r.accuracy_before);
}

TEST_F(BfaTest, ProfileAwareFlipsStayInsideFeasibleSet) {
  nn::QuantizedModel qm(model());
  Rng feasible_rng(4);
  // A synthetic medium-density profile over the weight image.
  std::vector<FeasibleBit> feasible;
  const std::int64_t bits = qm.total_weight_bytes() * 8;
  for (std::int64_t b = 0; b < bits; ++b) {
    if (!feasible_rng.bernoulli(0.03)) continue;
    FeasibleBit fb;
    fb.ref = qm.bit_ref_from_image_offset(b);
    fb.linear_bit = b;
    fb.direction = feasible_rng.bernoulli(0.5)
                       ? dram::FlipDirection::kZeroToOne
                       : dram::FlipDirection::kOneToZero;
    feasible.push_back(fb);
  }
  std::set<std::int64_t> allowed;
  for (const auto& fb : feasible) allowed.insert(fb.linear_bit);

  Rng rng(5);
  ProgressiveBitFlipAttack bfa(BfaConfig{}, rng);
  const AttackResult r =
      bfa.run_profile_aware(qm, feasible, data_->test, data_->test);
  ASSERT_GT(r.num_flips(), 0);
  std::set<std::int64_t> used;
  for (const auto& flip : r.flips) {
    const std::int64_t image_bit = qm.image_bit_offset(flip.ref);
    EXPECT_TRUE(allowed.count(image_bit)) << "flip outside the profile";
    EXPECT_TRUE(used.insert(image_bit).second)
        << "a physical cell was flipped twice";
  }
}

TEST_F(BfaTest, DirectionConstraintIsRespected) {
  nn::QuantizedModel qm(model());
  // Build a profile where every cell can only flip 0 -> 1; then every
  // committed flip must have raised the stored bit.
  std::vector<FeasibleBit> feasible;
  Rng feasible_rng(6);
  const std::int64_t bits = qm.total_weight_bytes() * 8;
  for (std::int64_t b = 0; b < bits; ++b) {
    if (!feasible_rng.bernoulli(0.05)) continue;
    FeasibleBit fb;
    fb.ref = qm.bit_ref_from_image_offset(b);
    fb.linear_bit = b;
    fb.direction = dram::FlipDirection::kZeroToOne;
    feasible.push_back(fb);
  }
  Rng rng(7);
  ProgressiveBitFlipAttack bfa(BfaConfig{}, rng);
  const AttackResult r =
      bfa.run_profile_aware(qm, feasible, data_->test, data_->test);
  ASSERT_GT(r.num_flips(), 0);
  for (const auto& flip : r.flips) {
    // After a 0->1 flip the bit reads 1.
    EXPECT_TRUE(qm.get_bit(flip.ref));
  }
}

TEST_F(BfaTest, RicherProfileNeedsFewerFlips) {
  // The paper's core mechanism: a denser vulnerable-bit pool (RowPress)
  // lets the attacker reach the objective with fewer flips than a sparse
  // pool (RowHammer).  Averaged over seeds to match the paper's protocol.
  auto make_feasible = [&](nn::QuantizedModel& qm, double density,
                           std::uint64_t seed) {
    std::vector<FeasibleBit> feasible;
    Rng frng(seed);
    const std::int64_t bits = qm.total_weight_bytes() * 8;
    for (std::int64_t b = 0; b < bits; ++b) {
      if (!frng.bernoulli(density)) continue;
      FeasibleBit fb;
      fb.ref = qm.bit_ref_from_image_offset(b);
      fb.linear_bit = b;
      fb.direction = frng.bernoulli(0.5) ? dram::FlipDirection::kZeroToOne
                                         : dram::FlipDirection::kOneToZero;
      feasible.push_back(fb);
    }
    return feasible;
  };

  BfaConfig cfg;
  cfg.max_flips = 250;  // cap the sparse (failing) runs for suite speed
  int sparse_total = 0, dense_total = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    nn::restore_state(model(), *state_);
    nn::QuantizedModel qm_sparse(model());
    Rng rng_a(seed);
    ProgressiveBitFlipAttack bfa_a(cfg, rng_a);
    const auto sparse = bfa_a.run_profile_aware(
        qm_sparse, make_feasible(qm_sparse, 0.002, seed * 11),
        data_->test, data_->test);

    nn::restore_state(model(), *state_);
    nn::QuantizedModel qm_dense(model());
    Rng rng_b(seed);
    ProgressiveBitFlipAttack bfa_b(cfg, rng_b);
    const auto dense = bfa_b.run_profile_aware(
        qm_dense, make_feasible(qm_dense, 0.03, seed * 11),
        data_->test, data_->test);

    EXPECT_TRUE(dense.objective_reached);
    sparse_total += sparse.objective_reached ? sparse.num_flips() : cfg.max_flips;
    dense_total += dense.num_flips();
  }
  EXPECT_LT(dense_total, sparse_total);
}

TEST_F(BfaTest, MaxFlipBudgetIsHonored) {
  nn::QuantizedModel qm(model());
  Rng rng(8);
  BfaConfig cfg;
  cfg.max_flips = 2;
  ProgressiveBitFlipAttack bfa(cfg, rng);
  const AttackResult r = bfa.run_unconstrained(qm, data_->test, data_->test);
  EXPECT_LE(r.num_flips(), 2);
}

// The stage split times every iteration's gradient pass and ranking, and
// the replay and evaluation of every committed flip — as histograms only,
// so no new counter reaches the trial journal.
TEST_F(BfaTest, StageHistogramsSplitEachIteration) {
  nn::QuantizedModel qm(model());
  Rng rng(8);
  BfaConfig cfg;
  cfg.max_flips = 3;
  ProgressiveBitFlipAttack bfa(cfg, rng);
  telemetry::MetricsRegistry reg;
  bfa.bind_telemetry(&reg, nullptr);
  const AttackResult r = bfa.run_unconstrained(qm, data_->test, data_->test);
  ASSERT_GT(r.num_flips(), 0);
  const auto snap = reg.snapshot();
  const std::int64_t iterations = snap.counter_or("attack.iterations");
  const auto count = [&](const char* stage) {
    const auto* h =
        snap.histogram(std::string("attack.stage.") + stage + "_ns");
    return h ? h->count : -1;
  };
  EXPECT_EQ(count("grad"), iterations);
  EXPECT_EQ(count("rank"), iterations);
  EXPECT_EQ(count("replay"), r.num_flips());
  EXPECT_EQ(count("eval"), r.num_flips());
  for (const auto& [name, value] : snap.counters)
    EXPECT_NE(name.rfind("attack.stage.", 0), 0u) << name;
}

}  // namespace
}  // namespace rowpress::attack
