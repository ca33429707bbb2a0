// Finite-difference gradient checks for every layer, plus shape and
// semantics tests.  Gradient correctness is what the whole attack rests on:
// BFA ranks bits by dL/dW, so a wrong backward silently breaks the science.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/attention.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/norm.h"
#include "nn/pooling.h"
#include "nn/ssm.h"
#include "test_util.h"

namespace rowpress::nn {
namespace {

using testutil::grad_check;

constexpr double kTol = 0.03;

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear m(6, 4, rng);
  const auto r = grad_check(m, {5, 6}, rng);
  EXPECT_LT(r.max_rel_error, kTol) << "checked " << r.checked;
}

TEST(GradCheck, LinearOnTokens) {
  Rng rng(2);
  Linear m(6, 4, rng);
  const auto r = grad_check(m, {2, 3, 6}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, LinearNoBias) {
  Rng rng(3);
  Linear m(5, 5, rng, /*bias=*/false);
  EXPECT_EQ(m.parameters().size(), 1u);
  const auto r = grad_check(m, {4, 5}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Conv2dStridePad) {
  Rng rng(4);
  Conv2d m(3, 4, 3, 2, 1, rng, /*bias=*/true);
  const auto r = grad_check(m, {2, 3, 7, 7}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Conv2d1x1) {
  Rng rng(5);
  Conv2d m(4, 2, 1, 1, 0, rng);
  const auto r = grad_check(m, {2, 4, 5, 5}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Conv1d) {
  Rng rng(6);
  Conv1d m(2, 3, 5, 2, 2, rng, /*bias=*/true);
  const auto r = grad_check(m, {3, 2, 16}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, BatchNormTrainMode) {
  Rng rng(7);
  BatchNorm m(3, rng);
  m.set_training(true);
  const auto r = grad_check(m, {4, 3, 5, 5}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, BatchNormEvalMode) {
  Rng rng(8);
  BatchNorm m(3, rng);
  // Populate running stats, then check gradients in eval mode (what the
  // attack differentiates through).
  m.set_training(true);
  Tensor warm = Tensor::randn({8, 3, 4, 4}, rng);
  m.forward(warm);
  m.set_training(false);
  const auto r = grad_check(m, {4, 3, 4, 4}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

// BatchNorm's forward does not store the normalized input; backward
// recomputes it.  Pin the outputs bitwise, in both modes, to the path that
// cached it, restated here in scalar form: norm = float((x - mean) * istd)
// cached by the forward, y = fmaf(gamma, norm, beta), and a backward
// reading that cache.  Training takes mean and variance from the batch in
// double, eval from the running statistics.
TEST(Layers, BatchNormMatchesCachedNormBitwise) {
  const auto same = [](float a, float b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const bool training : {false, true}) {
    for (const int n : {1, 5, 32, 256}) {
      for (const int c : {8, 16}) {
        for (const int inner : {144, 36, 9, 7}) {
          const std::string where =
              std::string(training ? "training" : "eval") +
              " n=" + std::to_string(n) + " c=" + std::to_string(c) +
              " inner=" + std::to_string(inner);
          Rng rng(static_cast<std::uint64_t>(n * 1000 + c * 10 + inner));
          BatchNorm m(c, rng);
          m.set_training(true);
          m.forward(Tensor::randn({8, c, inner}, rng));  // running stats
          for (Param* p : m.parameters())
            for (std::int64_t i = 0; i < p->value.numel(); ++i)
              p->value[i] = static_cast<float>(rng.normal());
          m.set_training(training);
          const Tensor x = Tensor::randn({n, c, inner}, rng);
          const Tensor go = Tensor::randn({n, c, inner}, rng);
          // Eval reads the running statistics the forward leaves alone.
          std::vector<double> run_mean, run_var;
          for (int ch = 0; ch < c; ++ch) {
            run_mean.push_back(m.running_mean().cdata()[ch]);
            run_var.push_back(m.running_var().cdata()[ch]);
          }
          const Tensor y = m.forward(x);
          const Tensor gi = m.backward(go);

          const Param& gamma = *m.parameters()[0];
          const Param& beta = *m.parameters()[1];
          const double count = static_cast<double>(n) * inner;
          const auto at = [&](int b, int ch, int s) {
            return (static_cast<std::int64_t>(b) * c + ch) * inner + s;
          };
          for (int ch = 0; ch < c; ++ch) {
            double mean = run_mean[static_cast<std::size_t>(ch)];
            double var = run_var[static_cast<std::size_t>(ch)];
            if (training) {
              mean = 0.0;
              var = 0.0;
              for (int b = 0; b < n; ++b)
                for (int s = 0; s < inner; ++s) mean += x[at(b, ch, s)];
              mean /= count;
              for (int b = 0; b < n; ++b)
                for (int s = 0; s < inner; ++s) {
                  const double d = x[at(b, ch, s)] - mean;
                  var += d * d;
                }
              var /= count;
            }
            const double istd = 1.0 / std::sqrt(var + 1e-5);
            const float g = gamma.value.cdata()[ch];
            const float bt = beta.value.cdata()[ch];
            std::vector<float> norm;
            double sum_g = 0.0, sum_gn = 0.0;
            for (int b = 0; b < n; ++b)
              for (int s = 0; s < inner; ++s) {
                const std::int64_t i = at(b, ch, s);
                norm.push_back(static_cast<float>((x[i] - mean) * istd));
                ASSERT_TRUE(same(y[i], __builtin_fmaf(g, norm.back(), bt)))
                    << "y " << where;
                const double gov = go[i];
                sum_g += gov;
                sum_gn += gov * norm.back();
              }
            std::size_t k = 0;
            for (int b = 0; b < n; ++b)
              for (int s = 0; s < inner; ++s) {
                const std::int64_t i = at(b, ch, s);
                const double gov = go[i];
                const double nv = norm[k++];
                const float want =
                    training ? static_cast<float>(
                                   g * istd *
                                   (gov - sum_g / count - nv * sum_gn / count))
                             : static_cast<float>(g * istd * gov);
                ASSERT_TRUE(same(gi[i], want)) << "grad_in " << where;
              }
            // The grads start at zero and backward adds into them.
            ASSERT_TRUE(
                same(gamma.grad.cdata()[ch], 0.0f + static_cast<float>(sum_gn)))
                << "gamma grad " << where;
            ASSERT_TRUE(
                same(beta.grad.cdata()[ch], 0.0f + static_cast<float>(sum_g)))
                << "beta grad " << where;
          }
        }
      }
    }
  }
}

TEST(GradCheck, BatchNorm1d) {
  Rng rng(9);
  BatchNorm m(4, rng);
  m.set_training(true);
  const auto r = grad_check(m, {5, 4, 9}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, LayerNorm) {
  Rng rng(10);
  LayerNorm m(8, rng);
  const auto r = grad_check(m, {3, 4, 8}, rng);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, Activations) {
  Rng rng(11);
  {
    ReLU m;
    EXPECT_LT(grad_check(m, {4, 10}, rng).max_rel_error, kTol);
  }
  {
    GELU m;
    EXPECT_LT(grad_check(m, {4, 10}, rng).max_rel_error, kTol);
  }
  {
    SiLU m;
    EXPECT_LT(grad_check(m, {4, 10}, rng).max_rel_error, kTol);
  }
}

TEST(GradCheck, Pooling) {
  Rng rng(12);
  {
    MaxPool2d m(2, 2);
    EXPECT_LT(grad_check(m, {2, 3, 6, 6}, rng).max_rel_error, kTol);
  }
  {
    AvgPool2d m(2, 2);
    EXPECT_LT(grad_check(m, {2, 3, 6, 6}, rng).max_rel_error, kTol);
  }
  {
    MaxPool1d m(2, 2);
    EXPECT_LT(grad_check(m, {2, 3, 12}, rng).max_rel_error, kTol);
  }
  {
    GlobalAvgPool m;
    EXPECT_LT(grad_check(m, {2, 3, 4, 4}, rng).max_rel_error, kTol);
  }
  {
    MeanTokens m;
    EXPECT_LT(grad_check(m, {2, 5, 6}, rng).max_rel_error, kTol);
  }
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(13);
  MultiHeadSelfAttention m(8, 2, rng);
  // Attention gradients pass through softmax and are small relative to the
  // forward's float32 noise floor; the measured error scales exactly as
  // 1/eps (pure central-difference noise), so the tolerance is widened
  // rather than the check weakened structurally.
  const auto r = grad_check(m, {2, 5, 8}, rng, /*samples=*/10, /*eps=*/1e-2);
  EXPECT_LT(r.max_rel_error, 0.08);
}

TEST(GradCheck, PatchEmbedAndPositional) {
  Rng rng(14);
  {
    PatchEmbed m(2, 6, 4, rng);
    EXPECT_LT(grad_check(m, {2, 2, 8, 8}, rng).max_rel_error, kTol);
  }
  {
    PositionalEmbedding m(5, 6, rng);
    EXPECT_LT(grad_check(m, {2, 5, 6}, rng).max_rel_error, kTol);
  }
}

TEST(GradCheck, TransformerBlock) {
  Rng rng(15);
  auto block = make_transformer_block(8, 2, 2, rng, "b");
  const auto r = grad_check(*block, {2, 4, 8}, rng, /*samples=*/8,
                            /*eps=*/1e-2);
  EXPECT_LT(r.max_rel_error, 0.08);  // see MultiHeadSelfAttention note
}

TEST(GradCheck, SelectiveScan) {
  Rng rng(16);
  SelectiveScan m(6, rng);
  const auto r = grad_check(m, {2, 7, 6}, rng, /*samples=*/10);
  EXPECT_LT(r.max_rel_error, kTol);
}

TEST(GradCheck, ResidualWithShortcut) {
  Rng rng(17);
  auto body = std::make_unique<Sequential>();
  body->emplace<Linear>(6, 6, rng);
  body->emplace<ReLU>();
  auto shortcut = std::make_unique<Linear>(6, 6, rng, false);
  Residual m(std::move(body), std::move(shortcut));
  EXPECT_LT(grad_check(m, {3, 6}, rng).max_rel_error, kTol);
}

TEST(GradCheck, IdentityResidual) {
  Rng rng(18);
  auto body = std::make_unique<Linear>(6, 6, rng);
  Residual m(std::move(body));
  EXPECT_LT(grad_check(m, {3, 6}, rng).max_rel_error, kTol);
}

TEST(Layers, MaxPoolSemantics) {
  MaxPool2d m(2, 2);
  Tensor x({1, 1, 2, 2});
  x.at4(0, 0, 0, 0) = 1.0f;
  x.at4(0, 0, 0, 1) = 5.0f;
  x.at4(0, 0, 1, 0) = -2.0f;
  x.at4(0, 0, 1, 1) = 3.0f;
  const Tensor y = m.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, 1.0f);
  const Tensor dx = m.backward(g);
  EXPECT_EQ(dx.at4(0, 0, 0, 1), 1.0f);
  EXPECT_EQ(dx.at4(0, 0, 0, 0), 0.0f);
}

TEST(Layers, SoftmaxRowsSumToOne) {
  Tensor t({3, 5});
  Rng rng(19);
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0, 3));
  softmax_lastdim(t);
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) {
      EXPECT_GE(t.at2(r, c), 0.0f);
      sum += t.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Loss, CrossEntropyGradientMatchesFiniteDifference) {
  Rng rng(20);
  Tensor logits = Tensor::randn({4, 6}, rng);
  const std::vector<int> labels = {1, 0, 5, 3};
  CrossEntropyLoss ce;
  ce.forward(logits, labels);
  const Tensor g = ce.backward();
  const double eps = 1e-3;
  for (int i = 0; i < 10; ++i) {
    const std::int64_t idx = static_cast<std::int64_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(logits.numel())));
    const float saved = logits[idx];
    logits[idx] = saved + static_cast<float>(eps);
    CrossEntropyLoss ce2;
    const double lp = ce2.forward(logits, labels);
    logits[idx] = saved - static_cast<float>(eps);
    const double lm = ce2.forward(logits, labels);
    logits[idx] = saved;
    EXPECT_NEAR((lp - lm) / (2 * eps), g[idx], 5e-3);
  }
}

TEST(Loss, KnownValuesAndAccuracy) {
  Tensor logits({2, 2});
  logits.at2(0, 0) = 10.0f;  // confidently class 0, label 0
  logits.at2(1, 1) = 10.0f;  // confidently class 1, label 0 -> wrong
  CrossEntropyLoss ce;
  const double loss = ce.forward(logits, {0, 0});
  EXPECT_GT(loss, 4.0);  // the wrong confident sample dominates
  EXPECT_NEAR(accuracy(logits, {0, 0}), 0.5, 1e-9);
  EXPECT_THROW(ce.forward(logits, {0}), std::logic_error);
  EXPECT_THROW(ce.forward(logits, {0, 7}), std::logic_error);
}

TEST(Layers, SequentialComposesAndCountsParams) {
  Rng rng(21);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.size(), 3u);
  EXPECT_EQ(net.num_parameters(), 4 * 8 + 8 + 8 * 2 + 2);
  const Tensor y = net.forward(Tensor::randn({3, 4}, rng));
  EXPECT_EQ(y.dim(1), 2);
  net.zero_grad();
  for (Param* p : net.parameters())
    for (std::int64_t i = 0; i < p->grad.numel(); ++i)
      EXPECT_EQ(p->grad[i], 0.0f);
}

}  // namespace
}  // namespace rowpress::nn
