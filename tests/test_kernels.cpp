// GEMM kernel layer: every backend must be bitwise identical to the
// retained naive reference (ref::) — the committed attack artifacts depend
// on the exact FP operation sequence, so these are equality tests, not
// tolerance tests.  Also covers the incremental-evaluation machinery the
// kernels enable: suffix replay (nn::SuffixCapture, Sequential::forward_from
// and the attack-step evaluator built on them) and the copy-on-write
// aliasing rules behind zero-copy reshapes.
#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/kernels/qgemm.h"

#include <gtest/gtest.h>

#include "attack/step.h"
#include "common/crc32.h"
#include "models/zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/quant/qmodel.h"
#include "nn/tensor.h"
#include "telemetry/registry.h"

namespace rowpress::nn::kernels {
namespace {

std::vector<Backend> available_backends() {
  std::vector<Backend> out;
  for (Backend b : {Backend::kNaive, Backend::kPortable, Backend::kAvx2,
                    Backend::kVnni})
    if (backend_available(b)) out.push_back(b);
  return out;
}

/// Runs one op on one backend and on the reference, expecting exact bits.
template <typename Gemm, typename RefGemm>
void expect_exact(Gemm gemm, RefGemm ref_gemm, const std::vector<float>& a,
                  const std::vector<float>& b, std::vector<float> c_init,
                  int m, int k, int n, Backend backend, const char* op) {
  std::vector<float> want = c_init;
  ref_gemm(a.data(), b.data(), want.data(), m, k, n);

  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> got = std::move(c_init);
  gemm(a.data(), b.data(), got.data(), m, k, n);
  set_backend(saved);

  for (std::size_t i = 0; i < want.size(); ++i) {
    // Compare as bits so -0.0 vs 0.0 and NaN payload changes fail too.
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << op << " backend=" << backend_name(backend) << " m=" << m
        << " k=" << k << " n=" << n << " i=" << i << " got=" << got[i]
        << " want=" << want[i];
  }
}

class GemmGolden : public ::testing::TestWithParam<Backend> {};

TEST_P(GemmGolden, MatchesNaiveBitwiseAcrossShapes) {
  const Backend backend = GetParam();
  Rng rng(11);
  const int sizes[] = {1, 3, 17, 64, 257};
  for (const int m : sizes) {
    for (const int k : sizes) {
      for (const int n : sizes) {
        std::vector<float> a(static_cast<std::size_t>(m) * k);
        std::vector<float> b(static_cast<std::size_t>(k) * n);
        for (auto& v : a) v = static_cast<float>(rng.normal());
        for (auto& v : b) v = static_cast<float>(rng.normal());
        // Exercise the zero-skip contract: exact zeros of both signs in A.
        for (std::size_t i = 0; i < a.size(); i += 7)
          a[i] = (i % 14 == 0) ? 0.0f : -0.0f;

        // Accumulate semantics: C starts non-zero (alpha-style reuse).
        std::vector<float> c(static_cast<std::size_t>(m) * n);
        for (auto& v : c) v = static_cast<float>(rng.normal());

        expect_exact(gemm_nn, ref::gemm_nn, a, b, c, m, k, n, backend, "nn");
        expect_exact(gemm_tn, ref::gemm_tn, a, b, c, k, m, n, backend, "tn");
        // NT reads B as [n, k].
        expect_exact(gemm_nt, ref::gemm_nt, a, b, c, m, k, n, backend, "nt");
      }
    }
  }
}

// Self-contained xorshift32 input stream for the committed goldens below:
// the constants must stay reproducible even if the repo Rng ever changes.
// Values in [-1, 1) with exact zeros sprinkled in (~1/256) so the
// zero-skip branch is part of the pinned sequence.
struct GoldenStream {
  std::uint32_t s = 0x9E3779B9u;
  float next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    if ((s & 0xFFu) == 0) return 0.0f;
    return static_cast<float>(s >> 8) / 8388608.0f - 1.0f;
  }
  void fill(std::vector<float>& v) {
    for (auto& x : v) x = next();
  }
};

// Pins the exact per-element FP operation sequences to committed CRC32
// constants, so a refactor cannot silently change the contract and
// invalidate committed attack artifacts.  The constants were generated
// from ref:: on the reference build environment, where ref::gemm_nt was
// verified bitwise against the pre-kernel-layer matmul_bt_accumulate TU
// compiled with the original Release flags (see kernels.h).  IEEE-754
// single precision with explicit fmaf rounding is platform-independent,
// so these must hold on every conforming host.
TEST_P(GemmGolden, MatchesCommittedSequenceGoldens) {
  const Backend backend = GetParam();
  const Backend saved = active_backend();
  set_backend(backend);
  const int shapes[][3] = {
      {1, 1, 1}, {3, 17, 5}, {5, 8, 33}, {4, 64, 9}, {2, 257, 6}};
  GoldenStream gs;
  std::uint32_t crc_nn = 0, crc_nt = 0, crc_tn = 0;
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> c(static_cast<std::size_t>(m) * n);
    gs.fill(a);
    gs.fill(b);
    gs.fill(c);
    std::vector<float> out = c;
    gemm_nn(a.data(), b.data(), out.data(), m, k, n);
    crc_nn = crc32(out.data(), out.size() * sizeof(float), crc_nn);
    out = c;  // NT reads the same buffer as B[n, k]
    gemm_nt(a.data(), b.data(), out.data(), m, k, n);
    crc_nt = crc32(out.data(), out.size() * sizeof(float), crc_nt);
    // TN: A[m, k], B[m, n], C[k, n].
    std::vector<float> ct(static_cast<std::size_t>(k) * n);
    std::vector<float> bt(static_cast<std::size_t>(m) * n);
    gs.fill(ct);
    gs.fill(bt);
    std::vector<float> outt = ct;
    gemm_tn(a.data(), bt.data(), outt.data(), m, k, n);
    crc_tn = crc32(outt.data(), outt.size() * sizeof(float), crc_tn);
  }
  set_backend(saved);
  EXPECT_EQ(crc_nn, 0x930D84CCu) << backend_name(backend);
  EXPECT_EQ(crc_nt, 0x05A8A002u) << backend_name(backend);
  EXPECT_EQ(crc_tn, 0xADA28492u) << backend_name(backend);
}

TEST_P(GemmGolden, KZeroLeavesCUntouched) {
  const Backend backend = GetParam();
  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> a, b;
  std::vector<float> c = {1.5f, -2.0f, 0.25f, 3.0f, -0.5f, 7.0f};
  const std::vector<float> before = c;
  gemm_nn(a.data(), b.data(), c.data(), 2, 0, 3);
  gemm_nt(a.data(), b.data(), c.data(), 2, 0, 3);
  gemm_tn(a.data(), b.data(), c.data(), 0, 2, 3);
  set_backend(saved);
  EXPECT_EQ(c, before);
}

TEST_P(GemmGolden, ZeroSkipShieldsNonFiniteRhs) {
  const Backend backend = GetParam();
  // A row of exact zeros in A must skip the matching B row entirely in the
  // nn/tn kernels (the documented contract), so an Inf there never
  // propagates.  The reference defines the semantics; backends must agree.
  const int m = 5, k = 9, n = 33;
  Rng rng(13);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (int i = 0; i < m; ++i) a[static_cast<std::size_t>(i) * k + 4] = 0.0f;
  for (int j = 0; j < n; ++j)
    b[static_cast<std::size_t>(4) * n + j] = INFINITY;

  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  expect_exact(gemm_nn, ref::gemm_nn, a, b, c, m, k, n, backend, "nn-inf");

  const Backend saved = active_backend();
  set_backend(backend);
  std::vector<float> got(static_cast<std::size_t>(m) * n, 0.0f);
  gemm_nn(a.data(), b.data(), got.data(), m, k, n);
  set_backend(saved);
  for (const float v : got) EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Backends, GemmGolden,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- batch-lane conv forward ---------------------------------------------
//
// conv_fwd must equal the per-sample lowering it replaced — im2col, then
// naive gemm_nn into a bias-filled (or zeroed) output — bit for bit, on
// every backend.  The lowering below builds its columns from the im2col
// definition itself, so it checks kernels::im2col too.

/// im2col of one sample from its definition: +0.0f where a tap lands in
/// the padding.
void im2col_def(const float* xb, const ConvShape& s, std::vector<float>& col) {
  const int oh = s.out_h(), ow = s.out_w(), spatial = oh * ow;
  col.assign(static_cast<std::size_t>(s.patch()) * spatial, 0.0f);
  for (int ci = 0; ci < s.cin; ++ci)
    for (int ki = 0; ki < s.kh; ++ki)
      for (int kj = 0; kj < s.kw; ++kj)
        for (int i = 0; i < oh; ++i)
          for (int j = 0; j < ow; ++j) {
            const int r = i * s.stride - s.pad_h + ki;
            const int c = j * s.stride - s.pad_w + kj;
            if (r >= 0 && r < s.h && c >= 0 && c < s.w)
              col[((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw + kj) *
                      spatial +
                  static_cast<std::size_t>(i) * ow + j] =
                  xb[(static_cast<std::size_t>(ci) * s.h + r) * s.w + c];
          }
}

/// Per-sample im2col_def + ref::gemm_nn, for the whole batch.
std::vector<float> lowered_conv(const std::vector<float>& x,
                                const std::vector<float>& w,
                                const float* bias, const ConvShape& s) {
  const int spatial = s.out_h() * s.out_w();
  const int patch = s.patch();
  std::vector<float> y(static_cast<std::size_t>(s.batch) * s.cout * spatial);
  std::vector<float> col;
  std::vector<float> col_kernel(static_cast<std::size_t>(patch) * spatial);
  for (int b = 0; b < s.batch; ++b) {
    const float* xb = x.data() + static_cast<std::size_t>(b) * s.cin * s.h * s.w;
    im2col_def(xb, s, col);
    im2col(xb, s, col_kernel.data());
    EXPECT_EQ(std::memcmp(col.data(), col_kernel.data(),
                          col.size() * sizeof(float)),
              0)
        << "im2col diverges from its definition";
    float* out = y.data() + static_cast<std::size_t>(b) * s.cout * spatial;
    for (int co = 0; co < s.cout; ++co)
      for (int q = 0; q < spatial; ++q)
        out[static_cast<std::size_t>(co) * spatial + q] =
            bias ? bias[co] : 0.0f;
    ref::gemm_nn(w.data(), col.data(), out, s.cout, patch, spatial);
  }
  return y;
}

/// conv_fwd on `backend`, output pre-poisoned so unwritten elements show.
std::vector<float> run_conv(const std::vector<float>& x,
                            const std::vector<float>& w, const float* bias,
                            const ConvShape& s, Backend backend) {
  std::vector<float> y(
      static_cast<std::size_t>(s.batch) * s.cout * s.out_h() * s.out_w(),
      std::nanf(""));
  const Backend saved = active_backend();
  set_backend(backend);
  conv_fwd(x.data(), w.data(), bias, y.data(), s);
  set_backend(saved);
  return y;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
        << what << " i=" << i << " got=" << got[i] << " want=" << want[i];
}

/// Conv1d ([N, cin, len]) or Conv2d ([N, cin, h, w]) geometry.
ConvShape conv_shape(bool two_d, int batch, int k, int stride, int pad) {
  ConvShape s;
  s.batch = batch;
  s.cin = 3;
  s.cout = 5;
  s.stride = stride;
  s.kw = k;
  s.pad_w = pad;
  if (two_d) {
    s.h = 10;
    s.w = 11;
    s.kh = k;
    s.pad_h = pad;
  } else {
    s.h = 1;
    s.w = 23;
    s.kh = 1;
    s.pad_h = 0;
  }
  return s;
}

class ConvGolden : public ::testing::TestWithParam<Backend> {};

TEST_P(ConvGolden, MatchesLoweringBitwiseAcrossGrid) {
  const Backend backend = GetParam();
  Rng rng(17);
  for (const bool two_d : {false, true}) {
    for (const int k : {1, 3, 5, 9}) {
      for (const int stride : {1, 2}) {
        for (const int pad : {0, k / 2}) {
          // 4 | 5 and 12 | 13 sit on each side of the per-sample cutoff
          // for a last chunk; the rest cover lane tails.
          for (const int batch : {1, 4, 5, 12, 13, 15, 16, 17, 33, 256}) {
            const ConvShape s = conv_shape(two_d, batch, k, stride, pad);
            if (s.out_h() <= 0 || s.out_w() <= 0) continue;
            std::vector<float> x(static_cast<std::size_t>(batch) * s.cin *
                                 s.h * s.w);
            std::vector<float> w(static_cast<std::size_t>(s.cout) * s.patch());
            std::vector<float> bias(static_cast<std::size_t>(s.cout));
            for (auto& v : x) v = static_cast<float>(rng.normal());
            for (auto& v : w) v = static_cast<float>(rng.normal());
            for (auto& v : bias) v = static_cast<float>(rng.normal());
            // Zero weights of both signs exercise the zero-skip; -0.0f
            // inputs sit next to the +0.0f padded taps.
            for (std::size_t i = 0; i < w.size(); i += 7)
              w[i] = (i % 14 == 0) ? 0.0f : -0.0f;
            for (std::size_t i = 3; i < x.size(); i += 11) x[i] = -0.0f;
            for (const bool with_bias : {false, true}) {
              const float* bp = with_bias ? bias.data() : nullptr;
              expect_same_bits(
                  run_conv(x, w, bp, s, backend), lowered_conv(x, w, bp, s),
                  std::string(backend_name(backend)) + (two_d ? " 2d" : " 1d") +
                      " k=" + std::to_string(k) + " stride=" +
                      std::to_string(stride) + " pad=" + std::to_string(pad) +
                      " batch=" + std::to_string(batch) +
                      " bias=" + std::to_string(with_bias));
            }
          }
        }
      }
    }
  }
}

TEST_P(ConvGolden, ZeroWeightShieldsNonFiniteInput) {
  // Every weight that reads input channel 1 is zero, and channel 1 holds
  // NaN and Inf: the zero-skip must keep them out of every chain, as the
  // im2col + gemm_nn lowering did.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    const ConvShape s = conv_shape(two_d, 19, 3, 1, 1);
    Rng rng(23);
    std::vector<float> x(static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w);
    std::vector<float> w(static_cast<std::size_t>(s.cout) * s.patch());
    for (auto& v : x) v = static_cast<float>(rng.normal());
    for (auto& v : w) v = static_cast<float>(rng.normal());
    const std::size_t plane = static_cast<std::size_t>(s.h) * s.w;
    for (int b = 0; b < s.batch; ++b)
      for (std::size_t i = 0; i < plane; ++i)
        x[(static_cast<std::size_t>(b) * s.cin + 1) * plane + i] =
            (i % 2 == 0) ? std::nanf("") : INFINITY;
    const int taps = s.kh * s.kw;
    for (int co = 0; co < s.cout; ++co)
      for (int t = 0; t < taps; ++t)
        w[static_cast<std::size_t>(co) * s.patch() + taps + t] = 0.0f;
    const std::vector<float> got = run_conv(x, w, nullptr, s, backend);
    expect_same_bits(got, lowered_conv(x, w, nullptr, s), "nonfinite");
    for (const float v : got) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_P(ConvGolden, NegativeZeroInputsKeepPaddedTapSigns) {
  // All inputs -0.0f, positive weights, bias -0.0f: interior taps keep the
  // chain at -0.0f, while a padded tap (FMA against +0.0f) turns it +0.0f.
  // Both signs must appear, exactly where the lowering puts them.  Even
  // channels zero their first kernel row (1-D: first tap), so positions
  // whose only padded taps sit there stay -0.0f — FMA'ing those +0.0f
  // weights instead of skipping them would turn them +0.0f.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    const ConvShape s = conv_shape(two_d, 9, 3, 1, 1);
    std::vector<float> x(
        static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w, -0.0f);
    std::vector<float> w(static_cast<std::size_t>(s.cout) * s.patch(), 0.5f);
    for (int co = 0; co < s.cout; co += 2)
      for (int ci = 0; ci < s.cin; ++ci)
        for (int t = 0; t < (s.kh > 1 ? s.kw : 1); ++t)
          w[static_cast<std::size_t>(co) * s.patch() + ci * s.kh * s.kw + t] =
              0.0f;
    std::vector<float> bias(static_cast<std::size_t>(s.cout), -0.0f);
    const std::vector<float> got = run_conv(x, w, bias.data(), s, backend);
    expect_same_bits(got, lowered_conv(x, w, bias.data(), s), "signed zero");
    int negative = 0;
    for (const float v : got) negative += std::signbit(v) ? 1 : 0;
    EXPECT_GT(negative, 0);
    EXPECT_LT(negative, static_cast<int>(got.size()));
  }
}

TEST_P(ConvGolden, BatchEqualsConcatenatedSamples) {
  // subset_accuracy and served accuracy rely on a sample's output not
  // depending on its batch neighbours or its lane.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    const ConvShape s = conv_shape(two_d, 17, 5, 2, 2);
    Rng rng(29);
    std::vector<float> x(static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w);
    std::vector<float> w(static_cast<std::size_t>(s.cout) * s.patch());
    std::vector<float> bias(static_cast<std::size_t>(s.cout));
    for (auto& v : x) v = static_cast<float>(rng.normal());
    for (auto& v : w) v = static_cast<float>(rng.normal());
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    const std::vector<float> batched = run_conv(x, w, bias.data(), s, backend);

    ConvShape one = s;
    one.batch = 1;
    const std::size_t in_sample = x.size() / s.batch;
    std::vector<float> concat;
    for (int b = 0; b < s.batch; ++b) {
      const std::vector<float> xb(x.begin() + b * in_sample,
                                  x.begin() + (b + 1) * in_sample);
      const std::vector<float> yb = run_conv(xb, w, bias.data(), one, backend);
      concat.insert(concat.end(), yb.begin(), yb.end());
    }
    expect_same_bits(batched, concat, "batch vs per-sample");
  }
}

// --- batch-lane conv backward --------------------------------------------
//
// conv_bwd must equal the per-sample lowering the layers used to run — im2col,
// naive gemm_nt into dW, naive gemm_tn into a zeroed dcol, col2im into a
// zeroed dX, a plain sum per channel into the bias gradient — bit for bit,
// on every backend.  dX's col2im is written from its definition here.

/// The three gradients of one conv_bwd call.  dw and db hold the values on
/// entry, which conv_bwd accumulates into.
struct ConvGrads {
  std::vector<float> dx, dw, db;
};

ConvGrads lowered_conv_bwd(const std::vector<float>& x,
                           const std::vector<float>& g,
                           const std::vector<float>& w, ConvGrads grads,
                           const ConvShape& s) {
  const int oh = s.out_h(), ow = s.out_w(), spatial = oh * ow;
  const int patch = s.patch();
  const std::size_t in_sample = static_cast<std::size_t>(s.cin) * s.h * s.w;
  grads.dx.assign(static_cast<std::size_t>(s.batch) * in_sample, 0.0f);
  std::vector<float> col;
  std::vector<float> dcol(static_cast<std::size_t>(patch) * spatial);
  for (int b = 0; b < s.batch; ++b) {
    const float* gb = g.data() + static_cast<std::size_t>(b) * s.cout * spatial;
    im2col_def(x.data() + b * in_sample, s, col);
    ref::gemm_nt(gb, col.data(), grads.dw.data(), s.cout, spatial, patch);
    if (!grads.db.empty())
      for (int co = 0; co < s.cout; ++co) {
        float acc = 0.0f;
        for (int q = 0; q < spatial; ++q)
          acc += gb[static_cast<std::size_t>(co) * spatial + q];
        grads.db[static_cast<std::size_t>(co)] += acc;
      }
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    ref::gemm_tn(w.data(), gb, dcol.data(), s.cout, patch, spatial);
    float* dxb = grads.dx.data() + b * in_sample;
    for (int ci = 0; ci < s.cin; ++ci)
      for (int ki = 0; ki < s.kh; ++ki)
        for (int kj = 0; kj < s.kw; ++kj)
          for (int i = 0; i < oh; ++i)
            for (int j = 0; j < ow; ++j) {
              const int r = i * s.stride - s.pad_h + ki;
              const int c = j * s.stride - s.pad_w + kj;
              if (r >= 0 && r < s.h && c >= 0 && c < s.w)
                dxb[(static_cast<std::size_t>(ci) * s.h + r) * s.w + c] +=
                    dcol[((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw +
                          kj) * spatial +
                         static_cast<std::size_t>(i) * ow + j];
            }
  }
  return grads;
}

/// conv_bwd on `backend`; dX pre-poisoned so unwritten elements show.
ConvGrads run_conv_bwd(const std::vector<float>& x, const std::vector<float>& g,
                       const std::vector<float>& w, ConvGrads grads,
                       const ConvShape& s, Backend backend) {
  grads.dx.assign(static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w,
                  std::nanf(""));
  const Backend saved = active_backend();
  set_backend(backend);
  conv_bwd(x.data(), g.data(), w.data(), grads.dx.data(), grads.dw.data(),
           grads.db.empty() ? nullptr : grads.db.data(), s);
  set_backend(saved);
  return grads;
}

void expect_same_grads(const ConvGrads& got, const ConvGrads& want,
                       const std::string& what) {
  expect_same_bits(got.dx, want.dx, what + " dx");
  expect_same_bits(got.dw, want.dw, what + " dw");
  expect_same_bits(got.db, want.db, what + " db");
}

/// Random x, grad_out and weights for `s`, and non-zero gradients on entry.
struct BwdCase {
  std::vector<float> x, g, w;
  ConvGrads entry;
};

BwdCase random_bwd_case(const ConvShape& s, Rng& rng, bool with_bias) {
  BwdCase c;
  c.x.resize(static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w);
  c.g.resize(static_cast<std::size_t>(s.batch) * s.cout * s.out_h() *
             s.out_w());
  c.w.resize(static_cast<std::size_t>(s.cout) * s.patch());
  c.entry.dw.resize(c.w.size());
  if (with_bias) c.entry.db.resize(static_cast<std::size_t>(s.cout));
  for (auto* v : {&c.x, &c.g, &c.w, &c.entry.dw, &c.entry.db})
    for (auto& e : *v) e = static_cast<float>(rng.normal());
  return c;
}

TEST_P(ConvGolden, BackwardMatchesLoweringBitwiseAcrossGrid) {
  const Backend backend = GetParam();
  Rng rng(31);
  for (const bool two_d : {false, true}) {
    for (const int k : {1, 3, 5, 9}) {
      for (const int stride : {1, 2}) {
        for (const int pad : {0, k / 2}) {
          // Partial chunks of 1, 4 and 5 samples alone and after full
          // chunks (13, 17), and whole chunks (8, 32).
          for (const int batch : {1, 4, 5, 8, 13, 17, 32}) {
            const ConvShape s = conv_shape(two_d, batch, k, stride, pad);
            if (s.out_h() <= 0 || s.out_w() <= 0) continue;
            for (const bool with_bias : {false, true}) {
              BwdCase c = random_bwd_case(s, rng, with_bias);
              // Zero weights of both signs exercise the zero-skip; -0.0f
              // inputs and grads sit next to the padded taps.
              for (std::size_t i = 0; i < c.w.size(); i += 7)
                c.w[i] = (i % 14 == 0) ? 0.0f : -0.0f;
              for (std::size_t i = 3; i < c.x.size(); i += 11) c.x[i] = -0.0f;
              for (std::size_t i = 5; i < c.g.size(); i += 13) c.g[i] = -0.0f;
              expect_same_grads(
                  run_conv_bwd(c.x, c.g, c.w, c.entry, s, backend),
                  lowered_conv_bwd(c.x, c.g, c.w, c.entry, s),
                  std::string(backend_name(backend)) + (two_d ? " 2d" : " 1d") +
                      " k=" + std::to_string(k) + " stride=" +
                      std::to_string(stride) + " pad=" + std::to_string(pad) +
                      " batch=" + std::to_string(batch) +
                      " bias=" + std::to_string(with_bias));
            }
          }
        }
      }
    }
  }
}

TEST_P(ConvGolden, BackwardZeroWeightShieldsNonFiniteGrad) {
  // Every weight of output channel 1 is zero, and that channel's grad_out
  // holds NaN and Inf: the zero-skip must keep them out of every dX chain,
  // as the gemm_tn + col2im lowering did.  dW has no skip, so channel 1's
  // weight gradient is non-finite on both sides; the other rows must match
  // bitwise.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    for (const int batch : {3, 19}) {
      const ConvShape s = conv_shape(two_d, batch, 3, 1, 1);
      Rng rng(37);
      BwdCase c = random_bwd_case(s, rng, /*with_bias=*/false);
      const std::size_t plane = static_cast<std::size_t>(s.out_h()) * s.out_w();
      for (int b = 0; b < s.batch; ++b)
        for (std::size_t i = 0; i < plane; ++i)
          c.g[(static_cast<std::size_t>(b) * s.cout + 1) * plane + i] =
              (i % 2 == 0) ? std::nanf("") : INFINITY;
      for (int p = 0; p < s.patch(); ++p)
        c.w[static_cast<std::size_t>(s.patch()) + p] = 0.0f;
      const ConvGrads got = run_conv_bwd(c.x, c.g, c.w, c.entry, s, backend);
      const ConvGrads want = lowered_conv_bwd(c.x, c.g, c.w, c.entry, s);
      expect_same_bits(got.dx, want.dx, "nonfinite dx");
      for (const float v : got.dx) ASSERT_TRUE(std::isfinite(v));
      for (std::size_t i = 0; i < got.dw.size(); ++i) {
        if (i / static_cast<std::size_t>(s.patch()) == 1) {
          ASSERT_FALSE(std::isfinite(got.dw[i])) << "i=" << i;
          ASSERT_FALSE(std::isfinite(want.dw[i])) << "i=" << i;
        } else {
          ASSERT_EQ(std::memcmp(&got.dw[i], &want.dw[i], sizeof(float)), 0)
              << "nonfinite dw i=" << i;
        }
      }
    }
  }
}

TEST_P(ConvGolden, BackwardSignedZeros) {
  // Inputs and grads are +-0.0f only, weights mixed with zeros of both
  // signs, and every dW / bias entry is -0.0f on entry.  Every product is a
  // zero, so each sample's dot product is +0.0f and adding it turns the
  // -0.0f entries +0.0f: a kernel that skipped a sample's add, or started
  // a chain from -0.0f, would leave a -0.0f behind.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    for (const int batch : {2, 8, 13}) {
      const ConvShape s = conv_shape(two_d, batch, 3, 2, 1);
      Rng rng(41);
      BwdCase c = random_bwd_case(s, rng, /*with_bias=*/true);
      for (std::size_t i = 0; i < c.x.size(); ++i)
        c.x[i] = (i % 3 == 0) ? -0.0f : 0.0f;
      for (std::size_t i = 0; i < c.g.size(); ++i)
        c.g[i] = (i % 2 == 0) ? -0.0f : 0.0f;
      for (std::size_t i = 0; i < c.w.size(); i += 5)
        c.w[i] = (i % 10 == 0) ? 0.0f : -0.0f;
      std::fill(c.entry.dw.begin(), c.entry.dw.end(), -0.0f);
      std::fill(c.entry.db.begin(), c.entry.db.end(), -0.0f);
      const ConvGrads got = run_conv_bwd(c.x, c.g, c.w, c.entry, s, backend);
      expect_same_grads(got, lowered_conv_bwd(c.x, c.g, c.w, c.entry, s),
                        "signed zero");
      for (const auto* v : {&got.dx, &got.dw, &got.db})
        for (const float e : *v) ASSERT_TRUE(e == 0.0f && !std::signbit(e));
    }
  }
}

TEST_P(ConvGolden, BackwardBatchEqualsConcatenatedSamples) {
  // A sample's dX must not depend on its batch neighbours or its lane, and
  // the batch's dW must equal per-sample calls accumulated in batch order.
  const Backend backend = GetParam();
  for (const bool two_d : {false, true}) {
    const ConvShape s = conv_shape(two_d, 17, 5, 2, 2);
    Rng rng(43);
    const BwdCase c = random_bwd_case(s, rng, /*with_bias=*/true);
    const ConvGrads batched = run_conv_bwd(c.x, c.g, c.w, c.entry, s, backend);

    ConvShape one = s;
    one.batch = 1;
    const std::size_t in_sample = c.x.size() / s.batch;
    const std::size_t out_sample = c.g.size() / s.batch;
    ConvGrads chained = c.entry;
    for (int b = 0; b < s.batch; ++b) {
      const std::vector<float> xb(c.x.begin() + b * in_sample,
                                  c.x.begin() + (b + 1) * in_sample);
      const std::vector<float> gb(c.g.begin() + b * out_sample,
                                  c.g.begin() + (b + 1) * out_sample);
      ConvGrads step = run_conv_bwd(xb, gb, c.w, chained, one, backend);
      chained.dx.insert(chained.dx.end(), step.dx.begin(), step.dx.end());
      chained.dw = step.dw;
      chained.db = step.db;
    }
    expect_same_grads(batched, chained, "batch vs per-sample");
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ConvGolden,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// --- int8 GEMM layer ----------------------------------------------------
//
// The int8 kernels carry an exact-integer contract (see qgemm.h): every
// backend computes the mathematical int32 dot product, so these goldens
// must hold bitwise on EVERY backend and thread count, not just on the
// reference.

// Deterministic int8 code stream covering the full code range, including
// the -128 saturation code the quantizer itself never emits but a bit
// flip can produce (sign-bit flip of 0 → -128).  Self-contained xorshift
// like GoldenStream so the committed CRCs below outlive any repo Rng
// change.
struct GoldenCodeStream {
  std::uint32_t s = 0xDEADBEEFu;
  std::int8_t next() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return static_cast<std::int8_t>(s & 0xFFu);
  }
  void fill(std::vector<std::int8_t>& v) {
    for (auto& x : v) x = next();
  }
  std::int32_t next_i32() {
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return static_cast<std::int32_t>(s % 1997u) - 998;
  }
  void fill_i32(std::vector<std::int32_t>& v) {
    for (auto& x : v) x = next_i32();
  }
};

std::vector<std::int32_t> row_sums_of(const std::vector<std::int8_t>& w,
                                      int rows, int k) {
  std::vector<std::int32_t> sums(static_cast<std::size_t>(rows), 0);
  for (int i = 0; i < rows; ++i)
    for (int j = 0; j < k; ++j)
      sums[static_cast<std::size_t>(i)] +=
          w[static_cast<std::size_t>(i) * static_cast<std::size_t>(k) +
            static_cast<std::size_t>(j)];
  return sums;
}

class QgemmGolden : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    saved_ = active_backend();
    set_backend(GetParam());
  }
  void TearDown() override {
    set_gemm_threads(1);
    set_backend(saved_);
  }
  Backend saved_ = Backend::kNaive;
};

TEST_P(QgemmGolden, MatchesReferenceExactlyAcrossShapesAndModes) {
  // Odd-K tails straddle every SIMD width in play (16-lane AVX2 madd
  // steps, 64-byte VNNI steps); both operand orientations and both
  // accumulate modes must agree with the scalar reference bit-for-bit.
  const int ks[] = {0, 1, 3, 17, 31, 63, 64, 65, 100, 192};
  GoldenCodeStream gs;
  for (const int k : ks) {
    for (const int m : {1, 2, 5}) {
      for (const int n : {1, 4, 7}) {
        std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k);
        std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k);
        gs.fill(x);
        gs.fill(y);
        std::vector<std::int32_t> c_init(static_cast<std::size_t>(m) * n);
        gs.fill_i32(c_init);
        for (const bool accumulate : {false, true}) {
          std::vector<std::int32_t> want = c_init;
          ref::qgemm_nt(x.data(), y.data(), want.data(), m, k, n, accumulate);

          // act_wgt: x is the activation, y the weight (row sums over y).
          const auto ysums = row_sums_of(y, n, k);
          std::vector<std::int32_t> got = c_init;
          qgemm_act_wgt(x.data(), y.data(), ysums.data(), got.data(), m, k, n,
                        accumulate);
          ASSERT_EQ(got, want) << "act_wgt k=" << k << " m=" << m
                               << " n=" << n << " acc=" << accumulate;

          // wgt_act: x is the weight (row sums over x), y the activation.
          const auto xsums = row_sums_of(x, m, k);
          got = c_init;
          qgemm_wgt_act(x.data(), y.data(), xsums.data(), got.data(), m, k, n,
                        accumulate);
          ASSERT_EQ(got, want) << "wgt_act k=" << k << " m=" << m
                               << " n=" << n << " acc=" << accumulate;
        }
      }
    }
  }
}

TEST_P(QgemmGolden, MinCodeSaturationExact) {
  // All-(-128) operands maximize every intermediate (including the
  // biased-unsigned VNNI form, where the +128 bias makes the activation 0
  // and the whole result flows through the row-sum compensation).
  const int m = 2, k = 65, n = 3;
  std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k, -128);
  std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k, -128);
  const auto ysums = row_sums_of(y, n, k);
  std::vector<std::int32_t> c(static_cast<std::size_t>(m) * n, 0);
  qgemm_act_wgt(x.data(), y.data(), ysums.data(), c.data(), m, k, n, false);
  for (const std::int32_t v : c) EXPECT_EQ(v, k * 128 * 128);
}

TEST_P(QgemmGolden, KZeroWritesZerosOrLeavesCUntouched) {
  std::vector<std::int8_t> x, y;
  const std::vector<std::int32_t> sums(4, 0);
  std::vector<std::int32_t> c = {7, -9, 13, 21, -5, 11};
  const std::vector<std::int32_t> before = c;
  qgemm_act_wgt(x.data(), y.data(), sums.data(), c.data(), 2, 0, 3, true);
  EXPECT_EQ(c, before);  // accumulate: k = 0 adds nothing
  qgemm_wgt_act(x.data(), y.data(), sums.data(), c.data(), 2, 0, 3, false);
  EXPECT_EQ(c, std::vector<std::int32_t>(6, 0));  // overwrite: zeros
}

// Pins the exact int8 contract — codes from GoldenCodeStream (full range,
// -128 included), odd-K tails, k = 0, both accumulate modes, and the
// batched entry — to committed CRC32 constants.  The SAME constants hold
// for every backend and thread count: integer exactness means there is
// one golden, not one per backend.
TEST_P(QgemmGolden, MatchesCommittedSequenceGoldens) {
  const int shapes[][3] = {{1, 1, 1},  {2, 0, 3},   {3, 17, 5}, {5, 31, 4},
                           {4, 63, 9}, {2, 65, 6},  {1, 100, 3}, {2, 192, 2}};
  GoldenCodeStream gs;
  std::uint32_t crc_aw = 0, crc_wa = 0, crc_b = 0;
  for (const auto& s : shapes) {
    const int m = s[0], k = s[1], n = s[2];
    std::vector<std::int8_t> x(static_cast<std::size_t>(m) * k);
    std::vector<std::int8_t> y(static_cast<std::size_t>(n) * k);
    gs.fill(x);
    gs.fill(y);
    std::vector<std::int32_t> c_init(static_cast<std::size_t>(m) * n);
    gs.fill_i32(c_init);

    const auto ysums = row_sums_of(y, n, k);
    std::vector<std::int32_t> c = c_init;  // overwrite mode: prefill dies
    qgemm_act_wgt(x.data(), y.data(), ysums.data(), c.data(), m, k, n, false);
    crc_aw = crc32(c.data(), c.size() * sizeof(std::int32_t), crc_aw);

    const auto xsums = row_sums_of(x, m, k);
    c = c_init;  // accumulate mode: prefill is part of the golden
    qgemm_wgt_act(x.data(), y.data(), xsums.data(), c.data(), m, k, n, true);
    crc_wa = crc32(c.data(), c.size() * sizeof(std::int32_t), crc_wa);

    // Batched: 3 panels sharing x as the weight, with 8 intra-op threads —
    // the thread partition must not show in the bits.
    const int batch = 3;
    std::vector<std::int8_t> act(static_cast<std::size_t>(batch) * n * k);
    gs.fill(act);
    std::vector<std::int32_t> cb(static_cast<std::size_t>(batch) * m * n);
    set_gemm_threads(8);
    qgemm_wgt_act_batched(x.data(), act.data(), xsums.data(), cb.data(), m, k,
                          n, batch, static_cast<std::int64_t>(n) * k,
                          static_cast<std::int64_t>(m) * n, false);
    set_gemm_threads(1);
    crc_b = crc32(cb.data(), cb.size() * sizeof(std::int32_t), crc_b);
  }
  EXPECT_EQ(crc_aw, 0x9B059986u) << backend_name(GetParam());
  EXPECT_EQ(crc_wa, 0xCCD80FAEu) << backend_name(GetParam());
  EXPECT_EQ(crc_b, 0x91C6A489u) << backend_name(GetParam());
}

TEST_P(QgemmGolden, ThreadCountNeverChangesTheBits) {
  const int m = 37, k = 129, n = 23, batch = 4;
  GoldenCodeStream gs;
  std::vector<std::int8_t> wgt(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> act(static_cast<std::size_t>(batch) * n * k);
  gs.fill(wgt);
  gs.fill(act);
  const auto sums = row_sums_of(wgt, m, k);
  std::vector<std::vector<std::int32_t>> results;
  for (const int threads : {1, 2, 8}) {
    set_gemm_threads(threads);
    std::vector<std::int32_t> c(static_cast<std::size_t>(batch) * m * n, -1);
    qgemm_wgt_act_batched(wgt.data(), act.data(), sums.data(), c.data(), m, k,
                          n, batch, static_cast<std::int64_t>(n) * k,
                          static_cast<std::int64_t>(m) * n, false);
    results.push_back(std::move(c));
  }
  set_gemm_threads(1);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

INSTANTIATE_TEST_SUITE_P(Backends, QgemmGolden,
                         ::testing::ValuesIn(available_backends()),
                         [](const auto& info) {
                           return std::string(backend_name(info.param));
                         });

// FP edges of the int8 path: the per-element sequences are pinned in
// qgemm.h; these tests hold the documented edge cases in place.
TEST(QgemmQuantize, PinnedEdgeCases) {
  // Row 0: plain values, amax = 2.0 -> max code magnitude 127.
  // Row 1: all zeros -> scale 0, all codes 0.
  // Row 2: NaN maps to -127 deterministically; amax ignores the NaN.
  const float x[] = {2.0f, -1.0f, 0.5f, 0.0f,
                     0.0f, -0.0f, 0.0f, 0.0f,
                     NAN,  1.0f,  -0.25f, 0.125f};
  std::int8_t q[12];
  float scale[3];
  quantize_rows(x, q, scale, 3, 4);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -64);  // -1.0 * (127/2) = -63.5 -> ties-to-even -> -64
  EXPECT_FLOAT_EQ(scale[0], 2.0f / 127.0f);
  for (int j = 0; j < 4; ++j) EXPECT_EQ(q[4 + j], 0);
  EXPECT_EQ(scale[1], 0.0f);
  EXPECT_EQ(q[8], -127);  // NaN clamps through fmaxf/fminf, never UB cast
  EXPECT_EQ(q[9], 127);   // amax of row 2 is 1.0, NaN ignored
  EXPECT_FLOAT_EQ(scale[2], 1.0f / 127.0f);
}

TEST(QgemmQuantize, RequantizeBiasAxes) {
  const std::int32_t acc[] = {10, 20, 30, 40, 50, 60};  // 2 x 3
  const float row_scale[] = {0.5f, 2.0f};
  const float col_scale[] = {1.0f, 0.5f, 0.25f};
  const float bias2[] = {100.0f, 200.0f};
  const float bias3[] = {1.0f, 2.0f, 3.0f};
  float y[6];
  requantize(acc, row_scale, col_scale, nullptr, BiasAxis::kNone, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[5], 30.0f);
  requantize(acc, row_scale, col_scale, bias2, BiasAxis::kPerRow, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 105.0f);
  EXPECT_FLOAT_EQ(y[5], 230.0f);
  requantize(acc, row_scale, col_scale, bias3, BiasAxis::kPerCol, y, 2, 3);
  EXPECT_FLOAT_EQ(y[2], 1.0f * 30 * 0.5f * 0.25f + 3.0f);
  // Null scales mean 1.0 on that axis.
  requantize(acc, nullptr, nullptr, nullptr, BiasAxis::kNone, y, 2, 3);
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

// The telemetry binding is a raw pointer into a caller-owned registry held
// in a thread-local; ScopedBindMetrics must detach it on scope exit, or a
// pooled worker's next GEMM records into a destroyed per-trial registry.
TEST(KernelDispatch, ScopedBindMetricsDetachesOnScopeExit) {
  telemetry::MetricsRegistry reg;
  const std::vector<float> a = {1.0f, 2.0f}, b = {3.0f, 4.0f};
  std::vector<float> c = {0.0f};
  {
    ScopedBindMetrics bound(&reg);
    gemm_nn(a.data(), b.data(), c.data(), 1, 2, 1);
  }
  // Bounds must match bind_metrics' registration exactly (re-registering a
  // histogram with different bounds throws).
  const auto& hist = reg.histogram(
      "kernels.gemm_ns", {1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6});
  const std::int64_t recorded_in_scope = hist.count();
  EXPECT_EQ(recorded_in_scope, 1);
  gemm_nn(a.data(), b.data(), c.data(), 1, 2, 1);  // unbound: no recording
  EXPECT_EQ(hist.count(), recorded_in_scope);
}

// Conv forward time lands in its own series, never in kernels.gemm_ns.
TEST(KernelDispatch, ConvRecordsIntoConvHistogram) {
  telemetry::MetricsRegistry reg;
  ConvShape s;
  s.batch = 2;
  s.cin = s.cout = 1;
  s.h = s.w = 4;
  s.kh = s.kw = 3;
  s.pad_h = s.pad_w = 1;
  const std::vector<float> x(32, 1.0f), w(9, 0.5f);
  std::vector<float> y(32);
  {
    ScopedBindMetrics bound(&reg);
    conv_fwd(x.data(), w.data(), nullptr, y.data(), s);
  }
  conv_fwd(x.data(), w.data(), nullptr, y.data(), s);  // unbound
  const std::vector<double> bounds{1e3,   4e3, 16e3, 64e3, 256e3,
                                   1e6, 4e6, 16e6, 64e6};
  EXPECT_EQ(reg.histogram("kernels.conv_ns", bounds).count(), 1);
  EXPECT_EQ(reg.histogram("kernels.gemm_ns", bounds).count(), 0);
}

// Conv backward time lands in its own series, through the layer's call.
TEST(KernelDispatch, Conv2dBackwardRecordsIntoConvBwdHistogram) {
  telemetry::MetricsRegistry reg;
  Rng rng(5);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x({2, 2, 5, 5});
  for (std::int64_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(rng.normal());
  const Tensor y = conv.forward(x);
  {
    ScopedBindMetrics bound(&reg);
    conv.backward(Tensor::full(y.shape(), 1.0f));
  }
  const std::vector<double> bounds{1e3,   4e3, 16e3, 64e3, 256e3,
                                   1e6, 4e6, 16e6, 64e6};
  EXPECT_EQ(reg.histogram("kernels.conv_bwd_ns", bounds).count(), 1);
  EXPECT_EQ(reg.histogram("kernels.conv_ns", bounds).count(), 0);
  EXPECT_EQ(reg.histogram("kernels.gemm_ns", bounds).count(), 0);
}

TEST(KernelDispatch, BackendManagement) {
  EXPECT_TRUE(backend_available(Backend::kNaive));
  EXPECT_TRUE(backend_available(Backend::kPortable));
  const Backend saved = active_backend();
  for (const Backend b : available_backends()) {
    set_backend(b);
    EXPECT_EQ(active_backend(), b);
    EXPECT_NE(backend_name(b), nullptr);
  }
  set_backend(saved);
  EXPECT_FALSE(backend_available(static_cast<Backend>(99)));
  EXPECT_THROW(set_backend(static_cast<Backend>(99)), std::logic_error);
}

// Suffix replay must reproduce a full forward bitwise on every model family
// in the zoo, including after weight changes in the replayed suffix —
// exactly the situation the incremental attack searches depend on.
class SuffixReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(SuffixReplay, MatchesFullForwardBitwise) {
  const auto zoo = models::model_zoo();
  const models::ModelSpec& spec = models::find_model(zoo, GetParam());
  Rng rng(5);
  auto model = spec.factory(rng);
  auto* seq = dynamic_cast<Sequential*>(model.get());
  ASSERT_NE(seq, nullptr) << spec.name << " is not a flat Sequential";
  model->set_training(false);

  const auto ds = models::make_dataset(spec.dataset);
  const Tensor batch = data::gather_inputs(ds.test, {0, 1, 2});

  seq->set_capture_activations(true);
  const Tensor y_full = seq->forward(batch);
  ASSERT_TRUE(seq->has_captured_activations());

  // Replay from the start and from every child: unchanged weights must
  // reproduce the captured run exactly.
  for (const std::size_t start : {std::size_t{0}, seq->size() / 2}) {
    const Tensor y_replay = seq->forward_from(start);
    ASSERT_EQ(y_replay.numel(), y_full.numel());
    for (std::int64_t i = 0; i < y_full.numel(); ++i)
      ASSERT_EQ(y_replay[i], y_full[i]) << spec.name << " start=" << start;
  }

  // Perturb a weight owned by a suffix child, then suffix replay must equal
  // a fresh full forward.
  std::size_t child = 0;
  Param* victim = nullptr;
  for (std::size_t c = 0; c < seq->size(); ++c) {
    for (Param* p : seq->child(c).parameters())
      if (p->attackable) {
        child = c;
        victim = p;
      }
  }
  ASSERT_NE(victim, nullptr);
  victim->value[0] += 0.25f;
  const Tensor y_suffix = seq->forward_from(child);
  seq->set_capture_activations(false);
  const Tensor y_again = seq->forward(batch);
  ASSERT_EQ(y_suffix.numel(), y_again.numel());
  for (std::int64_t i = 0; i < y_again.numel(); ++i)
    ASSERT_EQ(y_suffix[i], y_again[i]) << spec.name;
}

// The attack-step evaluator against full forwards (batch_loss,
// subset_accuracy), bit for bit, for every attackable param: a tentative
// single flip, a tentative 3-bit word spanning two children, and a chain of
// committed flips in descending, then ascending, child order.
TEST_P(SuffixReplay, StepEvaluatorMatchesFullForwardsBitwise) {
  const auto zoo = models::model_zoo();
  const models::ModelSpec& spec = models::find_model(zoo, GetParam());
  Rng rng(5);
  auto model = spec.factory(rng);
  auto* seq = dynamic_cast<Sequential*>(model.get());
  ASSERT_NE(seq, nullptr) << spec.name << " is not a flat Sequential";
  QuantizedModel qm(*model);
  const auto child_of = attack::map_qparams_to_children(*model, qm);
  const std::size_t n = qm.num_qparams();
  ASSERT_EQ(child_of.size(), n) << spec.name;

  const auto ds = models::make_dataset(spec.dataset);
  const Tensor inputs = data::gather_inputs(ds.test, {0, 1, 2});
  const std::vector<int> labels = data::gather_labels(ds.test, {0, 1, 2});
  constexpr int kEval = 12;
  const auto eval_idx = attack::strided_eval_indices(kEval, ds.test.size());

  telemetry::MetricsRegistry reg;
  telemetry::Counter& fwd = reg.counter("attack.forward_passes");
  telemetry::Counter& suffix = reg.counter("attack.suffix_forward_passes");
  attack::StepEvaluator ev(qm, /*suffix_replay=*/true, ds.test, kEval, &fwd,
                           &suffix);
  ev.gradient_pass({inputs, labels});

  auto full_loss = [&](std::span<const WeightBitRef> refs) {
    for (const auto& r : refs) qm.apply_bit_flip(r);
    const double loss = attack::batch_loss(*model, inputs, labels);
    for (const auto& r : refs) qm.apply_bit_flip(r);
    return loss;
  };
  for (std::size_t l = 0; l < n; ++l) {
    const int p = static_cast<int>(l);
    const WeightBitRef one{p, 0, 6};
    EXPECT_EQ(ev.loss_with({&one, 1}), full_loss({&one, 1}))
        << spec.name << " param " << l;
    std::size_t other = (l + 1) % n;
    while (child_of[other] == child_of[l] && other != l)
      other = (other + 1) % n;
    ASSERT_NE(other, l) << spec.name << " has one child with params";
    const std::vector<WeightBitRef> word{
        {p, 0, 6}, {p, 0, 2}, {static_cast<int>(other), 0, 6}};
    EXPECT_EQ(ev.loss_with(word), full_loss(word))
        << spec.name << " word from param " << l;
  }

  // The evaluator's eval record and a SuffixCapture over the attack batch
  // both refresh after each commit, so every later replay, from any child,
  // must still match a full forward.
  SuffixCapture cap;
  (void)cap.record(*seq, inputs);
  auto full_accuracy = [&] {
    return attack::subset_accuracy(*model, ds.test, eval_idx);
  };
  EXPECT_EQ(ev.accuracy(), full_accuracy()) << spec.name;
  auto commit = [&](const WeightBitRef& ref) {
    qm.apply_bit_flip(ref);
    EXPECT_EQ(ev.accuracy({&ref, 1}), full_accuracy())
        << spec.name << " param " << ref.param_index;
    const Tensor replayed = cap.replay(
        *seq,
        static_cast<std::size_t>(
            child_of[static_cast<std::size_t>(ref.param_index)]),
        /*refresh=*/true);
    const Tensor full = seq->forward(inputs);
    ASSERT_EQ(replayed.numel(), full.numel());
    for (std::int64_t i = 0; i < full.numel(); ++i)
      ASSERT_EQ(replayed[i], full[i])
          << spec.name << " param " << ref.param_index;
  };
  std::vector<int> by_child(n);
  std::iota(by_child.begin(), by_child.end(), 0);
  std::stable_sort(by_child.begin(), by_child.end(), [&](int a, int b) {
    return child_of[static_cast<std::size_t>(a)] >
           child_of[static_cast<std::size_t>(b)];
  });
  for (const int p : by_child) commit({p, 1, 7});
  for (auto it = by_child.rbegin(); it != by_child.rend(); ++it)
    commit({*it, 2, 5});

  // One gradient pass, then one replay per tentative change and per commit,
  // plus the first accuracy's recording pass.
  const auto replays = static_cast<std::int64_t>(4 * n);
  EXPECT_EQ(fwd.value(), 2 + replays) << spec.name;
  EXPECT_EQ(suffix.value(), replays) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(ZooFamilies, SuffixReplay,
                         ::testing::Values("ResNet-20", "DeiT-T", "VMamba-T",
                                           "M11"),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& ch : s)
                             if (ch == '-') ch = '_';
                           return s;
                         });

// A model map_qparams_to_children rejects (here: not a Sequential) takes
// the full-forward path and counts passes as the greedy BFA always has:
// one per gradient pass or tentative loss, one per 128-sample accuracy
// chunk, no suffix passes.
class Wrapped final : public Module {
 public:
  explicit Wrapped(std::unique_ptr<Module> inner) : inner_(std::move(inner)) {}
  Tensor forward(const Tensor& x) override { return inner_->forward(x); }
  Tensor backward(const Tensor& g) override { return inner_->backward(g); }
  std::vector<Param*> parameters() override { return inner_->parameters(); }
  std::vector<Tensor*> buffers() override { return inner_->buffers(); }
  void set_training(bool training) override {
    Module::set_training(training);
    inner_->set_training(training);
  }
  std::string name() const override { return "Wrapped"; }

 private:
  std::unique_ptr<Module> inner_;
};

TEST(StepEvaluatorFallback, UnmappedModelRunsCountedFullForwards) {
  const auto zoo = models::model_zoo();
  const models::ModelSpec& spec = models::find_model(zoo, "ResNet-20");
  Rng rng(5);
  Wrapped model(spec.factory(rng));
  QuantizedModel qm(model);
  ASSERT_TRUE(attack::map_qparams_to_children(model, qm).empty());

  const auto ds = models::make_dataset(spec.dataset);
  const Tensor inputs = data::gather_inputs(ds.test, {0, 1, 2});
  const std::vector<int> labels = data::gather_labels(ds.test, {0, 1, 2});
  constexpr int kEval = 130;  // two subset_accuracy chunks
  const auto eval_idx = attack::strided_eval_indices(kEval, ds.test.size());

  telemetry::MetricsRegistry reg;
  telemetry::Counter& fwd = reg.counter("attack.forward_passes");
  telemetry::Counter& suffix = reg.counter("attack.suffix_forward_passes");
  attack::StepEvaluator ev(qm, /*suffix_replay=*/true, ds.test, kEval, &fwd,
                           &suffix);
  ev.gradient_pass({inputs, labels});
  EXPECT_EQ(fwd.value(), 1);

  const std::vector<WeightBitRef> word{{0, 0, 6}, {1, 0, 6}, {1, 3, 2}};
  const double loss = ev.loss_with(word);
  for (const auto& r : word) qm.apply_bit_flip(r);
  EXPECT_EQ(loss, attack::batch_loss(model, inputs, labels));
  for (const auto& r : word) qm.apply_bit_flip(r);
  EXPECT_EQ(fwd.value(), 2);

  EXPECT_EQ(ev.accuracy(), attack::subset_accuracy(model, ds.test, eval_idx));
  EXPECT_EQ(fwd.value(), 4);
  const WeightBitRef ref{1, 0, 7};
  qm.apply_bit_flip(ref);
  EXPECT_EQ(ev.accuracy({&ref, 1}),
            attack::subset_accuracy(model, ds.test, eval_idx));
  EXPECT_EQ(fwd.value(), 6);
  EXPECT_EQ(suffix.value(), 0);
}

// Zero-copy reshapes share storage; a later write to the source must not
// leak into a layer's cached activation (regression for the COW tensor).
TEST(ReshapeAliasing, CachedInputSurvivesCallerMutation) {
  Rng rng_a(21);
  Linear lin_a(4, 3, rng_a, /*bias=*/true, "a");
  Rng rng_b(21);
  Linear lin_b(4, 3, rng_b, /*bias=*/true, "b");

  Rng data_rng(22);
  Tensor x = Tensor::randn({2, 4}, data_rng);
  Tensor x_pristine = x;
  x_pristine[0] = x_pristine[0];  // force a private copy now

  (void)lin_a.forward(x);
  x[0] = 1e6f;  // mutate AFTER forward; cached input must be unaffected
  (void)lin_b.forward(x_pristine);

  Tensor g({2, 3}, 0.5f);
  (void)lin_a.backward(g);
  (void)lin_b.backward(g);
  const auto pa = lin_a.parameters();
  const auto pb = lin_b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    for (std::int64_t j = 0; j < pa[i]->grad.numel(); ++j)
      ASSERT_EQ(pa[i]->grad[j], pb[i]->grad[j]);
}

}  // namespace
}  // namespace rowpress::nn::kernels
