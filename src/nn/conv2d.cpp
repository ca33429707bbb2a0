#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {
namespace {

// Strip-wise transposed im2col for the int8 path: fills the patch rows
// [ow, Cin*k*k] of ONE output row i of the [OH*OW, Cin*k*k] matrix — one
// patch per ROW, so per-position activation quantization and the NT-style
// int8 GEMM (contiguous reduction rows, see kernels/qgemm.h) both read
// contiguously.  Working a strip at a time lets the caller quantize each
// strip while it is still L1-resident, so the full float panel is never
// materialized (or re-read).
//
// The j loop is split into a padded prefix, an interior run, and a padded
// suffix so the hot interior copies k contiguous floats per position with
// no per-element bounds checks (for kj in [0,k) the source indices
// j*stride - pad + kj are consecutive).  The kernel width is a template
// parameter so the compiler fully unrolls the k-wide copies — with a
// runtime k the 1/3/5-iteration inner loops cost more than the int8 GEMM
// they feed.  The old all-positions-checked form was slower still.
template <int K>
void im2col_strip_impl(const float* x, int cin, int h, int w, int k,
                       int stride, int pad, int ow, int i, float* rows) {
  if constexpr (K > 0) k = K;  // compile-time kernel width when dispatched
  const int patch = cin * k * k;
  // Interior columns: every kj tap lands inside [0, w).
  int j_lo = (pad + stride - 1) / stride;
  if (j_lo > ow) j_lo = ow;
  int j_hi = w - k + pad < 0 ? 0 : (w - k + pad) / stride + 1;
  if (j_hi > ow) j_hi = ow;
  if (j_hi < j_lo) j_hi = j_lo;
  for (int ci = 0; ci < cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      float* drow = rows + (static_cast<std::size_t>(ci) * k + ki) * k;
      const int hi = i * stride - pad + ki;
      if (hi < 0 || hi >= h) {
        for (int j = 0; j < ow; ++j) {
          float* dst = drow + static_cast<std::size_t>(j) * patch;
          for (int kj = 0; kj < k; ++kj) dst[kj] = 0.0f;
        }
        continue;
      }
      const float* src = plane + static_cast<std::size_t>(hi) * w;
      auto edge = [&](int j) {
        float* dst = drow + static_cast<std::size_t>(j) * patch;
        for (int kj = 0; kj < k; ++kj) {
          const int wj = j * stride - pad + kj;
          dst[kj] = (wj >= 0 && wj < w) ? src[wj] : 0.0f;
        }
      };
      for (int j = 0; j < j_lo; ++j) edge(j);
      for (int j = j_lo; j < j_hi; ++j) {
        float* dst = drow + static_cast<std::size_t>(j) * patch;
        const float* s = src + (j * stride - pad);
        for (int kj = 0; kj < k; ++kj) dst[kj] = s[kj];
      }
      for (int j = j_hi; j < ow; ++j) edge(j);
    }
  }
}

void im2col_strip(const float* x, int cin, int h, int w, int k, int stride,
                  int pad, int ow, int i, float* rows) {
  switch (k) {
    case 1:
      return im2col_strip_impl<1>(x, cin, h, w, k, stride, pad, ow, i, rows);
    case 3:
      return im2col_strip_impl<3>(x, cin, h, w, k, stride, pad, ow, i, rows);
    case 5:
      return im2col_strip_impl<5>(x, cin, h, w, k, stride, pad, ow, i, rows);
    default:
      return im2col_strip_impl<0>(x, cin, h, w, k, stride, pad, ow, i, rows);
  }
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias, std::string name_prefix)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride),
      pad_(pad), has_bias_(bias),
      weight_(name_prefix + ".weight",
              Tensor::randn({out_channels, in_channels, kernel, kernel}, rng,
                            std::sqrt(2.0f / static_cast<float>(
                                                 in_channels * kernel * kernel))),
              /*attack=*/true),
      bias_(name_prefix + ".bias", Tensor::zeros({out_channels}),
            /*attack=*/false) {
  RP_REQUIRE(kernel > 0 && stride > 0 && pad >= 0, "bad conv hyperparams");
}

Tensor Conv2d::forward(const Tensor& x) {
  RP_REQUIRE(x.ndim() == 4 && x.dim(1) == cin_,
             "conv2d input must be [N, Cin, H, W]");
  cached_input_ = x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_size(h), ow = out_size(w);
  RP_REQUIRE(oh > 0 && ow > 0, "conv2d output would be empty");
  const int patch = cin_ * k_ * k_;
  const int spatial = oh * ow;

  Tensor y({n, cout_, oh, ow});
  float* yp = y.data();
  const float* xp = x.cdata();
  const float* wp = weight_.value.cdata();

  // Int8 path: transposed im2col per sample (patches as rows), per-patch
  // activation quantization, then the WHOLE batch as one strided int8 GEMM
  // followed by per-sample requantization.  The float path below (one
  // batch-lane conv_fwd call) stays the reference oracle; backward always
  // runs float.
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == patch,
               "conv2d int8 weight view shape mismatch");
    const std::size_t panel = static_cast<std::size_t>(spatial) * patch;
    const std::size_t out_panel = static_cast<std::size_t>(cout_) * spatial;
    patch_rows_.resize(static_cast<std::size_t>(ow) * patch);
    qact_.resize(static_cast<std::size_t>(n) * panel);
    qscale_.resize(static_cast<std::size_t>(n) * spatial);
    acc_.resize(static_cast<std::size_t>(n) * out_panel);
    for (int b = 0; b < n; ++b) {
      const float* xb = xp + static_cast<std::size_t>(b) * cin_ * h * w;
      for (int i = 0; i < oh; ++i) {
        const std::size_t row0 =
            static_cast<std::size_t>(b) * spatial + static_cast<std::size_t>(i) * ow;
        im2col_strip(xb, cin_, h, w, k_, stride_, pad_, ow, i,
                     patch_rows_.data());
        kernels::quantize_rows(patch_rows_.data(), qact_.data() + row0 * patch,
                               qscale_.data() + row0, ow, patch);
      }
    }
    kernels::qgemm_wgt_act_batched(
        qw->q.data(), qact_.data(), qw->row_sums.data(), acc_.data(), cout_,
        patch, spatial, n, static_cast<std::int64_t>(panel),
        static_cast<std::int64_t>(out_panel), /*accumulate=*/false);
    for (int b = 0; b < n; ++b) {
      kernels::requantize(
          acc_.data() + b * out_panel, qw->scales.data(),
          qscale_.data() + static_cast<std::size_t>(b) * spatial,
          has_bias_ ? bias_.value.cdata() : nullptr,
          has_bias_ ? kernels::BiasAxis::kPerRow : kernels::BiasAxis::kNone,
          yp + b * out_panel, cout_, spatial);
    }
    return y;
  }

  kernels::conv_fwd(xp, wp, has_bias_ ? bias_.value.cdata() : nullptr, yp,
                    shape(n, h, w));
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const kernels::ConvShape cs = shape(n, h, w);
  const int patch = cs.patch();
  const int spatial = grad_out.dim(2) * grad_out.dim(3);

  Tensor grad_in(x.shape());
  float* gip = grad_in.data();
  const float* xp = x.cdata();
  const float* gp = grad_out.cdata();
  const float* wp = weight_.value.cdata();
  float* wg = weight_.grad.data();
  const std::size_t col_size = static_cast<std::size_t>(patch) * spatial;
  if (col_.size() < col_size) col_.resize(col_size);
  if (gcol_.size() < col_size) gcol_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    const float* g = gp + static_cast<std::size_t>(b) * cout_ * spatial;
    // dW[cout, patch] += g[cout, spatial] * col^T (col as [patch, spatial]).
    kernels::im2col(xp + static_cast<std::size_t>(b) * cin_ * h * w, cs,
                    col_.data());
    kernels::gemm_nt(g, col_.data(), wg, cout_, spatial, patch);
    if (has_bias_) {
      float* bg = bias_.grad.data();
      for (int co = 0; co < cout_; ++co) {
        float acc = 0.0f;
        for (int s = 0; s < spatial; ++s)
          acc += g[static_cast<std::size_t>(co) * spatial + s];
        bg[co] += acc;
      }
    }
    // dcol[patch, spatial] = W^T[patch, cout] * g[cout, spatial]
    std::fill_n(gcol_.data(), col_size, 0.0f);
    kernels::gemm_tn(wp, g, gcol_.data(), cout_, patch, spatial);
    kernels::col2im(gcol_.data(), cs,
                    gip + static_cast<std::size_t>(b) * cin_ * h * w);
  }
  return grad_in;
}

kernels::ConvShape Conv2d::shape(int n, int h, int w) const {
  return {.batch = n, .cin = cin_, .h = h, .w = w, .cout = cout_, .kh = k_,
          .kw = k_, .stride = stride_, .pad_h = pad_, .pad_w = pad_};
}

std::vector<Param*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
