#include "nn/conv1d.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"

namespace rowpress::nn {
namespace {

// Transposed im2col for the int8 path: [OL, Cin*k], one patch per row
// (see Conv2d::im2col_rows).
void im2col1d_rows(const float* x, int cin, int len, int k, int stride,
                   int pad, int ol, float* rows) {
  const int patch = cin * k;
  for (int i = 0; i < ol; ++i) {
    float* row = rows + static_cast<std::size_t>(i) * patch;
    for (int ci = 0; ci < cin; ++ci) {
      const float* line = x + static_cast<std::size_t>(ci) * len;
      for (int ki = 0; ki < k; ++ki) {
        const int li = i * stride - pad + ki;
        row[ci * k + ki] = (li >= 0 && li < len) ? line[li] : 0.0f;
      }
    }
  }
}

}  // namespace

Conv1d::Conv1d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng, bool bias, std::string name_prefix)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride),
      pad_(pad), has_bias_(bias),
      weight_(name_prefix + ".weight",
              Tensor::randn({out_channels, in_channels, kernel}, rng,
                            std::sqrt(2.0f / static_cast<float>(in_channels *
                                                                kernel))),
              /*attack=*/true),
      bias_(name_prefix + ".bias", Tensor::zeros({out_channels}),
            /*attack=*/false) {
  RP_REQUIRE(kernel > 0 && stride > 0 && pad >= 0, "bad conv1d hyperparams");
}

Tensor Conv1d::forward(const Tensor& x) {
  RP_REQUIRE(x.ndim() == 3 && x.dim(1) == cin_,
             "conv1d input must be [N, Cin, L]");
  cached_input_ = x;
  const int n = x.dim(0), len = x.dim(2);
  const int ol = out_size(len);
  RP_REQUIRE(ol > 0, "conv1d output would be empty");
  const int patch = cin_ * k_;

  Tensor y({n, cout_, ol});
  float* yp = y.data();
  const float* xp = x.cdata();
  const float* wp = weight_.value.cdata();

  // Int8 path (see Conv2d::forward for the scheme).
  if (const QuantWeight* qw = weight_.qweight; qw != nullptr) {
    RP_REQUIRE(qw->rows == cout_ && qw->cols == patch,
               "conv1d int8 weight view shape mismatch");
    const std::size_t panel = static_cast<std::size_t>(ol) * patch;
    const std::size_t out_panel = static_cast<std::size_t>(cout_) * ol;
    patch_rows_.resize(panel);
    qact_.resize(static_cast<std::size_t>(n) * panel);
    qscale_.resize(static_cast<std::size_t>(n) * ol);
    acc_.resize(static_cast<std::size_t>(n) * out_panel);
    for (int b = 0; b < n; ++b) {
      im2col1d_rows(xp + static_cast<std::size_t>(b) * cin_ * len, cin_, len,
                    k_, stride_, pad_, ol, patch_rows_.data());
      kernels::quantize_rows(patch_rows_.data(), qact_.data() + b * panel,
                             qscale_.data() + static_cast<std::size_t>(b) * ol,
                             ol, patch);
    }
    kernels::qgemm_wgt_act_batched(
        qw->q.data(), qact_.data(), qw->row_sums.data(), acc_.data(), cout_,
        patch, ol, n, static_cast<std::int64_t>(panel),
        static_cast<std::int64_t>(out_panel), /*accumulate=*/false);
    for (int b = 0; b < n; ++b) {
      kernels::requantize(
          acc_.data() + b * out_panel, qw->scales.data(),
          qscale_.data() + static_cast<std::size_t>(b) * ol,
          has_bias_ ? bias_.value.cdata() : nullptr,
          has_bias_ ? kernels::BiasAxis::kPerRow : kernels::BiasAxis::kNone,
          yp + b * out_panel, cout_, ol);
    }
    return y;
  }

  kernels::conv_fwd(xp, wp, has_bias_ ? bias_.value.cdata() : nullptr, yp,
                    shape(n, len));
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_out) {
  const Tensor& x = cached_input_;
  const int n = x.dim(0), len = x.dim(2);
  const int ol = grad_out.dim(2);
  const kernels::ConvShape cs = shape(n, len);
  const int patch = cs.patch();

  Tensor grad_in(x.shape());
  float* gip = grad_in.data();
  const float* xp = x.cdata();
  const float* gp = grad_out.cdata();
  const float* wp = weight_.value.cdata();
  float* wg = weight_.grad.data();
  const std::size_t col_size = static_cast<std::size_t>(patch) * ol;
  if (col_.size() < col_size) col_.resize(col_size);
  if (gcol_.size() < col_size) gcol_.resize(col_size);
  for (int b = 0; b < n; ++b) {
    const float* g = gp + static_cast<std::size_t>(b) * cout_ * ol;
    kernels::im2col(xp + static_cast<std::size_t>(b) * cin_ * len, cs,
                    col_.data());
    // dW[cout, patch] += g[cout, ol] * col^T
    kernels::gemm_nt(g, col_.data(), wg, cout_, ol, patch);
    if (has_bias_) {
      float* bg = bias_.grad.data();
      for (int co = 0; co < cout_; ++co) {
        float acc = 0.0f;
        for (int i = 0; i < ol; ++i)
          acc += g[static_cast<std::size_t>(co) * ol + i];
        bg[co] += acc;
      }
    }
    // dcol = W^T * g
    std::fill_n(gcol_.data(), col_size, 0.0f);
    kernels::gemm_tn(wp, g, gcol_.data(), cout_, patch, ol);
    kernels::col2im(gcol_.data(), cs,
                    gip + static_cast<std::size_t>(b) * cin_ * len);
  }
  return grad_in;
}

kernels::ConvShape Conv1d::shape(int n, int len) const {
  return {.batch = n, .cin = cin_, .h = 1, .w = len, .cout = cout_, .kh = 1,
          .kw = k_, .stride = stride_, .pad_h = 0, .pad_w = pad_};
}

std::vector<Param*> Conv1d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace rowpress::nn
