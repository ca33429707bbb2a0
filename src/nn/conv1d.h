// 1-D convolution (NCL layout) for the M11 raw-waveform speech model.
#pragma once

#include "nn/kernels/kernels.h"
#include "nn/module.h"

namespace rowpress::nn {

class Conv1d final : public Module {
 public:
  Conv1d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng, bool bias = false, std::string name_prefix = "conv1d");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::string name() const override { return "Conv1d"; }

  Param& weight() { return weight_; }

  int out_size(int in_size) const { return (in_size + 2 * pad_ - k_) / stride_ + 1; }

 private:
  /// Kernel geometry of a batch of n inputs.
  kernels::ConvShape shape(int n, int len) const;

  int cin_, cout_, k_, stride_, pad_;
  bool has_bias_;
  Param weight_;  ///< [cout, cin, k]
  Param bias_;    ///< [cout]
  Tensor cached_input_;
  // Int8-path scratch (same scheme as Conv2d: transposed patches, batch as
  // one strided kernel call).
  std::vector<float> patch_rows_;
  std::vector<std::int8_t> qact_;
  std::vector<float> qscale_;
  std::vector<std::int32_t> acc_;
};

}  // namespace rowpress::nn
