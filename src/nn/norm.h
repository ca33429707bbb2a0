// Normalization layers: BatchNorm (2d / 1d) for the CNNs and LayerNorm for
// the transformer / SSM models.
//
// BatchNorm supports backward in both training mode (batch statistics, full
// backprop through mean/var) and eval mode (running statistics, affine-only
// backprop).  Eval-mode backward matters here: the BFA attack differentiates
// the deployed (eval-mode, quantized) network — Sec. VI-B.
#pragma once

#include "nn/module.h"

namespace rowpress::nn {

/// Normalizes over all dims except dim 1 (channels).  Accepts [N,C,H,W] or
/// [N,C,L].
class BatchNorm final : public Module {
 public:
  /// @param gamma_init  initial scale; residual blocks zero-init their
  ///                    last BatchNorm so deep stacks start near identity
  ///                    (standard ResNet trick, crucial for the deep
  ///                    bottleneck models at small widths).
  BatchNorm(int channels, Rng& rng, double momentum = 0.1,
            double eps = 1e-5, std::string name_prefix = "bn",
            float gamma_init = 1.0f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  std::string name() const override { return "BatchNorm"; }

  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int channels_;
  double momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;

  // forward cache
  Tensor cached_input_;
  std::vector<double> cached_mean_, cached_istd_;
  bool cached_training_ = true;
};

/// Normalizes the last dimension.  Accepts any rank >= 2.
class LayerNorm final : public Module {
 public:
  LayerNorm(int dim, Rng& rng, double eps = 1e-5,
            std::string name_prefix = "ln");

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::string name() const override { return "LayerNorm"; }

 private:
  int dim_;
  double eps_;
  Param gamma_, beta_;
  Tensor cached_norm_;
  std::vector<double> cached_istd_;
  std::vector<int> cached_shape_;
};

}  // namespace rowpress::nn
