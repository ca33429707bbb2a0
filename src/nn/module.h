// Module system: layers with explicit forward/backward, named parameters,
// and train/eval modes.  The backward pass is module-local (each module
// caches what it needs during forward), which keeps the library small while
// supporting the architectures in the paper's zoo (ResNets, DeiT-style
// transformers, a VMamba-style scan model, and the M11 1-D CNN).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/qweight.h"
#include "nn/tensor.h"

namespace rowpress::nn {

/// A learnable parameter: value + accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
  /// True for conv/linear weight matrices — the tensors the BFA attack
  /// targets (biases and norm affine parameters are not attacked, matching
  /// the BFA literature).
  bool attackable = false;
  /// Int8 execution view, or null for the float reference path.  Non-owning:
  /// installed/cleared by QuantizedModel::set_int8_execution (which points it
  /// at the master codes it keeps in sync with bit flips) or by a serving
  /// replica (which points it at an immutable published snapshot it holds
  /// alive).  Layers with a weight GEMM consult it in forward(); everything
  /// else ignores it.
  const QuantWeight* qweight = nullptr;

  Param() = default;
  Param(std::string n, Tensor v, bool attack)
      : name(std::move(n)), value(std::move(v)),
        grad(Tensor::zeros(value.shape())), attackable(attack) {}

  void zero_grad() { grad.zero(); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// Computes outputs; caches anything backward() needs.
  virtual Tensor forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input).  Must be called after a matching forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Parameters owned by this module (recursively for containers).
  virtual std::vector<Param*> parameters() { return {}; }

  /// Non-learnable persistent state (BatchNorm running statistics),
  /// recursively for containers.  Needed to snapshot/serialize models.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Train/eval mode (affects BatchNorm statistics).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Param* p : parameters()) p->zero_grad();
  }

  std::int64_t num_parameters() {
    std::int64_t n = 0;
    for (Param* p : parameters()) n += p->value.numel();
    return n;
  }

 protected:
  bool training_ = true;
};

class Sequential;

/// Per-child input record of one Sequential forward: after record(), any
/// suffix of children [start, size()) can be re-run from the recorded input
/// of `start` instead of from the model input.  Records are copy-on-write
/// shares, so recording copies no data.  A replay is bitwise identical to a
/// full forward as long as children [0, start) are unchanged since their
/// inputs were recorded.
class SuffixCapture {
 public:
  /// Full forward over every child, recording each child's input.
  Tensor record(Sequential& seq, const Tensor& x);
  /// Re-runs children [start, size()) from the recorded input of `start`.
  /// With `refresh`, the inputs it recomputes for the later children replace
  /// their records: use it after a committed change to child `start`, so
  /// later replays from any child stay exact.
  Tensor replay(Sequential& seq, std::size_t start, bool refresh);
  bool empty() const { return inputs_.empty(); }
  void clear() { inputs_.clear(); }

 private:
  std::vector<Tensor> inputs_;
};

/// Runs children in order.
class Sequential final : public Module {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Module> m) {
    children_.push_back(std::move(m));
    return *this;
  }

  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    children_.push_back(std::make_unique<M>(std::forward<Args>(args)...));
    return *this;
  }

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::vector<Tensor*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Sequential"; }

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_[i]; }

  /// When enabled, forward() records each child's input (a SuffixCapture)
  /// for forward_from(); disabling clears the record.
  void set_capture_activations(bool capture);
  /// True once a captured full forward() has run (and its activations are
  /// still held).
  bool has_captured_activations() const { return !captured_.empty(); }

  /// Re-runs only children [start, size()) from the activation captured at
  /// `start` by the last capturing forward().  Does NOT refresh the
  /// captures (see SuffixCapture::replay).
  Tensor forward_from(std::size_t start);

 private:
  std::vector<std::unique_ptr<Module>> children_;
  bool capture_ = false;
  SuffixCapture captured_;
};

/// y = x + body(x), with an optional projection on the skip path (used for
/// strided / channel-changing residual blocks).
class Residual final : public Module {
 public:
  explicit Residual(std::unique_ptr<Module> body,
                    std::unique_ptr<Module> shortcut = nullptr)
      : body_(std::move(body)), shortcut_(std::move(shortcut)) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> parameters() override;
  std::vector<Tensor*> buffers() override;
  void set_training(bool training) override;
  std::string name() const override { return "Residual"; }

 private:
  std::unique_ptr<Module> body_;
  std::unique_ptr<Module> shortcut_;  ///< nullptr = identity skip
};

/// Collapses all non-batch dimensions: [N, ...] -> [N, D].
class Flatten final : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<int> cached_shape_;
};

}  // namespace rowpress::nn
