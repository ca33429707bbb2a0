#include "nn/module.h"

namespace rowpress::nn {

Tensor SuffixCapture::record(Sequential& seq, const Tensor& x) {
  inputs_.assign(seq.size(), Tensor());
  Tensor cur = x;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    inputs_[i] = cur;  // COW share: no element copy here
    cur = seq.child(i).forward(cur);
  }
  return cur;
}

Tensor SuffixCapture::replay(Sequential& seq, std::size_t start,
                             bool refresh) {
  RP_REQUIRE(inputs_.size() == seq.size(),
             "suffix replay needs a prior recorded forward");
  RP_REQUIRE(start < inputs_.size(), "suffix replay start out of range");
  Tensor cur = inputs_[start];
  for (std::size_t i = start; i < seq.size(); ++i) {
    if (refresh && i > start) inputs_[i] = cur;
    cur = seq.child(i).forward(cur);
  }
  return cur;
}

Tensor Sequential::forward(const Tensor& x) {
  if (capture_) return captured_.record(*this, x);
  Tensor cur = x;
  for (auto& m : children_) cur = m->forward(cur);
  return cur;
}

void Sequential::set_capture_activations(bool capture) {
  capture_ = capture;
  if (!capture_) captured_.clear();
}

Tensor Sequential::forward_from(std::size_t start) {
  return captured_.replay(*this, start, /*refresh=*/false);
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param*> Sequential::parameters() {
  std::vector<Param*> out;
  for (auto& m : children_) {
    const auto ps = m->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<Tensor*> Sequential::buffers() {
  std::vector<Tensor*> out;
  for (auto& m : children_) {
    const auto bs = m->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  return out;
}

void Sequential::set_training(bool training) {
  Module::set_training(training);
  for (auto& m : children_) m->set_training(training);
}

Tensor Residual::forward(const Tensor& x) {
  Tensor out = body_->forward(x);
  if (shortcut_) {
    const Tensor skip = shortcut_->forward(x);
    RP_REQUIRE(out.same_shape(skip),
               "residual body and shortcut output shapes must match");
    out.add_(skip);
  } else {
    RP_REQUIRE(out.same_shape(x),
               "identity residual needs matching body output shape");
    out.add_(x);
  }
  return out;
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor grad_in = body_->backward(grad_out);
  if (shortcut_) {
    const Tensor skip_grad = shortcut_->backward(grad_out);
    grad_in.add_(skip_grad);
  } else {
    grad_in.add_(grad_out);
  }
  return grad_in;
}

std::vector<Param*> Residual::parameters() {
  std::vector<Param*> out = body_->parameters();
  if (shortcut_) {
    const auto ps = shortcut_->parameters();
    out.insert(out.end(), ps.begin(), ps.end());
  }
  return out;
}

std::vector<Tensor*> Residual::buffers() {
  std::vector<Tensor*> out = body_->buffers();
  if (shortcut_) {
    const auto bs = shortcut_->buffers();
    out.insert(out.end(), bs.begin(), bs.end());
  }
  return out;
}

void Residual::set_training(bool training) {
  Module::set_training(training);
  body_->set_training(training);
  if (shortcut_) shortcut_->set_training(training);
}

Tensor Flatten::forward(const Tensor& x) {
  cached_shape_ = x.shape();
  const int n = x.dim(0);
  const int d = static_cast<int>(x.numel() / n);
  return x.reshaped({n, d});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

}  // namespace rowpress::nn
