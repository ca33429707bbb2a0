#include "attack/step.h"

#include <algorithm>

#include "common/check.h"

namespace rowpress::attack {

AttackBatch draw_attack_batch(Rng& rng, const data::Dataset& ds, int n) {
  std::vector<int> idx;
  idx.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    idx.push_back(static_cast<int>(
        rng.uniform_u64(static_cast<std::uint64_t>(ds.size()))));
  return {data::gather_inputs(ds, idx), data::gather_labels(ds, idx)};
}

StepEvaluator::StepEvaluator(nn::QuantizedModel& qmodel, bool suffix_replay,
                             const data::Dataset& eval_data, int eval_samples,
                             telemetry::Counter* forward_passes,
                             telemetry::Counter* suffix_passes)
    : qmodel_(qmodel),
      model_(qmodel.model()),
      eval_data_(eval_data),
      eval_idx_(strided_eval_indices(eval_samples, eval_data.size())),
      forward_passes_(forward_passes),
      suffix_passes_(suffix_passes) {
  model_.set_training(false);
  if (suffix_replay) {
    child_of_ = map_qparams_to_children(model_, qmodel_);
    if (!child_of_.empty()) seq_ = dynamic_cast<nn::Sequential*>(&model_);
  }
}

std::size_t StepEvaluator::first_child(
    std::span<const nn::WeightBitRef> refs) const {
  RP_REQUIRE(!refs.empty(), "suffix replay needs a changed bit");
  int first = child_of_[static_cast<std::size_t>(refs[0].param_index)];
  for (const auto& ref : refs)
    first = std::min(first,
                     child_of_[static_cast<std::size_t>(ref.param_index)]);
  return static_cast<std::size_t>(first);
}

void StepEvaluator::gradient_pass(AttackBatch batch) {
  batch_ = std::move(batch);
  model_.zero_grad();
  if (forward_passes_) forward_passes_->add();
  const nn::Tensor logits = seq_ ? batch_record_.record(*seq_, batch_.inputs)
                                 : model_.forward(batch_.inputs);
  ce_.forward(logits, batch_.labels);
  model_.backward(ce_.backward());
}

double StepEvaluator::loss_with(std::span<const nn::WeightBitRef> refs) {
  for (const auto& ref : refs) qmodel_.apply_bit_flip(ref);
  double loss;
  if (seq_) {
    if (forward_passes_) forward_passes_->add();
    if (suffix_passes_) suffix_passes_->add();
    loss = ce_.forward(
        batch_record_.replay(*seq_, first_child(refs), /*refresh=*/false),
        batch_.labels);
  } else {
    loss = batch_loss(model_, batch_.inputs, batch_.labels, forward_passes_);
  }
  for (const auto& ref : refs) qmodel_.apply_bit_flip(ref);  // XOR undoes
  return loss;
}

double StepEvaluator::accuracy(std::span<const nn::WeightBitRef> committed) {
  batch_record_.clear();
  if (seq_ == nullptr)
    return subset_accuracy(model_, eval_data_, eval_idx_, forward_passes_);
  if (!eval_record_) eval_record_.emplace(*seq_, eval_data_, eval_idx_);
  if (committed.empty()) return eval_record_->full(forward_passes_);
  return eval_record_->from_child(first_child(committed), forward_passes_,
                                  suffix_passes_);
}

double StepEvaluator::full_accuracy_with(
    std::span<const nn::WeightBitRef> refs) {
  batch_record_.clear();
  for (const auto& ref : refs) qmodel_.apply_bit_flip(ref);
  const double acc =
      subset_accuracy(model_, eval_data_, eval_idx_, forward_passes_);
  for (const auto& ref : refs) qmodel_.apply_bit_flip(ref);
  return acc;
}

}  // namespace rowpress::attack
