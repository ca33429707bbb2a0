#include "attack/eval.h"

#include <algorithm>

#include "common/check.h"
#include "nn/loss.h"

namespace rowpress::attack {

double batch_loss(nn::Module& model, const nn::Tensor& inputs,
                  const std::vector<int>& labels,
                  telemetry::Counter* forward_passes) {
  nn::CrossEntropyLoss ce;
  if (forward_passes) forward_passes->add();
  return ce.forward(model.forward(inputs), labels);
}

double subset_accuracy(nn::Module& model, const data::Dataset& ds,
                       const std::vector<int>& indices,
                       telemetry::Counter* forward_passes) {
  RP_REQUIRE(!indices.empty(), "subset_accuracy needs at least one sample");
  constexpr int kBatch = 128;
  int correct_total = 0;
  std::vector<int> chunk;
  chunk.reserve(kBatch);
  for (std::size_t off = 0; off < indices.size(); off += kBatch) {
    const std::size_t end = std::min(indices.size(), off + kBatch);
    chunk.assign(indices.begin() + static_cast<std::ptrdiff_t>(off),
                 indices.begin() + static_cast<std::ptrdiff_t>(end));
    if (forward_passes) forward_passes->add();
    const nn::Tensor logits = model.forward(data::gather_inputs(ds, chunk));
    const auto labels = data::gather_labels(ds, chunk);
    correct_total += static_cast<int>(
        nn::accuracy(logits, labels) * static_cast<double>(chunk.size()) + 0.5);
  }
  return static_cast<double>(correct_total) /
         static_cast<double>(indices.size());
}

IncrementalEvaluator::IncrementalEvaluator(nn::Sequential& seq,
                                           const data::Dataset& ds,
                                           const std::vector<int>& indices)
    : seq_(seq),
      inputs_(data::gather_inputs(ds, indices)),
      labels_(data::gather_labels(ds, indices)),
      count_(indices.size()) {
  RP_REQUIRE(!indices.empty(), "IncrementalEvaluator needs samples");
}

double IncrementalEvaluator::accuracy_of(const nn::Tensor& logits) const {
  // Same arithmetic as subset_accuracy: nn::accuracy is correct/n exactly,
  // so the rounded product recovers the integer correct count and the
  // final double matches the chunked path bit-for-bit.
  const int correct = static_cast<int>(
      nn::accuracy(logits, labels_) * static_cast<double>(count_) + 0.5);
  return static_cast<double>(correct) / static_cast<double>(count_);
}

double IncrementalEvaluator::full(telemetry::Counter* forward_passes) {
  if (forward_passes) forward_passes->add();
  return accuracy_of(capture_.record(seq_, inputs_));
}

double IncrementalEvaluator::from_child(std::size_t start,
                                        telemetry::Counter* forward_passes,
                                        telemetry::Counter* suffix_passes) {
  if (forward_passes) forward_passes->add();
  if (suffix_passes) suffix_passes->add();
  return accuracy_of(capture_.replay(seq_, start, /*refresh=*/true));
}

int argmax_row(const nn::Tensor& logits, int row) {
  RP_REQUIRE(logits.ndim() == 2, "argmax_row expects [N, C] logits");
  const int c = logits.dim(1);
  int best = 0;
  for (int j = 1; j < c; ++j)
    if (logits.at2(row, j) > logits.at2(row, best)) best = j;
  return best;
}

std::vector<int> strided_eval_indices(int n_eval, int dataset_size) {
  RP_REQUIRE(dataset_size > 0, "strided_eval_indices: empty dataset");
  const int n = std::min(n_eval, dataset_size);
  std::vector<int> idx(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    idx[static_cast<std::size_t>(i)] = static_cast<int>(
        static_cast<std::int64_t>(i) * dataset_size / n);
  return idx;
}

std::vector<int> map_qparams_to_children(nn::Module& model,
                                         const nn::QuantizedModel& qmodel) {
  auto* seq = dynamic_cast<nn::Sequential*>(&model);
  if (seq == nullptr) return {};
  const auto& qparams = qmodel.qparams();
  std::vector<int> child_of(qparams.size(), -1);
  for (std::size_t c = 0; c < seq->size(); ++c) {
    for (const nn::Param* p : seq->child(c).parameters()) {
      for (std::size_t l = 0; l < qparams.size(); ++l) {
        if (qparams[l].param != p) continue;
        if (child_of[l] >= 0 && child_of[l] != static_cast<int>(c)) return {};
        child_of[l] = static_cast<int>(c);
      }
    }
  }
  for (const int c : child_of)
    if (c < 0) return {};
  return child_of;
}

}  // namespace rowpress::attack
