// Forward-only evaluation helpers shared by the attack searches and the
// live serving layer.
//
// subset_accuracy is the *offline reference* the served-traffic accuracy
// is compared against: per-row GEMM FP sequences are independent of batch
// composition (each output row accumulates only its own input row, in a
// fixed order), and argmax_row uses the same first-max-wins tie rule as
// nn::accuracy — so identical weights and identical sample indices yield a
// bit-identical accuracy double regardless of how requests were batched.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "nn/quant/qmodel.h"
#include "telemetry/metric.h"

namespace rowpress::attack {

/// Loss of the model on a fixed batch (forward only).
double batch_loss(nn::Module& model, const nn::Tensor& inputs,
                  const std::vector<int>& labels,
                  telemetry::Counter* forward_passes = nullptr);

/// Top-1 accuracy over the samples at `indices`, evaluated in chunks of
/// 128.  Bit-identical to any other batching of the same indices (see
/// file comment).
double subset_accuracy(nn::Module& model, const data::Dataset& ds,
                       const std::vector<int>& indices,
                       telemetry::Counter* forward_passes = nullptr);

/// Predicted class of row `row` of a [N, C] logits tensor — strict-greater
/// comparison keeps the earliest maximum, matching nn::accuracy.
int argmax_row(const nn::Tensor& logits, int row);

/// The fixed evaluation subset used for per-flip accuracy traces: n_eval
/// indices strided over [0, dataset_size) so class-ordered datasets stay
/// stratified.  n_eval is clamped to dataset_size.
std::vector<int> strided_eval_indices(int n_eval, int dataset_size);

/// Incremental top-1 accuracy over a fixed evaluation subset of `ds`.
///
/// full() runs every child once and records each child's input for the
/// whole eval batch; after a weight change confined to child `c`,
/// from_child(c) replays only children [c, size()) from the recorded
/// input — child c's *input* is unaffected by a change to its own
/// weights — and refreshes the downstream records it recomputes, so
/// successive changes may land in any child in any order.  Both entries
/// return the same double subset_accuracy produces for the same indices:
/// per-row GEMM FP sequences are batch-independent (file comment) and the
/// replay runs the identical per-child forward code.  Memory cost is one
/// eval-batch activation per child; intended for the per-flip accuracy
/// trace, where the subset is a few hundred samples.
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(nn::Sequential& seq, const data::Dataset& ds,
                       const std::vector<int>& indices);

  /// Full forward over all children; records per-child inputs.
  double full(telemetry::Counter* forward_passes = nullptr);

  /// Replay from child `start` using the recorded inputs.  full() must
  /// have run first.
  double from_child(std::size_t start,
                    telemetry::Counter* forward_passes = nullptr,
                    telemetry::Counter* suffix_passes = nullptr);

 private:
  double accuracy_of(const nn::Tensor& logits) const;

  nn::Sequential& seq_;
  nn::Tensor inputs_;
  std::vector<int> labels_;
  std::size_t count_ = 0;
  /// Each child's input on the last evaluation that ran it.
  nn::SuffixCapture capture_;
};

/// Maps each attackable qparam to the top-level Sequential child owning it
/// (by Param identity), so incremental candidate evaluation can re-run only
/// the children a tentative flip can affect.  Empty result = model is not a
/// flat Sequential, a param is owned elsewhere, or a param is shared by
/// more than one child (weight tying — replaying from any single child
/// would skip the other owners); StepEvaluator then runs full forwards.
std::vector<int> map_qparams_to_children(nn::Module& model,
                                         const nn::QuantizedModel& qmodel);

}  // namespace rowpress::attack
