// One step of the gradient-guided bit search (paper Alg. 3; BFA, Rakin et
// al. ICCV'19): draw an attack batch, take gradients, score the candidate
// bits, measure the attack-batch loss of the best few tentatively flipped,
// commit one, then re-check eval accuracy.
//
// The greedy BFA (attack/bfa.cpp), the branch-and-bound node expansion
// (search/expand.cpp) and the ECC-aware word attack (attack/ecc_aware.cpp)
// each keep their own selection rule; the batch draw, the bit score and
// every forward pass they run come from here.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "attack/eval.h"
#include "attack/mapping.h"
#include "common/bitutil.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "dram/cell_model.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/quant/qmodel.h"
#include "telemetry/metric.h"

namespace rowpress::attack {

/// A gathered attack mini-batch (the attacker's x, y).
struct AttackBatch {
  nn::Tensor inputs;
  std::vector<int> labels;
};

/// Draws `n` samples of `ds` uniformly with replacement, one
/// rng.uniform_u64 per sample in order.  A fresh batch every step keeps the
/// search from saturating on one batch's loss surface.
AttackBatch draw_attack_batch(Rng& rng, const data::Dataset& ds, int n);

/// Signed dequantized-weight change from flipping bit `b` of code `w`.
inline float flip_delta(std::int8_t w, int b, float scale) {
  return static_cast<float>(int8_flip_delta(w, b)) * scale;
}

/// True if the physical cell's flip direction allows flipping the current
/// bit value (a 0->1 cell can only raise a 0 bit, and vice versa).
inline bool direction_allows(bool current_bit, dram::FlipDirection dir) {
  return dir == dram::FlipDirection::kZeroToOne ? !current_bit : current_bit;
}

/// The BFA candidate score of flipping bit `b` of a weight with code `code`
/// and gradient `grad`: the loss increase dL/dw * delta_w it predicts.
inline double bit_score(float grad, std::int8_t code, int b, float scale) {
  return static_cast<double>(grad) * flip_delta(code, b, scale);
}

/// bit_score of a profile-feasible bit, or nullopt when its cell cannot
/// flip the bit's current value.
inline std::optional<double> feasible_bit_score(
    const nn::QuantizedModel& qmodel, const FeasibleBit& fb) {
  const auto& qp = qmodel.qparams()[static_cast<std::size_t>(
      fb.ref.param_index)];
  const std::int8_t code =
      qp.qr.q[static_cast<std::size_t>(fb.ref.weight_index)];
  if (!direction_allows(int8_bit(code, fb.ref.bit), fb.direction))
    return std::nullopt;
  return bit_score(qp.param->grad[fb.ref.weight_index], code, fb.ref.bit,
                   qp.qr.scale);
}

/// Calls visit(ref, score) for every candidate bit in a fixed order, and
/// returns the number of bits scored.  Without a profile (`feasible` null)
/// the candidates are all 8 bits of every attackable weight with a
/// non-zero gradient; with one, the feasible bits whose cell direction
/// allows the flip, minus the entries `spent` marks (which are not scored).
/// Scores of any sign are visited, so the visitor's own comparison is the
/// only branch per bit: a second, data-dependent `score > 0` branch here
/// made the greedy scan several times slower.
template <typename Visit>
std::int64_t scan_candidates(const nn::QuantizedModel& qmodel,
                             const std::vector<FeasibleBit>* feasible,
                             const std::vector<bool>* spent, Visit&& visit) {
  std::int64_t scored = 0;
  if (feasible == nullptr) {
    const auto& qparams = qmodel.qparams();
    for (std::size_t l = 0; l < qparams.size(); ++l) {
      const auto& qp = qparams[l];
      for (std::int64_t i = 0; i < qp.num_weights(); ++i) {
        const float g = qp.param->grad[i];
        if (g == 0.0f) continue;
        const std::int8_t code = qp.qr.q[static_cast<std::size_t>(i)];
        scored += 8;
        for (int b = 0; b < 8; ++b)
          visit(nn::WeightBitRef{static_cast<int>(l), i, b},
                bit_score(g, code, b, qp.qr.scale));
      }
    }
    return scored;
  }
  for (std::size_t fi = 0; fi < feasible->size(); ++fi) {
    if (spent && (*spent)[fi]) continue;
    ++scored;
    const FeasibleBit& fb = (*feasible)[fi];
    if (const auto score = feasible_bit_score(qmodel, fb)) visit(fb.ref, *score);
  }
  return scored;
}

/// Runs every forward pass of a search step on one quantized model: the
/// gradient pass and tentative-flip losses on the attack batch, and the
/// eval-subset accuracy (the strided subset of `eval_samples`).
///
/// With suffix replay on and a model that is a flat Sequential whose
/// attackable params each belong to one child (map_qparams_to_children),
/// the gradient pass records each child's input, so a tentative change
/// re-runs only the children from the lowest one it touches; accuracy()
/// keeps its own record of the eval subset (an IncrementalEvaluator),
/// refreshed after each committed change.  Both are bitwise identical to
/// full forwards, because a flip cannot alter the input of its own child.
/// Any other model runs full forwards.
///
/// Every forward counts once into `forward_passes` and every replay also
/// into `suffix_passes`, except that a chunked subset_accuracy counts one
/// pass per 128-sample chunk.
class StepEvaluator {
 public:
  StepEvaluator(nn::QuantizedModel& qmodel, bool suffix_replay,
                const data::Dataset& eval_data, int eval_samples,
                telemetry::Counter* forward_passes = nullptr,
                telemetry::Counter* suffix_passes = nullptr);

  /// dL/dW on `batch` (eval-mode backward), which becomes the batch that
  /// loss_with() measures until the next accuracy check: that check ends
  /// the step's loss phase and frees the batch record (as it predates any
  /// change committed since).
  void gradient_pass(AttackBatch batch);

  /// Attack-batch loss with `refs` flipped; the flips are undone before it
  /// returns.
  double loss_with(std::span<const nn::WeightBitRef> refs);

  /// Eval-subset accuracy of the current weights, given the flips
  /// committed since the previous call (none on the first call).
  double accuracy(std::span<const nn::WeightBitRef> committed = {});

  /// Eval-subset accuracy by chunked full forwards (subset_accuracy) with
  /// `refs` flipped, then undone; neither reads nor updates a record.
  double full_accuracy_with(std::span<const nn::WeightBitRef> refs = {});

  nn::QuantizedModel& qmodel() { return qmodel_; }

 private:
  /// Lowest Sequential child owning any of `refs`.
  std::size_t first_child(std::span<const nn::WeightBitRef> refs) const;

  nn::QuantizedModel& qmodel_;
  nn::Module& model_;
  nn::Sequential* seq_ = nullptr;  ///< non-null => suffix replay
  std::vector<int> child_of_;      ///< qparam -> Sequential child
  const data::Dataset& eval_data_;
  const std::vector<int> eval_idx_;
  std::optional<IncrementalEvaluator> eval_record_;
  AttackBatch batch_;
  nn::SuffixCapture batch_record_;
  nn::CrossEntropyLoss ce_;
  telemetry::Counter* forward_passes_;
  telemetry::Counter* suffix_passes_;
};

}  // namespace rowpress::attack
