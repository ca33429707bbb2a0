// Progressive bit-flip attack (BFA, Rakin et al. ICCV'19) — the search
// algorithm the paper adopts and constrains with DRAM profiles (Sec. VI-B,
// Algorithm 3).
//
// Each iteration:
//   1. compute dL/dW on the attack batch (eval-mode backward);
//   2. intra-layer search: in every layer, among the *allowed* candidate
//      bits, pick the one with the largest loss-increasing gradient score
//      |∂L/∂w · Δw|;
//   3. inter-layer search: tentatively apply each layer's candidate,
//      measure the batch loss, restore; elect the layer with maximum loss;
//   4. commit that flip (irreversibly — a disturbed cell cannot be flipped
//      back by the attacker).
// The attack stops when test accuracy falls to random-guess level (the
// objective of eqn. 1/2) or a flip budget is exhausted.
//
// The candidate set is pluggable: the unconstrained variant may flip any
// weight bit; the DRAM-profile-aware variant only bits that map onto
// vulnerable cells whose physical flip direction matches (C_rh / C_rp).
#pragma once

#include <cstdint>
#include <vector>

#include "attack/mapping.h"
#include "data/dataset.h"
#include "nn/loss.h"
#include "nn/quant/qmodel.h"
#include "runtime/cancel.h"
#include "telemetry/registry.h"
#include "telemetry/trace.h"

namespace rowpress::attack {

struct BfaConfig {
  int attack_batch_size = 32;
  /// Stop once eval accuracy <= random_guess + margin.
  double accuracy_margin = 0.005;
  int max_flips = 300;
  /// Inter-layer search tries at most this many top-scoring layers per
  /// iteration (the full BFA tries every layer; bounding it keeps deep
  /// ResNet-101 runs tractable without changing which flip wins in
  /// practice).
  int max_layer_trials = 6;
  /// Samples used for the per-iteration accuracy check (strided over the
  /// eval set so class-ordered datasets stay stratified).
  int eval_samples = 256;
  /// Evaluate inter-layer candidates incrementally: the gradient-pass
  /// forward records every top-level child's input (copy-on-write shares),
  /// and each tentative flip re-runs only the children from the flipped
  /// layer onward.  Bitwise identical to full forward passes — a flip in
  /// layer l cannot change the activations feeding l — so journals and
  /// flip sequences are unaffected.  Applies when the model is a flat
  /// Sequential; other models silently fall back to full passes.
  bool incremental_eval = true;
  /// Run forward passes (gradient pass, tentative-flip replay, accuracy
  /// evaluation) on the int8 kernel path: the attack runners enable
  /// QuantizedModel::set_int8_execution on the replica before the attack.
  /// Off by default — the float path is the reference oracle, and every
  /// committed golden/journal artifact was produced on it.  Flip selection
  /// may differ from the float path (int8 forwards round activations), but
  /// is bit-reproducible across backends and thread counts.
  bool int8_eval = false;
};

struct FlipRecord {
  nn::WeightBitRef ref;
  float weight_delta = 0.0f;       ///< change in the dequantized weight
  double loss_after = 0.0;         ///< attack-batch loss after the flip
  double accuracy_after = 0.0;     ///< eval accuracy after the flip
};

struct AttackResult {
  bool objective_reached = false;
  double accuracy_before = 0.0;
  double accuracy_after = 0.0;   ///< eval accuracy at stop
  std::vector<FlipRecord> flips;
  std::int64_t candidate_pool_size = 0;  ///< |{B_cl}| at attack start

  int num_flips() const { return static_cast<int>(flips.size()); }
};

class ProgressiveBitFlipAttack {
 public:
  ProgressiveBitFlipAttack(BfaConfig config, Rng& rng)
      : config_(config), rng_(&rng) {}

  /// Attaches search-cost telemetry (either pointer may be null):
  /// counters attack.iterations / forward_passes / bits_evaluated /
  /// layer_trials / flips, gauge attack.candidate_pool, histograms
  /// attack.stage.{grad,rank,replay,eval}_ns (each iteration's wall time
  /// per BFA stage; clocks are read only while bound), and one
  /// "bfa.iteration" trace span per search iteration carrying loss /
  /// accuracy / flip-count args.
  void bind_telemetry(telemetry::MetricsRegistry* metrics,
                      telemetry::TraceCollector* trace);

  /// Attaches a cooperative cancellation token (may be null).  The search
  /// polls it at each iteration boundary — between flips, never inside the
  /// tentative apply/restore of the inter-layer search — and throws the
  /// token's TrialError (kTimeout / kCancelled), so a cancelled attack
  /// stops within one iteration with only committed flips applied.
  void bind_cancel(const runtime::CancelToken* cancel) { cancel_ = cancel; }

  /// Unconstrained BFA: any bit of any attackable weight may flip.
  AttackResult run_unconstrained(nn::QuantizedModel& qmodel,
                                 const data::Dataset& attack_data,
                                 const data::Dataset& eval_data);

  /// DRAM-profile-aware BFA (Algorithm 3): candidates restricted to
  /// `feasible` (profile ∩ weight image) with matching flip direction.
  AttackResult run_profile_aware(nn::QuantizedModel& qmodel,
                                 std::vector<FeasibleBit> feasible,
                                 const data::Dataset& attack_data,
                                 const data::Dataset& eval_data);

 private:
  struct Candidate {
    nn::WeightBitRef ref;
    double score = 0.0;  ///< predicted loss increase, grad * delta
  };

  AttackResult run_impl(nn::QuantizedModel& qmodel,
                        const std::vector<FeasibleBit>* feasible,
                        const data::Dataset& attack_data,
                        const data::Dataset& eval_data);

  BfaConfig config_;
  Rng* rng_;

  struct Telemetry {
    telemetry::Counter* iterations = nullptr;
    telemetry::Counter* forward_passes = nullptr;
    telemetry::Counter* bits_evaluated = nullptr;
    telemetry::Counter* layer_trials = nullptr;
    telemetry::Counter* flips = nullptr;
    /// Subset of forward_passes served by suffix replay (StepEvaluator)
    /// instead of a full forward.
    telemetry::Counter* suffix_forward_passes = nullptr;
    telemetry::Gauge* candidate_pool = nullptr;
    /// Per-iteration stage wall times (ns): gradient pass, intra-layer
    /// ranking, inter-layer suffix replay, post-flip accuracy evaluation.
    telemetry::Histogram* stage_grad = nullptr;
    telemetry::Histogram* stage_rank = nullptr;
    telemetry::Histogram* stage_replay = nullptr;
    telemetry::Histogram* stage_eval = nullptr;
  };
  Telemetry tel_;
  telemetry::TraceCollector* trace_ = nullptr;
  const runtime::CancelToken* cancel_ = nullptr;
};

}  // namespace rowpress::attack
