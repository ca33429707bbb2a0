// NodeExpander: the evaluation kernel of the branch-and-bound search.
//
// Each pool worker owns one expander wrapping a private QuantizedReplica
// (identical across workers — built from the same trained state and the
// same quantization stream), so expansions run without sharing any model
// state.  Expanding a node is a pure function of (node chain, batch seed):
//
//   1. apply the chain's flips (XOR) to the private replica;
//   2. draw the node's attack batch from an RNG derived from the chain's
//      canonical hash — the batch depends on the node, never on which
//      worker expands it or when;
//   3. gradient pass, then score every allowed candidate bit by the BFA
//      rule |dL/dw * delta_w| and keep the global top-`branch`;
//   4. measure each survivor's realized loss (attack::StepEvaluator: suffix
//      replay, or full forwards as the greedy BFA falls back to) and its
//      eval-subset accuracy (always full chunked forwards);
//   5. un-apply the chain (XOR is self-inverse).
//
// Children are returned in deterministic rank order.
#pragma once

#include <cstdint>
#include <vector>

#include "attack/bfa.h"
#include "attack/mapping.h"
#include "attack/runner.h"
#include "attack/step.h"
#include "data/dataset.h"
#include "search/node.h"
#include "telemetry/metric.h"

namespace rowpress::search {

/// One evaluated child candidate, pinned.
struct ChildEval {
  nn::WeightBitRef ref;
  double predicted_score = 0.0;  ///< gradient-predicted loss increase
  double loss = 0.0;             ///< measured attack-batch loss after the flip
  double accuracy = 0.0;         ///< measured eval-subset accuracy after it
};

/// Work counters shared by all expanders (telemetry::Counter is atomic);
/// any pointer may be null.
struct ExpandTelemetry {
  telemetry::Counter* forward_passes = nullptr;
  telemetry::Counter* suffix_forward_passes = nullptr;
  telemetry::Counter* bits_evaluated = nullptr;
};

class NodeExpander {
 public:
  /// `feasible` restricts candidates to the profile-aware set (may be null
  /// for the unconstrained attack); not owned, must outlive the expander,
  /// as must `eval_data` and the counters in `tel`.
  NodeExpander(attack::QuantizedReplica replica, const attack::BfaConfig& bfa,
               const std::vector<attack::FeasibleBit>* feasible,
               const data::Dataset& eval_data, const ExpandTelemetry& tel);

  NodeExpander(NodeExpander&&) = default;

  /// Eval-subset accuracy of the pristine replica (the root evaluation).
  double root_accuracy() { return ev_.full_accuracy_with(); }

  /// Evaluates up to `branch` children of `node` (see file comment).
  std::vector<ChildEval> expand(const SearchNode& node, int branch,
                                std::uint64_t batch_seed,
                                const data::Dataset& attack_data);

  nn::QuantizedModel& qmodel() { return *replica_.qmodel; }

 private:
  attack::QuantizedReplica replica_;
  int attack_batch_size_;
  const std::vector<attack::FeasibleBit>* feasible_;
  telemetry::Counter* bits_evaluated_;
  attack::StepEvaluator ev_;
};

}  // namespace rowpress::search
