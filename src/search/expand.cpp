#include "search/expand.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"

namespace rowpress::search {
namespace {

/// Applies (or, called again, un-applies) a chain to a replica.
void xor_chain(nn::QuantizedModel& qmodel,
               const std::vector<nn::WeightBitRef>& chain) {
  for (const auto& ref : chain) qmodel.apply_bit_flip(ref);
}

struct ScoredRef {
  nn::WeightBitRef ref;
  std::int64_t packed = 0;
  double score = 0.0;
};

/// Deterministic rank: stronger score first, packed (param, weight, bit)
/// order breaking exact ties.
bool rank_before(const ScoredRef& a, const ScoredRef& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.packed < b.packed;
}

}  // namespace

NodeExpander::NodeExpander(attack::QuantizedReplica replica,
                           const attack::BfaConfig& bfa,
                           const std::vector<attack::FeasibleBit>* feasible,
                           const data::Dataset& eval_data,
                           const ExpandTelemetry& tel)
    : replica_(std::move(replica)),
      attack_batch_size_(bfa.attack_batch_size),
      feasible_(feasible),
      bits_evaluated_(tel.bits_evaluated),
      ev_(*replica_.qmodel, bfa.incremental_eval, eval_data, bfa.eval_samples,
          tel.forward_passes, tel.suffix_forward_passes) {}

std::vector<ChildEval> NodeExpander::expand(const SearchNode& node,
                                            int branch,
                                            std::uint64_t batch_seed,
                                            const data::Dataset& attack_data) {
  nn::QuantizedModel& qmodel = *replica_.qmodel;
  const std::vector<nn::WeightBitRef> chain = node.chain();
  xor_chain(qmodel, chain);

  // The node's attack batch: derived from the chain's canonical hash, so a
  // node is expanded onto the same batch no matter which worker draws it.
  Rng rng(batch_seed);
  ev_.gradient_pass(
      attack::draw_attack_batch(rng, attack_data, attack_batch_size_));

  // Candidate scoring (BFA rule), global top-`branch` of the loss-
  // increasing bits across all layers.  Bits already in the chain are
  // excluded — a disturbed cell cannot flip again — but still count as
  // scored; the chain is consulted only for a bit that would enter the top.
  std::unordered_set<std::int64_t> in_chain;
  for (const auto& ref : chain) in_chain.insert(pack_ref(ref));
  std::vector<ScoredRef> top;
  const std::int64_t scored = attack::scan_candidates(
      qmodel, feasible_, nullptr,
      [&](const nn::WeightBitRef& ref, double score) {
        if (score <= 0.0) return;
        const ScoredRef cand{ref, pack_ref(ref), score};
        const bool full = static_cast<int>(top.size()) == branch;
        if (full && !rank_before(cand, top.back())) return;
        if (in_chain.count(cand.packed)) return;
        if (full) top.pop_back();
        top.insert(std::upper_bound(top.begin(), top.end(), cand, rank_before),
                   cand);
      });
  if (bits_evaluated_) bits_evaluated_->add(scored);

  // Measure each survivor: realized attack-batch loss, then eval accuracy
  // by full forwards.
  std::vector<ChildEval> children;
  children.reserve(top.size());
  for (const ScoredRef& cand : top)
    children.push_back({cand.ref, cand.score, ev_.loss_with({&cand.ref, 1})});
  for (ChildEval& child : children)
    child.accuracy = ev_.full_accuracy_with({&child.ref, 1});

  xor_chain(qmodel, chain);  // leave the replica pristine
  return children;
}

}  // namespace rowpress::search
