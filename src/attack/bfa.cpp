#include "attack/bfa.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "attack/eval.h"
#include "common/bitutil.h"
#include "common/check.h"
#include "nn/module.h"
#include "telemetry/scoped_timer.h"

namespace rowpress::attack {

// batch_loss / subset_accuracy / flip_delta / direction_allows /
// map_qparams_to_children live in attack/eval.h — shared with the
// ECC-aware attack, the serving layer (whose served-accuracy claim depends
// on matching this exact evaluation), and the branch-and-bound search.

void ProgressiveBitFlipAttack::bind_telemetry(
    telemetry::MetricsRegistry* metrics, telemetry::TraceCollector* trace) {
  if (metrics) {
    tel_.iterations = &metrics->counter("attack.iterations");
    tel_.forward_passes = &metrics->counter("attack.forward_passes");
    tel_.bits_evaluated = &metrics->counter("attack.bits_evaluated");
    tel_.layer_trials = &metrics->counter("attack.layer_trials");
    tel_.flips = &metrics->counter("attack.flips");
    tel_.suffix_forward_passes =
        &metrics->counter("attack.suffix_forward_passes");
    tel_.candidate_pool = &metrics->gauge("attack.candidate_pool");
    // Stage wall times in ns: a ResNet-20 ranking pass takes tens of ms, an
    // accuracy evaluation up to seconds.
    static const std::vector<double> kStageBounds{
        1e5, 1e6, 4e6, 16e6, 64e6, 256e6, 1e9, 4e9};
    tel_.stage_grad = &metrics->histogram("attack.stage.grad_ns", kStageBounds);
    tel_.stage_rank = &metrics->histogram("attack.stage.rank_ns", kStageBounds);
    tel_.stage_replay =
        &metrics->histogram("attack.stage.replay_ns", kStageBounds);
    tel_.stage_eval = &metrics->histogram("attack.stage.eval_ns", kStageBounds);
  } else {
    tel_ = Telemetry{};
  }
  trace_ = trace;
}

std::vector<std::optional<ProgressiveBitFlipAttack::Candidate>>
ProgressiveBitFlipAttack::intra_layer_search(
    const nn::QuantizedModel& qmodel,
    const std::vector<FeasibleBit>* feasible,
    const std::vector<bool>* feasible_used) const {
  const auto& qparams = qmodel.qparams();
  std::vector<std::optional<Candidate>> best(qparams.size());

  // Bits scored this pass; accumulated locally so telemetry costs one
  // atomic add per search, not one per bit.
  std::int64_t bits_evaluated = 0;

  if (feasible == nullptr) {
    // Unconstrained BFA: consider every bit of every attackable weight.
    for (std::size_t l = 0; l < qparams.size(); ++l) {
      const auto& qp = qparams[l];
      Candidate cand;
      cand.score = 0.0;
      for (std::int64_t i = 0; i < qp.num_weights(); ++i) {
        const float g = qp.param->grad[i];
        if (g == 0.0f) continue;
        const std::int8_t code = qp.qr.q[static_cast<std::size_t>(i)];
        bits_evaluated += 8;
        for (int b = 0; b < 8; ++b) {
          const double score =
              static_cast<double>(g) * flip_delta(code, b, qp.qr.scale);
          if (score > cand.score) {
            cand.score = score;
            cand.ref = {static_cast<int>(l), i, b};
          }
        }
      }
      if (cand.score > 0.0) best[l] = cand;
    }
    if (tel_.bits_evaluated) tel_.bits_evaluated->add(bits_evaluated);
    return best;
  }

  // Profile-aware: only feasible bits whose physical direction matches the
  // current bit value (Algorithm 3 step 2 + directionality constraint).
  for (std::size_t fi = 0; fi < feasible->size(); ++fi) {
    if ((*feasible_used)[fi]) continue;
    ++bits_evaluated;
    const FeasibleBit& fb = (*feasible)[fi];
    const auto& qp = qparams[static_cast<std::size_t>(fb.ref.param_index)];
    const std::int8_t code =
        qp.qr.q[static_cast<std::size_t>(fb.ref.weight_index)];
    if (!direction_allows(int8_bit(code, fb.ref.bit), fb.direction)) continue;
    const float g = qp.param->grad[fb.ref.weight_index];
    const double score =
        static_cast<double>(g) * flip_delta(code, fb.ref.bit, qp.qr.scale);
    if (score <= 0.0) continue;
    auto& slot = best[static_cast<std::size_t>(fb.ref.param_index)];
    if (!slot || score > slot->score) {
      Candidate cand;
      cand.ref = fb.ref;
      cand.score = score;
      slot = cand;
    }
  }
  if (tel_.bits_evaluated) tel_.bits_evaluated->add(bits_evaluated);
  return best;
}

AttackResult ProgressiveBitFlipAttack::run_unconstrained(
    nn::QuantizedModel& qmodel, const data::Dataset& attack_data,
    const data::Dataset& eval_data) {
  return run_impl(qmodel, nullptr, attack_data, eval_data);
}

AttackResult ProgressiveBitFlipAttack::run_profile_aware(
    nn::QuantizedModel& qmodel, std::vector<FeasibleBit> feasible,
    const data::Dataset& attack_data, const data::Dataset& eval_data) {
  // run_impl reads `feasible` through a pointer; keep it alive here.
  return run_impl(qmodel, &feasible, attack_data, eval_data);
}

AttackResult ProgressiveBitFlipAttack::run_impl(
    nn::QuantizedModel& qmodel, const std::vector<FeasibleBit>* feasible,
    const data::Dataset& attack_data, const data::Dataset& eval_data) {
  nn::Module& model = qmodel.model();
  model.set_training(false);

  // Attack batches: random mini-batches of inputs (the attacker's x, y).
  // A fresh batch is drawn every iteration so the search cannot saturate
  // on one batch's loss surface.
  auto draw_batch = [&]() {
    std::vector<int> idx;
    idx.reserve(static_cast<std::size_t>(config_.attack_batch_size));
    for (int i = 0; i < config_.attack_batch_size; ++i)
      idx.push_back(static_cast<int>(
          rng_->uniform_u64(static_cast<std::uint64_t>(attack_data.size()))));
    return idx;
  };

  // Fixed, class-balanced evaluation subset for the per-flip accuracy
  // trace (strided so ordered-by-class datasets stay stratified).
  const std::vector<int> eval_idx =
      strided_eval_indices(config_.eval_samples, eval_data.size());

  if (cancel_) cancel_->check("bfa.start");

  AttackResult result;
  result.candidate_pool_size =
      feasible ? static_cast<std::int64_t>(feasible->size())
               : qmodel.total_weight_bytes() * 8;
  if (tel_.candidate_pool)
    tel_.candidate_pool->set(
        static_cast<double>(result.candidate_pool_size));

  // Incremental candidate evaluation (see BfaConfig::incremental_eval).
  nn::Sequential* seq = nullptr;
  std::vector<int> child_of;
  if (config_.incremental_eval) {
    child_of = map_qparams_to_children(model, qmodel);
    if (!child_of.empty()) seq = dynamic_cast<nn::Sequential*>(&model);
  }

  // The per-flip accuracy trace rides the same suffix-replay contract as
  // the candidate search: after a committed flip in layer l, only the
  // children from l's Sequential child onward are re-run on the eval
  // subset.  Bit-identical to the full-forward subset_accuracy (see
  // IncrementalEvaluator), so the flip chain and every reported accuracy
  // are unchanged — the replay is purely a wall-time optimization.
  std::unique_ptr<IncrementalEvaluator> inc_eval;
  if (seq) inc_eval =
      std::make_unique<IncrementalEvaluator>(*seq, eval_data, eval_idx);
  result.accuracy_before =
      inc_eval ? inc_eval->full(tel_.forward_passes)
               : subset_accuracy(model, eval_data, eval_idx,
                                 tel_.forward_passes);
  result.accuracy_after = result.accuracy_before;

  const double target = eval_data.random_guess_accuracy() +
                        config_.accuracy_margin;
  if (result.accuracy_before <= target) {
    result.objective_reached = true;
    return result;
  }

  std::vector<bool> used(feasible ? feasible->size() : 0, false);
  nn::CrossEntropyLoss ce;

  int barren_rounds = 0;
  while (static_cast<int>(result.flips.size()) < config_.max_flips) {
    // Cooperative deadline/cancel poll, once per search iteration: at this
    // point every previous flip is committed and no tentative flip is
    // applied, so aborting here leaves the model in a consistent state.
    if (cancel_) cancel_->check("bfa.iteration");
    if (tel_.iterations) tel_.iterations->add();
    telemetry::Span iter_span(trace_, "bfa.iteration", "bfa");

    const auto batch_idx = draw_batch();
    const nn::Tensor batch_inputs =
        data::gather_inputs(attack_data, batch_idx);
    const std::vector<int> batch_labels =
        data::gather_labels(attack_data, batch_idx);

    // Gradients of the attack objective w.r.t. the quantized weights.  With
    // incremental evaluation on, this forward also records each child's
    // input for the suffix replays below.
    telemetry::ScopedTimer grad_timer(tel_.stage_grad);
    model.zero_grad();
    if (seq) seq->set_capture_activations(true);
    if (tel_.forward_passes) tel_.forward_passes->add();
    const nn::Tensor logits = model.forward(batch_inputs);
    ce.forward(logits, batch_labels);
    model.backward(ce.backward());
    grad_timer.stop();

    telemetry::ScopedTimer rank_timer(tel_.stage_rank);
    auto candidates = intra_layer_search(qmodel, feasible,
                                         feasible ? &used : nullptr);

    // Rank layers by predicted score, keep the strongest few.
    std::vector<int> order;
    for (std::size_t l = 0; l < candidates.size(); ++l)
      if (candidates[l]) order.push_back(static_cast<int>(l));
    if (order.empty()) {
      // No loss-increasing candidate on this batch; a few redraws may
      // still find one before we declare the pool exhausted.
      if (seq) seq->set_capture_activations(false);
      if (++barren_rounds >= 3) break;
      continue;
    }
    barren_rounds = 0;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return candidates[static_cast<std::size_t>(a)]->score >
             candidates[static_cast<std::size_t>(b)]->score;
    });
    if (static_cast<int>(order.size()) > config_.max_layer_trials)
      order.resize(static_cast<std::size_t>(config_.max_layer_trials));
    if (tel_.layer_trials)
      tel_.layer_trials->add(static_cast<std::int64_t>(order.size()));
    rank_timer.stop();

    // Inter-layer search: try each layer's candidate, keep the max loss.
    // With captures available, a tentative flip in layer l only needs the
    // children from l's Sequential child onward re-run.
    telemetry::ScopedTimer replay_timer(tel_.stage_replay);
    double best_loss = -1.0;
    int best_layer = -1;
    for (const int l : order) {
      const auto& cand = *candidates[static_cast<std::size_t>(l)];
      qmodel.apply_bit_flip(cand.ref);
      double loss;
      if (seq) {
        if (tel_.forward_passes) tel_.forward_passes->add();
        if (tel_.suffix_forward_passes) tel_.suffix_forward_passes->add();
        loss = ce.forward(
            seq->forward_from(static_cast<std::size_t>(
                child_of[static_cast<std::size_t>(l)])),
            batch_labels);
      } else {
        loss = batch_loss(model, batch_inputs, batch_labels,
                          tel_.forward_passes);
      }
      qmodel.apply_bit_flip(cand.ref);  // restore (XOR is self-inverse)
      if (loss > best_loss) {
        best_loss = loss;
        best_layer = l;
      }
    }
    replay_timer.stop();
    RP_ASSERT(best_layer >= 0, "inter-layer search found no layer");
    // Accuracy checks below must run full (non-replayed) forwards.
    if (seq) seq->set_capture_activations(false);

    // Commit the elected flip; physically the cell can flip only once.
    const auto& cand = *candidates[static_cast<std::size_t>(best_layer)];
    FlipRecord rec;
    rec.ref = cand.ref;
    rec.weight_delta = qmodel.apply_bit_flip(cand.ref);
    rec.loss_after = best_loss;
    if (feasible) {
      for (std::size_t fi = 0; fi < feasible->size(); ++fi) {
        if (!used[fi] && (*feasible)[fi].ref == cand.ref) {
          used[fi] = true;
          break;
        }
      }
    }
    telemetry::ScopedTimer eval_timer(tel_.stage_eval);
    rec.accuracy_after =
        inc_eval ? inc_eval->from_child(
                       static_cast<std::size_t>(
                           child_of[static_cast<std::size_t>(best_layer)]),
                       tel_.forward_passes, tel_.suffix_forward_passes)
                 : subset_accuracy(model, eval_data, eval_idx,
                                   tel_.forward_passes);
    eval_timer.stop();
    result.accuracy_after = rec.accuracy_after;
    result.flips.push_back(rec);
    if (tel_.flips) tel_.flips->add();
    iter_span.note("loss", best_loss);
    iter_span.note("accuracy", rec.accuracy_after);
    iter_span.note("flips", static_cast<double>(result.flips.size()));
    iter_span.finish();

    if (rec.accuracy_after <= target) {
      result.objective_reached = true;
      break;
    }
  }
  return result;
}

}  // namespace rowpress::attack
