#include "attack/bfa.h"

#include <algorithm>

#include "attack/step.h"
#include "common/check.h"
#include "telemetry/scoped_timer.h"

namespace rowpress::attack {

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
  // Suffix replay (BfaConfig::incremental_eval) serves both the tentative
  // flips and the per-flip accuracy trace on the fixed, class-balanced eval
  // subset; it is bit-identical to full forwards, so the flip chain and
  // every reported accuracy are unchanged.
  StepEvaluator ev(qmodel, config_.incremental_eval, eval_data,
                   config_.eval_samples, tel_.forward_passes,
                   tel_.suffix_forward_passes);

  if (cancel_) cancel_->check("bfa.start");

  AttackResult result;
  result.candidate_pool_size =
      feasible ? static_cast<std::int64_t>(feasible->size())
               : qmodel.total_weight_bytes() * 8;
  if (tel_.candidate_pool)
    tel_.candidate_pool->set(
        static_cast<double>(result.candidate_pool_size));

  result.accuracy_before = ev.accuracy();
  result.accuracy_after = result.accuracy_before;

  const double target = eval_data.random_guess_accuracy() +
                        config_.accuracy_margin;
  if (result.accuracy_before <= target) {
    result.objective_reached = true;
    return result;
  }

  std::vector<bool> used(feasible ? feasible->size() : 0, false);

  int barren_rounds = 0;
  while (static_cast<int>(result.flips.size()) < config_.max_flips) {
    // Cooperative deadline/cancel poll, once per search iteration: at this
    // point every previous flip is committed and no tentative flip is
    // applied, so aborting here leaves the model in a consistent state.
    if (cancel_) cancel_->check("bfa.iteration");
    if (tel_.iterations) tel_.iterations->add();
    telemetry::Span iter_span(trace_, "bfa.iteration", "bfa");

    AttackBatch batch =
        draw_attack_batch(*rng_, attack_data, config_.attack_batch_size);
    telemetry::ScopedTimer grad_timer(tel_.stage_grad);
    ev.gradient_pass(std::move(batch));
    grad_timer.stop();

    // Intra-layer search: each layer's best loss-increasing candidate
    // (first maximum in scan order wins; score 0 = none).
    telemetry::ScopedTimer rank_timer(tel_.stage_rank);
    std::vector<Candidate> candidates(qmodel.num_qparams());
    const std::int64_t scored = scan_candidates(
        qmodel, feasible, &used,
        [&](const nn::WeightBitRef& ref, double score) {
          auto& best = candidates[static_cast<std::size_t>(ref.param_index)];
          if (score > best.score) best = Candidate{ref, score};
        });
    if (tel_.bits_evaluated) tel_.bits_evaluated->add(scored);

    // Rank layers by predicted score, keep the strongest few.
    std::vector<int> order;
    for (std::size_t l = 0; l < candidates.size(); ++l)
      if (candidates[l].score > 0.0) order.push_back(static_cast<int>(l));
    if (order.empty()) {
      // No loss-increasing candidate on this batch; a few redraws may
      // still find one before we declare the pool exhausted.
      if (++barren_rounds >= 3) break;
      continue;
    }
    barren_rounds = 0;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return candidates[static_cast<std::size_t>(a)].score >
             candidates[static_cast<std::size_t>(b)].score;
    });
    if (static_cast<int>(order.size()) > config_.max_layer_trials)
      order.resize(static_cast<std::size_t>(config_.max_layer_trials));
    if (tel_.layer_trials)
      tel_.layer_trials->add(static_cast<std::int64_t>(order.size()));
    rank_timer.stop();

    // Inter-layer search: try each layer's candidate, keep the max loss.
    telemetry::ScopedTimer replay_timer(tel_.stage_replay);
    double best_loss = -1.0;
    int best_layer = -1;
    for (const int l : order) {
      const double loss =
          ev.loss_with({&candidates[static_cast<std::size_t>(l)].ref, 1});
      if (loss > best_loss) {
        best_loss = loss;
        best_layer = l;
      }
    }
    replay_timer.stop();
    RP_ASSERT(best_layer >= 0, "inter-layer search found no layer");

    // Commit the elected flip; physically the cell can flip only once.
    const auto& cand = candidates[static_cast<std::size_t>(best_layer)];
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
    rec.accuracy_after = ev.accuracy({&cand.ref, 1});
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
