#include "attack/ecc_aware.h"

#include <algorithm>
#include <map>

#include "attack/step.h"
#include "common/check.h"

namespace rowpress::attack {

EccAttackResult EccAwareAttack::run(nn::QuantizedModel& qmodel,
                                    const std::vector<FeasibleBit>& feasible,
                                    const data::Dataset& attack_data,
                                    const data::Dataset& eval_data) {
  // Suffix replay from the lowest child a word touches; bit-identical to
  // full forwards (see StepEvaluator).
  StepEvaluator ev(qmodel, /*suffix_replay=*/true, eval_data,
                   config_.eval_samples);

  // Group candidates by their 64-bit ECC word inside the weight image.
  std::map<std::int64_t, std::vector<int>> by_word;
  for (std::size_t i = 0; i < feasible.size(); ++i) {
    const std::int64_t image_bit =
        qmodel.image_bit_offset(feasible[i].ref);
    by_word[image_bit / 64].push_back(static_cast<int>(i));
  }
  // Only words that can host a full silent-corruption group matter.
  std::vector<std::pair<std::int64_t, std::vector<int>>> words;
  for (auto& [w, idx] : by_word)
    if (static_cast<int>(idx.size()) >= config_.bits_per_word)
      words.emplace_back(w, idx);

  EccAttackResult result;
  result.exploitable_words = static_cast<std::int64_t>(words.size());

  result.accuracy_before = ev.accuracy();
  result.accuracy_after = result.accuracy_before;
  const double target =
      eval_data.random_guess_accuracy() + config_.accuracy_margin;
  if (result.accuracy_before <= target) {
    result.objective_reached = true;
    return result;
  }
  if (words.empty()) return result;

  std::vector<bool> word_used(words.size(), false);
  int barren_rounds = 0;

  while (result.words_attacked < config_.max_words) {
    ev.gradient_pass(
        draw_attack_batch(*rng_, attack_data, config_.attack_batch_size));

    // Score each unused word: take its bits_per_word best direction-
    // compatible candidates by grad*delta; the group score is their sum.
    struct WordPlan {
      int word_index = -1;
      double score = 0.0;
      std::vector<nn::WeightBitRef> refs;
    };
    std::vector<WordPlan> plans;
    for (std::size_t wi = 0; wi < words.size(); ++wi) {
      if (word_used[wi]) continue;
      std::vector<std::pair<double, nn::WeightBitRef>> scored;
      for (const int fi : words[wi].second) {
        const FeasibleBit& fb = feasible[static_cast<std::size_t>(fi)];
        if (const auto score = feasible_bit_score(qmodel, fb))
          scored.emplace_back(*score, fb.ref);
      }
      if (static_cast<int>(scored.size()) < config_.bits_per_word) continue;
      std::sort(scored.begin(), scored.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      WordPlan plan;
      plan.word_index = static_cast<int>(wi);
      for (int k = 0; k < config_.bits_per_word; ++k) {
        plan.score += scored[static_cast<std::size_t>(k)].first;
        plan.refs.push_back(scored[static_cast<std::size_t>(k)].second);
      }
      if (plan.score > 0.0) plans.push_back(std::move(plan));
    }
    if (plans.empty()) {
      if (++barren_rounds >= 3) break;
      continue;
    }
    barren_rounds = 0;
    std::sort(plans.begin(), plans.end(),
              [](const WordPlan& a, const WordPlan& b) {
                return a.score > b.score;
              });
    if (static_cast<int>(plans.size()) > config_.max_word_trials)
      plans.resize(static_cast<std::size_t>(config_.max_word_trials));

    // Tentatively apply each word group, keep the max-loss one.
    double best_loss = -1.0;
    const WordPlan* best = nullptr;
    for (const auto& plan : plans) {
      const double loss = ev.loss_with(plan.refs);
      if (loss > best_loss) {
        best_loss = loss;
        best = &plan;
      }
    }
    RP_ASSERT(best != nullptr, "ecc-aware word trial found nothing");

    for (const auto& ref : best->refs) {
      FlipRecord rec;
      rec.ref = ref;
      rec.weight_delta = qmodel.apply_bit_flip(ref);
      rec.loss_after = best_loss;
      result.flips.push_back(rec);
    }
    word_used[static_cast<std::size_t>(best->word_index)] = true;
    ++result.words_attacked;

    result.accuracy_after = ev.accuracy(best->refs);
    result.flips.back().accuracy_after = result.accuracy_after;
    if (result.accuracy_after <= target) {
      result.objective_reached = true;
      break;
    }
  }
  return result;
}

}  // namespace rowpress::attack
