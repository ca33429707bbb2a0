#include "search/runner.h"

#include <utility>

#include "nn/kernels/kernels.h"
#include "search/objective.h"

namespace rowpress::search {
namespace {

/// Replica factory reproducing exactly the replica the greedy runner
/// builds (attack::setup_trial); every call yields bit-identical weights
/// and codes.
BranchAndBoundSearch::ReplicaFactory replica_factory(
    const models::ModelSpec& spec, const nn::ModelState& trained,
    std::uint64_t seed, bool int8_eval) {
  return [&spec, &trained, seed, int8_eval] {
    return attack::setup_trial(spec, trained, seed, int8_eval).replica;
  };
}

attack::AttackResult run_bnb(const models::ModelSpec& spec,
                             const nn::ModelState& trained,
                             const data::SplitDataset& data,
                             const std::vector<attack::FeasibleBit>* feasible,
                             const SearchRunSetup& setup,
                             const attack::AttackResult* incumbent,
                             SearchStats* stats) {
  const attack::AttackRunSetup& base = setup.base;
  nn::kernels::ScopedBindMetrics kernel_metrics(base.metrics);
  BranchAndBoundSearch engine(setup.config, base.bfa);
  engine.bind_telemetry(base.metrics, base.trace);
  engine.bind_cancel(base.cancel);
  DepletionObjective objective(base.bfa.accuracy_margin);
  attack::AttackResult r = engine.run(
      replica_factory(spec, trained, base.seed, base.bfa.int8_eval), feasible,
      data.test, data.test, objective, base.seed, incumbent);
  if (stats) *stats = engine.stats();
  return r;
}

}  // namespace

attack::AttackResult run_profile_attack(const models::ModelSpec& spec,
                                        const nn::ModelState& trained,
                                        const data::SplitDataset& data,
                                        const profile::BitFlipProfile& prof,
                                        const dram::Geometry& geom,
                                        const SearchRunSetup& setup,
                                        SearchStats* stats) {
  if (setup.config.kind == SearchKind::kGreedy)
    return attack::run_profile_attack(spec, trained, data, prof, geom,
                                      setup.base);

  // Greedy probe first: the baseline chain the engine must strictly beat
  // (and falls back to).  A full independent run — identical to what
  // `--search greedy` would journal for this trial.
  attack::AttackResult greedy;
  if (setup.config.seed_with_greedy)
    greedy = attack::run_profile_attack(spec, trained, data, prof, geom,
                                        setup.base);

  // Re-derive the placement the greedy runner saw: the search attacks the
  // same physical weight->cell layout.
  const auto feasible =
      attack::setup_trial(spec, trained, setup.base.seed, /*int8_eval=*/false,
                          &prof, &geom)
          .feasible;

  return run_bnb(spec, trained, data, &feasible, setup,
                 setup.config.seed_with_greedy ? &greedy : nullptr, stats);
}

attack::AttackResult run_unconstrained_attack(const models::ModelSpec& spec,
                                              const nn::ModelState& trained,
                                              const data::SplitDataset& data,
                                              const SearchRunSetup& setup,
                                              SearchStats* stats) {
  if (setup.config.kind == SearchKind::kGreedy)
    return attack::run_unconstrained_attack(spec, trained, data, setup.base);

  attack::AttackResult greedy;
  if (setup.config.seed_with_greedy)
    greedy = attack::run_unconstrained_attack(spec, trained, data, setup.base);

  return run_bnb(spec, trained, data, /*feasible=*/nullptr, setup,
                 setup.config.seed_with_greedy ? &greedy : nullptr, stats);
}

}  // namespace rowpress::search
