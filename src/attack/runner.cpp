#include "attack/runner.h"

#include "attack/mapping.h"
#include "common/check.h"
#include "nn/kernels/kernels.h"
#include "nn/quant/qmodel.h"

namespace rowpress::attack {

QuantizedReplica make_quantized_replica(const models::ModelSpec& spec,
                                        const nn::ModelState& trained,
                                        Rng& init_rng) {
  QuantizedReplica r;
  r.model = spec.factory(init_rng);
  nn::restore_state(*r.model, trained);
  r.qmodel = std::make_unique<nn::QuantizedModel>(*r.model);
  return r;
}

AttackTrial setup_trial(const models::ModelSpec& spec,
                        const nn::ModelState& trained, std::uint64_t seed,
                        bool int8_eval, const profile::BitFlipProfile* prof,
                        const dram::Geometry* geom) {
  if (prof)
    RP_REQUIRE(geom && prof->max_linear_bit() < geom->total_bits(),
               "profile '" + prof->mechanism_name() +
                   "' addresses cells beyond the device geometry — it was "
                   "built for a different chip");
  AttackTrial t{Rng(seed), {}, {}};
  Rng init_rng = t.rng.fork();
  t.replica = make_quantized_replica(spec, trained, init_rng);
  if (int8_eval) t.replica.qmodel->set_int8_execution(true);
  if (prof) {
    WeightDramMapping mapping(*geom, t.replica.qmodel->total_weight_bytes(),
                              t.rng);
    t.feasible = mapping.feasible_bits(*t.replica.qmodel, *prof);
  }
  return t;
}

namespace {

ProgressiveBitFlipAttack bound_attack(const AttackRunSetup& setup, Rng& rng) {
  ProgressiveBitFlipAttack bfa(setup.bfa, rng);
  bfa.bind_telemetry(setup.metrics, setup.trace);
  bfa.bind_cancel(setup.cancel);
  return bfa;
}

}  // namespace

AttackResult run_profile_attack(const models::ModelSpec& spec,
                                const nn::ModelState& trained,
                                const data::SplitDataset& data,
                                const profile::BitFlipProfile& prof,
                                const dram::Geometry& geom,
                                const AttackRunSetup& setup) {
  AttackTrial t = setup_trial(spec, trained, setup.seed, setup.bfa.int8_eval,
                              &prof, &geom);
  // Scoped: setup.metrics is typically a per-trial registry owned by the
  // caller; the thread-local binding must not outlive this call (the same
  // pooled worker thread runs training GEMMs for later trials).
  nn::kernels::ScopedBindMetrics kernel_metrics(setup.metrics);
  return bound_attack(setup, t.rng)
      .run_profile_aware(*t.replica.qmodel, std::move(t.feasible), data.test,
                         data.test);
}

AttackResult run_unconstrained_attack(const models::ModelSpec& spec,
                                      const nn::ModelState& trained,
                                      const data::SplitDataset& data,
                                      const AttackRunSetup& setup) {
  AttackTrial t = setup_trial(spec, trained, setup.seed, setup.bfa.int8_eval);
  nn::kernels::ScopedBindMetrics kernel_metrics(setup.metrics);
  return bound_attack(setup, t.rng)
      .run_unconstrained(*t.replica.qmodel, data.test, data.test);
}

}  // namespace rowpress::attack
