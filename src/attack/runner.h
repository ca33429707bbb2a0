// Single-attack-run orchestration: trained model state -> fresh quantized
// copy -> random DRAM placement -> (profile-aware) BFA.  Used by the
// Table-I / Fig.-7 benches and the examples; each run is deterministic in
// its seed, and the paper's averaging over "random attack initialization"
// (batch selection, weight-to-cell mapping) corresponds to varying it.
#pragma once

#include <cstdint>
#include <memory>

#include "attack/bfa.h"
#include "attack/mapping.h"
#include "data/dataset.h"
#include "dram/address.h"
#include "nn/serialize.h"
#include "models/zoo.h"
#include "profile/bitflip_profile.h"

namespace rowpress::attack {

/// A private instantiation of a trained model plus its int8 quantization —
/// the unit of model state an attack run owns exclusively.  The serving
/// layer's SharedModel builds its master copy through the same helper, so
/// an offline search replica and the deployed (served) model carry
/// identical codes and identical dequantized weights: symmetric
/// quantization is deterministic in the trained state, which is what makes
/// an offline-planned flip chain land meaningfully on the live service.
struct QuantizedReplica {
  std::unique_ptr<nn::Module> model;
  std::unique_ptr<nn::QuantizedModel> qmodel;
};

/// Builds the model from its zoo factory (consuming `init_rng` exactly as
/// the attack runners do), restores `trained`, and quantizes in place.
QuantizedReplica make_quantized_replica(const models::ModelSpec& spec,
                                        const nn::ModelState& trained,
                                        Rng& init_rng);

/// Everything an attack trial derives from its seed, in draw order:
/// Rng(seed), a fork of it that initializes the replica (then restore and
/// quantize), then, with a profile, the weight->DRAM placement drawn from
/// the parent stream and the feasible bits it yields.  `rng` is left where
/// the attack's batch draws continue it.
struct AttackTrial {
  Rng rng;
  QuantizedReplica replica;
  std::vector<FeasibleBit> feasible;  ///< empty without a profile
};

/// Sets up a trial as every attack runner does.  `prof` and `geom` are
/// both given (profile-aware) or both null (unconstrained); `int8_eval`
/// switches the replica onto the int8 kernel path.
AttackTrial setup_trial(const models::ModelSpec& spec,
                        const nn::ModelState& trained, std::uint64_t seed,
                        bool int8_eval,
                        const profile::BitFlipProfile* prof = nullptr,
                        const dram::Geometry* geom = nullptr);

struct AttackRunSetup {
  BfaConfig bfa;
  std::uint64_t seed = 1;
  /// Optional telemetry (see ProgressiveBitFlipAttack::bind_telemetry);
  /// both may be null.  Not owned; must outlive the run.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::TraceCollector* trace = nullptr;
  /// Optional cooperative cancellation/deadline token, polled once per BFA
  /// iteration (see ProgressiveBitFlipAttack::bind_cancel).  May be null.
  const runtime::CancelToken* cancel = nullptr;
};

/// DRAM-profile-aware attack (Algorithm 3) with the given profile.
AttackResult run_profile_attack(const models::ModelSpec& spec,
                                const nn::ModelState& trained,
                                const data::SplitDataset& data,
                                const profile::BitFlipProfile& prof,
                                const dram::Geometry& geom,
                                const AttackRunSetup& setup);

/// Unconstrained BFA baseline (no DRAM profile restriction).
AttackResult run_unconstrained_attack(const models::ModelSpec& spec,
                                      const nn::ModelState& trained,
                                      const data::SplitDataset& data,
                                      const AttackRunSetup& setup);

}  // namespace rowpress::attack
