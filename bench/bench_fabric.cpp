// Fabric scaling bench: single-process campaign vs the sharded
// multi-process fabric on the same grid.
//
// Runs the grid twice from cold journals — once with runtime::run_campaign
// and once with fabric::run_fabric across worker processes — then checks
// the fabric result is BIT-IDENTICAL to the single-process run (the
// fabric's core contract) and reports wall time, per-mode throughput, and
// the speedup.  Writes BENCH_fabric.json.
//
// Modes:
//   bench_fabric           full grid (RP_SEEDS x profiles, 4 workers)
//   bench_fabric --smoke   tiny grid, 2 workers; wired to `ctest -L perf`
//
// RP_WORKERS overrides the fleet size; RP_SEEDS the per-cell repetitions.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "data/vision_synth.h"
#include "fabric/coordinator.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "runtime/campaign.h"

using namespace rowpress;
using Clock = std::chrono::steady_clock;

namespace {

// A compact victim: the fabric's costs (fork, pipes, journal merge,
// shard scheduling) are what is being measured, not the model's FLOPs.
data::SplitDataset bench_data() {
  data::VisionSynthConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 60;
  cfg.test_per_class = 40;
  return data::make_vision_dataset(cfg);
}

models::ModelSpec bench_spec() {
  models::ModelSpec s;
  s.name = "FabricMLP";
  s.paper_dataset = "synthetic";
  s.dataset = models::DatasetKind::kVision10;
  s.factory = [](Rng& rng) -> std::unique_ptr<nn::Module> {
    auto net = std::make_unique<nn::Sequential>();
    net->emplace<nn::Flatten>();
    net->emplace<nn::Linear>(144, 32, rng, true, "fc1");
    net->emplace<nn::ReLU>();
    net->emplace<nn::Linear>(32, 4, rng, true, "fc2");
    return net;
  };
  s.recipe = models::TrainRecipe{.epochs = 4, .batch_size = 32, .lr = 2e-3,
                                 .weight_decay = 1e-4};
  return s;
}

runtime::CampaignSpec make_spec(const std::string& name, int seeds,
                                const std::string& scratch) {
  runtime::CampaignSpec spec;
  spec.name = name;
  spec.models = {"FabricMLP"};
  spec.profiles = {runtime::AttackProfile::kRowHammer,
                   runtime::AttackProfile::kRowPress};
  spec.seeds_per_cell = seeds;
  spec.campaign_seed = 7;
  spec.model_seed = 5;
  spec.bfa.max_flips = 4;
  spec.bfa.attack_batch_size = 16;
  spec.bfa.eval_samples = 128;
  spec.bfa.max_layer_trials = 2;
  spec.device.seed = 61;
  // The shared model/profile cache lives in the scratch dir too, so the
  // single-process leg pays the cold train/profile cost and the fabric leg
  // resumes it warm — identical to how both modes are used in practice.
  spec.cache_dir = scratch + "/cache";
  spec.journal_dir = scratch + "/journals";
  spec.zoo = {bench_spec()};
  spec.dataset_factory = [](models::DatasetKind) { return bench_data(); };
  return spec;
}

bool identical(const runtime::CampaignResult& a,
               const runtime::CampaignResult& b) {
  if (a.results.size() != b.results.size()) return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const auto& ra = a.results[i];
    const auto& rb = b.results[i];
    if (ra.trial.id() != rb.trial.id() || ra.flips != rb.flips ||
        ra.accuracy_before != rb.accuracy_before ||
        ra.accuracy_after != rb.accuracy_after ||
        ra.accuracy_curve != rb.accuracy_curve || ra.metrics != rb.metrics)
      return false;
  }
  return true;
}

void write_json(int trials, int workers, double single_s, double fabric_s,
                bool bit_identical) {
  const std::string commit = bench::commit_stamp();
  std::FILE* f = std::fopen("BENCH_fabric.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_fabric.json\n");
    return;
  }
  std::fprintf(f,
               "{\"trials\": %d, \"workers\": %d, \"single_process_s\": %.3f, "
               "\"fabric_s\": %.3f, \"speedup\": %.2f, "
               "\"bit_identical\": %s, \"commit\": \"%s\"}\n",
               trials, workers, single_s, fabric_s,
               fabric_s > 0.0 ? single_s / fabric_s : 0.0,
               bit_identical ? "true" : "false", commit.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_fabric.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int seeds = smoke ? 2 : std::max(4, bench::num_seeds());
  const int env_workers = bench::num_workers();
  const int workers = env_workers > 0 ? env_workers : (smoke ? 2 : 4);

  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("rp_bench_fabric_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  std::printf("fabric bench: %d seeds/cell x 2 profiles, %d workers%s\n",
              seeds, workers, smoke ? " (smoke)" : "");

  // Leg 1: single-process reference (one worker thread per hardware
  // thread, same as campaign_runner's default).
  auto single_spec = make_spec("fabric-bench-single", seeds, scratch);
  const auto t0 = Clock::now();
  const auto single = runtime::run_campaign(single_spec);
  const double single_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("single-process: %d trials in %.3fs (%.1f trials/s)\n",
              single.executed, single_s,
              single.executed / std::max(single_s, 1e-9));

  // Leg 2: the fabric, cold journals, warm model/profile cache.
  auto fabric_spec = make_spec("fabric-bench-fleet", seeds, scratch);
  fabric::FabricConfig cfg;
  cfg.workers = workers;
  cfg.shards_per_worker = 2;
  cfg.threads_per_worker = 1;
  cfg.log = [](const std::string&) {};
  const auto t1 = Clock::now();
  const auto fleet = fabric::run_fabric(fabric_spec, cfg);
  const double fabric_s =
      std::chrono::duration<double>(Clock::now() - t1).count();
  std::printf(
      "fabric:         %d trials in %.3fs (%.1f trials/s), "
      "%d workers, %d shards, %d stolen\n",
      fleet.campaign.executed, fabric_s,
      fleet.campaign.executed / std::max(fabric_s, 1e-9), workers,
      fleet.shards_total, fleet.shards_stolen);

  const bool bit_identical = identical(single, fleet.campaign);
  std::printf("bit-identical:  %s\n", bit_identical ? "yes" : "NO");
  std::printf("speedup:        %.2fx\n",
              fabric_s > 0.0 ? single_s / fabric_s : 0.0);

  write_json(static_cast<int>(single.results.size()), workers, single_s,
             fabric_s, bit_identical);
  std::filesystem::remove_all(scratch);

  if (!single.all_succeeded() || !fleet.campaign.all_succeeded()) {
    std::fprintf(stderr, "FAIL: not every trial succeeded\n");
    return 1;
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FAIL: fabric result differs from single-process run\n");
    return 1;
  }
  if (smoke) std::printf("smoke: fabric OK\n");
  return 0;
}
