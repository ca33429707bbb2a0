// Greedy progressive BFA vs the branch-and-bound chain search on mini
// Table-I proxies: same victim, same DRAM placement, same stopping rule —
// the comparison is purely "how many flips does each engine need to
// deplete the model" plus the wall-clock price of the search.  Writes
// BENCH_search.json (the committed copy at the repo root is the tracked
// baseline).
//
// Modes:
//   bench_search           full grid (all configs x RP_SEEDS extra seeds)
//   bench_search --smoke   the committed config subset; asserts that bnb
//                          never needs more flips than greedy and beats it
//                          strictly on >= 2 configs; wired to
//                          `ctest -L perf`.  Sanitized builds run one
//                          config as a dispatch guard and skip the
//                          improvement assertion (they are 10-50x slower,
//                          not different — the chains are bit-identical).
//
// Everything is derived from fixed seeds (models, chips, placements,
// attack batches) and the engines are thread-count-invariant, so the
// printed flip counts — and the smoke assertion — are reproducible.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "attack/runner.h"
#include "data/vision_synth.h"
#include "dram/device.h"
#include "exp/experiment.h"
#include "models/resnet.h"
#include "profile/profiler.h"
#include "search/runner.h"

using namespace rowpress;

namespace {

constexpr bool sanitized_build() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

data::SplitDataset bench_data() {
  data::VisionSynthConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 50;
  cfg.test_per_class = 25;
  return data::make_vision_dataset(cfg);
}

// Mini proxies of the Table I victims: same architecture family, scaled to
// the synthetic set so a config runs in seconds.
models::ModelSpec proxy_spec(const std::string& name) {
  models::ModelSpec s;
  s.name = name;
  s.paper_dataset = "synthetic";
  s.dataset = models::DatasetKind::kVision10;
  if (name == "ResNet-20-mini") {
    s.factory = [](Rng& rng) { return models::make_resnet_cifar(20, 1, 4, 4, rng); };
  } else {
    s.factory = [](Rng& rng) { return models::make_resnet_cifar(32, 1, 4, 4, rng); };
  }
  s.recipe = models::TrainRecipe{.epochs = 6, .batch_size = 32, .lr = 2e-3,
                                 .weight_decay = 1e-4};
  return s;
}

struct BenchConfig {
  const char* model;
  const char* profile;  // "rowpress" | "rowhammer" | "unconstrained"
  std::uint64_t seed;
};

struct Row {
  BenchConfig cfg;
  bool greedy_reached = false;
  int greedy_flips = 0;
  double greedy_s = 0.0;
  bool bnb_reached = false;
  int bnb_flips = 0;
  double bnb_s = 0.0;  // includes the greedy probe the engine seeds with
  bool improved = false;
  std::int64_t nodes_expanded = 0;
  std::int64_t nodes_pruned = 0;
};

struct Victim {
  models::ModelSpec spec;
  nn::ModelState state;
};

Row run_config(const BenchConfig& cfg, const Victim& victim,
               const data::SplitDataset& data,
               const profile::BitFlipProfile* prof, const dram::Geometry& geom) {
  search::SearchRunSetup setup;
  setup.base.seed = cfg.seed;
  setup.base.bfa.max_flips = 25;
  setup.base.bfa.eval_samples = 100;
  setup.config.kind = search::SearchKind::kBranchAndBound;
  setup.config.max_nodes = 64;
  setup.config.branch = 5;
  setup.config.expand_batch = 4;

  Row row;
  row.cfg = cfg;

  search::SearchRunSetup greedy_setup = setup;
  greedy_setup.config.kind = search::SearchKind::kGreedy;
  double t0 = now_secs();
  const attack::AttackResult greedy =
      prof ? search::run_profile_attack(victim.spec, victim.state, data, *prof,
                                        geom, greedy_setup)
           : search::run_unconstrained_attack(victim.spec, victim.state, data,
                                              greedy_setup);
  row.greedy_s = now_secs() - t0;
  row.greedy_reached = greedy.objective_reached;
  row.greedy_flips = greedy.num_flips();

  search::SearchStats stats;
  t0 = now_secs();
  const attack::AttackResult bnb =
      prof ? search::run_profile_attack(victim.spec, victim.state, data, *prof,
                                        geom, setup, &stats)
           : search::run_unconstrained_attack(victim.spec, victim.state, data,
                                              setup, &stats);
  row.bnb_s = now_secs() - t0;
  row.bnb_reached = bnb.objective_reached;
  row.bnb_flips = bnb.num_flips();
  row.improved = stats.improved;
  row.nodes_expanded = stats.nodes_expanded;
  row.nodes_pruned = stats.nodes_pruned;
  return row;
}

void write_json(const std::vector<Row>& rows, int improved) {
  const std::string commit = bench::commit_stamp();
  std::FILE* f = std::fopen("BENCH_search.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_search.json\n");
    return;
  }
  std::fprintf(f, "{\"configs\": [");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "%s{\"model\": \"%s\", \"profile\": \"%s\", \"seed\": %llu, "
        "\"greedy_flips\": %d, \"bnb_flips\": %d, \"improved\": %s, "
        "\"nodes_expanded\": %lld, \"greedy_s\": %.3f, \"bnb_s\": %.3f}",
        i > 0 ? ", " : "", r.cfg.model, r.cfg.profile,
        static_cast<unsigned long long>(r.cfg.seed), r.greedy_flips,
        r.bnb_flips, r.improved ? "true" : "false",
        static_cast<long long>(r.nodes_expanded), r.greedy_s, r.bnb_s);
  }
  std::fprintf(f, "], \"improved_configs\": %d, \"commit\": \"%s\"}\n",
               improved, commit.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_search.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  // The committed smoke grid: diverse model/profile cells on which the
  // assertion below holds (>= 2 strict improvements; the rowpress/seed-3
  // cell is a deliberate no-improvement control).  Tuned once, then
  // frozen — every quantity downstream of these seeds is deterministic.
  std::vector<BenchConfig> grid = {
      {"ResNet-20-mini", "rowpress", 1},
      {"ResNet-20-mini", "rowpress", 3},
      {"ResNet-20-mini", "unconstrained", 2},
      {"ResNet-32-mini", "rowpress", 7},
      {"ResNet-32-mini", "rowhammer", 5},
  };
  if (!smoke) {
    // Full mode widens the sweep (extra seeds and the cells the smoke
    // grid leaves out).
    for (const BenchConfig& c : std::vector<BenchConfig>{
             {"ResNet-20-mini", "rowpress", 2},
             {"ResNet-20-mini", "rowpress", 5},
             {"ResNet-20-mini", "rowhammer", 1},
             {"ResNet-20-mini", "rowhammer", 2},
             {"ResNet-20-mini", "unconstrained", 1},
             {"ResNet-32-mini", "rowpress", 5},
             {"ResNet-32-mini", "rowhammer", 7},
             {"ResNet-32-mini", "unconstrained", 1},
             {"ResNet-32-mini", "unconstrained", 2},
         })
      grid.push_back(c);
  }
  if (sanitized_build() && smoke) grid.resize(1);

  const data::SplitDataset data = bench_data();
  dram::DeviceConfig dcfg;
  dcfg.geometry.num_banks = 2;
  dcfg.geometry.rows_per_bank = 64;
  dcfg.geometry.row_bytes = 256;
  dcfg.seed = 5;
  dram::Device device(dcfg);
  profile::Profiler profiler;
  const profile::BitFlipProfile rp = profiler.profile_rowpress(device);
  const profile::BitFlipProfile rh = profiler.profile_rowhammer(device);

  std::map<std::string, Victim> victims;
  for (const auto& cfg : grid) {
    if (victims.count(cfg.model)) continue;
    Victim v;
    v.spec = proxy_spec(cfg.model);
    Rng rng(3);
    auto model = v.spec.factory(rng);
    (void)exp::train_classifier(*model, data, v.spec.recipe, rng);
    v.state = nn::snapshot_state(*model);
    victims.emplace(cfg.model, std::move(v));
    std::printf("trained %s\n", cfg.model);
  }

  std::vector<Row> rows;
  int improved = 0;
  std::printf("%-16s %-14s %5s | %6s %8s | %6s %8s %9s\n", "model", "profile",
              "seed", "greedy", "time", "bnb", "time", "nodes");
  for (const auto& cfg : grid) {
    const profile::BitFlipProfile* prof =
        std::strcmp(cfg.profile, "rowpress") == 0     ? &rp
        : std::strcmp(cfg.profile, "rowhammer") == 0  ? &rh
                                                      : nullptr;
    const Row row = run_config(cfg, victims.at(cfg.model), data, prof,
                               device.geometry());
    improved += row.improved ? 1 : 0;
    std::printf("%-16s %-14s %5llu | %4d%s %7.2fs | %4d%s %7.2fs %9lld%s\n",
                cfg.model, cfg.profile,
                static_cast<unsigned long long>(cfg.seed), row.greedy_flips,
                row.greedy_reached ? " " : "x", row.greedy_s, row.bnb_flips,
                row.bnb_reached ? " " : "x", row.bnb_s,
                static_cast<long long>(row.nodes_expanded),
                row.improved ? "  <- improved" : "");
    rows.push_back(row);
  }
  std::printf("bnb strictly beat greedy on %d/%zu configs\n", improved,
              rows.size());
  write_json(rows, improved);

  for (const Row& r : rows) {
    if (r.greedy_reached && (!r.bnb_reached || r.bnb_flips > r.greedy_flips)) {
      std::fprintf(stderr, "FAIL: bnb worse than greedy on %s/%s\n",
                   r.cfg.model, r.cfg.profile);
      return 1;
    }
  }
  if (smoke) {
    if (sanitized_build()) {
      std::printf("smoke: sanitized build; improvement assertion skipped\n");
      return 0;
    }
    if (improved < 2) {
      std::fprintf(stderr,
                   "FAIL: expected >= 2 configs where bnb strictly beats "
                   "greedy, got %d\n",
                   improved);
      return 1;
    }
    std::printf("smoke: search OK\n");
  }
  return 0;
}
