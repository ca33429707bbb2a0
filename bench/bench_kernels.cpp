// GEMM kernel throughput on the Table-I-dominant shapes, batch-lane conv
// forward throughput on the zoo's ResNet-20 and M11 conv layers, plus one
// end-to-end profile-aware BFA trial, comparing the naive reference
// against the dispatched backend (and full-forward candidate evaluation
// against incremental suffix replay), and the float path against the true
// int8 execution path (quantized GEMM + batched conv entry).  Writes
// BENCH_kernels.json — the committed copy at the repo root is the tracked
// baseline.
//
// Modes:
//   bench_kernels           full suite + JSON artifact
//   bench_kernels --smoke   quick guards (release, unsanitized builds
//                           only; wired to `ctest -L perf`):
//                           1. dispatched GEMM must beat the naive
//                              reference by >= 1.8x on the dominant shape
//                           2. int8 execution must reproduce the float
//                              reference's top-1 predictions exactly on
//                              the committed parity subset (every eval
//                              sample whose float margin >= 0.5; see
//                              kParityMargin)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "attack/bfa.h"
#include "attack/eval.h"
#include "attack/mapping.h"
#include "data/dataset.h"
#include "data/vision_synth.h"
#include "dram/device.h"
#include "exp/experiment.h"
#include "models/resnet.h"
#include "nn/kernels/kernels.h"
#include "nn/kernels/qgemm.h"
#include "nn/quant/qmodel.h"
#include "nn/serialize.h"
#include "profile/profiler.h"

using namespace rowpress;
namespace k = nn::kernels;

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

using GemmFn = void (*)(const float*, const float*, float*, int, int, int);

struct Shape {
  const char* name;  ///< model layer the shape is taken from
  GemmFn fn;
  int m, k, n;
};

/// Sustained GFLOP/s of `fn` on one shape for the currently set backend.
double measure_gflops(const Shape& s, double min_secs) {
  Rng rng(3);
  std::vector<float> a(static_cast<std::size_t>(s.m) * s.k);
  std::vector<float> b(static_cast<std::size_t>(s.k) * s.n);
  std::vector<float> c(static_cast<std::size_t>(s.m) * s.n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.normal() * 0.05);
  for (auto& v : b) v = static_cast<float>(rng.normal() * 0.05);

  s.fn(a.data(), b.data(), c.data(), s.m, s.k, s.n);  // warm-up
  std::int64_t iters = 0;
  const double t0 = now_secs();
  double elapsed = 0.0;
  do {
    s.fn(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    ++iters;
    elapsed = now_secs() - t0;
  } while (elapsed < min_secs);
  const double flops = 2.0 * s.m * s.k * s.n * static_cast<double>(iters);
  return flops / elapsed / 1e9;
}

/// im2col / attention shapes that dominate the Table-I model forwards.
std::vector<Shape> table1_shapes() {
  return {
      // ResNet-20/CIFAR stage-1 3x3 conv: [cout, cin*kh*kw] x [patch, H*W].
      {"resnet.conv3x3_s1 (nn)", k::gemm_nn, 16, 144, 1024},
      // Stage-3 conv: wider, smaller spatial extent.
      {"resnet.conv3x3_s3 (nn)", k::gemm_nn, 64, 576, 64},
      // DeiT-T linear forward: [tokens, in] x [out, in]^T.
      {"deit.linear (nt)", k::gemm_nt, 256, 192, 192},
      // Linear weight gradient: [out, rows] x [rows, in].
      {"deit.linear_wgrad (tn)", k::gemm_tn, 256, 192, 192},
      // M11 1-D conv over a long time axis.
      {"m11.conv1d (nn)", k::gemm_nn, 64, 192, 2000},
  };
}

/// A zoo conv layer's forward geometry at one batch size.
struct ConvCase {
  std::string name;
  k::ConvShape shape;
};

/// ResNet-20 (base width 8, 12x12 inputs) and M11 (256-sample waveforms)
/// conv layers at the 256-sample accuracy-evaluation batch, plus two of
/// them at batch 4 and 5: either side of the size below which a last
/// chunk of samples skips the lanes for per-sample im2col + gemm_nn.
std::vector<ConvCase> conv_cases() {
  const auto conv2d = [](int c, int hw, int stride) {
    return k::ConvShape{.batch = 256, .cin = c, .h = hw, .w = hw, .cout = c,
                        .kh = 3, .kw = 3, .stride = stride, .pad_h = 1,
                        .pad_w = 1};
  };
  const auto conv1d = [](int cin, int cout, int len, int kw, int stride) {
    return k::ConvShape{.batch = 256, .cin = cin, .h = 1, .w = len,
                        .cout = cout, .kh = 1, .kw = kw, .stride = stride,
                        .pad_h = 0, .pad_w = kw / 2};
  };
  std::vector<ConvCase> cases = {
      {"resnet20.stage0", conv2d(8, 12, 1)},
      {"resnet20.stage1", conv2d(16, 6, 1)},
      {"resnet20.stage2", conv2d(32, 3, 1)},
      {"m11.g0", conv1d(1, 12, 256, 9, 2)},
      {"m11.g3", conv1d(48, 48, 16, 3, 1)},
  };
  for (const int idx : {1, 4})
    for (const int batch : {4, 5}) {
      ConvCase c = cases[static_cast<std::size_t>(idx)];
      c.name += ".b" + std::to_string(batch);
      c.shape.batch = batch;
      cases.push_back(c);
    }
  return cases;
}

/// Sustained GFLOP/s of conv_fwd (dense count: 2 * outputs * patch) on one
/// layer for the currently set backend.
double measure_conv_gflops(const k::ConvShape& s, double min_secs) {
  Rng rng(3);
  std::vector<float> x(static_cast<std::size_t>(s.batch) * s.cin * s.h * s.w);
  std::vector<float> w(static_cast<std::size_t>(s.cout) * s.patch());
  const double outputs =
      static_cast<double>(s.batch) * s.cout * s.out_h() * s.out_w();
  std::vector<float> y(static_cast<std::size_t>(outputs));
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : w) v = static_cast<float>(rng.normal() * 0.05);

  k::conv_fwd(x.data(), w.data(), nullptr, y.data(), s);  // warm-up
  std::int64_t iters = 0;
  const double t0 = now_secs();
  double elapsed = 0.0;
  do {
    k::conv_fwd(x.data(), w.data(), nullptr, y.data(), s);
    ++iters;
    elapsed = now_secs() - t0;
  } while (elapsed < min_secs);
  return 2.0 * outputs * s.patch() * static_cast<double>(iters) / elapsed /
         1e9;
}

/// Sustained int8 GOP/s (1 multiply-accumulate = 2 ops, like the float
/// numbers) of the quantized kernel on one shape, conv orientation.
/// batch > 1 measures the batched/strided entry — the whole-eval-batch
/// conv path.
double measure_qgemm_gops(int m, int k, int n, int batch, double min_secs) {
  Rng rng(3);
  std::vector<std::int8_t> wgt(static_cast<std::size_t>(m) * k);
  std::vector<std::int8_t> act(static_cast<std::size_t>(batch) * n * k);
  for (auto& v : wgt)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
  for (auto& v : act)
    v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_u64(255)) - 127);
  std::vector<std::int32_t> sums(static_cast<std::size_t>(m), 0);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < k; ++j)
      sums[static_cast<std::size_t>(i)] +=
          wgt[static_cast<std::size_t>(i) * k + j];
  std::vector<std::int32_t> c(static_cast<std::size_t>(batch) * m * n);

  const auto run = [&] {
    k::qgemm_wgt_act_batched(wgt.data(), act.data(), sums.data(), c.data(), m,
                             k, n, batch, static_cast<std::int64_t>(n) * k,
                             static_cast<std::int64_t>(m) * n, false);
  };
  run();  // warm-up
  std::int64_t iters = 0;
  const double t0 = now_secs();
  double elapsed = 0.0;
  do {
    run();
    ++iters;
    elapsed = now_secs() - t0;
  } while (elapsed < min_secs);
  const double ops =
      2.0 * m * k * n * batch * static_cast<double>(iters);
  return ops / elapsed / 1e9;
}

/// Shared fixture for the end-to-end trial: a briefly trained mini
/// ResNet-20 (it must sit above random-guess accuracy or the search exits
/// before flipping anything) plus a small profiled chip.
struct TrialFixture {
  explicit TrialFixture(int epochs = 1) {
    data::VisionSynthConfig dcfg;
    dcfg.num_classes = 4;
    dcfg.image_size = 12;
    dcfg.train_per_class = 50;
    dcfg.test_per_class = 25;
    ds = data::make_vision_dataset(dcfg);

    Rng rng(3);
    auto model = models::make_resnet_cifar(20, 1, 4, 4, rng);
    models::TrainRecipe recipe;
    // One epoch keeps the trial workload comparable with the committed
    // baseline; the parity guard passes a higher epoch count so its
    // reference margins are decisive (see run_smoke).
    recipe.epochs = epochs;
    recipe.batch_size = 32;
    recipe.lr = 2e-3;
    recipe.weight_decay = 1e-4;
    (void)exp::train_classifier(*model, ds, recipe, rng);
    trained = nn::snapshot_state(*model);

    dram::DeviceConfig ccfg;
    ccfg.geometry.num_banks = 2;
    ccfg.geometry.rows_per_bank = 64;
    ccfg.geometry.row_bytes = 256;
    ccfg.seed = 5;
    device = std::make_unique<dram::Device>(ccfg);
    profile::Profiler profiler;
    prof = profiler.profile_rowpress(*device);
  }

  data::SplitDataset ds;
  nn::ModelState trained;
  std::unique_ptr<dram::Device> device;
  profile::BitFlipProfile prof;
};

/// One deterministic profile-aware BFA trial; returns wall milliseconds.
/// Identical seeds produce identical flip sequences in every configuration
/// (the kernel/incremental bit-exactness contract), so the float timings
/// compare the same search work; the int8 trial may legitimately choose a
/// different chain (it evaluates on the quantized path) but is itself
/// bit-reproducible across backends and thread counts.
double run_trial_ms(const TrialFixture& fx, bool incremental,
                    bool int8 = false) {
  Rng rng(42);
  Rng init_rng = rng.fork();
  auto model = models::make_resnet_cifar(20, 1, 4, 4, init_rng);
  nn::restore_state(*model, fx.trained);
  model->set_training(false);

  nn::QuantizedModel qmodel(*model);
  if (int8) qmodel.set_int8_execution(true);
  attack::WeightDramMapping mapping(fx.device->geometry(),
                                    qmodel.total_weight_bytes(), rng);
  auto feasible = mapping.feasible_bits(qmodel, fx.prof);

  attack::BfaConfig cfg;
  cfg.max_flips = 10;
  cfg.eval_samples = 100;
  cfg.incremental_eval = incremental;
  attack::ProgressiveBitFlipAttack bfa(cfg, rng);

  const double t0 = now_secs();
  const auto result =
      bfa.run_profile_aware(qmodel, std::move(feasible), fx.ds.test, fx.ds.test);
  const double ms = (now_secs() - t0) * 1e3;
  std::printf("  trial flips=%d accuracy %.3f -> %.3f\n", result.num_flips(),
              result.accuracy_before, result.accuracy_after);
  return ms;
}

/// Committed parity subset rule: within the first `samples` test images,
/// the gate covers every sample whose float top-1 margin (best minus
/// second-best logit) is at least kParityMargin.  Near-tie samples are
/// excluded by rule — not by hand — because a sub-0.01 margin measures
/// rounding luck, while any *defective* int8 path (wrong VNNI
/// compensation, broken requantization, saturation bugs) perturbs logits
/// far beyond 0.5 and flips confident predictions.  kParityMinCovered
/// stops the subset from silently shrinking into meaninglessness.
constexpr float kParityMargin = 0.5f;
constexpr int kParityMinCovered = 50;

/// True when int8 execution reproduces the float reference's top-1
/// prediction on every sample of the committed parity subset (the
/// acceptance bar for serving on the int8 path).
bool int8_top1_parity(const TrialFixture& fx, int samples) {
  Rng init_rng(7);
  auto model = models::make_resnet_cifar(20, 1, 4, 4, init_rng);
  nn::restore_state(*model, fx.trained);
  model->set_training(false);
  nn::QuantizedModel qmodel(*model);

  std::vector<int> idx;
  for (int i = 0; i < samples && i < fx.ds.test.size(); ++i) idx.push_back(i);
  const nn::Tensor x = data::gather_inputs(fx.ds.test, idx);
  const nn::Tensor ref = model->forward(x);
  qmodel.set_int8_execution(true);
  const nn::Tensor got = model->forward(x);
  qmodel.set_int8_execution(false);
  bool parity = true;
  const int classes = static_cast<int>(ref.shape()[1]);
  int covered = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    float top1 = -1e30f, top2 = -1e30f;
    for (int c = 0; c < classes; ++c) {
      const float v = ref.data()[i * static_cast<std::size_t>(classes) + c];
      if (v > top1) {
        top2 = top1;
        top1 = v;
      } else if (v > top2) {
        top2 = v;
      }
    }
    if (top1 - top2 < kParityMargin) continue;  // near-tie: outside the rule
    ++covered;
    const int a = attack::argmax_row(ref, static_cast<int>(i));
    const int b = attack::argmax_row(got, static_cast<int>(i));
    if (a != b) {
      std::fprintf(stderr,
                   "  int8 top-1 mismatch at sample %zu: %d vs %d "
                   "(margin %.4f)\n",
                   i, a, b, static_cast<double>(top1 - top2));
      parity = false;
    }
  }
  std::printf("  parity subset: %d/%d samples with margin >= %.2f\n", covered,
              static_cast<int>(idx.size()), static_cast<double>(kParityMargin));
  if (covered < kParityMinCovered) {
    std::fprintf(stderr, "FAIL: parity subset shrank to %d (< %d) samples\n",
                 covered, kParityMinCovered);
    parity = false;
  }
  return parity;
}

void write_json(double gemm_gflops,
                const std::vector<std::pair<std::string, double>>& conv_gflops,
                double qgemm_gops, double qgemm_batched_gops,
                double trial_float_naive_ms, double trial_wall_ms,
                double trial_int8_wall_ms) {
  const std::string commit = bench::commit_stamp();
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return;
  }
  std::string conv = "{";
  for (const auto& [name, gflops] : conv_gflops) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.3f",
                  conv.size() > 1 ? ", " : "", name.c_str(), gflops);
    conv += buf;
  }
  conv += "}";
  std::fprintf(f,
               "{\"gemm_gflops\": %.3f, \"conv_fwd_gflops\": %s, "
               "\"qgemm_gops\": %.3f, "
               "\"qgemm_batched_gops\": %.3f, \"trial_float_naive_ms\": %.1f, "
               "\"trial_wall_ms\": %.1f, "
               "\"trial_int8_wall_ms\": %.1f, \"commit\": \"%s\"}\n",
               gemm_gflops, conv.c_str(), qgemm_gops, qgemm_batched_gops,
               trial_float_naive_ms, trial_wall_ms, trial_int8_wall_ms,
               commit.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_kernels.json\n");
}

int run_smoke() {
#ifndef NDEBUG
  std::printf("smoke: debug build, guard skipped\n");
  return 0;
#else
  if (sanitized_build()) {
    std::printf("smoke: sanitized build, guard skipped\n");
    return 0;
  }
  const k::Backend saved = k::active_backend();
  if (saved != k::Backend::kAvx2 && saved != k::Backend::kVnni) {
    // Without a SIMD backend the portable path keeps the reference's
    // exact FP sequence and wins little at cache-resident sizes; the
    // 1.8x guard is only meaningful against AVX2/VNNI dispatch.
    std::printf("smoke: no SIMD backend active, speedup guard skipped\n");
  } else {
    const Shape dominant = table1_shapes()[0];
    k::set_backend(k::Backend::kNaive);
    const double naive = measure_gflops(dominant, 0.15);
    k::set_backend(saved);
    const double active = measure_gflops(dominant, 0.15);
    const double speedup = active / naive;
    std::printf("smoke: %s naive %.2f GFLOP/s, %s %.2f GFLOP/s (%.2fx)\n",
                dominant.name, naive, k::backend_name(saved), active, speedup);
    // Generous guard: the SIMD paths measure >5x here; 1.8x only trips on
    // a dispatch regression (e.g. silently falling back to the reference).
    if (speedup < 1.8) {
      std::fprintf(stderr, "FAIL: dispatched GEMM speedup %.2fx < 1.8x\n",
                   speedup);
      return 1;
    }
  }
  // The int8 path is only worth its speed if it serves the same answers:
  // every top-1 prediction on the committed eval subset must match the
  // float reference exactly.  The guard trains longer than the timing
  // fixture so the reference margins are decisive — an undertrained
  // model's near-ties would shrink the subset below kParityMinCovered.
  const TrialFixture fx(/*epochs=*/8);
  if (!int8_top1_parity(fx, 100)) {
    std::fprintf(stderr, "FAIL: int8 top-1 predictions diverge from float\n");
    return 1;
  }
  std::printf("smoke: int8 top-1 parity on committed subset\n");
  return 0;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--smoke") == 0) return run_smoke();

  const k::Backend active = k::active_backend();
  std::printf("GEMM throughput, naive reference vs %s backend\n",
              k::backend_name(active));
  double dominant_gflops = 0.0;
  for (const Shape& s : table1_shapes()) {
    k::set_backend(k::Backend::kNaive);
    const double naive = measure_gflops(s, 0.4);
    k::set_backend(active);
    const double fast = measure_gflops(s, 0.4);
    if (dominant_gflops == 0.0) dominant_gflops = fast;
    std::printf("  %-24s m=%-4d k=%-4d n=%-5d %7.2f -> %7.2f GFLOP/s (%.2fx)\n",
                s.name, s.m, s.k, s.n, naive, fast, fast / naive);
  }

  std::printf("conv forward throughput, naive lowering vs %s\n",
              k::backend_name(active));
  std::vector<std::pair<std::string, double>> conv_gflops;
  for (const ConvCase& c : conv_cases()) {
    k::set_backend(k::Backend::kNaive);
    const double naive = measure_conv_gflops(c.shape, 0.4);
    k::set_backend(active);
    const double fast = measure_conv_gflops(c.shape, 0.4);
    conv_gflops.emplace_back(c.name, fast);
    std::printf("  %-24s cin=%-3d cout=%-3d batch=%-3d %7.2f -> %7.2f GFLOP/s "
                "(%.2fx)\n",
                c.name.c_str(), c.shape.cin, c.shape.cout, c.shape.batch,
                naive, fast, fast / naive);
  }

  std::printf("int8 GEMM throughput, %s backend, dominant conv shape\n",
              k::backend_name(active));
  const double qgops = measure_qgemm_gops(16, 144, 1024, 1, 0.4);
  const double qgops_batched = measure_qgemm_gops(16, 144, 1024, 8, 0.4);
  std::printf("  qgemm m=16 k=144 n=1024   batch=1 %7.2f GOP/s\n", qgops);
  std::printf("  qgemm m=16 k=144 n=1024   batch=8 %7.2f GOP/s\n",
              qgops_batched);

  // Trial wall time bounces +/-10-15% on a shared core; the median of
  // three runs is what lands in BENCH_kernels.json so committed numbers
  // stay comparable across refreshes.
  const auto median3 = [](const TrialFixture& f, bool inc, bool q) {
    double a[3];
    for (double& t : a) t = run_trial_ms(f, inc, q);
    std::sort(a, a + 3);
    return a[1];
  };

  const TrialFixture fx;
  std::printf("profile-aware BFA trial, full forward + naive kernels\n");
  k::set_backend(k::Backend::kNaive);
  const double baseline_ms = median3(fx, /*inc=*/false, /*q=*/false);
  std::printf("profile-aware BFA trial, incremental + %s kernels\n",
              k::backend_name(active));
  k::set_backend(active);
  const double optimized_ms = median3(fx, /*inc=*/true, /*q=*/false);
  std::printf("profile-aware BFA trial, incremental + %s kernels + int8\n",
              k::backend_name(active));
  const double int8_ms = median3(fx, /*inc=*/true, /*q=*/true);
  std::printf("  trial wall: %.0f ms -> %.0f ms float (%.2fx), %.0f ms int8 "
              "(%.2fx)\n",
              baseline_ms, optimized_ms, baseline_ms / optimized_ms, int8_ms,
              baseline_ms / int8_ms);

  write_json(dominant_gflops, conv_gflops, qgops, qgops_batched, baseline_ms,
             optimized_ms, int8_ms);
  return 0;
}
