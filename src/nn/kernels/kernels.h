// Fast kernel layer: the three GEMM accumulate ops every layer builds on
// (linear, attention) plus the batch-lane conv forward and backward,
// runtime-dispatched over backends.
//
// Bit-exactness contract
// ----------------------
// Every backend — including the retained naive reference — computes the
// SAME per-element floating-point operation sequence, so results are
// bitwise identical across backends.  The sequences below are pinned by
// committed CRC goldens in tests/test_kernels.cpp (GemmGolden.
// MatchesCommittedSequenceGoldens); on the reference build environment
// (GCC 12.2, x86-64 AVX2, Release `-O3 -DNDEBUG -march=native`) they were
// additionally verified bitwise against the pre-kernel-layer scalar loops
// in tensor.cpp, compiled as their own TU with those exact flags, across
// 390 shapes including all k%8 tails.  A pre-PR binary built by a
// different compiler or for a different ISA may have rounded the NT
// reduction differently; there the guarantee is determinism across the
// new backends, not pre/post-PR identity.
//
// The per-element sequences:
//
//   gemm_nn / gemm_tn:  each output element is an FMA chain over the
//     reduction index in ascending order; reduction terms whose A operand
//     equals 0.0f are skipped entirely (the historical sparsity shortcut —
//     it also changes Inf/NaN propagation, so it is part of the contract).
//
//   gemm_nt:  each output element is a dot product accumulated from zero —
//     separately-rounded multiply-then-add for the first (k & ~7) terms,
//     FMA for the remaining k % 8 terms — followed by one plain add into C.
//     (GCC's codegen for the original serial scalar loop: it vectorized
//     the multiplies but kept the adds in order — legal without
//     -fassociative-math — and fused only the tail.  Confirmed bitwise
//     against that TU on the reference build environment, see above.)
//
//   conv_fwd:  each output element is exactly the gemm_nn element of the
//     per-sample im2col lowering — an FMA chain over the patch index
//     (ci, ki, kj) ascending, started from the bias (or +0.0f), zero
//     weights skipped, padded taps FMA'd against +0.0f.  The naive backend
//     runs that lowering literally (im2col + ref::gemm_nn per sample); the
//     others run a batch-lane direct convolution whose SIMD lanes are the
//     samples of the batch at one output position, so every lane executes
//     the same chain and nothing is reduced across lanes.  A last chunk of
//     at most half a lane vector of samples runs the per-sample lowering
//     on the backend's own gemm_nn, which holds the same contract.
//
//   conv_bwd:  each output element is exactly the element of the per-sample
//     backward lowering — im2col, gemm_nt into dW, gemm_tn into a zeroed
//     dcol, col2im into a zeroed dX — so it inherits those sequences.  dX:
//     each dcol element is gemm_tn's FMA chain over cout ascending from
//     +0.0f, zero weights skipped; each input element is +0.0f plus its
//     dcol taps added in col2im's (ci, ki, kj, position) order, padded taps
//     dropped.  dW: each (co, patch) element of one sample is gemm_nt's dot
//     product over positions, and the samples' products are added into dW
//     one at a time in batch order.  The bias gradient adds each sample's
//     plain sum over positions, in batch order.  The naive backend runs the
//     lowering literally; the others run lanes of 8 samples on the forward's
//     packing at every batch size.
//
// The blocked/SIMD paths may reorder loops, tile, pack, or keep partial
// sums in registers, but never change any element's operation sequence.
#pragma once

#include <cstdint>
#include <string>

namespace rowpress::telemetry {
class MetricsRegistry;
}

namespace rowpress::nn::kernels {

enum class Backend {
  kNaive = 0,     ///< retained scalar reference (always available)
  kPortable = 1,  ///< cache-blocked, auto-vectorizable C++ (always available)
  kAvx2 = 2,      ///< AVX2+FMA register-tiled micro-kernels (when compiled in)
  kVnni = 3,      ///< AVX-512 VNNI int8 dot-product kernels (when compiled in;
                  ///<   float entry points route to the AVX2 implementations,
                  ///<   which are bitwise identical by the contract above)
};

/// C[M,N] += A[M,K] * B[K,N].
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n);

/// C[M,N] += A[M,K] * B^T where B is [N,K].
void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n);

/// C[K,N] += A^T * B where A is [M,K], B is [M,N].
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n);

/// Geometry of one convolution over a batch: input [batch, cin, h, w],
/// weight [cout, cin, kh, kw], output [batch, cout, out_h(), out_w()].
/// One stride for both axes; zero padding pad_h / pad_w on each side.
/// A 1-D convolution over [batch, cin, len] is h = 1, kh = 1, pad_h = 0.
struct ConvShape {
  int batch = 0, cin = 0, h = 0, w = 0;
  int cout = 0, kh = 0, kw = 0;
  int stride = 1, pad_h = 0, pad_w = 0;

  int out_h() const { return (h + 2 * pad_h - kh) / stride + 1; }
  int out_w() const { return (w + 2 * pad_w - kw) / stride + 1; }
  int patch() const { return cin * kh * kw; }
};

/// y = conv(x, weight) + bias over the whole batch (bias may be null).
/// Overwrites y.  Bitwise equal to per-sample im2col + gemm_nn into a
/// bias-filled (or zeroed) y; see the contract above.
void conv_fwd(const float* x, const float* weight, const float* bias,
              float* y, const ConvShape& s);

/// Backward of conv_fwd over the whole batch, given grad_out [batch, cout,
/// out_h(), out_w()]: overwrites grad_in [batch, cin, h, w] with dL/dx and
/// adds dL/dweight into grad_weight and, when grad_bias is not null,
/// dL/dbias into grad_bias.  Bitwise equal to the per-sample im2col +
/// gemm_nt / gemm_tn + col2im lowering; see the contract above.
void conv_bwd(const float* x, const float* grad_out, const float* weight,
              float* grad_in, float* grad_weight, float* grad_bias,
              const ConvShape& s);

/// im2col of ONE sample: expands x [cin, h, w] into col [patch, oh*ow],
/// row (ci*kh + ki)*kw + kj; taps that land in the padding are +0.0f.
void im2col(const float* x, const ConvShape& s, float* col);

/// Backend used by the gemm_* and conv_* entry points.  Resolved once, lazily: the
/// ROWPRESS_KERNEL environment variable ("naive" | "portable" | "avx2" |
/// "vnni") when set, otherwise the fastest backend this CPU supports.  An
/// env-requested backend that is not available here falls back to the
/// fastest available one with a warning on stderr, so a pinned CI matrix
/// stays runnable on machines without the wider ISA.
Backend active_backend();

/// Overrides the active backend (tests/benchmarks).  Requires the backend
/// to be available on this machine.
void set_backend(Backend b);

/// True when the backend can run here (compiled in + CPU support).
bool backend_available(Backend b);

const char* backend_name(Backend b);

/// CPU SIMD capabilities relevant to kernel selection, as detected at
/// runtime (compiled-in paths AND cpuid agree).  Cached after first call.
struct CpuFeatures {
  bool avx2 = false;  ///< AVX2+FMA float micro-kernels usable
  bool vnni = false;  ///< AVX-512 VNNI int8 dot-product kernels usable
};
const CpuFeatures& cpu_features();

/// Human-readable summary, e.g. "avx2+vnni", "avx2", or "baseline".
std::string cpu_features_string();

/// Records the selected backend and detected CPU features as gauges
/// ("kernels.backend" = Backend enum value, "kernels.cpu_avx2",
/// "kernels.cpu_vnni" = 0/1) so exported metrics and BENCH_*.json numbers
/// are attributable to the machine/backend that produced them.
void record_backend_gauges(telemetry::MetricsRegistry& metrics);

/// Binds the calling thread's kernel telemetry to `metrics` (idempotently
/// registering the "kernels.gemm_ns", "kernels.qgemm_ns", "kernels.conv_ns"
/// and "kernels.conv_bwd_ns" histograms there) — or detaches it when null.
/// Thread-local: each attack worker binds its own registry, so recording
/// needs no synchronization beyond the histogram's own atomics.
/// Unbound threads skip the clock reads entirely.
void bind_metrics(telemetry::MetricsRegistry* metrics);

/// RAII wrapper around bind_metrics(): binds on construction, detaches on
/// destruction.  The binding is a raw pointer into `metrics` held in a
/// thread-local, so every binding MUST be scoped to the registry's
/// lifetime — pooled worker threads outlive per-trial registries, and an
/// orphaned binding would make the next trial's GEMMs record into freed
/// memory.  Exception-safe (attacks abort by throwing on cancellation).
class ScopedBindMetrics {
 public:
  explicit ScopedBindMetrics(telemetry::MetricsRegistry* metrics) {
    bind_metrics(metrics);
  }
  ~ScopedBindMetrics() { bind_metrics(nullptr); }
  ScopedBindMetrics(const ScopedBindMetrics&) = delete;
  ScopedBindMetrics& operator=(const ScopedBindMetrics&) = delete;
};

/// Reference implementations of the exact per-element operation sequences
/// (see the contract above).  Slow by design; golden oracle for tests and
/// the baseline side of bench_kernels.
namespace ref {
void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n);
void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n);
void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n);
/// Per-sample im2col + gemm_nn: the lowering conv_fwd must reproduce.
void conv_fwd(const float* x, const float* weight, const float* bias,
              float* y, const ConvShape& s);
/// Per-sample im2col + gemm_nt / gemm_tn + col2im: the lowering conv_bwd
/// must reproduce.
void conv_bwd(const float* x, const float* grad_out, const float* weight,
              float* grad_in, float* grad_weight, float* grad_bias,
              const ConvShape& s);
}  // namespace ref

}  // namespace rowpress::nn::kernels
