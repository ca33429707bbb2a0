// Runtime backend selection + per-thread telemetry for the kernel layer.
#include "nn/kernels/kernels.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "nn/kernels/gemm.h"
#include "telemetry/metric.h"
#include "telemetry/registry.h"

namespace rowpress::nn::kernels {
namespace {

// -1 = not resolved yet.  Lazy so ROWPRESS_KERNEL set by a test harness
// before first use is honored; a racing first resolve computes the same
// value on every thread, so the relaxed store is benign.
std::atomic<int> g_backend{-1};

Backend fastest_available() {
  if (backend_available(Backend::kVnni)) return Backend::kVnni;
  if (backend_available(Backend::kAvx2)) return Backend::kAvx2;
  return Backend::kPortable;
}

Backend resolve_default() {
  if (const char* env = std::getenv("ROWPRESS_KERNEL")) {
    Backend b;
    if (std::strcmp(env, "naive") == 0) {
      b = Backend::kNaive;
    } else if (std::strcmp(env, "portable") == 0) {
      b = Backend::kPortable;
    } else if (std::strcmp(env, "avx2") == 0) {
      b = Backend::kAvx2;
    } else if (std::strcmp(env, "vnni") == 0) {
      b = Backend::kVnni;
    } else {
      RP_REQUIRE(false, std::string("ROWPRESS_KERNEL must be naive|portable|"
                                    "avx2|vnni, got: ") +
                            env);
    }
    // Unknown names are a hard error (caught above); a *known* backend this
    // machine can't run falls back with a warning, so a pinned test matrix
    // (e.g. ctest's ROWPRESS_KERNEL sweep) stays green on narrower ISAs.
    if (!backend_available(b)) {
      const Backend fb = fastest_available();
      std::fprintf(stderr,
                   "[kernels] ROWPRESS_KERNEL=%s not available on this "
                   "machine; falling back to %s\n",
                   env, backend_name(fb));
      return fb;
    }
    return b;
  }
  return fastest_available();
}

thread_local telemetry::Histogram* t_gemm_hist = nullptr;
thread_local telemetry::Histogram* t_qgemm_hist = nullptr;
thread_local telemetry::Histogram* t_conv_hist = nullptr;
thread_local telemetry::Histogram* t_conv_bwd_hist = nullptr;

// Timed dispatch: clock reads only happen on threads that bound a registry.
template <typename F>
inline void run_timed(telemetry::Histogram* hist, F&& f) {
  if (hist == nullptr) {
    f();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  hist->record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
}

}  // namespace

Backend active_backend() {
  const int cur = g_backend.load(std::memory_order_relaxed);
  if (cur >= 0) return static_cast<Backend>(cur);
  const Backend resolved = resolve_default();
  g_backend.store(static_cast<int>(resolved), std::memory_order_relaxed);
  return resolved;
}

void set_backend(Backend b) {
  RP_REQUIRE(backend_available(b),
             std::string("backend not available on this machine: ") +
                 backend_name(b));
  g_backend.store(static_cast<int>(b), std::memory_order_relaxed);
}

bool backend_available(Backend b) {
  switch (b) {
    case Backend::kNaive:
    case Backend::kPortable:
      return true;
    case Backend::kAvx2:
      return detail::kAvx2Compiled && detail::avx2_runtime_supported();
    case Backend::kVnni:
      return detail::kVnniCompiled && detail::vnni_runtime_supported();
  }
  return false;
}

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kNaive:
      return "naive";
    case Backend::kPortable:
      return "portable";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kVnni:
      return "vnni";
  }
  return "unknown";
}

const CpuFeatures& cpu_features() {
  static const CpuFeatures feats = [] {
    CpuFeatures f;
    f.avx2 = detail::kAvx2Compiled && detail::avx2_runtime_supported();
    f.vnni = detail::kVnniCompiled && detail::vnni_runtime_supported();
    return f;
  }();
  return feats;
}

std::string cpu_features_string() {
  const CpuFeatures& f = cpu_features();
  if (f.avx2 && f.vnni) return "avx2+vnni";
  if (f.avx2) return "avx2";
  return "baseline";
}

void record_backend_gauges(telemetry::MetricsRegistry& metrics) {
  const CpuFeatures& f = cpu_features();
  metrics.gauge("kernels.backend")
      .set(static_cast<double>(static_cast<int>(active_backend())));
  metrics.gauge("kernels.cpu_avx2").set(f.avx2 ? 1.0 : 0.0);
  metrics.gauge("kernels.cpu_vnni").set(f.vnni ? 1.0 : 0.0);
}

void bind_metrics(telemetry::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    t_gemm_hist = nullptr;
    t_qgemm_hist = nullptr;
    t_conv_hist = nullptr;
    t_conv_bwd_hist = nullptr;
    return;
  }
  static const std::vector<double> kBounds{
      1e3, 4e3, 16e3, 64e3, 256e3, 1e6, 4e6, 16e6, 64e6};
  t_gemm_hist = &metrics->histogram("kernels.gemm_ns", kBounds);
  t_qgemm_hist = &metrics->histogram("kernels.qgemm_ns", kBounds);
  t_conv_hist = &metrics->histogram("kernels.conv_ns", kBounds);
  t_conv_bwd_hist = &metrics->histogram("kernels.conv_bwd_ns", kBounds);
}

namespace detail {
telemetry::Histogram* bound_qgemm_histogram() { return t_qgemm_hist; }
}  // namespace detail

void gemm_nn(const float* a, const float* b, float* c, int m, int k, int n) {
  run_timed(t_gemm_hist, [&] {
    switch (active_backend()) {
      case Backend::kNaive:
        ref::gemm_nn(a, b, c, m, k, n);
        break;
      case Backend::kPortable:
        detail::portable_gemm_nn(a, b, c, m, k, n);
        break;
      case Backend::kAvx2:
      case Backend::kVnni:  // no float-path VNNI kernels; AVX2 is bit-equal
        detail::avx2_gemm_nn(a, b, c, m, k, n);
        break;
    }
  });
}

void gemm_nt(const float* a, const float* b, float* c, int m, int k, int n) {
  run_timed(t_gemm_hist, [&] {
    switch (active_backend()) {
      case Backend::kNaive:
        ref::gemm_nt(a, b, c, m, k, n);
        break;
      case Backend::kPortable:
        detail::portable_gemm_nt(a, b, c, m, k, n);
        break;
      case Backend::kAvx2:
      case Backend::kVnni:
        detail::avx2_gemm_nt(a, b, c, m, k, n);
        break;
    }
  });
}

void gemm_tn(const float* a, const float* b, float* c, int m, int k, int n) {
  run_timed(t_gemm_hist, [&] {
    switch (active_backend()) {
      case Backend::kNaive:
        ref::gemm_tn(a, b, c, m, k, n);
        break;
      case Backend::kPortable:
        detail::portable_gemm_tn(a, b, c, m, k, n);
        break;
      case Backend::kAvx2:
      case Backend::kVnni:
        detail::avx2_gemm_tn(a, b, c, m, k, n);
        break;
    }
  });
}

void conv_fwd(const float* x, const float* weight, const float* bias,
              float* y, const ConvShape& s) {
  run_timed(t_conv_hist, [&] {
    switch (active_backend()) {
      case Backend::kNaive:
        ref::conv_fwd(x, weight, bias, y, s);
        break;
      case Backend::kPortable:
        detail::lane_conv_fwd(x, weight, bias, y, s, detail::portable_gemm_nn);
        break;
      case Backend::kAvx2:
      case Backend::kVnni:
        detail::lane_conv_fwd(x, weight, bias, y, s, detail::avx2_gemm_nn);
        break;
    }
  });
}

void conv_bwd(const float* x, const float* grad_out, const float* weight,
              float* grad_in, float* grad_weight, float* grad_bias,
              const ConvShape& s) {
  run_timed(t_conv_bwd_hist, [&] {
    switch (active_backend()) {
      case Backend::kNaive:
        ref::conv_bwd(x, grad_out, weight, grad_in, grad_weight, grad_bias, s);
        break;
      case Backend::kPortable:
      case Backend::kAvx2:
      case Backend::kVnni:
        detail::lane_conv_bwd(x, grad_out, weight, grad_in, grad_weight,
                              grad_bias, s);
        break;
    }
  });
}

}  // namespace rowpress::nn::kernels
