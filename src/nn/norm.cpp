#include "nn/norm.h"

#include <cmath>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

namespace rowpress::nn {
namespace {

// Folds [N,C,...] into (outer=N, C, inner=spatial) iteration bounds.
struct CFold {
  int n = 0, c = 0, inner = 0;
};

CFold fold_channels(const Tensor& x) {
  RP_REQUIRE(x.ndim() >= 2, "batchnorm input needs at least 2 dims");
  CFold f;
  f.n = x.dim(0);
  f.c = x.dim(1);
  f.inner = 1;
  for (int i = 2; i < x.ndim(); ++i) f.inner *= x.dim(i);
  return f;
}

inline std::size_t cidx(const CFold& f, int b, int c, int s) {
  return (static_cast<std::size_t>(b) * f.c + c) * f.inner + s;
}

}  // namespace

BatchNorm::BatchNorm(int channels, Rng& rng, double momentum, double eps,
                     std::string name_prefix, float gamma_init)
    : channels_(channels), momentum_(momentum), eps_(eps),
      gamma_(name_prefix + ".gamma", Tensor::full({channels}, gamma_init),
             /*attack=*/false),
      beta_(name_prefix + ".beta", Tensor::zeros({channels}),
            /*attack=*/false),
      running_mean_(Tensor::zeros({channels})),
      running_var_(Tensor::full({channels}, 1.0f)) {
  (void)rng;
  RP_REQUIRE(channels > 0, "batchnorm channels must be positive");
}

Tensor BatchNorm::forward(const Tensor& x) {
  const CFold f = fold_channels(x);
  RP_REQUIRE(f.c == channels_, "batchnorm channel mismatch");
  cached_input_ = x;
  cached_training_ = training_;
  cached_mean_.assign(static_cast<std::size_t>(channels_), 0.0);
  cached_istd_.assign(static_cast<std::size_t>(channels_), 0.0);

  Tensor y(x.shape());
  const double count = static_cast<double>(f.n) * f.inner;

  for (int c = 0; c < channels_; ++c) {
    double mean = 0.0, var = 0.0;
    if (training_) {
      for (int b = 0; b < f.n; ++b)
        for (int s = 0; s < f.inner; ++s) mean += x[cidx(f, b, c, s)];
      mean /= count;
      for (int b = 0; b < f.n; ++b)
        for (int s = 0; s < f.inner; ++s) {
          const double d = x[cidx(f, b, c, s)] - mean;
          var += d * d;
        }
      var /= count;
      running_mean_[c] = static_cast<float>(
          (1.0 - momentum_) * running_mean_[c] + momentum_ * mean);
      running_var_[c] = static_cast<float>(
          (1.0 - momentum_) * running_var_[c] + momentum_ * var);
    } else {
      mean = running_mean_.cdata()[c];
      var = running_var_.cdata()[c];
    }
    const double istd = 1.0 / std::sqrt(var + eps_);
    cached_mean_[static_cast<std::size_t>(c)] = mean;
    cached_istd_[static_cast<std::size_t>(c)] = istd;
    const float g = gamma_.value.cdata()[c], bta = beta_.value.cdata()[c];
#if defined(__AVX2__) && defined(__FMA__)
    // Lane-exact image of the scalar sequence below (which the reference
    // build compiles to cvtss2sd/vsubsd/vmulsd/vcvtsd2ss + vfmadd132ss):
    // the normalization runs in double lanes and rounds back to float
    // once, and g*norm+beta is a single-rounded fma — so the vector and
    // scalar paths produce bit-identical activations.  This loop is the
    // dominant non-GEMM cost of an inference forward, which is what earns
    // it intrinsics.
    const __m256d vmean = _mm256_set1_pd(mean);
    const __m256d vistd = _mm256_set1_pd(istd);
    const __m256 vg = _mm256_set1_ps(g);
    const __m256 vb = _mm256_set1_ps(bta);
#endif
    for (int b = 0; b < f.n; ++b) {
      const std::size_t base = cidx(f, b, c, 0);
      const float* xs = x.cdata() + base;
      float* ys = y.data() + base;
      int s = 0;
#if defined(__AVX2__) && defined(__FMA__)
      for (; s + 8 <= f.inner; s += 8) {
        const __m256d dlo = _mm256_cvtps_pd(_mm_loadu_ps(xs + s));
        const __m256d dhi = _mm256_cvtps_pd(_mm_loadu_ps(xs + s + 4));
        const __m128 nlo = _mm256_cvtpd_ps(
            _mm256_mul_pd(_mm256_sub_pd(dlo, vmean), vistd));
        const __m128 nhi = _mm256_cvtpd_ps(
            _mm256_mul_pd(_mm256_sub_pd(dhi, vmean), vistd));
        const __m256 norm = _mm256_set_m128(nhi, nlo);
        _mm256_storeu_ps(ys + s, _mm256_fmadd_ps(vg, norm, vb));
      }
#endif
      for (; s < f.inner; ++s) {
        const float norm = static_cast<float>((xs[s] - mean) * istd);
        ys[s] = __builtin_fmaf(g, norm, bta);
      }
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  const CFold f = fold_channels(cached_input_);
  Tensor grad_in(cached_input_.shape());
  const double count = static_cast<double>(f.n) * f.inner;

  for (int c = 0; c < channels_; ++c) {
    const double mean = cached_mean_[static_cast<std::size_t>(c)];
    const double istd = cached_istd_[static_cast<std::size_t>(c)];
    const float g = gamma_.value.cdata()[c];
    double sum_g = 0.0, sum_gn = 0.0;
    for (int b = 0; b < f.n; ++b) {
      const std::size_t base = cidx(f, b, c, 0);
      const float* gos = grad_out.cdata() + base;
      const float* xs = cached_input_.cdata() + base;
      for (int s = 0; s < f.inner; ++s) {
        const double go = gos[s];
        // The forward's normalized value, recomputed: the same bits.
        const float norm = static_cast<float>((xs[s] - mean) * istd);
        sum_g += go;
        sum_gn += go * norm;
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gn);
    beta_.grad[c] += static_cast<float>(sum_g);

    if (cached_training_) {
      // Full backprop through batch statistics.
      for (int b = 0; b < f.n; ++b) {
        for (int s = 0; s < f.inner; ++s) {
          const std::size_t i = cidx(f, b, c, s);
          const double go = grad_out[static_cast<std::int64_t>(i)];
          const double norm = static_cast<float>(
              (cached_input_[static_cast<std::int64_t>(i)] - mean) * istd);
          grad_in[static_cast<std::int64_t>(i)] = static_cast<float>(
              g * istd * (go - sum_g / count - norm * sum_gn / count));
        }
      }
    } else {
      // Running statistics are constants w.r.t. the input, so the
      // gradient is a per-channel scaling.  g*istd pre-multiplies in
      // double exactly as the scalar expression associates, and each
      // element is one double multiply rounded back to float — the
      // vector lanes reproduce that bit-for-bit.
      const double gs = g * istd;
#if defined(__AVX2__) && defined(__FMA__)
      const __m256d vgs = _mm256_set1_pd(gs);
#endif
      for (int b = 0; b < f.n; ++b) {
        const std::size_t base = cidx(f, b, c, 0);
        const float* gos = grad_out.cdata() + base;
        float* gis = grad_in.data() + base;
        int s = 0;
#if defined(__AVX2__) && defined(__FMA__)
        for (; s + 8 <= f.inner; s += 8) {
          const __m128 lo = _mm256_cvtpd_ps(_mm256_mul_pd(
              _mm256_cvtps_pd(_mm_loadu_ps(gos + s)), vgs));
          const __m128 hi = _mm256_cvtpd_ps(_mm256_mul_pd(
              _mm256_cvtps_pd(_mm_loadu_ps(gos + s + 4)), vgs));
          _mm256_storeu_ps(gis + s, _mm256_set_m128(hi, lo));
        }
#endif
        for (; s < f.inner; ++s)
          gis[s] = static_cast<float>(gs * gos[s]);
      }
    }
  }
  return grad_in;
}

std::vector<Param*> BatchNorm::parameters() { return {&gamma_, &beta_}; }

LayerNorm::LayerNorm(int dim, Rng& rng, double eps, std::string name_prefix)
    : dim_(dim), eps_(eps),
      gamma_(name_prefix + ".gamma", Tensor::full({dim}, 1.0f),
             /*attack=*/false),
      beta_(name_prefix + ".beta", Tensor::zeros({dim}), /*attack=*/false) {
  (void)rng;
  RP_REQUIRE(dim > 0, "layernorm dim must be positive");
}

Tensor LayerNorm::forward(const Tensor& x) {
  RP_REQUIRE(x.dim(x.ndim() - 1) == dim_, "layernorm dim mismatch");
  cached_shape_ = x.shape();
  const int rows = static_cast<int>(x.numel() / dim_);
  const Tensor xf = x.reshaped({rows, dim_});
  cached_norm_ = Tensor({rows, dim_});
  cached_istd_.assign(static_cast<std::size_t>(rows), 0.0);

  Tensor y({rows, dim_});
  const float* gp = gamma_.value.cdata();
  const float* bp = beta_.value.cdata();
  for (int r = 0; r < rows; ++r) {
    double mean = 0.0;
    for (int j = 0; j < dim_; ++j) mean += xf.at2(r, j);
    mean /= dim_;
    double var = 0.0;
    for (int j = 0; j < dim_; ++j) {
      const double d = xf.at2(r, j) - mean;
      var += d * d;
    }
    var /= dim_;
    const double istd = 1.0 / std::sqrt(var + eps_);
    cached_istd_[static_cast<std::size_t>(r)] = istd;
    for (int j = 0; j < dim_; ++j) {
      const float norm = static_cast<float>((xf.at2(r, j) - mean) * istd);
      cached_norm_.at2(r, j) = norm;
      y.at2(r, j) = gp[j] * norm + bp[j];
    }
  }
  return y.reshaped(cached_shape_);
}

Tensor LayerNorm::backward(const Tensor& grad_out) {
  const int rows = cached_norm_.dim(0);
  const Tensor g = grad_out.reshaped({rows, dim_});
  Tensor grad_in({rows, dim_});

  const float* gp = gamma_.value.cdata();
  for (int r = 0; r < rows; ++r) {
    const double istd = cached_istd_[static_cast<std::size_t>(r)];
    double sum_g = 0.0, sum_gn = 0.0;
    for (int j = 0; j < dim_; ++j) {
      const double gj = g.at2(r, j) * gp[j];
      sum_g += gj;
      sum_gn += gj * cached_norm_.at2(r, j);
    }
    for (int j = 0; j < dim_; ++j) {
      const double gj = g.at2(r, j) * gp[j];
      // Pinned FP sequence: the grad product fuses into the accumulate.
      gamma_.grad[j] =
          __builtin_fmaf(g.at2(r, j), cached_norm_.at2(r, j), gamma_.grad[j]);
      beta_.grad[j] += g.at2(r, j);
      grad_in.at2(r, j) = static_cast<float>(
          istd * (gj - sum_g / dim_ - cached_norm_.at2(r, j) * sum_gn / dim_));
    }
  }
  return grad_in.reshaped(cached_shape_);
}

std::vector<Param*> LayerNorm::parameters() { return {&gamma_, &beta_}; }

}  // namespace rowpress::nn
