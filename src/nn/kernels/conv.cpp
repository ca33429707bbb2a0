// Convolution forward backends and the im2col/col2im lowering.
//
// Compiled with -ffp-contract=off like gemm.cpp: the only arithmetic here
// is the explicitly spelled FMA chain of the kernels.h conv_fwd contract.
//
// Batch-lane direct convolution (every backend but naive).  The batch is
// cut into chunks of kLanes samples; each chunk is transposed into a
// zero-padded [cin][h + 2*pad_h][w + 2*pad_w][lane] buffer, so one 8-float
// load fetches the same input element of every sample in the chunk.  An
// output vector (one output channel, one position, all lanes) is then the
// FMA chain over that channel's non-zero weights in ascending patch order
// — the zero-skip is done once, up front, by compressing each channel's
// weights into a tap list — started from the bias or +0.0f.  Padded taps
// read the buffer's +0.0f border, exactly the zeros im2col writes.  Each
// micro-kernel call keeps up to kMaxBlock output positions in registers so
// every broadcast weight feeds several FMAs.
//
// A chunk costs the same whether it holds one sample or kLanes, so a final
// chunk of at most kLanes / 2 samples (and so a whole batch that small)
// runs the per-sample im2col + gemm_nn lowering instead, on the backend's
// own GEMM: on ResNet-20's and M11's conv layers the lanes lose to it
// at batch 1 and win from batch 5 (README "Performance").  Both lowerings
// produce the same bits, so the cutoff changes speed only.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/check.h"
#include "nn/kernels/gemm.h"
#include "nn/kernels/kernels.h"

namespace rowpress::nn::kernels {
namespace {

/// Interior output columns [lo, hi) of kernel column kj: the ones whose tap
/// j*stride - pad_w + kj lands inside [0, w).  Outside them the tap is a
/// pad zero.
void interior_cols(const ConvShape& s, int ow, int kj, int& lo, int& hi) {
  lo = s.pad_w - kj > 0 ? (s.pad_w - kj + s.stride - 1) / s.stride : 0;
  if (lo > ow) lo = ow;
  hi = s.w - 1 - kj + s.pad_w < 0 ? 0 : (s.w - 1 - kj + s.pad_w) / s.stride + 1;
  if (hi > ow) hi = ow;
  if (hi < lo) hi = lo;
}

/// Samples [b0, b1) through im2col + gemm_nn into a bias-filled (or zeroed)
/// output; col holds one sample's [patch, oh*ow] matrix.
void lowered_conv(const float* x, const float* weight, const float* bias,
                  float* y, const ConvShape& s, int b0, int b1,
                  detail::GemmNnFn gemm_nn, float* col) {
  const int patch = s.patch();
  const int spatial = s.out_h() * s.out_w();
  for (int b = b0; b < b1; ++b) {
    im2col(x + static_cast<std::size_t>(b) * s.cin * s.h * s.w, s, col);
    float* out = y + static_cast<std::size_t>(b) * s.cout * spatial;
    for (int co = 0; co < s.cout; ++co)
      std::fill_n(out + static_cast<std::size_t>(co) * spatial, spatial,
                  bias ? bias[co] : 0.0f);
    gemm_nn(weight, col, out, s.cout, patch, spatial);
  }
}

}  // namespace

void im2col(const float* x, const ConvShape& s, float* col) {
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  for (int ci = 0; ci < s.cin; ++ci) {
    const float* plane = x + static_cast<std::size_t>(ci) * s.h * s.w;
    for (int ki = 0; ki < s.kh; ++ki) {
      for (int kj = 0; kj < s.kw; ++kj) {
        float* crow =
            col + ((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw + kj) *
                      spatial;
        // Each output row is a zero prefix, an unchecked contiguous or
        // strided copy, and a zero suffix — no per-element bounds tests.
        int j_lo, j_hi;
        interior_cols(s, ow, kj, j_lo, j_hi);
        for (int i = 0; i < oh; ++i) {
          const int hi = i * s.stride - s.pad_h + ki;
          float* dst = crow + static_cast<std::size_t>(i) * ow;
          if (hi < 0 || hi >= s.h) {
            std::fill_n(dst, ow, 0.0f);
            continue;
          }
          const float* src = plane + static_cast<std::size_t>(hi) * s.w;
          std::fill_n(dst, j_lo, 0.0f);
          if (s.stride == 1) {
            std::memcpy(dst + j_lo, src + (j_lo - s.pad_w + kj),
                        static_cast<std::size_t>(j_hi - j_lo) * sizeof(float));
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j] = src[j * s.stride - s.pad_w + kj];
          }
          std::fill_n(dst + j_hi, ow - j_hi, 0.0f);
        }
      }
    }
  }
}

void col2im(const float* col, const ConvShape& s, float* x) {
  const int oh = s.out_h(), ow = s.out_w();
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  for (int ci = 0; ci < s.cin; ++ci) {
    float* plane = x + static_cast<std::size_t>(ci) * s.h * s.w;
    for (int ki = 0; ki < s.kh; ++ki) {
      for (int kj = 0; kj < s.kw; ++kj) {
        const float* crow =
            col + ((static_cast<std::size_t>(ci) * s.kh + ki) * s.kw + kj) *
                      spatial;
        // Out-of-range taps have no image cell, so only the interior
        // scatters (each target gets exactly one add per tap).
        int j_lo, j_hi;
        interior_cols(s, ow, kj, j_lo, j_hi);
        for (int i = 0; i < oh; ++i) {
          const int hi = i * s.stride - s.pad_h + ki;
          if (hi < 0 || hi >= s.h) continue;
          float* dst = plane + static_cast<std::size_t>(hi) * s.w;
          const float* srow = crow + static_cast<std::size_t>(i) * ow;
          if (s.stride == 1) {
            float* d = dst + (j_lo - s.pad_w + kj);
            for (int j = j_lo; j < j_hi; ++j) d[j - j_lo] += srow[j];
          } else {
            for (int j = j_lo; j < j_hi; ++j)
              dst[j * s.stride - s.pad_w + kj] += srow[j];
          }
        }
      }
    }
  }
}

namespace ref {

void conv_fwd(const float* x, const float* weight, const float* bias,
              float* y, const ConvShape& s) {
  std::vector<float> col(static_cast<std::size_t>(s.patch()) * s.out_h() *
                         s.out_w());
  lowered_conv(x, weight, bias, y, s, 0, s.batch, ref::gemm_nn, col.data());
}

}  // namespace ref

namespace detail {
namespace {

constexpr int kLanes = 8;     ///< samples per SIMD vector
constexpr int kMaxBlock = 8;  ///< output positions per micro-kernel call

/// kLanes floats as one GNU vector: a per-lane fmaf over it compiles to a
/// single vector FMA wherever the target has one.
typedef float LaneVec __attribute__((vector_size(kLanes * sizeof(float))));

/// One non-zero weight of an output channel and the offset (in floats) of
/// its input element from the output position's origin in the packed chunk.
struct Tap {
  float w;
  std::int32_t off;
};

/// Per-thread scratch, reused across calls (concurrent attack trials never
/// share it).
struct LaneScratch {
  std::vector<float> packed;  ///< chunk buffer, over-allocated for alignment
  std::vector<Tap> taps;      ///< every channel's taps, channel-major
  std::vector<std::int32_t> tap_begin;  ///< [cout + 1] starts into taps
  std::vector<std::int32_t> pos_off;    ///< [oh*ow] position origins
  std::vector<float> col;               ///< im2col matrix of one sample
};

LaneScratch& lane_scratch() {
  thread_local LaneScratch scratch;
  return scratch;
}

/// P output positions x kLanes samples of one channel into out[P][kLanes]:
/// P accumulators held across the whole tap list, one broadcast weight and
/// P vector loads per tap.
template <int P>
void lane_block(const float* xt, const std::int32_t* pos, const Tap* taps,
                int ntaps, float init, float* out) {
  LaneVec acc[P];
  const float* base[P];
  for (int q = 0; q < P; ++q) {
    for (int l = 0; l < kLanes; ++l) acc[q][l] = init;
    base[q] = xt + pos[q];
  }
  for (const Tap* t = taps; t != taps + ntaps; ++t) {
    const float wv = t->w;
#pragma GCC unroll 8
    for (int q = 0; q < P; ++q) {
      LaneVec src;
      std::memcpy(&src, base[q] + t->off, sizeof src);
      LaneVec r;
      for (int l = 0; l < kLanes; ++l)
        r[l] = __builtin_fmaf(wv, src[l], acc[q][l]);
      acc[q] = r;
    }
  }
  std::memcpy(out, acc, sizeof acc);
}

/// lane_block<P> for a runtime block size 1..kMaxBlock.
void run_block(int p, const float* xt, const std::int32_t* pos,
               const Tap* taps, int ntaps, float init, float* out) {
  switch (p) {
    case 1: return lane_block<1>(xt, pos, taps, ntaps, init, out);
    case 2: return lane_block<2>(xt, pos, taps, ntaps, init, out);
    case 3: return lane_block<3>(xt, pos, taps, ntaps, init, out);
    case 4: return lane_block<4>(xt, pos, taps, ntaps, init, out);
    case 5: return lane_block<5>(xt, pos, taps, ntaps, init, out);
    case 6: return lane_block<6>(xt, pos, taps, ntaps, init, out);
    case 7: return lane_block<7>(xt, pos, taps, ntaps, init, out);
    default: return lane_block<8>(xt, pos, taps, ntaps, init, out);
  }
}

/// Samples [0, nbatch) through the batch-lane kernel: packing, tap lists,
/// position blocking and the scatter back to [N, cout, oh, ow].
void batch_lane_conv(const float* x, const float* weight, const float* bias,
                     float* y, const ConvShape& s, int nbatch,
                     LaneScratch& sc) {
  const int oh = s.out_h(), ow = s.out_w();
  const int spatial = oh * ow;
  const int patch = s.patch();
  const int hp = s.h + 2 * s.pad_h, wp = s.w + 2 * s.pad_w;
  const std::size_t chunk =
      static_cast<std::size_t>(s.cin) * hp * wp * kLanes;
  RP_REQUIRE(chunk < static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()),
             "conv_fwd: input plane too large for the batch-lane kernel");

  sc.pos_off.resize(static_cast<std::size_t>(spatial));
  for (int i = 0; i < oh; ++i)
    for (int j = 0; j < ow; ++j)
      sc.pos_off[static_cast<std::size_t>(i) * ow + j] =
          ((i * s.stride) * wp + j * s.stride) * kLanes;
  sc.taps.clear();
  sc.tap_begin.assign(1, 0);
  for (int co = 0; co < s.cout; ++co) {
    const float* wrow = weight + static_cast<std::size_t>(co) * patch;
    int p = 0;
    for (int ci = 0; ci < s.cin; ++ci)
      for (int ki = 0; ki < s.kh; ++ki)
        for (int kj = 0; kj < s.kw; ++kj, ++p)
          if (wrow[p] != 0.0f)
            sc.taps.push_back({wrow[p], ((ci * hp + ki) * wp + kj) * kLanes});
    sc.tap_begin.push_back(static_cast<std::int32_t>(sc.taps.size()));
  }
  sc.packed.resize(chunk + kLanes);
  float* xt = sc.packed.data();
  xt += (kLanes - reinterpret_cast<std::uintptr_t>(xt) / sizeof(float) %
                      kLanes) % kLanes;  // 32-byte aligned lane vectors
  // Zeroed once per call: every chunk's copy below rewrites the interior of
  // its lanes and never touches the padding border, so the border stays
  // +0.0f.  Lanes past the batch end in the last chunk keep zeros or the
  // previous chunk's samples; they are computed on and never stored.
  std::fill_n(xt, chunk, 0.0f);

  const std::size_t in_sample = static_cast<std::size_t>(s.cin) * s.h * s.w;
  const std::size_t out_sample = static_cast<std::size_t>(s.cout) * spatial;
  const int nblk = (spatial + kMaxBlock - 1) / kMaxBlock;
  alignas(32) float out[kMaxBlock * kLanes];
  for (int b0 = 0; b0 < nbatch; b0 += kLanes) {
    const int nb = std::min(kLanes, nbatch - b0);
    for (int l = 0; l < nb; ++l) {
      const float* xs = x + static_cast<std::size_t>(b0 + l) * in_sample;
      for (int ci = 0; ci < s.cin; ++ci)
        for (int r = 0; r < s.h; ++r) {
          const float* src = xs + (static_cast<std::size_t>(ci) * s.h + r) * s.w;
          float* dst = xt +
                       ((static_cast<std::size_t>(ci) * hp + r + s.pad_h) * wp +
                        s.pad_w) * kLanes + l;
          for (int c = 0; c < s.w; ++c) dst[c * kLanes] = src[c];
        }
    }
    // Balanced position blocks of at most kMaxBlock.
    const auto block_start = [&](int blk) {
      return static_cast<int>(static_cast<std::int64_t>(blk) * spatial / nblk);
    };
    for (int blk = 0; blk < nblk; ++blk) {
      const int q0 = block_start(blk);
      const int p = block_start(blk + 1) - q0;
      for (int co = 0; co < s.cout; ++co) {
        const std::int32_t t0 = sc.tap_begin[static_cast<std::size_t>(co)];
        run_block(p, xt, sc.pos_off.data() + q0, sc.taps.data() + t0,
                  sc.tap_begin[static_cast<std::size_t>(co) + 1] - t0,
                  bias ? bias[co] : 0.0f, out);
        float* yb = y + static_cast<std::size_t>(b0) * out_sample +
                    static_cast<std::size_t>(co) * spatial + q0;
        for (int l = 0; l < nb; ++l, yb += out_sample)
          for (int q = 0; q < p; ++q) yb[q] = out[q * kLanes + l];
      }
    }
  }
}

}  // namespace

void lane_conv_fwd(const float* x, const float* weight, const float* bias,
                   float* y, const ConvShape& s, GemmNnFn gemm_nn) {
  const int tail = s.batch % kLanes;
  const int lane_batch = tail > kLanes / 2 ? s.batch : s.batch - tail;
  LaneScratch& sc = lane_scratch();
  if (lane_batch > 0) batch_lane_conv(x, weight, bias, y, s, lane_batch, sc);
  if (lane_batch < s.batch) {
    sc.col.resize(static_cast<std::size_t>(s.patch()) * s.out_h() * s.out_w());
    lowered_conv(x, weight, bias, y, s, lane_batch, s.batch, gemm_nn,
                 sc.col.data());
  }
}

}  // namespace detail
}  // namespace rowpress::nn::kernels
