// Convolution forward and backward backends and the im2col/col2im lowering.
//
// Compiled with -ffp-contract=off like gemm.cpp: the only arithmetic here
// is the explicitly spelled sequences of the kernels.h conv_fwd / conv_bwd
// contracts.
//
// Batch-lane convolution (every backend but naive).  The batch is cut into
// chunks of kLanes samples; each chunk is transposed into a zero-padded
// [cin][h + 2*pad_h][w + 2*pad_w][lane] buffer, so one 8-float load fetches
// the same input element of every sample in the chunk, and every lane runs
// the per-element sequence of its own sample.
//
//   Forward.  An output vector (one output channel, one position, all
//   lanes) is the FMA chain over that channel's non-zero weights in
//   ascending patch order — the zero-skip is done once, up front, by
//   compressing each channel's weights into a tap list — started from the
//   bias or +0.0f.  Padded taps read the buffer's +0.0f border, exactly the
//   zeros im2col writes.
//
//   dX.  grad_out is packed [cout][position][lane].  The dcol vector of one
//   (patch entry, position) is the same tap-list chain, over the patch
//   entry's non-zero weights in ascending cout order from +0.0f (gemm_tn's
//   sequence), and is added into a zeroed padded buffer.  col2im adds into
//   each input element in ascending (ki, kj) order, and for one element a
//   larger (ki, kj) always comes from a smaller position index; so position
//   blocks run from the last to the first, and within a block patch
//   entries run in ascending order — every element sees col2im's adds in
//   col2im's order.  Pad cells of the buffer take the taps col2im drops.
//
//   dW.  Each (co, patch entry) lane vector is the dot product over
//   positions of grad_out and the packed input from zero — mul-then-add
//   for the first (spatial & ~7) terms, FMA for the tail, gemm_nt's
//   sequence — and its lanes are added into dW one sample at a time, in
//   batch order.
//
// Every micro-kernel keeps a block of up to 8 independent chains in
// registers (output positions for the forward and dX, patch entries for
// dW); one chain at a time is latency-bound.  Data enters and leaves the
// lanes as 8 x 8 tiles through register transposes: packing a chunk, the
// forward's output block, the dW fold and the dX unpack.  Moves only, so
// no element's sequence changes.
//
// A chunk costs the same whether it holds one sample or kLanes, so in the
// forward a final chunk of at most kLanes / 2 samples (and so a whole batch
// that small) runs the per-sample im2col lowering instead, on the backend's
// own gemm_nn: on ResNet-20's and M11's conv layers the lanes lose to it at
// batch 1 and win from batch 5 (README "Performance").  Both lowerings
// produce the same bits, so the cutoff changes speed only.  The backward
// runs every batch in lanes: its only callers are the attack's gradient
// passes and training, both at batch 32.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
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

/// Inverse scatter of im2col for ONE sample: x [cin, h, w] += col; taps in
/// the padding are dropped.  Adds land in (ci, ki, kj, position) order.
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

/// grad_bias[co] += the sum over positions of grad_out, one sample at a
/// time in batch order.
void bias_grad(const float* grad_out, const ConvShape& s, float* grad_bias) {
  const int spatial = s.out_h() * s.out_w();
  const float* g = grad_out;
  for (int b = 0; b < s.batch; ++b)
    for (int co = 0; co < s.cout; ++co) {
      float acc = 0.0f;
      for (int i = 0; i < spatial; ++i) acc += *g++;
      grad_bias[co] += acc;
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

namespace ref {

void conv_fwd(const float* x, const float* weight, const float* bias,
              float* y, const ConvShape& s) {
  std::vector<float> col(static_cast<std::size_t>(s.patch()) * s.out_h() *
                         s.out_w());
  lowered_conv(x, weight, bias, y, s, 0, s.batch, ref::gemm_nn, col.data());
}

void conv_bwd(const float* x, const float* grad_out, const float* weight,
              float* grad_in, float* grad_weight, float* grad_bias,
              const ConvShape& s) {
  // Per sample: im2col + gemm_nt into dW, gemm_tn into a zeroed dcol,
  // col2im into a zeroed dX.
  const int patch = s.patch();
  const int spatial = s.out_h() * s.out_w();
  const std::size_t in_sample = static_cast<std::size_t>(s.cin) * s.h * s.w;
  std::vector<float> col(static_cast<std::size_t>(patch) * spatial);
  std::vector<float> dcol(col.size());
  for (int b = 0; b < s.batch; ++b) {
    const float* g = grad_out + static_cast<std::size_t>(b) * s.cout * spatial;
    im2col(x + b * in_sample, s, col.data());
    ref::gemm_nt(g, col.data(), grad_weight, s.cout, spatial, patch);
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    ref::gemm_tn(weight, g, dcol.data(), s.cout, patch, spatial);
    std::fill_n(grad_in + b * in_sample, in_sample, 0.0f);
    col2im(dcol.data(), s, grad_in + b * in_sample);
  }
  if (grad_bias) bias_grad(grad_out, s, grad_bias);
}

}  // namespace ref

namespace detail {
namespace {

constexpr int kLanes = 8;     ///< samples per SIMD vector
constexpr int kMaxBlock = 8;  ///< independent chains per micro-kernel call
/// Origins of kMaxBlock consecutive lane vectors.
constexpr std::int32_t kConsecutive[kMaxBlock] = {
    0, kLanes, 2 * kLanes, 3 * kLanes, 4 * kLanes, 5 * kLanes, 6 * kLanes,
    7 * kLanes};

/// kLanes floats as one GNU vector: a per-lane fmaf over it compiles to a
/// single vector FMA wherever the target has one.
typedef float LaneVec __attribute__((vector_size(kLanes * sizeof(float))));
/// A __builtin_shuffle mask over two LaneVecs.
typedef std::int32_t LaneIdx
    __attribute__((vector_size(kLanes * sizeof(std::int32_t))));

/// out[j][i] = in[i][j] for a kLanes x kLanes tile, in three rounds of
/// two-vector shuffles.  Lane data enters and leaves the kernels through
/// it: a just-stored tile read back one float at a time stalls on store
/// forwarding.
inline void transpose(const LaneVec (&in)[kLanes], LaneVec (&out)[kLanes]) {
  static_assert(kLanes == 8, "the shuffle masks are for 8 lanes");
  const LaneIdx lo1 = {0, 8, 1, 9, 4, 12, 5, 13};
  const LaneIdx hi1 = {2, 10, 3, 11, 6, 14, 7, 15};
  const LaneIdx lo2 = {0, 1, 8, 9, 4, 5, 12, 13};
  const LaneIdx hi2 = {2, 3, 10, 11, 6, 7, 14, 15};
  const LaneIdx lo4 = {0, 1, 2, 3, 8, 9, 10, 11};
  const LaneIdx hi4 = {4, 5, 6, 7, 12, 13, 14, 15};
  LaneVec t[kLanes], u[kLanes];
  for (int i = 0; i < kLanes; i += 2) {
    t[i] = __builtin_shuffle(in[i], in[i + 1], lo1);
    t[i + 1] = __builtin_shuffle(in[i], in[i + 1], hi1);
  }
  for (int i = 0; i < kLanes; i += 4) {
    u[i] = __builtin_shuffle(t[i], t[i + 2], lo2);
    u[i + 1] = __builtin_shuffle(t[i], t[i + 2], hi2);
    u[i + 2] = __builtin_shuffle(t[i + 1], t[i + 3], lo2);
    u[i + 3] = __builtin_shuffle(t[i + 1], t[i + 3], hi2);
  }
  for (int j = 0; j < kLanes / 2; ++j) {
    out[j] = __builtin_shuffle(u[j], u[j + 4], lo4);
    out[j + 4] = __builtin_shuffle(u[j], u[j + 4], hi4);
  }
}

/// The first P of acc as a zero-padded tile, transposed: out[l][q] =
/// acc[q][l], so out[l] holds lane l's P results contiguously.
template <int P>
inline void transpose_block(const LaneVec (&acc)[P], LaneVec (&out)[kLanes]) {
  static_assert(P <= kLanes, "a block is at most one tile");
  LaneVec tile[kLanes] = {};
  for (int q = 0; q < P; ++q) tile[q] = acc[q];
  transpose(tile, out);
}

/// Forward samples [0, lane_batch) run in lanes; a last chunk of at most
/// kLanes / 2 samples runs the per-sample lowering.
int lane_batch(int batch) {
  const int tail = batch % kLanes;
  return tail > kLanes / 2 ? batch : batch - tail;
}

/// One non-zero weight of a chain and the offset (in floats) of the lane
/// vector it multiplies from the chain's origin in a packed buffer.
struct Tap {
  float w;
  std::int32_t off;
};

/// Per-thread scratch, reused across calls (concurrent attack trials never
/// share it).
struct LaneScratch {
  std::vector<float> packed;  ///< input chunk, over-allocated for alignment
  std::vector<float> gpacked;  ///< grad_out chunk [cout][position][lane]
  std::vector<float> dpacked;  ///< dX chunk, laid out like `packed`
  std::vector<Tap> taps;       ///< every chain's taps, chain-major
  std::vector<std::int32_t> tap_begin;  ///< [chains + 1] starts into taps
  std::vector<std::int32_t> pos_off;    ///< [oh*ow] position origins
  std::vector<std::int32_t> patch_off;  ///< [patch] tap offsets in packed
  std::vector<float> col;      ///< one sample's im2col matrix
};

LaneScratch& lane_scratch() {
  thread_local LaneScratch scratch;
  return scratch;
}

/// `buf` resized to hold n floats from a 32-byte aligned start.
float* aligned_lanes(std::vector<float>& buf, std::size_t n) {
  buf.resize(n + kLanes);
  float* p = buf.data();
  return p + (kLanes - reinterpret_cast<std::uintptr_t>(p) / sizeof(float) %
                           kLanes) % kLanes;
}

/// Geometry of the zero-padded [cin][hp][wp][lane] chunk buffer.
struct LaneGeom {
  int oh, ow, spatial, patch, hp, wp;
  std::size_t chunk;  ///< floats in one chunk buffer
};

/// The chunk geometry of `s`, and the two offset tables every lane kernel
/// reads: each output position's origin and each patch entry's tap offset.
LaneGeom lane_geometry(const ConvShape& s, LaneScratch& sc) {
  LaneGeom g;
  g.oh = s.out_h();
  g.ow = s.out_w();
  g.spatial = g.oh * g.ow;
  g.patch = s.patch();
  g.hp = s.h + 2 * s.pad_h;
  g.wp = s.w + 2 * s.pad_w;
  g.chunk = static_cast<std::size_t>(s.cin) * g.hp * g.wp * kLanes;
  RP_REQUIRE(g.chunk < static_cast<std::size_t>(
                           std::numeric_limits<std::int32_t>::max()),
             "conv: planes too large for the batch-lane kernel");
  sc.pos_off.resize(static_cast<std::size_t>(g.spatial));
  for (int i = 0; i < g.oh; ++i)
    for (int j = 0; j < g.ow; ++j)
      sc.pos_off[static_cast<std::size_t>(i) * g.ow + j] =
          ((i * s.stride) * g.wp + j * s.stride) * kLanes;
  sc.patch_off.resize(static_cast<std::size_t>(g.patch));
  int p = 0;
  for (int ci = 0; ci < s.cin; ++ci)
    for (int ki = 0; ki < s.kh; ++ki)
      for (int kj = 0; kj < s.kw; ++kj, ++p)
        sc.patch_off[static_cast<std::size_t>(p)] =
            ((ci * g.hp + ki) * g.wp + kj) * kLanes;
  return g;
}

/// dst[c * kLanes + l] = rows[l][c] for c < n and l < nb; lanes from nb
/// on are left as they are.  Full chunks move whole tiles.
void interleave(const float* const* rows, int nb, int n, float* dst) {
  int c = 0;
  if (nb == kLanes)
    for (; c + kLanes <= n; c += kLanes) {
      LaneVec in[kLanes], out[kLanes];
      for (int l = 0; l < kLanes; ++l)
        std::memcpy(&in[l], rows[l] + c, sizeof in[l]);
      transpose(in, out);
      std::memcpy(dst + static_cast<std::size_t>(c) * kLanes, out, sizeof out);
    }
  for (; c < n; ++c)
    for (int l = 0; l < nb; ++l)
      dst[static_cast<std::size_t>(c) * kLanes + l] = rows[l][c];
}

/// The inverse of interleave: rows[l][c] = src[c * kLanes + l].
void deinterleave(const float* src, int nb, int n, float* const* rows) {
  int c = 0;
  if (nb == kLanes)
    for (; c + kLanes <= n; c += kLanes) {
      LaneVec in[kLanes], out[kLanes];
      std::memcpy(in, src + static_cast<std::size_t>(c) * kLanes, sizeof in);
      transpose(in, out);
      for (int l = 0; l < kLanes; ++l)
        std::memcpy(rows[l] + c, &out[l], sizeof out[l]);
    }
  for (; c < n; ++c)
    for (int l = 0; l < nb; ++l)
      rows[l][c] = src[static_cast<std::size_t>(c) * kLanes + l];
}

/// Offset (in floats) of row r of input channel ci's interior in a chunk
/// buffer.
std::size_t interior_row(const ConvShape& s, const LaneGeom& g, int ci,
                         int r) {
  return ((static_cast<std::size_t>(ci) * g.hp + r + s.pad_h) * g.wp +
          s.pad_w) * kLanes;
}

/// Transposes samples [b0, b0 + nb) of x into the interior of the chunk
/// buffer xt, lane l = sample b0 + l.  The padding border is not touched.
void pack_chunk(const float* x, const ConvShape& s, const LaneGeom& g, int b0,
                int nb, float* xt) {
  const std::size_t in_sample = static_cast<std::size_t>(s.cin) * s.h * s.w;
  const float* rows[kLanes];
  for (int ci = 0; ci < s.cin; ++ci)
    for (int r = 0; r < s.h; ++r) {
      for (int l = 0; l < nb; ++l)
        rows[l] = x + static_cast<std::size_t>(b0 + l) * in_sample +
                  (static_cast<std::size_t>(ci) * s.h + r) * s.w;
      interleave(rows, nb, s.w, xt + interior_row(s, g, ci, r));
    }
}

/// Calls f(std::integral_constant<int, p>{}) for a runtime block size
/// 1..kMaxBlock, so the micro-kernels see their block size at compile time.
template <typename F>
void with_block_size(int p, F&& f) {
  switch (p) {
    case 1: return f(std::integral_constant<int, 1>{});
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

/// P chains x kLanes samples into acc: chain q is the FMA chain over
/// `taps` of w * (lane vector at base + pos[q] + off), from `init`.  One
/// broadcast weight and P vector loads per tap.
template <int P>
inline void lane_chains(const float* base, const std::int32_t* pos,
                        const Tap* taps, int ntaps, float init,
                        LaneVec (&acc)[P]) {
  LaneVec init_v = {};
  for (int l = 0; l < kLanes; ++l) init_v[l] = init;
  const float* src_q[P];
  for (int q = 0; q < P; ++q) {
    acc[q] = init_v;
    src_q[q] = base + pos[q];
  }
  for (const Tap* t = taps; t != taps + ntaps; ++t) {
    const float wv = t->w;
#pragma GCC unroll 8
    for (int q = 0; q < P; ++q) {
      LaneVec src;
      std::memcpy(&src, src_q[q] + t->off, sizeof src);
      LaneVec r;
      for (int l = 0; l < kLanes; ++l)
        r[l] = __builtin_fmaf(wv, src[l], acc[q][l]);
      acc[q] = r;
    }
  }
}

/// dW lane vectors of P patch entries (tap offsets toff[q]) against one
/// output channel's packed gradient g [position][lane], into acc:
/// gemm_nt's dot product from zero, mul-then-add on the first
/// (spatial & ~7) positions and FMA on the rest.
template <int P>
inline void dw_chains(const float* xt, const std::int32_t* pos, const float* g,
                      const std::int32_t* toff, int spatial,
                      LaneVec (&acc)[P]) {
  for (int q = 0; q < P; ++q) acc[q] = LaneVec{};
  const int sv = spatial & ~7;
  int sp = 0;
  for (; sp < sv; ++sp) {
    LaneVec gv;
    std::memcpy(&gv, g + static_cast<std::size_t>(sp) * kLanes, sizeof gv);
    const float* xs = xt + pos[sp];
#pragma GCC unroll 8
    for (int q = 0; q < P; ++q) {
      LaneVec xv;
      std::memcpy(&xv, xs + toff[q], sizeof xv);
      const LaneVec prod = gv * xv;
      acc[q] = acc[q] + prod;
    }
  }
  for (; sp < spatial; ++sp) {
    LaneVec gv;
    std::memcpy(&gv, g + static_cast<std::size_t>(sp) * kLanes, sizeof gv);
    const float* xs = xt + pos[sp];
    for (int q = 0; q < P; ++q) {
      LaneVec xv;
      std::memcpy(&xv, xs + toff[q], sizeof xv);
      LaneVec r;
      for (int l = 0; l < kLanes; ++l)
        r[l] = __builtin_fmaf(gv[l], xv[l], acc[q][l]);
      acc[q] = r;
    }
  }
}

/// Start of block `blk` when n items are cut into nblk balanced blocks of
/// at most kMaxBlock.
int block_start(int blk, int n, int nblk) {
  return static_cast<int>(static_cast<std::int64_t>(blk) * n / nblk);
}

/// Samples [0, nbatch) through the batch-lane forward: packing, tap lists,
/// position blocking and the scatter back to [N, cout, oh, ow].
void batch_lane_conv(const float* x, const float* weight, const float* bias,
                     float* y, const ConvShape& s, int nbatch,
                     LaneScratch& sc) {
  const LaneGeom g = lane_geometry(s, sc);
  sc.taps.clear();
  sc.tap_begin.assign(1, 0);
  for (int co = 0; co < s.cout; ++co) {
    const float* wrow = weight + static_cast<std::size_t>(co) * g.patch;
    for (int p = 0; p < g.patch; ++p)
      if (wrow[p] != 0.0f)
        sc.taps.push_back({wrow[p], sc.patch_off[static_cast<std::size_t>(p)]});
    sc.tap_begin.push_back(static_cast<std::int32_t>(sc.taps.size()));
  }
  float* xt = aligned_lanes(sc.packed, g.chunk);
  // Zeroed once per call: every chunk's copy rewrites the interior of its
  // lanes and never touches the padding border, so the border stays
  // +0.0f.  Lanes past the batch end in the last chunk keep zeros or the
  // previous chunk's samples; they are computed on and never stored.
  std::fill_n(xt, g.chunk, 0.0f);

  const std::size_t out_sample = static_cast<std::size_t>(s.cout) * g.spatial;
  const int nblk = (g.spatial + kMaxBlock - 1) / kMaxBlock;
  for (int b0 = 0; b0 < nbatch; b0 += kLanes) {
    const int nb = std::min(kLanes, nbatch - b0);
    pack_chunk(x, s, g, b0, nb, xt);
    for (int blk = 0; blk < nblk; ++blk) {
      const int q0 = block_start(blk, g.spatial, nblk);
      const int p = block_start(blk + 1, g.spatial, nblk) - q0;
      for (int co = 0; co < s.cout; ++co) {
        const std::int32_t t0 = sc.tap_begin[static_cast<std::size_t>(co)];
        with_block_size(p, [&](auto P) {
          LaneVec acc[P];
          lane_chains(xt, sc.pos_off.data() + q0, sc.taps.data() + t0,
                      sc.tap_begin[static_cast<std::size_t>(co) + 1] - t0,
                      bias ? bias[co] : 0.0f, acc);
          LaneVec rows[kLanes];
          transpose_block(acc, rows);
          float* yb = y + static_cast<std::size_t>(b0) * out_sample +
                      static_cast<std::size_t>(co) * g.spatial + q0;
          for (int l = 0; l < nb; ++l, yb += out_sample)
            std::memcpy(yb, &rows[l], P * sizeof(float));
        });
      }
    }
  }
}

}  // namespace

void lane_conv_fwd(const float* x, const float* weight, const float* bias,
                   float* y, const ConvShape& s, GemmNnFn gemm_nn) {
  const int lanes = lane_batch(s.batch);
  LaneScratch& sc = lane_scratch();
  if (lanes > 0) batch_lane_conv(x, weight, bias, y, s, lanes, sc);
  if (lanes < s.batch) {
    sc.col.resize(static_cast<std::size_t>(s.patch()) * s.out_h() * s.out_w());
    lowered_conv(x, weight, bias, y, s, lanes, s.batch, gemm_nn,
                 sc.col.data());
  }
}

void lane_conv_bwd(const float* x, const float* grad_out, const float* weight,
                   float* grad_in, float* grad_weight, float* grad_bias,
                   const ConvShape& s) {
  LaneScratch& sc = lane_scratch();
  const LaneGeom g = lane_geometry(s, sc);
  // dX taps address the packed grad_out chunk with int32 offsets.
  const std::size_t gchunk =
      static_cast<std::size_t>(s.cout) * g.spatial * kLanes;
  RP_REQUIRE(gchunk < static_cast<std::size_t>(
                          std::numeric_limits<std::int32_t>::max()),
             "conv: planes too large for the batch-lane backward");
  // dX tap lists: one chain per patch entry over its non-zero weights in
  // ascending cout; a tap's offset is its channel's plane in gpacked.
  sc.taps.clear();
  sc.tap_begin.assign(1, 0);
  for (int p = 0; p < g.patch; ++p) {
    for (int co = 0; co < s.cout; ++co) {
      const float wv = weight[static_cast<std::size_t>(co) * g.patch + p];
      if (wv != 0.0f) sc.taps.push_back({wv, co * g.spatial * kLanes});
    }
    sc.tap_begin.push_back(static_cast<std::int32_t>(sc.taps.size()));
  }

  float* xt = aligned_lanes(sc.packed, g.chunk);
  std::fill_n(xt, g.chunk, 0.0f);  // border stays +0.0f, see batch_lane_conv
  float* dxt = aligned_lanes(sc.dpacked, g.chunk);
  float* gt = aligned_lanes(sc.gpacked, gchunk);

  const std::size_t in_sample = static_cast<std::size_t>(s.cin) * s.h * s.w;
  const std::size_t out_sample = static_cast<std::size_t>(s.cout) * g.spatial;
  const int npos_blk = (g.spatial + kMaxBlock - 1) / kMaxBlock;
  const int npatch_blk = (g.patch + kMaxBlock - 1) / kMaxBlock;
  for (int b0 = 0; b0 < s.batch; b0 += kLanes) {
    const int nb = std::min(kLanes, s.batch - b0);
    pack_chunk(x, s, g, b0, nb, xt);
    const float* grows[kLanes];
    for (int l = 0; l < nb; ++l)
      grows[l] = grad_out + static_cast<std::size_t>(b0 + l) * out_sample;
    interleave(grows, nb, static_cast<int>(out_sample), gt);

    // dW: every (co, patch entry) lane vector, folded in sample order.
    for (int co = 0; co < s.cout; ++co) {
      const float* gco = gt + static_cast<std::size_t>(co) * g.spatial * kLanes;
      float* dw = grad_weight + static_cast<std::size_t>(co) * g.patch;
      for (int blk = 0; blk < npatch_blk; ++blk) {
        const int p0 = block_start(blk, g.patch, npatch_blk);
        const int p = block_start(blk + 1, g.patch, npatch_blk) - p0;
        with_block_size(p, [&](auto P) {
          LaneVec acc[P];
          dw_chains(xt, sc.pos_off.data(), gco, sc.patch_off.data() + p0,
                    g.spatial, acc);
          // Lane l of sum is dW entry p0 + l; sample rows add in order.
          LaneVec rows[kLanes], sum = {};
          transpose_block(acc, rows);
          std::memcpy(&sum, dw + p0, P * sizeof(float));
          for (int l = 0; l < nb; ++l) sum = sum + rows[l];
          std::memcpy(dw + p0, &sum, P * sizeof(float));
        });
      }
    }

    // dX: position blocks last to first, patch entries ascending in each.
    std::fill_n(dxt, g.chunk, 0.0f);
    for (int blk = npos_blk - 1; blk >= 0; --blk) {
      const int q0 = block_start(blk, g.spatial, npos_blk);
      const int np = block_start(blk + 1, g.spatial, npos_blk) - q0;
      for (int p = 0; p < g.patch; ++p) {
        const std::int32_t t0 = sc.tap_begin[static_cast<std::size_t>(p)];
        float* dp = dxt + sc.patch_off[static_cast<std::size_t>(p)];
        with_block_size(np, [&](auto P) {
          LaneVec acc[P];
          lane_chains(gt + static_cast<std::size_t>(q0) * kLanes,
                      kConsecutive, sc.taps.data() + t0,
                      sc.tap_begin[static_cast<std::size_t>(p) + 1] - t0,
                      0.0f, acc);
          for (int q = 0; q < P; ++q) {
            float* d = dp + sc.pos_off[static_cast<std::size_t>(q0 + q)];
            LaneVec dv;
            std::memcpy(&dv, d, sizeof dv);
            dv = dv + acc[q];
            std::memcpy(d, &dv, sizeof dv);
          }
        });
      }
    }
    float* dxrows[kLanes];
    for (int ci = 0; ci < s.cin; ++ci)
      for (int r = 0; r < s.h; ++r) {
        for (int l = 0; l < nb; ++l)
          dxrows[l] = grad_in + static_cast<std::size_t>(b0 + l) * in_sample +
                      (static_cast<std::size_t>(ci) * s.h + r) * s.w;
        deinterleave(dxt + interior_row(s, g, ci, r), nb, s.w, dxrows);
      }
  }
  if (grad_bias) bias_grad(grad_out, s, grad_bias);
}

}  // namespace detail
}  // namespace rowpress::nn::kernels
