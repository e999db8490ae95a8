// ISA variants of the NN hot loops. See kernels.h for the per-element
// contracts; this translation unit is compiled with -ffp-contract=off so a
// multiply-add fuses ONLY where an explicit fma/fmaf or _mm*_fmadd is
// written. Every variant is compiled into every binary via per-function
// target attributes and selected at runtime (common/cpu.h).
#include "nn/kernels.h"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace cati::nn::kern {

namespace {

static_assert(kQOutPad % 16 == 0);

// --- scalar ------------------------------------------------------------------
// "scalar" = no hand-written SIMD; the compiler may still vectorize these
// loops, which is safe because the per-element operations are explicit.

/// One body for the forward conv and its transpose (the input gradient).
/// Outputs o < nOut each reduce over nRed channels and k taps; the weight
/// of (o, r, kk) is w[o * outStride + r * redStride + kk]. Forward: tap kk
/// reads x[t + kk - pad] and y starts at bias. kBack: tap kk reads
/// x[t - (kk - pad)] and y starts at +0. A tap is issued only when its
/// input index lies in the output's own `seg`-long segment (kernels.h).
template <bool kBack>
void convLaneScalarT(const float* w, const float* bias, const float* x,
                     float* y, int nRed, int nOut, int k, int len, int seg,
                     size_t outStride, size_t redStride) {
  const int pad = k / 2;
  for (int o = 0; o < nOut; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * outStride;
    float* yRow = y + static_cast<size_t>(o) * len * kLane;
    const float b = kBack ? 0.0F : bias[o];
    for (int i = 0; i < len * kLane; ++i) yRow[i] = b;
    for (int c = 0; c < nRed; ++c) {
      const float* xRow = x + static_cast<size_t>(c) * len * kLane;
      const float* wk = wRow + static_cast<size_t>(c) * redStride;
      for (int kk = 0; kk < k; ++kk) {
        const float wv = wk[kk];
        const int shift = kBack ? pad - kk : kk - pad;
        for (int s0 = 0; s0 < len; s0 += seg) {
          // Outputs t and inputs t + shift both inside [s0, s1).
          const int s1 = std::min(len, s0 + seg);
          const int lo = shift < 0 ? s0 - shift : s0;
          const int hi = shift > 0 ? s1 - shift : s1;
          if (lo >= hi) continue;
          float* yp = yRow + static_cast<size_t>(lo) * kLane;
          const float* xp = xRow + static_cast<size_t>(lo + shift) * kLane;
          const int cnt = (hi - lo) * kLane;
          for (int i = 0; i < cnt; ++i) yp[i] = std::fmaf(wv, xp[i], yp[i]);
        }
      }
    }
  }
}

void convLaneScalar(const float* w, const float* bias, const float* x,
                    float* y, int inC, int outC, int k, int len, int seg) {
  convLaneScalarT<false>(w, bias, x, y, inC, outC, k, len, seg,
                         static_cast<size_t>(inC) * k, k);
}

void denseLaneScalar(const float* w, const float* bias, const float* x,
                     float* y, int inF, int outF) {
  const int head = inF - (inF % 4);
  for (int o = 0; o < outF; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inF;
    float acc[kLane];
    for (int l = 0; l < kLane; ++l) acc[l] = bias[o];
    int i = 0;
    for (; i < head; ++i) {
      const float wv = wRow[i];
      const float* xr = x + static_cast<size_t>(i) * kLane;
      // Two-rounded multiply-then-add (the TU is -ffp-contract=off).
      for (int l = 0; l < kLane; ++l) acc[l] = acc[l] + wv * xr[l];
    }
    for (; i < inF; ++i) {
      const float wv = wRow[i];
      const float* xr = x + static_cast<size_t>(i) * kLane;
      for (int l = 0; l < kLane; ++l) acc[l] = std::fmaf(wv, xr[l], acc[l]);
    }
    float* yRow = y + static_cast<size_t>(o) * kLane;
    for (int l = 0; l < kLane; ++l) yRow[l] = acc[l];
  }
}

void convDxScalar(const float* w, const float* dy, float* dx, int inC,
                  int outC, int k, int len) {
  convLaneScalarT<true>(w, nullptr, dy, dx, outC, inC, k, len, len, k,
                        static_cast<size_t>(inC) * k);
}

/// The valid time steps of tap kk, [lo, hi), and where the fused tail of
/// its dW chain starts (the first n - n%4 terms are multiply-then-add).
struct TapRange {
  int lo, head, hi;
};

TapRange tapRange(int kk, int k, int len) {
  const int shift = kk - k / 2;
  const int lo = shift < 0 ? -shift : 0;
  const int hi = std::max(lo, shift > 0 ? len - shift : len);
  const int n = hi - lo;
  return {lo, lo + n - n % 4, hi};
}

/// db of n samples: per sample an in-order sum over t, then gb += sum.
void convBiasGrad(const float* dy, float* gb, int outC, int len, int n) {
  for (int s = 0; s < n; ++s) {
    for (int o = 0; o < outC; ++o) {
      const float* dyRow = dy + (static_cast<size_t>(s) * outC + o) * len;
      float sum = 0.0F;
      for (int t = 0; t < len; ++t) sum = sum + dyRow[t];
      gb[o] = gb[o] + sum;
    }
  }
}

/// dW of input channels [cBegin, inC) through the scalar reference loop.
/// The chains of one (o, kk) run side by side along c, which the compiler
/// may vectorize: each is still its own in-order chain.
void convGradChannels(const float* xt, const float* dy, float* gw, int inC,
                      int outC, int k, int len, int n, int cBegin) {
  const int pad = k / 2;
  const int nc = inC - cBegin;
  if (nc <= 0) return;
  std::vector<float> chain(static_cast<size_t>(nc));
  for (int s = 0; s < n; ++s) {
    const float* xs = xt + static_cast<size_t>(s) * len * inC + cBegin;
    for (int o = 0; o < outC; ++o) {
      const float* dyRow = dy + (static_cast<size_t>(s) * outC + o) * len;
      for (int kk = 0; kk < k; ++kk) {
        const TapRange r = tapRange(kk, k, len);
        std::fill(chain.begin(), chain.end(), 0.0F);
        int t = r.lo;
        for (; t < r.head; ++t) {
          const float d = dyRow[t];
          const float* xr = xs + static_cast<size_t>(t + kk - pad) * inC;
          for (int c = 0; c < nc; ++c) chain[c] = chain[c] + d * xr[c];
        }
        for (; t < r.hi; ++t) {
          const float d = dyRow[t];
          const float* xr = xs + static_cast<size_t>(t + kk - pad) * inC;
          for (int c = 0; c < nc; ++c) chain[c] = std::fmaf(d, xr[c], chain[c]);
        }
        float* g = gw + (static_cast<size_t>(o) * inC + cBegin) * k + kk;
        for (int c = 0; c < nc; ++c) g[c * k] = g[c * k] + chain[c];
      }
    }
  }
}

void convGradScalar(const float* xt, const float* dy, float* gw, float* gb,
                    int inC, int outC, int k, int len, int n) {
  convBiasGrad(dy, gb, outC, len, n);
  convGradChannels(xt, dy, gw, inC, outC, k, len, n, 0);
}

/// Columns [i0, inF) of the dense dW through the scalar reference loop.
void denseGradColumns(const float* x, const float* dy, float* gw, int n,
                      int inF, int outF, int i0) {
  for (int s = 0; s < n; ++s) {
    for (int o = 0; o < outF; ++o) {
      const float g = dy[static_cast<size_t>(s) * outF + o];
      if (g == 0.0F) continue;
      for (int i = i0; i < inF; ++i) {
        float& a = gw[static_cast<size_t>(o) * inF + i];
        a = std::fmaf(g, x[static_cast<size_t>(s) * inF + i], a);
      }
    }
  }
}

void denseBiasGrad(const float* dy, float* gb, int n, int outF) {
  for (int s = 0; s < n; ++s) {
    for (int o = 0; o < outF; ++o) {
      const float g = dy[static_cast<size_t>(s) * outF + o];
      if (g != 0.0F) gb[o] = gb[o] + g;
    }
  }
}

void denseGradScalar(const float* x, const float* dy, float* gw, float* gb,
                     int n, int inF, int outF) {
  denseBiasGrad(dy, gb, n, outF);
  denseGradColumns(x, dy, gw, n, inF, outF, 0);
}

/// Columns [i0, inF) of the dense dX through the scalar reference loop.
void denseDxColumns(const float* w, const float* dy, float* dx, int n,
                    int inF, int outF, int i0) {
  for (int s = 0; s < n; ++s) {
    float* dxs = dx + static_cast<size_t>(s) * inF;
    std::fill(dxs + i0, dxs + inF, 0.0F);
    for (int o = 0; o < outF; ++o) {
      const float g = dy[static_cast<size_t>(s) * outF + o];
      if (g == 0.0F) continue;
      for (int i = i0; i < inF; ++i) {
        dxs[i] = std::fmaf(g, w[static_cast<size_t>(o) * inF + i], dxs[i]);
      }
    }
  }
}

void denseDxScalar(const float* w, const float* dy, float* dx, int n, int inF,
                   int outF) {
  denseDxColumns(w, dy, dx, n, inF, outF, 0);
}

void adamStepScalar(float* value, float* m, float* v, const float* grad,
                    size_t stride, int slabs, int n, const AdamCoef& c) {
  const float omb1 = 1.0F - c.beta1;
  const float omb2 = 1.0F - c.beta2;
  for (int i = 0; i < n; ++i) {
    float g = 0.0F;
    for (int k = 0; k < slabs; ++k) g = g + grad[k * stride + i];
    g = g * c.scale;
    m[i] = std::fma(m[i], c.beta1, omb1 * g);
    v[i] = std::fma(v[i], c.beta2, (omb2 * g) * g);
    value[i] = value[i] -
               (c.lr * (m[i] / c.bc1)) / (std::sqrt(v[i] / c.bc2) + c.eps);
  }
}

float absMaxScalar(const float* x, int n) {
  float m = 0.0F;
  for (int i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

int8_t quantizeOne(float v, float invScale) {
  long r = std::lrintf(v * invScale);
  if (r > 127) r = 127;
  if (r < -127) r = -127;
  return static_cast<int8_t>(r);
}

void quantizeScalar(const float* x, int8_t* q, int n, float invScale) {
  for (int i = 0; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

void qgemvScalar(const int8_t* w, const int32_t* /*rowSum*/, const int8_t* x,
                 int32_t* acc, int groups, int outPad) {
  for (int g = 0; g < groups; ++g) {
    const int8_t* xg = x + static_cast<size_t>(g) * kQGroup;
    const int8_t* wg = w + static_cast<size_t>(g) * outPad * kQGroup;
    for (int o = 0; o < outPad; ++o) {
      const int8_t* wo = wg + static_cast<size_t>(o) * kQGroup;
      acc[o] += static_cast<int32_t>(wo[0]) * xg[0] +
                static_cast<int32_t>(wo[1]) * xg[1] +
                static_cast<int32_t>(wo[2]) * xg[2] +
                static_cast<int32_t>(wo[3]) * xg[3];
    }
  }
}

// --- AVX2 + FMA --------------------------------------------------------------

// One ymm holds one time step of a lane group. A conv tile keeps
// kConvOutAvx2 output channels x kConvStepsAvx2 time steps of accumulators
// in registers (12 of the 16 ymm) and runs every (c, kk) tap over them, so
// each input vector is loaded once per tile instead of once per output.
constexpr int kConvOutAvx2 = 2;
constexpr int kConvStepsAvx2 = 6;

/// OB output channels from o0, time steps [t0, t0 + kConvStepsAvx2). An
/// edge tile (a tap falls outside its output's segment, or the tile runs
/// past len) does not issue the out-of-range taps at all and stores only
/// t < len; an interior tile needs no checks. Weights and tap direction
/// follow convLaneScalarT (kBack = the transposed conv of the input
/// gradient).
template <int OB, bool kEdge, bool kBack>
__attribute__((target("avx2,fma"))) void convTileAvx2(
    const float* w, const float* bias, const float* x, float* y, int nRed,
    int k, int len, int seg, int o0, int t0, size_t outStride,
    size_t redStride) {
  constexpr int TT = kConvStepsAvx2;
  const int pad = k / 2;
  const size_t plane = static_cast<size_t>(len) * kLane;
  // Per time step, the input indices its taps may read: its segment.
  int segLo[TT];
  int segHi[TT];
#pragma GCC unroll 8
  for (int j = 0; j < TT; ++j) {
    segLo[j] = (t0 + j) - (t0 + j) % seg;
    segHi[j] = std::min(len, segLo[j] + seg);
  }
  __m256 acc[OB][TT];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    const __m256 vb =
        kBack ? _mm256_setzero_ps() : _mm256_set1_ps(bias[o0 + o]);
#pragma GCC unroll 8
    for (int j = 0; j < TT; ++j) acc[o][j] = vb;
  }
  const float* wo = w + static_cast<size_t>(o0) * outStride;
  for (int c = 0; c < nRed; ++c) {
    const float* xc = x + static_cast<size_t>(c) * plane;
    const float* wc = wo + static_cast<size_t>(c) * redStride;
    for (int kk = 0; kk < k; ++kk) {
      const int shift = kBack ? pad - kk : kk - pad;
      __m256 wv[OB];
#pragma GCC unroll 8
      for (int o = 0; o < OB; ++o) {
        wv[o] =
            _mm256_broadcast_ss(wc + static_cast<size_t>(o) * outStride + kk);
      }
#pragma GCC unroll 8
      for (int j = 0; j < TT; ++j) {
        const int src = t0 + j + shift;
        if (kEdge && (t0 + j >= len || src < segLo[j] || src >= segHi[j])) {
          continue;
        }
        const __m256 xv =
            _mm256_loadu_ps(xc + static_cast<ptrdiff_t>(src) * kLane);
#pragma GCC unroll 8
        for (int o = 0; o < OB; ++o) {
          acc[o][j] = _mm256_fmadd_ps(wv[o], xv, acc[o][j]);
        }
      }
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    float* yo = y + static_cast<size_t>(o0 + o) * plane;
#pragma GCC unroll 8
    for (int j = 0; j < TT; ++j) {
      if (kEdge && t0 + j >= len) continue;
      _mm256_storeu_ps(yo + static_cast<size_t>(t0 + j) * kLane, acc[o][j]);
    }
  }
}

template <int OB, bool kBack>
__attribute__((target("avx2,fma"))) void convBlockAvx2(
    const float* w, const float* bias, const float* x, float* y, int nRed,
    int k, int len, int seg, int o0, size_t outStride, size_t redStride) {
  const int pad = k / 2;
  // Tap shifts span [-pad, k-1-pad] forward and the mirror image backward.
  const int before = kBack ? k - 1 - pad : pad;
  const int after = kBack ? pad : k - 1 - pad;
  for (int t0 = 0; t0 < len; t0 += kConvStepsAvx2) {
    // Interior: every tap of every step stays inside t0's segment.
    const int segLo = t0 - t0 % seg;
    const bool interior =
        t0 - before >= segLo &&
        t0 + kConvStepsAvx2 - 1 + after < std::min(len, segLo + seg);
    if (interior) {
      convTileAvx2<OB, false, kBack>(w, bias, x, y, nRed, k, len, seg, o0,
                                     t0, outStride, redStride);
    } else {
      convTileAvx2<OB, true, kBack>(w, bias, x, y, nRed, k, len, seg, o0, t0,
                                    outStride, redStride);
    }
  }
}

template <bool kBack>
__attribute__((target("avx2,fma"))) void convLaneAvx2T(
    const float* w, const float* bias, const float* x, float* y, int nRed,
    int nOut, int k, int len, int seg, size_t outStride, size_t redStride) {
  int o0 = 0;
  for (; o0 + kConvOutAvx2 <= nOut; o0 += kConvOutAvx2) {
    convBlockAvx2<kConvOutAvx2, kBack>(w, bias, x, y, nRed, k, len, seg, o0,
                                       outStride, redStride);
  }
  for (; o0 < nOut; ++o0) {
    convBlockAvx2<1, kBack>(w, bias, x, y, nRed, k, len, seg, o0, outStride,
                            redStride);
  }
}

__attribute__((target("avx2,fma"))) void convLaneAvx2(
    const float* w, const float* bias, const float* x, float* y, int inC,
    int outC, int k, int len, int seg) {
  convLaneAvx2T<false>(w, bias, x, y, inC, outC, k, len, seg,
                       static_cast<size_t>(inC) * k, k);
}

__attribute__((target("avx2,fma"))) void convDxAvx2(const float* w,
                                                    const float* dy, float* dx,
                                                    int inC, int outC, int k,
                                                    int len) {
  convLaneAvx2T<true>(w, nullptr, dy, dx, outC, inC, k, len, len, k,
                      static_cast<size_t>(inC) * k);
}

/// A SIMD dW pass accumulates into a copy of gw[o][c][kk] (c < nc) laid
/// out [o][kk][c], where a tile's block is a run of adjacent channels; the
/// copies are exact, so the chains see gw's values unchanged.
struct GradStage {
  std::vector<float>& g;
  float* gw;
  int inC, outC, k, nc;

  GradStage(float* gw_, int inC_, int outC_, int k_, int nc_)
      : g(buffer()), gw(gw_), inC(inC_), outC(outC_), k(k_), nc(nc_) {
    g.resize(static_cast<size_t>(outC) * k * nc);
    copy(true);
  }
  ~GradStage() { copy(false); }
  GradStage(const GradStage&) = delete;
  GradStage& operator=(const GradStage&) = delete;

  /// Row (o, kk) of the stage, from channel c.
  float* at(int o, int kk, int c) {
    return g.data() + (static_cast<size_t>(o) * k + kk) * nc + c;
  }

 private:
  /// Per-thread, reused across calls: steady-state training allocates
  /// nothing here.
  static std::vector<float>& buffer() {
    thread_local std::vector<float> b;
    return b;
  }

  void copy(bool in) {
    for (int o = 0; o < outC; ++o) {
      for (int c = 0; c < nc; ++c) {
        for (int kk = 0; kk < k; ++kk) {
          float& w = gw[(static_cast<size_t>(o) * inC + c) * k + kk];
          float& st = *at(o, kk, c);
          if (in) {
            st = w;
          } else {
            w = st;
          }
        }
      }
    }
  }
};

// A dW tile keeps kGradOutAvx2 output channels x kGradVecsAvx2 ymm of one
// tap's chains in registers, a ymm holding 8 adjacent input channels. Per
// sample the chains restart at +0, run t ascending, and are added to the
// tile's gradient block, so folding a sample in is one vector add.
constexpr int kGradOutAvx2 = 2;
constexpr int kGradVecsAvx2 = 2;

/// Time steps [t, tEnd) of one sample's OB x CV dW chains: `xs` is the
/// sample's time-major input from the tile's first channel, `dyo` its
/// output-gradient rows from the tile's first output. kFused selects the
/// chain's fused tail over its multiply-then-add head.
template <int OB, int CV, bool kFused>
__attribute__((target("avx2,fma"), always_inline)) inline void
convGradStepsAvx2(__m256 (&acc)[OB][CV], const float* xs, const float* dyo,
                  int inC, int len, int shift, int t, int tEnd) {
  for (; t < tEnd; ++t) {
    const float* xr = xs + static_cast<ptrdiff_t>(t + shift) * inC;
    __m256 xv[CV];
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) xv[v] = _mm256_loadu_ps(xr + v * 8);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      const __m256 d = _mm256_broadcast_ss(dyo + o * len + t);
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) {
        acc[o][v] = kFused ? _mm256_fmadd_ps(d, xv[v], acc[o][v])
                           : _mm256_add_ps(acc[o][v], _mm256_mul_ps(d, xv[v]));
      }
    }
  }
}

/// dW of OB output channels from o0 x 8*CV input channels from c0 at tap
/// kk over n samples, accumulated in the stage.
template <int OB, int CV>
__attribute__((target("avx2,fma"))) void convGradTileAvx2(
    const float* xt, const float* dy, GradStage& st, int len, int n, int o0,
    int c0, int kk) {
  const TapRange r = tapRange(kk, st.k, len);
  const int shift = kk - st.k / 2;
  __m256 g[OB][CV];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) {
      g[o][v] = _mm256_loadu_ps(st.at(o0 + o, kk, c0 + v * 8));
    }
  }
  for (int s = 0; s < n; ++s) {
    const float* xs = xt + static_cast<size_t>(s) * len * st.inC + c0;
    const float* dyo = dy + (static_cast<size_t>(s) * st.outC + o0) * len;
    __m256 acc[OB][CV];
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) acc[o][v] = _mm256_setzero_ps();
    }
    convGradStepsAvx2<OB, CV, false>(acc, xs, dyo, st.inC, len, shift, r.lo,
                                     r.head);
    convGradStepsAvx2<OB, CV, true>(acc, xs, dyo, st.inC, len, shift, r.head,
                                    r.hi);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) g[o][v] = _mm256_add_ps(g[o][v], acc[o][v]);
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) {
      _mm256_storeu_ps(st.at(o0 + o, kk, c0 + v * 8), g[o][v]);
    }
  }
}

/// dW of input channels [c0, c0 + 8*CV) for every output and tap.
template <int CV>
__attribute__((target("avx2,fma"))) void convGradBlockAvx2(
    const float* xt, const float* dy, GradStage& st, int len, int n, int c0) {
  for (int kk = 0; kk < st.k; ++kk) {
    int o0 = 0;
    for (; o0 + kGradOutAvx2 <= st.outC; o0 += kGradOutAvx2) {
      convGradTileAvx2<kGradOutAvx2, CV>(xt, dy, st, len, n, o0, c0, kk);
    }
    for (; o0 < st.outC; ++o0) {
      convGradTileAvx2<1, CV>(xt, dy, st, len, n, o0, c0, kk);
    }
  }
}

__attribute__((target("avx2,fma"))) void convGradAvx2(const float* xt,
                                                      const float* dy,
                                                      float* gw, float* gb,
                                                      int inC, int outC, int k,
                                                      int len, int n) {
  convBiasGrad(dy, gb, outC, len, n);
  const int nc = inC - inC % 8;
  {
    GradStage st(gw, inC, outC, k, nc);
    constexpr int kSpan = kGradVecsAvx2 * 8;
    int c0 = 0;
    for (; c0 + kSpan <= nc; c0 += kSpan) {
      convGradBlockAvx2<kGradVecsAvx2>(xt, dy, st, len, n, c0);
    }
    for (; c0 < nc; c0 += 8) convGradBlockAvx2<1>(xt, dy, st, len, n, c0);
  }
  convGradChannels(xt, dy, gw, inC, outC, k, len, n, nc);
}

/// OB outputs from o0 in one pass over x: OB independent accumulator
/// chains, each in the contract's order (mul-then-add head, fused tail).
template <int OB>
__attribute__((target("avx2,fma"))) void denseBlockAvx2(
    const float* w, const float* bias, const float* x, float* y, int inF,
    int o0) {
  const int head = inF - (inF % 4);
  const float* wo = w + static_cast<size_t>(o0) * inF;
  __m256 acc[OB];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) acc[o] = _mm256_set1_ps(bias[o0 + o]);
  int i = 0;
  for (; i < head; ++i) {
    const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      const __m256 wv =
          _mm256_broadcast_ss(wo + static_cast<size_t>(o) * inF + i);
      acc[o] = _mm256_add_ps(acc[o], _mm256_mul_ps(wv, xv));
    }
  }
  for (; i < inF; ++i) {
    const __m256 xv = _mm256_loadu_ps(x + static_cast<size_t>(i) * kLane);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      const __m256 wv =
          _mm256_broadcast_ss(wo + static_cast<size_t>(o) * inF + i);
      acc[o] = _mm256_fmadd_ps(wv, xv, acc[o]);
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    _mm256_storeu_ps(y + static_cast<size_t>(o0 + o) * kLane, acc[o]);
  }
}

__attribute__((target("avx2,fma"))) void denseLaneAvx2(
    const float* w, const float* bias, const float* x, float* y, int inF,
    int outF) {
  static_assert(kLane == 8, "denseLaneAvx2 assumes one __m256 per lane group");
  // Eight chains hide the add latency; the remainder runs as ONE pass of
  // outF % 8 chains, so a small head (fc2: 2-9 classes) is one or two passes.
  int o0 = 0;
  for (; o0 + 8 <= outF; o0 += 8) denseBlockAvx2<8>(w, bias, x, y, inF, o0);
  switch (outF - o0) {
    case 7: denseBlockAvx2<7>(w, bias, x, y, inF, o0); break;
    case 6: denseBlockAvx2<6>(w, bias, x, y, inF, o0); break;
    case 5: denseBlockAvx2<5>(w, bias, x, y, inF, o0); break;
    case 4: denseBlockAvx2<4>(w, bias, x, y, inF, o0); break;
    case 3: denseBlockAvx2<3>(w, bias, x, y, inF, o0); break;
    case 2: denseBlockAvx2<2>(w, bias, x, y, inF, o0); break;
    case 1: denseBlockAvx2<1>(w, bias, x, y, inF, o0); break;
    default: break;
  }
}

/// adamStep 8 elements at a time: the slab sum and the update stay in
/// registers, each lane running the scalar op sequence.
__attribute__((target("avx2,fma"))) void adamStepAvx2(
    float* value, float* m, float* v, const float* grad, size_t stride,
    int slabs, int n, const AdamCoef& c) {
  const __m256 lr = _mm256_set1_ps(c.lr);
  const __m256 b1 = _mm256_set1_ps(c.beta1);
  const __m256 b2 = _mm256_set1_ps(c.beta2);
  const __m256 omb1 = _mm256_set1_ps(1.0F - c.beta1);
  const __m256 omb2 = _mm256_set1_ps(1.0F - c.beta2);
  const __m256 eps = _mm256_set1_ps(c.eps);
  const __m256 bc1 = _mm256_set1_ps(c.bc1);
  const __m256 bc2 = _mm256_set1_ps(c.bc2);
  const __m256 scale = _mm256_set1_ps(c.scale);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 g = _mm256_setzero_ps();
    for (int k = 0; k < slabs; ++k) {
      g = _mm256_add_ps(g, _mm256_loadu_ps(grad + k * stride + i));
    }
    g = _mm256_mul_ps(g, scale);
    const __m256 mi =
        _mm256_fmadd_ps(_mm256_loadu_ps(m + i), b1, _mm256_mul_ps(omb1, g));
    const __m256 vi = _mm256_fmadd_ps(
        _mm256_loadu_ps(v + i), b2,
        _mm256_mul_ps(_mm256_mul_ps(omb2, g), g));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, _mm256_div_ps(mi, bc1)),
        _mm256_add_ps(_mm256_sqrt_ps(_mm256_div_ps(vi, bc2)), eps));
    _mm256_storeu_ps(value + i,
                     _mm256_sub_ps(_mm256_loadu_ps(value + i), step));
  }
  adamStepScalar(value + i, m + i, v + i, grad + i, stride, slabs, n - i, c);
}

__attribute__((target("avx2"))) float absMaxAvx2(const float* x, int n) {
  const __m256 signMask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 vm = _mm256_setzero_ps();
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vm = _mm256_max_ps(vm, _mm256_and_ps(_mm256_loadu_ps(x + i), signMask));
  }
  __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(vm),
                         _mm256_extractf128_ps(vm, 1));
  m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
  float m = _mm_cvtss_f32(m4);
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

__attribute__((target("avx2"))) void quantizeAvx2(const float* x, int8_t* q,
                                                  int n, float invScale) {
  const __m256 vs = _mm256_set1_ps(invScale);
  const __m256i vmin = _mm256_set1_epi32(-127);
  const __m256i vmax = _mm256_set1_epi32(127);
  // Byte 0 of each dword, per 128-bit lane.
  const __m256i pick = _mm256_setr_epi8(
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,  //
      0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1);
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i vi =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
    vi = _mm256_min_epi32(_mm256_max_epi32(vi, vmin), vmax);
    const __m256i b = _mm256_shuffle_epi8(vi, pick);
    const __m128i lo = _mm256_castsi256_si128(b);
    const __m128i hi = _mm256_extracti128_si256(b, 1);
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q + i),
                     _mm_unpacklo_epi32(lo, hi));
  }
  for (; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

__attribute__((target("avx2"))) void qgemvAvx2(const int8_t* w,
                                               const int32_t* /*rowSum*/,
                                               const int8_t* x, int32_t* acc,
                                               int groups, int outPad) {
  // hadd(a, b) leaves the 8 dots in order [0,1,4,5 | 2,3,6,7]; accumulate
  // in that shuffled order (exact integers, order-free) and unpermute once.
  const __m256i unshuf = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  for (int ob = 0; ob < outPad; ob += 8) {
    __m256i vdot = _mm256_setzero_si256();
    for (int g = 0; g < groups; ++g) {
      int32_t xw;
      std::memcpy(&xw, x + static_cast<size_t>(g) * kQGroup, 4);
      const __m256i xb = _mm256_broadcastq_epi64(
          _mm_cvtepi8_epi16(_mm_cvtsi32_si128(xw)));
      const __m256i wb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          w + (static_cast<size_t>(g) * outPad + ob) * kQGroup));
      const __m256i pa =
          _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(wb)),
                            xb);
      const __m256i pb = _mm256_madd_epi16(
          _mm256_cvtepi8_epi16(_mm256_extracti128_si256(wb, 1)), xb);
      vdot = _mm256_add_epi32(vdot, _mm256_hadd_epi32(pa, pb));
    }
    vdot = _mm256_permutevar8x32_epi32(vdot, unshuf);
    __m256i* ap = reinterpret_cast<__m256i*>(acc + ob);
    _mm256_storeu_si256(ap,
                        _mm256_add_epi32(_mm256_loadu_si256(ap), vdot));
  }
}

// --- AVX-512 (F+BW+DQ+VL+VNNI) ----------------------------------------------
// The target lists name every ISA extension the function body uses, so each
// variant compiles at any optimization level and -march (the baseline build
// flags add nothing these functions depend on).

#define CATI_TARGET_AVX512 \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#define CATI_TARGET_AVX512_VNNI \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl,avx512vnni")))

// One zmm holds two consecutive time steps of a lane group. A conv tile keeps
// kConvOutAvx512 output channels x kConvVecsAvx512 zmm (12 time steps) of
// accumulators in registers (24 of the 32 zmm).
constexpr int kConvOutAvx512 = 4;
constexpr int kConvVecsAvx512 = 6;
constexpr int kStepsPerZmm = 16 / kLane;

/// OB output channels from o0 over the time tile starting at t0. `mask` is
/// the tile's tap-mask table: row kk (< k) enables, per zmm and per time
/// step, the taps whose input index lies in [0, len) for an output t < len;
/// row k enables the stores (t < len). Masked-off taps are not issued: the
/// load and the FMA both leave their lanes untouched. Weights and tap
/// direction follow convLaneScalarT.
template <int OB, bool kBack>
CATI_TARGET_AVX512 void convTileAvx512(const float* w, const float* bias,
                                       const float* x, float* y, int nRed,
                                       int k, int len, int o0, int t0,
                                       const __mmask16* mask,
                                       size_t outStride, size_t redStride) {
  constexpr int TV = kConvVecsAvx512;
  const int pad = k / 2;
  const size_t plane = static_cast<size_t>(len) * kLane;
  __m512 acc[OB][TV];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    const __m512 vb =
        kBack ? _mm512_setzero_ps() : _mm512_set1_ps(bias[o0 + o]);
#pragma GCC unroll 8
    for (int j = 0; j < TV; ++j) acc[o][j] = vb;
  }
  const float* wo = w + static_cast<size_t>(o0) * outStride;
  // Input rows are addressed as integers: a border tap's zmm can start
  // before the pack (first channel) or end past it (last channel). Only
  // masked-off lanes lie outside, and a masked load never touches them.
  const auto xBase = reinterpret_cast<uintptr_t>(x);
  for (int c = 0; c < nRed; ++c) {
    const float* wc = wo + static_cast<size_t>(c) * redStride;
    const uintptr_t xc =
        xBase + static_cast<size_t>(c) * plane * sizeof(float);
    for (int kk = 0; kk < k; ++kk) {
      const int shift = kBack ? pad - kk : kk - pad;
      const __mmask16* m = mask + static_cast<size_t>(kk) * TV;
      const uintptr_t xk = xc + static_cast<ptrdiff_t>(t0 + shift) * kLane *
                                    static_cast<ptrdiff_t>(sizeof(float));
      __m512 wv[OB];
#pragma GCC unroll 8
      for (int o = 0; o < OB; ++o) {
        wv[o] = _mm512_set1_ps(wc[static_cast<size_t>(o) * outStride + kk]);
      }
#pragma GCC unroll 8
      for (int j = 0; j < TV; ++j) {
        const __mmask16 mj = m[j];
        const __m512 xv = _mm512_maskz_loadu_ps(
            mj, reinterpret_cast<const float*>(xk + j * sizeof(__m512)));
#pragma GCC unroll 8
        for (int o = 0; o < OB; ++o) {
          // A masked-off lane keeps acc bit for bit (GCC folds this blend
          // into one merge-masked FMA).
          acc[o][j] = _mm512_mask_mov_ps(
              acc[o][j], mj, _mm512_fmadd_ps(wv[o], xv, acc[o][j]));
        }
      }
    }
  }
  const __mmask16* st = mask + static_cast<size_t>(k) * TV;
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
    float* yo = y + static_cast<size_t>(o0 + o) * plane +
                static_cast<size_t>(t0) * kLane;
#pragma GCC unroll 8
    for (int j = 0; j < TV; ++j) {
      _mm512_mask_storeu_ps(yo + j * 16, st[j], acc[o][j]);
    }
  }
}

template <bool kBack>
CATI_TARGET_AVX512 void convLaneAvx512T(const float* w, const float* bias,
                                        const float* x, float* y, int nRed,
                                        int nOut, int k, int len, int seg,
                                        size_t outStride, size_t redStride) {
  static_assert(kStepsPerZmm == 2, "the tap masks below split a zmm in two");
  constexpr int TV = kConvVecsAvx512;
  constexpr int kTileSteps = TV * kStepsPerZmm;
  const int pad = k / 2;
  // Every tile rewrites the whole table. Per thread and reused, so a warm
  // predict allocates nothing per conv call.
  thread_local std::vector<__mmask16> mask;
  mask.resize(static_cast<size_t>(k + 1) * TV);
  for (int t0 = 0; t0 < len; t0 += kTileSteps) {
    for (int j = 0; j < TV; ++j) {
      const int t = t0 + j * kStepsPerZmm;
      // A tap of step t + h is issued when its input index lies in that
      // step's segment [lo[h], hi[h]).
      int lo[kStepsPerZmm];
      int hi[kStepsPerZmm];
      for (int h = 0; h < kStepsPerZmm; ++h) {
        lo[h] = (t + h) - (t + h) % seg;
        hi[h] = std::min(len, lo[h] + seg);
      }
      const auto stepMask = [&](int h, int src, __mmask16 bits) {
        return t + h < len && src >= lo[h] && src < hi[h] ? bits
                                                          : __mmask16{0};
      };
      for (int kk = 0; kk < k; ++kk) {
        const int src = t + (kBack ? pad - kk : kk - pad);
        mask[static_cast<size_t>(kk) * TV + j] =
            stepMask(0, src, 0x00FF) | stepMask(1, src + 1, 0xFF00);
      }
      mask[static_cast<size_t>(k) * TV + j] =
          stepMask(0, t, 0x00FF) | stepMask(1, t + 1, 0xFF00);
    }
    int o0 = 0;
    for (; o0 + kConvOutAvx512 <= nOut; o0 += kConvOutAvx512) {
      convTileAvx512<kConvOutAvx512, kBack>(w, bias, x, y, nRed, k, len, o0,
                                            t0, mask.data(), outStride,
                                            redStride);
    }
    // Production widths (32, 64 forward; 96, 32 backward) leave no
    // remainder.
    for (; o0 < nOut; ++o0) {
      convTileAvx512<1, kBack>(w, bias, x, y, nRed, k, len, o0, t0,
                               mask.data(), outStride, redStride);
    }
  }
}

CATI_TARGET_AVX512 void convLaneAvx512(const float* w, const float* bias,
                                       const float* x, float* y, int inC,
                                       int outC, int k, int len, int seg) {
  convLaneAvx512T<false>(w, bias, x, y, inC, outC, k, len, seg,
                         static_cast<size_t>(inC) * k, k);
}

CATI_TARGET_AVX512 void convDxAvx512(const float* w, const float* dy,
                                     float* dx, int inC, int outC, int k,
                                     int len) {
  convLaneAvx512T<true>(w, nullptr, dy, dx, outC, inC, k, len, len, k,
                        static_cast<size_t>(inC) * k);
}

// dW as on AVX2, a zmm holding 16 adjacent input channels.
constexpr int kGradOutAvx512 = 4;
constexpr int kGradVecsAvx512 = 2;

/// Time steps [t, tEnd) of one sample's OB x CV dW chains (see
/// convGradStepsAvx2).
template <int OB, int CV, bool kFused>
CATI_TARGET_AVX512 __attribute__((always_inline)) inline void
convGradStepsAvx512(__m512 (&acc)[OB][CV], const float* xs, const float* dyo,
                    int inC, int len, int shift, int t, int tEnd) {
  for (; t < tEnd; ++t) {
    const float* xr = xs + static_cast<ptrdiff_t>(t + shift) * inC;
    __m512 xv[CV];
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) xv[v] = _mm512_loadu_ps(xr + v * 16);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      const __m512 d = _mm512_set1_ps(dyo[o * len + t]);
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) {
        acc[o][v] = kFused ? _mm512_fmadd_ps(d, xv[v], acc[o][v])
                           : _mm512_add_ps(acc[o][v], _mm512_mul_ps(d, xv[v]));
      }
    }
  }
}

/// dW of OB output channels from o0 x 16*CV input channels from c0 at tap
/// kk over n samples, accumulated in the stage.
template <int OB, int CV>
CATI_TARGET_AVX512 void convGradTileAvx512(const float* xt, const float* dy,
                                           GradStage& st, int len, int n,
                                           int o0, int c0, int kk) {
  const TapRange r = tapRange(kk, st.k, len);
  const int shift = kk - st.k / 2;
  __m512 g[OB][CV];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) {
      g[o][v] = _mm512_loadu_ps(st.at(o0 + o, kk, c0 + v * 16));
    }
  }
  for (int s = 0; s < n; ++s) {
    const float* xs = xt + static_cast<size_t>(s) * len * st.inC + c0;
    const float* dyo = dy + (static_cast<size_t>(s) * st.outC + o0) * len;
    __m512 acc[OB][CV];
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) acc[o][v] = _mm512_setzero_ps();
    }
    convGradStepsAvx512<OB, CV, false>(acc, xs, dyo, st.inC, len, shift,
                                       r.lo, r.head);
    convGradStepsAvx512<OB, CV, true>(acc, xs, dyo, st.inC, len, shift,
                                      r.head, r.hi);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
      for (int v = 0; v < CV; ++v) g[o][v] = _mm512_add_ps(g[o][v], acc[o][v]);
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < CV; ++v) {
      _mm512_storeu_ps(st.at(o0 + o, kk, c0 + v * 16), g[o][v]);
    }
  }
}

template <int CV>
CATI_TARGET_AVX512 void convGradBlockAvx512(const float* xt, const float* dy,
                                            GradStage& st, int len, int n,
                                            int c0) {
  for (int kk = 0; kk < st.k; ++kk) {
    int o0 = 0;
    for (; o0 + kGradOutAvx512 <= st.outC; o0 += kGradOutAvx512) {
      convGradTileAvx512<kGradOutAvx512, CV>(xt, dy, st, len, n, o0, c0, kk);
    }
    for (; o0 < st.outC; ++o0) {
      convGradTileAvx512<1, CV>(xt, dy, st, len, n, o0, c0, kk);
    }
  }
}

CATI_TARGET_AVX512 void convGradAvx512(const float* xt, const float* dy,
                                       float* gw, float* gb, int inC,
                                       int outC, int k, int len, int n) {
  convBiasGrad(dy, gb, outC, len, n);
  const int nc = inC - inC % 16;
  {
    GradStage st(gw, inC, outC, k, nc);
    constexpr int kSpan = kGradVecsAvx512 * 16;
    int c0 = 0;
    for (; c0 + kSpan <= nc; c0 += kSpan) {
      convGradBlockAvx512<kGradVecsAvx512>(xt, dy, st, len, n, c0);
    }
    for (; c0 < nc; c0 += 16) convGradBlockAvx512<1>(xt, dy, st, len, n, c0);
  }
  convGradChannels(xt, dy, gw, inC, outC, k, len, n, nc);
}

// Dense backward tiles: dW holds kDenseGradOutAvx512 weight rows x
// kDenseVecsAvx512 zmm of one row segment and runs the samples through
// them; dX holds kDenseDxSamplesAvx512 samples x kDenseVecsAvx512 zmm and
// runs the outputs. A zero-gradient step is a masked-off FMA, which leaves
// the accumulator untouched (a -0 included).
constexpr int kDenseGradOutAvx512 = 4;
constexpr int kDenseDxSamplesAvx512 = 4;
constexpr int kDenseVecsAvx512 = 4;

template <int OB, int IV>
CATI_TARGET_AVX512 void denseGradTileAvx512(const float* x, const float* dy,
                                            float* gw, int n, int inF,
                                            int outF, int o0, int i0) {
  __m512 acc[OB][IV];
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) {
      acc[o][v] = _mm512_loadu_ps(gw + static_cast<size_t>(o0 + o) * inF +
                                  i0 + v * 16);
    }
  }
  for (int s = 0; s < n; ++s) {
    const float* xs = x + static_cast<size_t>(s) * inF + i0;
    const float* g = dy + static_cast<size_t>(s) * outF + o0;
    __m512 xv[IV];
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) xv[v] = _mm512_loadu_ps(xs + v * 16);
#pragma GCC unroll 8
    for (int o = 0; o < OB; ++o) {
      const __m512 vg = _mm512_set1_ps(g[o]);
      const __mmask16 keep =
          _mm512_cmp_ps_mask(vg, _mm512_setzero_ps(), _CMP_NEQ_UQ);
#pragma GCC unroll 8
      for (int v = 0; v < IV; ++v) {
        acc[o][v] = _mm512_mask3_fmadd_ps(vg, xv[v], acc[o][v], keep);
      }
    }
  }
#pragma GCC unroll 8
  for (int o = 0; o < OB; ++o) {
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) {
      _mm512_storeu_ps(gw + static_cast<size_t>(o0 + o) * inF + i0 + v * 16,
                       acc[o][v]);
    }
  }
}

template <int OB>
CATI_TARGET_AVX512 void denseGradRowsAvx512(const float* x, const float* dy,
                                            float* gw, int n, int inF,
                                            int outF, int o0, int iEnd) {
  constexpr int kSpan = kDenseVecsAvx512 * 16;
  int i0 = 0;
  for (; i0 + kSpan <= iEnd; i0 += kSpan) {
    denseGradTileAvx512<OB, kDenseVecsAvx512>(x, dy, gw, n, inF, outF, o0,
                                              i0);
  }
  for (; i0 < iEnd; i0 += 16) {
    denseGradTileAvx512<OB, 1>(x, dy, gw, n, inF, outF, o0, i0);
  }
}

CATI_TARGET_AVX512 void denseGradAvx512(const float* x, const float* dy,
                                        float* gw, float* gb, int n, int inF,
                                        int outF) {
  denseBiasGrad(dy, gb, n, outF);
  const int iEnd = inF - inF % 16;
  int o0 = 0;
  for (; o0 + kDenseGradOutAvx512 <= outF; o0 += kDenseGradOutAvx512) {
    denseGradRowsAvx512<kDenseGradOutAvx512>(x, dy, gw, n, inF, outF, o0,
                                             iEnd);
  }
  for (; o0 < outF; ++o0) {
    denseGradRowsAvx512<1>(x, dy, gw, n, inF, outF, o0, iEnd);
  }
  denseGradColumns(x, dy, gw, n, inF, outF, iEnd);
}

template <int SB, int IV>
CATI_TARGET_AVX512 void denseDxTileAvx512(const float* w, const float* dy,
                                          float* dx, int inF, int outF,
                                          int s0, int i0) {
  __m512 acc[SB][IV];
#pragma GCC unroll 8
  for (int s = 0; s < SB; ++s) {
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) acc[s][v] = _mm512_setzero_ps();
  }
  const float* g = dy + static_cast<size_t>(s0) * outF;
  for (int o = 0; o < outF; ++o) {
    const float* wRow = w + static_cast<size_t>(o) * inF + i0;
    __m512 wv[IV];
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) wv[v] = _mm512_loadu_ps(wRow + v * 16);
#pragma GCC unroll 8
    for (int s = 0; s < SB; ++s) {
      const __m512 vg = _mm512_set1_ps(g[static_cast<size_t>(s) * outF + o]);
      const __mmask16 keep =
          _mm512_cmp_ps_mask(vg, _mm512_setzero_ps(), _CMP_NEQ_UQ);
#pragma GCC unroll 8
      for (int v = 0; v < IV; ++v) {
        acc[s][v] = _mm512_mask3_fmadd_ps(vg, wv[v], acc[s][v], keep);
      }
    }
  }
#pragma GCC unroll 8
  for (int s = 0; s < SB; ++s) {
#pragma GCC unroll 8
    for (int v = 0; v < IV; ++v) {
      _mm512_storeu_ps(dx + static_cast<size_t>(s0 + s) * inF + i0 + v * 16,
                       acc[s][v]);
    }
  }
}

template <int SB>
CATI_TARGET_AVX512 void denseDxRowsAvx512(const float* w, const float* dy,
                                          float* dx, int inF, int outF,
                                          int s0, int iEnd) {
  constexpr int kSpan = kDenseVecsAvx512 * 16;
  int i0 = 0;
  for (; i0 + kSpan <= iEnd; i0 += kSpan) {
    denseDxTileAvx512<SB, kDenseVecsAvx512>(w, dy, dx, inF, outF, s0, i0);
  }
  for (; i0 < iEnd; i0 += 16) {
    denseDxTileAvx512<SB, 1>(w, dy, dx, inF, outF, s0, i0);
  }
}

CATI_TARGET_AVX512 void denseDxAvx512(const float* w, const float* dy,
                                      float* dx, int n, int inF, int outF) {
  const int iEnd = inF - inF % 16;
  int s0 = 0;
  for (; s0 + kDenseDxSamplesAvx512 <= n; s0 += kDenseDxSamplesAvx512) {
    denseDxRowsAvx512<kDenseDxSamplesAvx512>(w, dy, dx, inF, outF, s0, iEnd);
  }
  for (; s0 < n; ++s0) denseDxRowsAvx512<1>(w, dy, dx, inF, outF, s0, iEnd);
  denseDxColumns(w, dy, dx, n, inF, outF, iEnd);
}

// GCC 12 reports the self-initialized _mm512_undefined_* temporaries inside
// several AVX-512 intrinsics (max, cvt, shift, reduce) as uninitialized at
// every call site (GCC bug 105593, fixed in GCC 13). The warning is a false
// positive, so it is silenced for these three functions only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

CATI_TARGET_AVX512 float absMaxAvx512(const float* x, int n) {
  const __m512 signMask = _mm512_castsi512_ps(_mm512_set1_epi32(0x7fffffff));
  __m512 vm = _mm512_setzero_ps();
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    vm = _mm512_max_ps(vm, _mm512_and_ps(_mm512_loadu_ps(x + i), signMask));
  }
  float m = _mm512_reduce_max_ps(vm);
  for (; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

CATI_TARGET_AVX512 void quantizeAvx512(const float* x, int8_t* q, int n,
                                       float invScale) {
  const __m512 vs = _mm512_set1_ps(invScale);
  const __m512i vmin = _mm512_set1_epi32(-127);
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512i vi = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(x + i), vs));
    // cvtsepi32_epi8 saturates at [-128,127]; only the -127 floor needs help.
    vi = _mm512_max_epi32(vi, vmin);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                     _mm512_cvtsepi32_epi8(vi));
  }
  for (; i < n; ++i) q[i] = quantizeOne(x[i], invScale);
}

CATI_TARGET_AVX512_VNNI void qgemvAvx512(const int8_t* w,
                                         const int32_t* rowSum,
                                         const int8_t* x, int32_t* acc,
                                         int groups, int outPad) {
  // vpdpbusd wants unsigned × signed: bias the activations by +128
  // (byte XOR 0x80) and subtract the exact 128 * rowSum correction.
  for (int ob = 0; ob < outPad; ob += 16) {
    __m512i vdot = _mm512_setzero_si512();
    for (int g = 0; g < groups; ++g) {
      int32_t xw;
      std::memcpy(&xw, x + static_cast<size_t>(g) * kQGroup, 4);
      const __m512i xb =
          _mm512_set1_epi32(xw ^ static_cast<int32_t>(0x80808080U));
      const __m512i wb = _mm512_loadu_si512(
          w + (static_cast<size_t>(g) * outPad + ob) * kQGroup);
      vdot = _mm512_dpbusd_epi32(vdot, xb, wb);
    }
    const __m512i rs = _mm512_loadu_si512(rowSum + ob);
    vdot = _mm512_sub_epi32(vdot, _mm512_slli_epi32(rs, 7));
    const __m512i va = _mm512_loadu_si512(acc + ob);
    _mm512_storeu_si512(acc + ob, _mm512_add_epi32(va, vdot));
  }
}

#pragma GCC diagnostic pop

}  // namespace

const KernelSet& kernelsFor(cpu::Isa isa) {
  static const KernelSet sets[cpu::kNumIsas] = {
      {cpu::Isa::kScalar, convLaneScalar, denseLaneScalar, convGradScalar,
       convDxScalar, denseGradScalar, denseDxScalar, adamStepScalar,
       absMaxScalar, quantizeScalar, qgemvScalar},
      // The scalar dense backward, vectorized by the compiler with its
      // per-row zero-gradient skip, is as fast as an AVX2 kernel that must
      // mask every step, so the AVX2 tier uses it.
      {cpu::Isa::kAvx2, convLaneAvx2, denseLaneAvx2, convGradAvx2, convDxAvx2,
       denseGradScalar, denseDxScalar, adamStepAvx2, absMaxAvx2, quantizeAvx2,
       qgemvAvx2},
      // Dense lane groups are 8 floats wide, so the AVX2 variant is already
      // full-width — AVX-512 reuses it. Adam is bound by memory traffic;
      // 16-wide measured no faster than 8-wide, so it reuses AVX2's too.
      {cpu::Isa::kAvx512, convLaneAvx512, denseLaneAvx2, convGradAvx512,
       convDxAvx512, denseGradAvx512, denseDxAvx512, adamStepAvx2,
       absMaxAvx512, quantizeAvx512, qgemvAvx512},
  };
  return sets[static_cast<int>(isa)];
}

const KernelSet& kernels() { return kernelsFor(cpu::active()); }

}  // namespace cati::nn::kern
