// Runtime-dispatched compute kernels for the NN hot loops (DESIGN.md §11).
//
// Every KernelSet member has a PINNED per-element floating-point contract,
// chosen to reproduce — bit for bit — what the seed's autovectorized loops
// computed, so the checked-in goldens and trained models stay byte-identical
// no matter which ISA variant runs:
//
//   conv1dLane   y := bias, then for (c, kk) ascending one FUSED
//                multiply-add per valid tap: y = fma(w, x, y). A tap is
//                valid when its input index t + kk - k/2 lies in the
//                output's own segment [s, min(s + seg, len)), s =
//                floor(t/seg)*seg; any other tap is SKIPPED, never
//                zero-padded: fma(w, ±0, -0) can turn a -0 into +0.
//                seg == len is the plain same-padded conv over the lane.
//                A smaller seg runs len/seg independent convs side by side
//                in one call (seg = 2w+1 would be back-to-back VUC
//                windows; no caller uses it). seg = 2 gives, at even t,
//                the left-border column of a window from the pair
//                (x[t], x[t+1]) — the shared-context stream path of
//                Engine's predict (DESIGN.md §7).
//                Elements of the [t][lane] plane are independent, so the
//                SIMD variants may tile them freely — they hold a few
//                output channels x a run of time steps in registers and
//                loop (c, kk) inside the tile — as long as each element
//                sees that op sequence.
//   denseLane    per output: acc := bias, then for i ascending the first
//                inF - inF%4 taps are a separately-rounded multiply THEN
//                add, the last inF%4 taps are fused. (This mirrors the
//                seed's in-order reduction codegen: 4/8-wide multiply with
//                sequential lane adds, fused scalar tail.) Outputs are
//                independent chains; SIMD variants run several per pass.
//   absMax       max of |x[i]| — order-independent, 0 for n == 0.
//   quantizeI8   q[i] = clamp(round-nearest-even(x[i] * invScale), ±127).
//                Scalar lrintf and vector cvtps both follow the default
//                MXCSR rounding mode, so results agree exactly.
//   qgemvI8      exact int32 arithmetic — any evaluation order is the same
//                value, so all variants agree trivially.
//
// Backward (training). Gradients accumulate over samples in ascending order,
// so a chunk of n samples gives the bits of n single-sample calls:
//
//   conv1dGrad   per sample and per (o, c, kk): chain := +0, then over the
//                n valid t ascending (t + kk - k/2 in [0, len)) the first
//                n - n%4 terms are chain = chain + dy*x (two roundings) and
//                the last n%4 are fused, chain = fma(dy, x, chain) — the
//                denseLane rule; then gw += chain. db: per sample an
//                in-order sum over t from +0, then gb += sum. Chains of
//                different (o, c, kk) are independent, so the SIMD variants
//                run a tile of outputs x input channels (one vector of
//                channels) per pass, and folding a sample in is one vector
//                add.
//   conv1dLaneDx dx[c][j] := +0, then for (o, kk) ascending one fused
//                dx = fma(dy[o][j - (kk - k/2)], w[o][c][kk], dx) per valid
//                tap — the transposed conv1dLane at seg == len. Border taps
//                are skipped, never padded.
//   denseGrad    per sample ascending, per output o with g = dy[o] != 0:
//                gb[o] += g; gw[o][i] = fma(g, x[i], gw[o][i]). A g == 0
//                (either sign) sample leaves row o untouched, so a -0
//                accumulator stays -0.
//   denseDx      per sample: dx[i] := +0, then for o ascending with
//                g = dy[o] != 0: dx[i] = fma(g, w[o][i], dx[i]).
//
// These are what GCC 12 generated from the seed's scalar backward loops at
// -O3 -march=x86-64-v3 (4/8-wide in-order reduction with a fused scalar tail
// for the conv dW chain, contracted multiply-adds everywhere else). Pinning
// them here makes the gradients independent of the build type: the old
// loops computed different bits at -O2.
//
// Optimizer (training). One Adam step over a range of parameters whose
// gradients come as `slabs` back-to-back slabs, one per gradient chunk:
//
//   adamStep     per element: g := +0, then g = g + slab[k][i] for k
//                ascending (the ordered chunk merge); g = g * scale;
//                m = fma(m, beta1, (1 - beta1) * g);
//                v = fma(v, beta2, ((1 - beta2) * g) * g);
//                value = value - (lr * (m / bc1)) / (sqrt(v / bc2) + eps).
//                bc1 = 1 - beta1^t and bc2 = 1 - beta2^t come from the
//                caller (one std::pow per step). Elements are independent,
//                so any split of the range computes the same bits.
//
// This is the op sequence GCC 12 emitted at -O3 -march=x86-64-v3 for the
// seed's scalar Adam loop (two contracted multiply-adds, correctly rounded
// division and sqrt), so trained models keep their bytes.
//
// kernels.cc is compiled with -ffp-contract=off: fusion happens only where
// an explicit fma/fmaf (or _mm*_fmadd) is written, never at the compiler's
// whim, making the contract hold across build types and compilers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.h"

namespace cati::nn::kern {

/// Samples per batch-transposed lane group; must equal nn::kBatchLane
/// (static_asserted in nn.cc).
inline constexpr int kLane = 8;

/// Input features per int8 weight group (the vpdpbusd reduction width).
inline constexpr int kQGroup = 4;

/// Quantized weight rows are padded to this many outputs so the AVX-512
/// path needs no output-tail masking.
inline constexpr int kQOutPad = 16;

/// Number of kQGroup groups covering inF features (last group zero-padded).
constexpr int qGroups(int inF) { return (inF + kQGroup - 1) / kQGroup; }

/// outF rounded up to the kernel output-padding multiple.
constexpr int qOutPad(int outF) {
  return (outF + kQOutPad - 1) / kQOutPad * kQOutPad;
}

/// The per-step constants of adamStep (see its contract above).
struct AdamCoef {
  float lr;
  float beta1;
  float beta2;
  float eps;
  float bc1;    ///< 1 - beta1^t
  float bc2;    ///< 1 - beta2^t
  float scale;  ///< gradient scale, 1/batch
};

/// One ISA variant of every hot loop. All variants of a member compute
/// bit-identical results (see header comment); they differ only in speed.
struct KernelSet {
  cpu::Isa isa;

  /// Batch-transposed Conv1d over one full lane group. `x` is the
  /// [c][t][kLane] input pack (inC * len * kLane floats), `y` the
  /// [o][t][kLane] output pack, `w` is [o][c][kk], same-padding k/2 within
  /// each `seg`-long segment of the time axis (1 <= seg <= len).
  void (*conv1dLane)(const float* w, const float* bias, const float* x,
                     float* y, int inC, int outC, int k, int len, int seg);

  /// Batch-transposed dense layer over one full lane group. `x` is the
  /// [i][kLane] input pack, `y` the [o][kLane] output pack, `w` is [o][i].
  void (*denseLane)(const float* w, const float* bias, const float* x,
                    float* y, int inF, int outF);

  /// Conv1d weight and bias gradients of n samples, accumulated into `gw`
  /// ([o][c][kk]) and `gb` ([o]). `xt` is the forward input time-major per
  /// sample ([n][len][inC]), `dy` the sample-major output gradient
  /// ([n][outC][len]).
  void (*conv1dGrad)(const float* xt, const float* dy, float* gw, float* gb,
                     int inC, int outC, int k, int len, int n);

  /// Conv1d input gradient of one full lane group: `dy` is the [o][t][kLane]
  /// pack, `dx` the [c][t][kLane] pack it overwrites, `w` is [o][c][kk].
  void (*conv1dLaneDx)(const float* w, const float* dy, float* dx, int inC,
                       int outC, int k, int len);

  /// Linear weight and bias gradients of n sample-major rows: `x` is
  /// [n][inF], `dy` [n][outF]; accumulates into `gw` ([o][i]) and `gb`.
  void (*denseGrad)(const float* x, const float* dy, float* gw, float* gb,
                    int n, int inF, int outF);

  /// Linear input gradient of n sample-major rows: overwrites `dx`
  /// ([n][inF]) from `dy` ([n][outF]) and `w` ([o][i]).
  void (*denseDx)(const float* w, const float* dy, float* dx, int n, int inF,
                  int outF);

  /// One Adam update of elements [0, n) of `value`, `m` and `v`: the
  /// gradient of element i is the sum over k < slabs of grad[k * stride + i],
  /// in ascending k.
  void (*adamStep)(float* value, float* m, float* v, const float* grad,
                   size_t stride, int slabs, int n, const AdamCoef& c);

  /// max over i of |x[i]|; 0 when n == 0.
  float (*absMax)(const float* x, int n);

  /// q[i] = clamp(nearest-even(x[i] * invScale), -127, 127) for i < n.
  void (*quantizeI8)(const float* x, int8_t* q, int n, float invScale);

  /// acc[o] += sum_i w[o][i] * x[i] in exact int32, for o < outPad.
  /// `w` is the grouped layout [g][o][j] (g = i/kQGroup, j = i%kQGroup),
  /// zero-padded to `groups` full groups and `outPad` outputs; `x` must be
  /// readable (zero-padded) up to groups*kQGroup bytes. `rowSum[o]` is
  /// sum_i w[o][i] — used by the biased-unsigned VNNI path, ignored by the
  /// signed scalar/AVX2 paths.
  void (*qgemvI8)(const int8_t* w, const int32_t* rowSum, const int8_t* x,
                  int32_t* acc, int groups, int outPad);
};

/// The variant for a specific ISA. The caller must ensure
/// cpu::supported(isa) — used by the differential tests to force a tier.
const KernelSet& kernelsFor(cpu::Isa isa);

/// The variant for cpu::active() — what production code uses.
const KernelSet& kernels();

}  // namespace cati::nn::kern
