// Differential suite for the runtime-dispatched NN kernels (DESIGN.md §11).
//
// The contract under test: every ISA variant of every KernelSet member
// computes BIT-IDENTICAL results to the scalar reference — across channel
// and length sweeps chosen to hit every vector-width tail, on all-zero
// input, and on denormal input (the build never enables -ffast-math, so
// DAZ/FTZ stay off and denormals must survive every tier). Tiers the CPU
// lacks are skipped with a note, never silently passed.
//
// The backward kernels are held to the same rule (including -0 accumulators
// that a zero-gradient step must not touch), and a pinned FNV of a stage
// net's gradients ties the whole backward pass to the historical bits.
//
// The CLI property leg drives the real cati-infer binary under
// CATI_KERNEL={scalar,avx2,avx512} x --jobs and byte-compares the reports:
// fp32 reports must be identical across kernels, and quantized (--quant)
// reports identical across kernels AND job counts (per-sample activation
// scales + exact int32 accumulation make batching invisible).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cati/engine.h"
#include "common/cpu.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "loader/image.h"
#include "nn/kernels.h"
#include "nn/nn.h"
#include "nn/qnn.h"
#include "support/micro_model.h"

#ifndef CATI_TOOL_DIR
#define CATI_TOOL_DIR "tools"
#endif

namespace cati::nn {
namespace {

namespace stdfs = std::filesystem;

std::vector<float> randVec(size_t n, Rng& rng, float scale = 1.0F) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng.normal(0.0F, scale);
  return v;
}

/// Denormal-heavy fill: alternating-sign values far below FLT_MIN.
std::vector<float> denormVec(size_t n) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 2 == 0 ? 1.0F : -1.0F) * 1e-42F * static_cast<float>(i + 1);
  }
  return v;
}

testing::AssertionResult bitsEqual(std::span<const float> a,
                                   std::span<const float> b) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure() << "size " << a.size() << " vs "
                                       << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
      return testing::AssertionFailure()
             << "first bit difference at [" << i << "]: " << a[i] << " vs "
             << b[i];
    }
  }
  return testing::AssertionSuccess();
}

/// Parametrized over the ISA under test; compared against kScalar.
class KernelIsaTest : public testing::TestWithParam<cpu::Isa> {
 protected:
  void SetUp() override {
    if (!cpu::supported(GetParam())) {
      GTEST_SKIP() << "CPU lacks " << cpu::isaName(GetParam())
                   << "; differential leg not run on this machine";
    }
  }
  const kern::KernelSet& ref() { return kern::kernelsFor(cpu::Isa::kScalar); }
  const kern::KernelSet& dut() { return kern::kernelsFor(GetParam()); }
};

TEST_P(KernelIsaTest, Conv1dLaneMatchesScalarAcrossShapes) {
  Rng rng(0xC0417);
  // (inC, outC, k, len): full production shapes plus tails that stop short
  // of every vector width (1, 3, 5, 9) and a len-1 edge.
  const struct { int inC, outC, k, len; } shapes[] = {
      {1, 1, 3, 1},  {3, 5, 3, 7},   {4, 3, 5, 9},
      {16, 8, 3, 5}, {96, 32, 3, 21}, {32, 64, 3, 10},
  };
  for (const auto& sh : shapes) {
    const auto w = randVec(static_cast<size_t>(sh.outC) * sh.inC * sh.k, rng);
    const auto bias = randVec(static_cast<size_t>(sh.outC), rng);
    const size_t xn = static_cast<size_t>(sh.inC) * sh.len * kern::kLane;
    const size_t yn = static_cast<size_t>(sh.outC) * sh.len * kern::kLane;
    for (const auto& x : {randVec(xn, rng), std::vector<float>(xn, 0.0F),
                          denormVec(xn)}) {
      std::vector<float> ya(yn), yb(yn);
      ref().conv1dLane(w.data(), bias.data(), x.data(), ya.data(), sh.inC,
                       sh.outC, sh.k, sh.len, sh.len);
      dut().conv1dLane(w.data(), bias.data(), x.data(), yb.data(), sh.inC,
                       sh.outC, sh.k, sh.len, sh.len);
      EXPECT_TRUE(bitsEqual(ya, yb))
          << "conv inC=" << sh.inC << " outC=" << sh.outC << " k=" << sh.k
          << " len=" << sh.len;
    }
  }
}

TEST_P(KernelIsaTest, DenseLaneMatchesScalarAcrossShapes) {
  Rng rng(0xDE45E);
  // inF values cover every mod-4 and mod-8 tail class; outF hits output
  // blocks with and without a remainder.
  for (const int inF : {1, 2, 3, 4, 5, 7, 8, 9, 31, 96, 320}) {
    for (const int outF : {1, 2, 3, 17, 128}) {
      const auto w = randVec(static_cast<size_t>(outF) * inF, rng);
      const auto bias = randVec(static_cast<size_t>(outF), rng);
      const size_t xn = static_cast<size_t>(inF) * kern::kLane;
      const size_t yn = static_cast<size_t>(outF) * kern::kLane;
      for (const auto& x : {randVec(xn, rng), std::vector<float>(xn, 0.0F),
                            denormVec(xn)}) {
        std::vector<float> ya(yn), yb(yn);
        ref().denseLane(w.data(), bias.data(), x.data(), ya.data(), inF, outF);
        dut().denseLane(w.data(), bias.data(), x.data(), yb.data(), inF, outF);
        EXPECT_TRUE(bitsEqual(ya, yb)) << "dense inF=" << inF
                                       << " outF=" << outF;
      }
    }
  }
}

TEST_P(KernelIsaTest, Conv1dLaneTileEdgesMatchScalar) {
  Rng rng(0x7E1E);
  // Register tiles are a few output channels x a run of time steps (4 x 12
  // on AVX-512, 2 x 6 on AVX2): sweep outC through every output-block
  // remainder, len across both sides of each time-tile width, and every
  // border width k/2 up to 3 (an even k borders unevenly), so each tile
  // edge and each skipped tap runs.
  for (const int k : {1, 2, 3, 5, 7}) {
    for (const int outC : {1, 2, 3, 4, 5, 33}) {
      for (const int len : {1, 2, 5, 6, 7, 11, 12, 13, 24, 25}) {
        const int inC = 3;
        const auto w = randVec(static_cast<size_t>(outC) * inC * k, rng);
        const auto bias = randVec(static_cast<size_t>(outC), rng);
        const auto x =
            randVec(static_cast<size_t>(inC) * len * kern::kLane, rng);
        const size_t yn = static_cast<size_t>(outC) * len * kern::kLane;
        std::vector<float> ya(yn), yb(yn);
        ref().conv1dLane(w.data(), bias.data(), x.data(), ya.data(), inC,
                         outC, k, len, len);
        dut().conv1dLane(w.data(), bias.data(), x.data(), yb.data(), inC,
                         outC, k, len, len);
        EXPECT_TRUE(bitsEqual(ya, yb))
            << "conv outC=" << outC << " k=" << k << " len=" << len;
      }
    }
  }
}

TEST_P(KernelIsaTest, Conv1dLaneSkipsBorderTapsKeepingNegativeZero) {
  // bias = -0, x = -0, w > 0: every issued tap is fma(w, -0, -0) = -0, so
  // the exact output is -0 everywhere. A kernel that zero-pads the border
  // instead of skipping those taps adds w * (+0) = +0 there and turns the
  // first and last time steps into +0.
  for (const int k : {3, 5}) {
    for (const int len : {1, 2, 7, 12, 13, 25}) {
      const int inC = 2, outC = 5;
      const std::vector<float> w(static_cast<size_t>(outC) * inC * k, 0.5F);
      const std::vector<float> bias(static_cast<size_t>(outC), -0.0F);
      const std::vector<float> x(static_cast<size_t>(inC) * len * kern::kLane,
                                 -0.0F);
      std::vector<float> y(static_cast<size_t>(outC) * len * kern::kLane,
                           1.0F);
      dut().conv1dLane(w.data(), bias.data(), x.data(), y.data(), inC, outC,
                       k, len, len);
      for (int o = 0; o < outC; ++o) {
        for (const int t : {0, len - 1}) {
          for (int l = 0; l < kern::kLane; ++l) {
            const float v =
                y[(static_cast<size_t>(o) * len + t) * kern::kLane + l];
            EXPECT_TRUE(v == 0.0F && std::signbit(v))
                << "o=" << o << " t=" << t << " lane=" << l << " k=" << k
                << " len=" << len << ": " << v;
          }
        }
      }
    }
  }
}

/// conv1dLane's contract computed naively, one output at a time: bias, then
/// one std::fma per (c, kk) tap whose input index stays in the output's own
/// seg-long segment.
std::vector<float> segmentedConvReference(const std::vector<float>& w,
                                          const std::vector<float>& bias,
                                          const std::vector<float>& x, int inC,
                                          int outC, int k, int len, int seg) {
  std::vector<float> y(static_cast<size_t>(outC) * len * kern::kLane);
  for (int o = 0; o < outC; ++o) {
    for (int t = 0; t < len; ++t) {
      const int lo = t - t % seg;
      const int hi = std::min(len, lo + seg);
      for (int l = 0; l < kern::kLane; ++l) {
        float acc = bias[static_cast<size_t>(o)];
        for (int c = 0; c < inC; ++c) {
          for (int kk = 0; kk < k; ++kk) {
            const int src = t + kk - k / 2;
            if (src < lo || src >= hi) continue;
            acc = std::fma(
                w[(static_cast<size_t>(o) * inC + c) * k + kk],
                x[(static_cast<size_t>(c) * len + src) * kern::kLane + l], acc);
          }
        }
        y[(static_cast<size_t>(o) * len + t) * kern::kLane + l] = acc;
      }
    }
  }
  return y;
}

TEST_P(KernelIsaTest, Conv1dLaneSegmentsMatchScalarAndReference) {
  // seg cuts the time axis into independent convs (kernels.h): 1 and 2 are
  // the stream path's border pairs, 3 a window of one instruction each
  // side, 21 back-to-back production windows, len the plain conv. Lengths
  // end mid-segment and mid-tile; outC 6 leaves an output-block remainder
  // on both SIMD tiers.
  Rng rng(0x5E65);
  for (const int k : {1, 3, 5}) {
    for (const int len : {1, 2, 5, 7, 13, 21, 24, 42, 47}) {
      for (const int seg : {1, 2, 3, 21, len}) {
        if (seg > len) continue;
        const int inC = 5, outC = 6;
        const auto w = randVec(static_cast<size_t>(outC) * inC * k, rng);
        const auto bias = randVec(static_cast<size_t>(outC), rng);
        const auto x =
            randVec(static_cast<size_t>(inC) * len * kern::kLane, rng);
        const size_t yn = static_cast<size_t>(outC) * len * kern::kLane;
        std::vector<float> ya(yn), yb(yn);
        ref().conv1dLane(w.data(), bias.data(), x.data(), ya.data(), inC,
                         outC, k, len, seg);
        dut().conv1dLane(w.data(), bias.data(), x.data(), yb.data(), inC,
                         outC, k, len, seg);
        EXPECT_TRUE(bitsEqual(ya, yb))
            << "conv k=" << k << " len=" << len << " seg=" << seg;
        EXPECT_TRUE(bitsEqual(ya, segmentedConvReference(w, bias, x, inC,
                                                         outC, k, len, seg)))
            << "scalar vs reference k=" << k << " len=" << len
            << " seg=" << seg;
      }
    }
  }
}

TEST_P(KernelIsaTest, Conv1dLaneSkipsTapsThatLeaveTheirSegment) {
  // One border tap weighs +inf, the others 0.5, and x > 0: an output that
  // issues the inf tap is +inf. An output whose inf tap would read the
  // neighbouring segment must skip it and stay finite; a kernel that lets
  // the tap cross gets +inf there, and one that zero-pads gets inf * 0 =
  // NaN.
  const int inC = 3, outC = 5, k = 3;
  for (const int infTap : {0, k - 1}) {
    for (const int len : {2, 5, 21, 24, 42}) {
      for (const int seg : {1, 2, 3, 21, len}) {
        if (seg > len) continue;
        std::vector<float> w(static_cast<size_t>(outC) * inC * k, 0.5F);
        for (size_t i = static_cast<size_t>(infTap); i < w.size(); i += k) {
          w[i] = std::numeric_limits<float>::infinity();
        }
        const std::vector<float> bias(static_cast<size_t>(outC), 0.25F);
        const std::vector<float> x(
            static_cast<size_t>(inC) * len * kern::kLane, 1.5F);
        const size_t yn = static_cast<size_t>(outC) * len * kern::kLane;
        std::vector<float> ya(yn), yb(yn);
        ref().conv1dLane(w.data(), bias.data(), x.data(), ya.data(), inC,
                         outC, k, len, seg);
        dut().conv1dLane(w.data(), bias.data(), x.data(), yb.data(), inC,
                         outC, k, len, seg);
        EXPECT_TRUE(bitsEqual(ya, yb))
            << "tap=" << infTap << " len=" << len << " seg=" << seg;
        for (int t = 0; t < len; ++t) {
          const int lo = t - t % seg;
          const int src = t + infTap - k / 2;
          const bool skipped = src < lo || src >= std::min(len, lo + seg);
          for (int o = 0; o < outC; ++o) {
            const float v =
                yb[(static_cast<size_t>(o) * len + t) * kern::kLane];
            EXPECT_EQ(std::isfinite(v), skipped)
                << "tap=" << infTap << " len=" << len << " seg=" << seg
                << " t=" << t << ": " << v;
            if (!skipped) {
              EXPECT_EQ(v, std::numeric_limits<float>::infinity());
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelIsaTest, DenseLaneOutputBlocksMatchScalar) {
  Rng rng(0xB10C);
  // Dense runs 8 independent output chains per pass and the remainder as
  // one pass: every remainder 1-7, one block plus one (9), and the
  // production widths (fc2 heads of 2-9 classes, fc1's 128).
  for (const int inF : {5, 128, 320}) {
    for (const int outF : {1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 128}) {
      const auto w = randVec(static_cast<size_t>(outF) * inF, rng);
      const auto bias = randVec(static_cast<size_t>(outF), rng);
      const auto x = randVec(static_cast<size_t>(inF) * kern::kLane, rng);
      const size_t yn = static_cast<size_t>(outF) * kern::kLane;
      std::vector<float> ya(yn), yb(yn);
      ref().denseLane(w.data(), bias.data(), x.data(), ya.data(), inF, outF);
      dut().denseLane(w.data(), bias.data(), x.data(), yb.data(), inF, outF);
      EXPECT_TRUE(bitsEqual(ya, yb)) << "dense inF=" << inF << " outF=" << outF;
    }
  }
}

TEST_P(KernelIsaTest, AbsMaxMatchesScalarIncludingDenormals) {
  Rng rng(0xAB5A);
  for (int n = 0; n <= 67; ++n) {
    const auto x = randVec(static_cast<size_t>(n), rng, 3.0F);
    EXPECT_EQ(ref().absMax(x.data(), n), dut().absMax(x.data(), n)) << n;
    const auto d = denormVec(static_cast<size_t>(n));
    EXPECT_EQ(ref().absMax(d.data(), n), dut().absMax(d.data(), n))
        << "denormal n=" << n;
    const std::vector<float> z(static_cast<size_t>(n), 0.0F);
    EXPECT_EQ(dut().absMax(z.data(), n), 0.0F) << "zero n=" << n;
  }
}

TEST_P(KernelIsaTest, QuantizeI8MatchesScalarAndRoundsToEven) {
  Rng rng(0x0117);
  for (int n = 1; n <= 67; n += 3) {
    for (const float invScale : {0.0F, 0.37F, 12.5F, 127.0F}) {
      auto x = randVec(static_cast<size_t>(n), rng, 2.0F);
      // Exact tie points: 2.5/invScale quantizes to round-nearest-EVEN 2.
      if (invScale > 0 && n > 2) {
        x[0] = 2.5F / invScale;
        x[1] = -3.5F / invScale;
      }
      std::vector<int8_t> qa(static_cast<size_t>(n)), qb(qa);
      ref().quantizeI8(x.data(), qa.data(), n, invScale);
      dut().quantizeI8(x.data(), qb.data(), n, invScale);
      EXPECT_EQ(qa, qb) << "n=" << n << " invScale=" << invScale;
    }
    const auto d = denormVec(static_cast<size_t>(n));
    std::vector<int8_t> qa(static_cast<size_t>(n)), qb(qa);
    ref().quantizeI8(d.data(), qa.data(), n, 127.0F);
    dut().quantizeI8(d.data(), qb.data(), n, 127.0F);
    EXPECT_EQ(qa, qb) << "denormal n=" << n;
  }
}

TEST_P(KernelIsaTest, QgemvI8MatchesScalarAndExactReference) {
  Rng rng(0x9E37);
  for (const int groups : {1, 2, 3, 8, 24, 80}) {
    for (const int outPad : {16, 32, 48}) {
      const size_t wn =
          static_cast<size_t>(groups) * outPad * kern::kQGroup;
      const size_t xn = static_cast<size_t>(groups) * kern::kQGroup;
      std::vector<int8_t> w(wn), x(xn);
      for (auto& v : w) v = static_cast<int8_t>(rng.uniformInt(-127, 127));
      for (auto& v : x) v = static_cast<int8_t>(rng.uniformInt(-127, 127));
      std::vector<int32_t> rowSum(static_cast<size_t>(outPad), 0);
      for (int o = 0; o < outPad; ++o) {
        for (int g = 0; g < groups; ++g) {
          for (int j = 0; j < kern::kQGroup; ++j) {
            rowSum[static_cast<size_t>(o)] +=
                w[(static_cast<size_t>(g) * outPad + o) * kern::kQGroup + j];
          }
        }
      }
      // Seed acc nonzero to pin the accumulate (+=) semantics.
      std::vector<int32_t> seed(static_cast<size_t>(outPad));
      for (auto& v : seed) v = static_cast<int32_t>(rng.uniformInt(-1000, 1000));
      std::vector<int32_t> accA = seed, accB = seed, accRef = seed;
      ref().qgemvI8(w.data(), rowSum.data(), x.data(), accA.data(), groups,
                    outPad);
      dut().qgemvI8(w.data(), rowSum.data(), x.data(), accB.data(), groups,
                    outPad);
      for (int o = 0; o < outPad; ++o) {
        int64_t dot = 0;
        for (int g = 0; g < groups; ++g) {
          for (int j = 0; j < kern::kQGroup; ++j) {
            const size_t wi =
                (static_cast<size_t>(g) * outPad + o) * kern::kQGroup + j;
            dot += static_cast<int64_t>(w[wi]) *
                   x[static_cast<size_t>(g) * kern::kQGroup + j];
          }
        }
        accRef[static_cast<size_t>(o)] += static_cast<int32_t>(dot);
      }
      EXPECT_EQ(accA, accRef) << "scalar vs reference, groups=" << groups;
      EXPECT_EQ(accB, accRef) << cpu::isaName(GetParam())
                              << " vs reference, groups=" << groups;
    }
  }
}

// --- backward kernels --------------------------------------------------------

/// Random values with -0, +0, denormals and tiny products mixed in: the
/// gradient chains must agree on every signed zero and subnormal.
std::vector<float> gradVec(size_t n, Rng& rng) {
  std::vector<float> v = randVec(n, rng);
  for (float& x : v) {
    switch (rng.uniformInt(0, 11)) {
      case 0: x = -0.0F; break;
      case 1: x = 0.0F; break;
      case 2: x *= 1e-39F; break;  // denormal
      case 3: x *= 1e-30F; break;  // products underflow to ±0
      default: break;
    }
  }
  return v;
}

/// Gradient accumulators as training leaves them: mostly values, some -0.
std::vector<float> accVec(size_t n, Rng& rng) {
  std::vector<float> v = randVec(n, rng);
  for (float& x : v) {
    if (rng.uniformInt(0, 3) == 0) x = -0.0F;
  }
  return v;
}

/// Zeroes whole rows of `row` floats (either sign): a ReLU-masked sample.
void zeroRows(std::vector<float>& v, size_t row, Rng& rng) {
  for (size_t r = 0; r + row <= v.size(); r += row) {
    if (rng.uniformInt(0, 2) != 0) continue;
    const float z = rng.uniformInt(0, 1) == 0 ? 0.0F : -0.0F;
    std::fill_n(v.begin() + static_cast<ptrdiff_t>(r), row, z);
  }
}

TEST_P(KernelIsaTest, Conv1dGradMatchesScalarAcrossTapCounts) {
  Rng rng(0x6AD1);
  // len 1-9, 20 and 21 with k = 1, 3, 5 give every valid-tap count n from
  // 1 to 9 plus 18-21, so every n % 4 head/tail split runs; inC crosses
  // each channel-vector width (8, 16) and its tails; outC each output-tile
  // remainder; 1, 5 and 8 samples.
  for (const int k : {1, 3, 5}) {
    for (const int len : {1, 2, 3, 4, 5, 6, 7, 8, 9, 20, 21}) {
      for (const auto& [inC, outC] : {std::pair{1, 1}, {7, 3}, {16, 5},
                                     {33, 4}, {96, 6}}) {
        for (const int n : {1, 5, 8}) {
          const size_t xn = static_cast<size_t>(n) * inC * len;
          const size_t dyn = static_cast<size_t>(n) * outC * len;
          const auto xt = gradVec(xn, rng);
          auto dy = gradVec(dyn, rng);
          zeroRows(dy, static_cast<size_t>(len), rng);
          const auto gw0 = accVec(static_cast<size_t>(outC) * inC * k, rng);
          const auto gb0 = accVec(static_cast<size_t>(outC), rng);
          auto gwa = gw0, gwb = gw0, gba = gb0, gbb = gb0;
          ref().conv1dGrad(xt.data(), dy.data(), gwa.data(), gba.data(), inC,
                           outC, k, len, n);
          dut().conv1dGrad(xt.data(), dy.data(), gwb.data(), gbb.data(), inC,
                           outC, k, len, n);
          EXPECT_TRUE(bitsEqual(gwa, gwb))
              << "dW inC=" << inC << " outC=" << outC << " k=" << k
              << " len=" << len << " n=" << n;
          EXPECT_TRUE(bitsEqual(gba, gbb))
              << "db outC=" << outC << " len=" << len << " n=" << n;
        }
      }
    }
  }
}

TEST_P(KernelIsaTest, Conv1dLaneDxMatchesScalarAcrossShapes) {
  Rng rng(0xD0C1);
  // The transposed conv tiles input channels x time steps like the forward
  // tiles outputs: sweep inC through every block remainder, len across the
  // time-tile widths and k through every border width.
  for (const int k : {1, 2, 3, 5}) {
    for (const auto& [inC, outC] : {std::pair{1, 1}, {3, 2}, {5, 7}, {32, 64},
                                   {96, 32}}) {
      for (const int len : {1, 2, 5, 7, 10, 12, 13, 21, 25}) {
        const auto w = randVec(static_cast<size_t>(outC) * inC * k, rng);
        const auto dy =
            gradVec(static_cast<size_t>(outC) * len * kern::kLane, rng);
        const size_t dxn = static_cast<size_t>(inC) * len * kern::kLane;
        std::vector<float> dxa(dxn, 7.0F), dxb(dxn, 7.0F);
        ref().conv1dLaneDx(w.data(), dy.data(), dxa.data(), inC, outC, k,
                           len);
        dut().conv1dLaneDx(w.data(), dy.data(), dxb.data(), inC, outC, k,
                           len);
        EXPECT_TRUE(bitsEqual(dxa, dxb))
            << "dX inC=" << inC << " outC=" << outC << " k=" << k
            << " len=" << len;
      }
    }
  }
}

TEST_P(KernelIsaTest, Conv1dLaneDxSkipsBorderTaps) {
  // w = +inf, dy = 1: every issued tap adds +inf, so the exact input
  // gradient is +inf everywhere. A kernel that zero-pads the border issues
  // fma(inf, 0, acc) = NaN there instead.
  for (const int k : {3, 5}) {
    for (const int len : {1, 2, 7, 12, 13, 25}) {
      const int inC = 5, outC = 2;
      const std::vector<float> w(static_cast<size_t>(outC) * inC * k,
                                 INFINITY);
      const std::vector<float> dy(static_cast<size_t>(outC) * len * kern::kLane,
                                  1.0F);
      std::vector<float> dx(static_cast<size_t>(inC) * len * kern::kLane);
      dut().conv1dLaneDx(w.data(), dy.data(), dx.data(), inC, outC, k, len);
      for (size_t i = 0; i < dx.size(); ++i) {
        ASSERT_TRUE(std::isinf(dx[i]) && dx[i] > 0)
            << "k=" << k << " len=" << len << " [" << i << "]: " << dx[i];
      }
    }
  }
}

TEST_P(KernelIsaTest, DenseGradAndDxMatchScalar) {
  Rng rng(0xDE6A);
  // inF crosses every vector width (8, 16) and tile span (32, 64) with
  // tails; outF every output-tile remainder; 1, 5 and 8 samples, some of
  // whose gradient rows are all zero.
  for (const int inF : {1, 3, 8, 9, 16, 17, 33, 64, 65, 320}) {
    for (const int outF : {1, 2, 3, 5, 7, 9, 128}) {
      for (const int n : {1, 5, 8}) {
        const auto w = gradVec(static_cast<size_t>(outF) * inF, rng);
        const auto x = gradVec(static_cast<size_t>(n) * inF, rng);
        auto dy = gradVec(static_cast<size_t>(n) * outF, rng);
        zeroRows(dy, static_cast<size_t>(outF), rng);
        const auto gw0 = accVec(static_cast<size_t>(outF) * inF, rng);
        const auto gb0 = accVec(static_cast<size_t>(outF), rng);
        auto gwa = gw0, gwb = gw0, gba = gb0, gbb = gb0;
        ref().denseGrad(x.data(), dy.data(), gwa.data(), gba.data(), n, inF,
                        outF);
        dut().denseGrad(x.data(), dy.data(), gwb.data(), gbb.data(), n, inF,
                        outF);
        EXPECT_TRUE(bitsEqual(gwa, gwb))
            << "dW inF=" << inF << " outF=" << outF << " n=" << n;
        EXPECT_TRUE(bitsEqual(gba, gbb))
            << "db outF=" << outF << " n=" << n;
        std::vector<float> dxa(x.size(), 7.0F), dxb(x.size(), 7.0F);
        ref().denseDx(w.data(), dy.data(), dxa.data(), n, inF, outF);
        dut().denseDx(w.data(), dy.data(), dxb.data(), n, inF, outF);
        EXPECT_TRUE(bitsEqual(dxa, dxb))
            << "dX inF=" << inF << " outF=" << outF << " n=" << n;
      }
    }
  }
}

TEST_P(KernelIsaTest, DenseZeroGradientSkipsKeepingNegativeZero) {
  // Every dy is ±0 and every x and w is +inf: a step that is skipped leaves
  // gw = gb = -0 and dx = +0, while one that is issued would make NaN
  // (0 * inf) or turn -0 into +0.
  for (const int inF : {5, 16, 320}) {
    for (const int outF : {3, 128}) {
      const int n = 8;
      std::vector<float> dy(static_cast<size_t>(n) * outF);
      for (size_t i = 0; i < dy.size(); ++i) dy[i] = i % 2 ? -0.0F : 0.0F;
      const std::vector<float> x(static_cast<size_t>(n) * inF, INFINITY);
      const std::vector<float> w(static_cast<size_t>(outF) * inF, INFINITY);
      std::vector<float> gw(w.size(), -0.0F), gb(static_cast<size_t>(outF),
                                                 -0.0F);
      std::vector<float> dx(x.size(), 7.0F);
      dut().denseGrad(x.data(), dy.data(), gw.data(), gb.data(), n, inF, outF);
      dut().denseDx(w.data(), dy.data(), dx.data(), n, inF, outF);
      for (const float v : gw) ASSERT_TRUE(v == 0.0F && std::signbit(v)) << v;
      for (const float v : gb) ASSERT_TRUE(v == 0.0F && std::signbit(v)) << v;
      for (const float v : dx) ASSERT_TRUE(v == 0.0F && !std::signbit(v)) << v;
    }
  }
}

TEST_P(KernelIsaTest, AdamStepMatchesScalar) {
  Rng rng(0xADA3);
  // Lengths stop short of and run past both vector widths (8 and 16), the
  // slab count runs 1..4 and the slabs sit `stride` floats apart, as in a
  // range of a longer flat slab. Every third element has a +0 or -0
  // gradient in every slab; the first step starts from zero moments, the
  // step at t = 10^6 from random ones (bc1 = bc2 = 1 there).
  for (const int n : {1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100}) {
    for (int slabs = 1; slabs <= 4; ++slabs) {
      for (const float t : {1.0F, 1e6F}) {
        const size_t stride = static_cast<size_t>(n) + 3;
        auto grad = randVec(stride * static_cast<size_t>(slabs), rng);
        for (int k = 0; k < slabs; ++k) {
          for (int i = 0; i < n; i += 3) {
            grad[static_cast<size_t>(k) * stride + static_cast<size_t>(i)] =
                (i + k) % 2 ? -0.0F : 0.0F;
          }
        }
        const auto size = static_cast<size_t>(n);
        std::vector<float> m(size, 0.0F);
        std::vector<float> v(size, 0.0F);
        if (t > 1.0F) {
          m = randVec(size, rng, 0.1F);
          v = randVec(size, rng, 0.1F);
          for (float& x : v) x *= x;
        }
        const kern::AdamCoef c{1e-3F,
                               0.9F,
                               0.999F,
                               1e-8F,
                               1.0F - std::pow(0.9F, t),
                               1.0F - std::pow(0.999F, t),
                               1.0F / 32.0F};
        auto valueA = randVec(size, rng);
        auto valueB = valueA;
        auto mA = m, mB = m, vA = v, vB = v;
        ref().adamStep(valueA.data(), mA.data(), vA.data(), grad.data(),
                       stride, slabs, n, c);
        dut().adamStep(valueB.data(), mB.data(), vB.data(), grad.data(),
                       stride, slabs, n, c);
        EXPECT_TRUE(bitsEqual(valueA, valueB))
            << "value n=" << n << " slabs=" << slabs << " t=" << t;
        EXPECT_TRUE(bitsEqual(mA, mB))
            << "m n=" << n << " slabs=" << slabs << " t=" << t;
        EXPECT_TRUE(bitsEqual(vA, vB))
            << "v n=" << n << " slabs=" << slabs << " t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelIsaTest,
                         testing::Values(cpu::Isa::kScalar, cpu::Isa::kAvx2,
                                         cpu::Isa::kAvx512),
                         [](const auto& info) {
                           return std::string(cpu::isaName(info.param));
                         });

// --- dispatched layer forward: batch {1, 8, 32} byte-identity ---------------

std::vector<float> forwardAll(const Sequential& net, std::span<const float> x,
                              int n, int batch) {
  Scratch s = net.makeScratch();
  const int outSize = net.outShape().size();
  const int inSize = net.inShape().size();
  std::vector<float> y(static_cast<size_t>(n) * outSize);
  for (int b = 0; b < n; b += batch) {
    const int take = std::min(batch, n - b);
    const auto out = net.forward(
        x.subspan(static_cast<size_t>(b) * inSize,
                  static_cast<size_t>(take) * inSize),
        take, s, Phase::kInfer);
    std::copy(out.begin(), out.end(),
              y.begin() + static_cast<size_t>(b) * outSize);
  }
  return y;
}

TEST(KernelBatch, ForwardBitIdenticalAcrossBatchSizes) {
  Rng rng(0xBA7C);
  // Conv+pool+dense pipelines over a channel/length sweep, fp32 and int8.
  const struct { int c, l, mid, out; } shapes[] = {
      {3, 7, 4, 5}, {16, 21, 8, 3}, {96, 21, 32, 17},
  };
  for (const auto& sh : shapes) {
    Sequential net({sh.c, sh.l});
    net.add(std::make_unique<Conv1d>(sh.c, sh.mid, 3, &rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool1d>(2));
    net.add(std::make_unique<Linear>(sh.mid * (sh.l / 2), sh.out, &rng));
    Sequential qnet = quantizeNet(net);

    const int n = 32;
    const auto x =
        randVec(static_cast<size_t>(n) * sh.c * sh.l, rng);
    for (const Sequential* m : {&net, &qnet}) {
      const auto y1 = forwardAll(*m, x, n, 1);
      const auto y8 = forwardAll(*m, x, n, 8);
      const auto y32 = forwardAll(*m, x, n, 32);
      EXPECT_TRUE(bitsEqual(y1, y8)) << "c=" << sh.c << " l=" << sh.l;
      EXPECT_TRUE(bitsEqual(y1, y32)) << "c=" << sh.c << " l=" << sh.l;
    }
  }
}

// --- pinned gradient bits ---------------------------------------------------

TEST(KernelGradients, StageNetGradientBitsArePinned) {
  // A default-shaped stage net with integer-derived weights, inputs and
  // output gradients: the FNV-1a of every parameter gradient after one
  // batched backward must equal the constant the historical scalar loops
  // computed in a Release build. kernels.h pins each op, so the same bits
  // come out of every ISA tier and every build type (-O2 included).
  const auto iv = [](uint32_t i, uint32_t salt) {
    const uint32_t h = (i + salt) * 2654435761U;
    return static_cast<float>(static_cast<int>(h >> 21) % 2001 - 1000) /
           997.0F;
  };
  Rng rng(1);
  Sequential net = makeCnn({96, 21}, 32, 64, 128, 7, 0.0F, rng);
  uint32_t salt = 1;
  for (Param* p : net.params()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value[i] = iv(static_cast<uint32_t>(i), salt) * 0.125F;
    }
    ++salt;
  }
  // 13 samples: one full lane group and a partial one.
  constexpr int kN = 13;
  std::vector<float> x(static_cast<size_t>(kN) * 96 * 21);
  std::vector<float> dOut(static_cast<size_t>(kN) * 7);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = iv(static_cast<uint32_t>(i), 101);
  }
  for (size_t i = 0; i < dOut.size(); ++i) {
    dOut[i] = iv(static_cast<uint32_t>(i), 202);
  }
  Scratch s = net.makeScratch();
  net.forward(x, kN, s, Phase::kTrain);
  ASSERT_EQ(net.numParams(), 57447U);
  std::vector<float> grads(net.numParams());
  net.backward(dOut, kN, s, grads);
  uint64_t h = 1469598103934665603ULL;
  for (const float g : grads) {
    uint32_t bits = 0;
    std::memcpy(&bits, &g, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  EXPECT_EQ(h, 0x3641b2dbd777378aULL)
      << "gradient FNV " << std::hex << h << " under "
      << cpu::isaName(cpu::active());
}

/// FNV-1a over the bytes of `floats`, continuing from `h`.
uint64_t fnvFloats(std::span<const float> floats, uint64_t h) {
  for (const float f : floats) {
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(KernelGradients, AdamUpdateBitsArePinned) {
  // Three params whose lengths leave tails for both vector widths (the
  // middle one spans two of Adam's 4096-element ranges), with
  // integer-derived values and gradients. Three steps from one slab, and
  // from three chunk slabs summed inside the update at jobs 1 and 3. The
  // FNV-1a of the values and the saved moments must equal what the
  // historical scalar Adam computed in a Release build — for the three
  // slabs, after a serial chunk merge into one.
  const auto iv = [](uint32_t i, uint32_t salt) {
    const uint32_t h = (i + salt) * 2654435761U;
    return static_cast<float>(static_cast<int>(h >> 21) % 2001 - 1000) /
           997.0F;
  };
  const size_t sizes[] = {37, 5000, 5};
  const size_t numParams = 37 + 5000 + 5;
  constexpr int kSteps = 3;
  constexpr int kSlabs = 3;
  const auto run = [&](int jobs) {
    std::vector<Param> params;
    for (const size_t n : sizes) params.emplace_back(n);
    std::vector<Param*> ptrs;
    uint32_t salt = 1;
    for (Param& p : params) {
      for (size_t i = 0; i < p.value.size(); ++i) {
        p.value[i] = iv(static_cast<uint32_t>(i), salt);
      }
      ptrs.push_back(&p);
      ++salt;
    }
    Adam adam(ptrs, {.lr = 0.01F});
    std::vector<float> slabs(kSlabs * numParams);
    par::ThreadPool pool(std::max(jobs, 1));
    for (int step = 0; step < kSteps; ++step) {
      for (size_t i = 0; i < slabs.size(); ++i) {
        slabs[i] = iv(static_cast<uint32_t>(i), 100 + 10 * step);
      }
      if (jobs == 0) {
        // One slab: the first one alone.
        adam.step(std::span(slabs).first(numParams), 1.0F / 8.0F, pool);
      } else {
        adam.step(slabs, 1.0F / 24.0F, pool);
      }
    }
    uint64_t h = 1469598103934665603ULL;
    for (const Param& p : params) h = fnvFloats(p.value, h);
    std::ostringstream os;
    adam.save(os);
    const std::string blob = std::move(os).str();
    for (const char ch : blob) {
      h ^= static_cast<uint8_t>(ch);
      h *= 1099511628211ULL;
    }
    return h;
  };
  EXPECT_EQ(run(0), 0xa503cd5e37c7ce22ULL)
      << "one slab, under " << cpu::isaName(cpu::active());
  EXPECT_EQ(run(1), 0x55531af4a3bb7d87ULL)
      << "3 slabs, jobs 1, under " << cpu::isaName(cpu::active());
  EXPECT_EQ(run(3), 0x55531af4a3bb7d87ULL)
      << "3 slabs, jobs 3, under " << cpu::isaName(cpu::active());
}

// --- CLI property: CATI_KERNEL matrix through the real cati-infer -----------

std::string toolPath(const std::string& tool) {
  return (stdfs::path(CATI_TOOL_DIR) / tool).string();
}

/// stdout of `env CMD`, asserting exit 0.
std::string capture(const std::string& cmd) {
  FILE* p = ::popen((cmd + " 2>/dev/null").c_str(), "r");
  EXPECT_NE(p, nullptr) << cmd;
  if (p == nullptr) return {};
  std::string out;
  char buf[4096];
  size_t got = 0;
  while ((got = ::fread(buf, 1, sizeof(buf), p)) > 0) out.append(buf, got);
  EXPECT_EQ(::pclose(p), 0) << cmd;
  return out;
}

TEST(KernelMatrixCli, ReportsByteIdenticalAcrossKernelsAndJobs) {
  const stdfs::path dir =
      stdfs::temp_directory_path() / "cati_kernel_matrix_test";
  stdfs::create_directories(dir);
  const std::string model = (dir / "model.bin").string();
  const std::string qmodel = (dir / "model.q.bin").string();
  const std::string img = (dir / "app.img").string();
  {
    Engine engine = testsupport::cachedMicroEngine();
    engine.saveFile(model);
    engine.quantize().saveFile(qmodel);
    const auto bins = testsupport::microBinaries();
    loader::Image image = loader::buildImage(bins.at(0));
    loader::strip(image);
    std::ofstream os(img, std::ios::binary);
    std::ostringstream buf;
    loader::write(image, buf);
    os << buf.str();
  }

  int legs = 0;
  std::string fp32Ref, quantRef;
  for (const char* isa : {"scalar", "avx2", "avx512"}) {
    if (!cpu::supported(*cpu::parseIsa(isa))) {
      std::fprintf(stderr, "note: CPU lacks %s, kernel-matrix leg skipped\n",
                   isa);
      continue;
    }
    const std::string env = std::string("CATI_KERNEL=") + isa + " ";
    const std::string fp32 =
        capture(env + toolPath("cati-infer") + " " + model + " " + img);
    ASSERT_FALSE(fp32.empty()) << isa;
    if (fp32Ref.empty()) fp32Ref = fp32;
    EXPECT_EQ(fp32, fp32Ref) << "fp32 report differs under " << isa;
    for (const int jobs : {1, 2}) {
      const std::string q = capture(env + toolPath("cati-infer") + " " +
                                    qmodel + " " + img + " --jobs " +
                                    std::to_string(jobs));
      ASSERT_FALSE(q.empty()) << isa << " jobs=" << jobs;
      if (quantRef.empty()) quantRef = q;
      EXPECT_EQ(q, quantRef)
          << "quantized report differs under " << isa << " jobs=" << jobs;
    }
    ++legs;
  }
  ASSERT_GE(legs, 1);  // scalar always runs
  stdfs::remove_all(dir);
}

TEST(KernelMatrixCli, UnknownKernelIsRejected) {
  // Capture stderr: the exit must come from the kernel resolution (a hard
  // process error before any analysis), not from the bogus file paths —
  // exit code 1 alone cannot tell those apart.
  const std::string cmd = "CATI_KERNEL=bogus " + toolPath("cati-infer") +
                          " /nonexistent /nonexistent 2>&1 >/dev/null";
  FILE* p = ::popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string err;
  char buf[4096];
  size_t got = 0;
  while ((got = ::fread(buf, 1, sizeof(buf), p)) > 0) err.append(buf, got);
  const int rc = ::pclose(p);
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 1);  // hard error, never a silent downgrade
  EXPECT_NE(err.find("CATI_KERNEL"), std::string::npos) << err;
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

}  // namespace
}  // namespace cati::nn
