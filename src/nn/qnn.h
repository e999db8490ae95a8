// Int8 quantized inference layers (DESIGN.md §11 "Kernel dispatch &
// quantization contract").
//
// Quantization scheme — chosen so results are EXACTLY reproducible across
// kernels, batch sizes and job counts:
//
//   weights      symmetric per-output-channel: sW[o] = absMax(w[o])/127
//                (1.0 when the row is all-zero), q = clamp(nearest-even
//                (w/sW), ±127). Quantized ONCE at Engine::quantize() time;
//                the int8 bytes are what the layer's saveExtra persists.
//   activations  symmetric per-SAMPLE dynamic: amax over the layer input of
//                one sample, invScale = 127/amax (0 when amax == 0),
//                sx = amax/127. Per-sample scales make every sample's
//                arithmetic independent of its neighbors, so batching and
//                work-splitting cannot change results.
//   accumulate   exact int32 (kern::qgemvI8) — evaluation order is
//                irrelevant, so scalar/AVX2/VNNI agree bit for bit.
//   dequantize   y[o] = bias[o] + (sx * sW[o]) * float(acc[o]), computed in
//                this shared code (never per-kernel), fp32 throughout.
//
// The only inexactness vs fp32 is the quantization itself; the accuracy
// cost is gated (≤ 0.5 pp) by tests/test_quant.cc and bench harness.
//
// Q layers are inference-only: forward outside Phase::kInfer and backward
// throw. They persist like any layer — Sequential::save writes their kind
// and saveExtra bytes (dims, scale, bias, the grouped int8 w) into the same
// CRC-verified engine container as fp32 layers; loadExtra range-checks every
// count and recomputes the row sums from w.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/nn.h"

namespace cati::nn {

/// One layer's quantized parameters. `w` is the kernel-grouped int8 layout
/// (kern::qgemvI8): k back-to-back blocks (one per conv tap; Linear has
/// k = 1), each [g][o][j] with g = i/kQGroup, o < qOutPad(outC),
/// j = i%kQGroup, zero-padded.
struct QWeights {
  std::vector<float> scale;     ///< [outC] per-output-channel weight scale
  std::vector<float> bias;      ///< [outC] fp32 bias (not quantized)
  std::vector<int32_t> rowSum;  ///< [k * qOutPad(outC)] row sums of w (derived)
  std::vector<int8_t> w;        ///< k blocks of qGroups(inF)*qOutPad(outC)*4
};

/// Bytes of one grouped weight block (one conv tap / the whole Linear).
size_t qBlockBytes(int inF, int outF);

/// Quantizes an fp32 weight matrix into the grouped layout. `w` is
/// [outF][inF][k] row-major (Linear passes k = 1).
QWeights quantizeWeights(std::span<const float> w, std::span<const float> b,
                         int inF, int outF, int k);

/// Int8 twin of Conv1d (same `same` zero padding). Inference-only.
class QConv1d final : public Layer {
 public:
  /// Quantizes a trained fp32 layer.
  explicit QConv1d(const Conv1d& src);
  /// An empty layer for Sequential::load to fill through loadExtra.
  QConv1d() = default;

  Shape outShape(Shape in) const override;
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s, std::span<float> grads) const override;
  std::string kind() const override { return "qconv1d"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  const QWeights& qweights() const { return q_; }

 private:
  int inC_ = 0;
  int outC_ = 0;
  int k_ = 0;
  QWeights q_;
};

/// Int8 twin of Linear. Inference-only.
class QLinear final : public Layer {
 public:
  explicit QLinear(const Linear& src);
  /// An empty layer for Sequential::load to fill through loadExtra.
  QLinear() = default;

  Shape outShape(Shape in) const override;
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s, std::span<float> grads) const override;
  std::string kind() const override { return "qlinear"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  const QWeights& qweights() const { return q_; }

 private:
  int in_ = 0;
  int out_ = 0;
  QWeights q_;
};

/// The quantized twin of a trained inference net: Conv1d/Linear become
/// QConv1d/QLinear, Dropout (inference identity) is dropped, ReLU and the
/// pooling layers are rebuilt as-is. Throws std::invalid_argument on a
/// layer kind it cannot convert.
Sequential quantizeNet(const Sequential& src);

}  // namespace cati::nn
