#include "nn/qnn.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "nn/kernels.h"

namespace cati::nn {

namespace {

[[noreturn]] void inferenceOnly(const char* what) {
  throw std::logic_error(std::string(what) +
                         ": quantized layers are inference-only");
}

[[noreturn]] void noLayerIo(const char* what) {
  throw std::logic_error(std::string(what) +
                         ": quantized layers serialize via the CQNT "
                         "container, not Sequential::save");
}

void checkQWeights(const QWeights& q, int inF, int outF, int k,
                   const char* what) {
  const auto oPad = static_cast<size_t>(kern::qOutPad(outF));
  if (q.scale.size() != static_cast<size_t>(outF) ||
      q.bias.size() != static_cast<size_t>(outF) ||
      q.rowSum.size() != static_cast<size_t>(k) * oPad ||
      q.w.size() != static_cast<size_t>(k) * qBlockBytes(inF, outF)) {
    throw std::invalid_argument(std::string(what) +
                                ": quantized weight sizes do not match the "
                                "layer dimensions");
  }
}

}  // namespace

size_t qBlockBytes(int inF, int outF) {
  return static_cast<size_t>(kern::qGroups(inF)) * kern::qOutPad(outF) *
         kern::kQGroup;
}

QWeights quantizeWeights(std::span<const float> w, std::span<const float> b,
                         int inF, int outF, int k) {
  if (w.size() != static_cast<size_t>(outF) * inF * k ||
      b.size() != static_cast<size_t>(outF)) {
    throw std::invalid_argument("quantizeWeights: bad weight shape");
  }
  const int oPad = kern::qOutPad(outF);
  const size_t blockBytes = qBlockBytes(inF, outF);

  QWeights q;
  q.scale.resize(outF);
  q.bias.assign(b.begin(), b.end());
  q.rowSum.assign(static_cast<size_t>(k) * oPad, 0);
  q.owned.assign(static_cast<size_t>(k) * blockBytes, 0);

  // Per-output-channel symmetric scale over the row's inF*k taps.
  std::vector<int8_t> row(static_cast<size_t>(inF) * k);
  for (int o = 0; o < outF; ++o) {
    const float* wr = w.data() + static_cast<size_t>(o) * inF * k;
    float amax = 0.0F;
    for (int i = 0; i < inF * k; ++i) amax = std::max(amax, std::fabs(wr[i]));
    const float s = amax > 0.0F ? amax / 127.0F : 1.0F;
    q.scale[o] = s;
    const float inv = 1.0F / s;
    for (int i = 0; i < inF * k; ++i) {
      long v = std::lrintf(wr[i] * inv);
      if (v > 127) v = 127;
      if (v < -127) v = -127;
      row[static_cast<size_t>(i)] = static_cast<int8_t>(v);
    }
    // Scatter the row into the k grouped blocks and fold the row sums.
    for (int kk = 0; kk < k; ++kk) {
      int8_t* block = q.owned.data() + static_cast<size_t>(kk) * blockBytes;
      int32_t sum = 0;
      for (int c = 0; c < inF; ++c) {
        const int8_t v = row[static_cast<size_t>(c) * k + kk];
        const int g = c / kern::kQGroup;
        const int j = c % kern::kQGroup;
        block[(static_cast<size_t>(g) * oPad + o) * kern::kQGroup + j] = v;
        sum += v;
      }
      q.rowSum[static_cast<size_t>(kk) * oPad + o] = sum;
    }
  }
  q.w = q.owned;
  return q;
}

// --- QConv1d ----------------------------------------------------------------

QConv1d::QConv1d(const Conv1d& src)
    : inC_(src.inC()), outC_(src.outC()), k_(src.kernel()) {
  const auto ps = static_cast<const Layer&>(src).params();
  q_ = quantizeWeights(ps[0]->value, ps[1]->value, inC_, outC_, k_);
}

QConv1d::QConv1d(int inC, int outC, int kernel, QWeights q)
    : inC_(inC), outC_(outC), k_(kernel), q_(std::move(q)) {
  checkQWeights(q_, inC_, outC_, k_, "QConv1d");
}

void QConv1d::forward(std::span<const float> x, std::span<float> y, int n,
                      LayerScratch& s, Phase phase) const {
  if (phase != Phase::kInfer) inferenceOnly("QConv1d::forward");
  const int len = static_cast<int>(x.size()) / (n * inC_);
  const auto& K = kern::kernels();
  const int groups = kern::qGroups(inC_);
  const int oPad = kern::qOutPad(outC_);
  const int pad = k_ / 2;
  const size_t gRow = static_cast<size_t>(groups) * kern::kQGroup;
  const size_t blockBytes = qBlockBytes(inC_, outC_);

  s.qx.resize(static_cast<size_t>(inC_) * len);
  s.qacc.resize(static_cast<size_t>(oPad));
  for (int b = 0; b < n; ++b) {
    const float* xs = x.data() + static_cast<size_t>(b) * inC_ * len;
    float* ys = y.data() + static_cast<size_t>(b) * outC_ * len;
    const float amax = K.absMax(xs, inC_ * len);
    const float invScale = amax > 0.0F ? 127.0F / amax : 0.0F;
    const float sx = amax / 127.0F;
    K.quantizeI8(xs, s.qx.data(), inC_ * len, invScale);
    // Transpose to [t][c] rows, zero-padded to full groups, so each output
    // position is one contiguous qgemv per contributing tap.
    s.qt.assign(static_cast<size_t>(len) * gRow, 0);
    for (int c = 0; c < inC_; ++c) {
      for (int t = 0; t < len; ++t) {
        s.qt[static_cast<size_t>(t) * gRow + c] =
            s.qx[static_cast<size_t>(c) * len + t];
      }
    }
    for (int t = 0; t < len; ++t) {
      std::memset(s.qacc.data(), 0, static_cast<size_t>(oPad) * sizeof(int32_t));
      for (int kk = 0; kk < k_; ++kk) {
        const int tt = t + kk - pad;
        if (tt < 0 || tt >= len) continue;  // `same` zero padding
        K.qgemvI8(q_.w.data() + static_cast<size_t>(kk) * blockBytes,
                  q_.rowSum.data() + static_cast<size_t>(kk) * oPad,
                  s.qt.data() + static_cast<size_t>(tt) * gRow, s.qacc.data(),
                  groups, oPad);
      }
      for (int o = 0; o < outC_; ++o) {
        ys[static_cast<size_t>(o) * len + t] =
            q_.bias[static_cast<size_t>(o)] +
            (sx * q_.scale[static_cast<size_t>(o)]) *
                static_cast<float>(s.qacc[static_cast<size_t>(o)]);
      }
    }
  }
}

void QConv1d::backward(std::span<const float>, std::span<float>, int,
                       LayerScratch&) const {
  inferenceOnly("QConv1d::backward");
}

void QConv1d::saveExtra(std::ostream&) const { noLayerIo("QConv1d::saveExtra"); }
void QConv1d::loadExtra(std::istream&) { noLayerIo("QConv1d::loadExtra"); }

// --- QLinear ----------------------------------------------------------------

QLinear::QLinear(const Linear& src) : in_(src.inF()), out_(src.outF()) {
  const auto ps = static_cast<const Layer&>(src).params();
  q_ = quantizeWeights(ps[0]->value, ps[1]->value, in_, out_, 1);
}

QLinear::QLinear(int inF, int outF, QWeights q)
    : in_(inF), out_(outF), q_(std::move(q)) {
  checkQWeights(q_, in_, out_, 1, "QLinear");
}

Shape QLinear::outShape(Shape in) const {
  if (in.size() != in_) {
    throw std::invalid_argument("QLinear: input shape mismatch");
  }
  return {out_, 1};
}

void QLinear::forward(std::span<const float> x, std::span<float> y, int n,
                      LayerScratch& s, Phase phase) const {
  if (phase != Phase::kInfer) inferenceOnly("QLinear::forward");
  const auto& K = kern::kernels();
  const int groups = kern::qGroups(in_);
  const int oPad = kern::qOutPad(out_);
  const size_t gRow = static_cast<size_t>(groups) * kern::kQGroup;

  s.qacc.resize(static_cast<size_t>(oPad));
  for (int b = 0; b < n; ++b) {
    const float* xs = x.data() + static_cast<size_t>(b) * in_;
    float* ys = y.data() + static_cast<size_t>(b) * out_;
    const float amax = K.absMax(xs, in_);
    const float invScale = amax > 0.0F ? 127.0F / amax : 0.0F;
    const float sx = amax / 127.0F;
    s.qx.assign(gRow, 0);  // zero-pad the final partial group
    K.quantizeI8(xs, s.qx.data(), in_, invScale);
    std::memset(s.qacc.data(), 0, static_cast<size_t>(oPad) * sizeof(int32_t));
    K.qgemvI8(q_.w.data(), q_.rowSum.data(), s.qx.data(), s.qacc.data(),
              groups, oPad);
    for (int o = 0; o < out_; ++o) {
      ys[o] = q_.bias[static_cast<size_t>(o)] +
              (sx * q_.scale[static_cast<size_t>(o)]) *
                  static_cast<float>(s.qacc[static_cast<size_t>(o)]);
    }
  }
}

void QLinear::backward(std::span<const float>, std::span<float>, int,
                       LayerScratch&) const {
  inferenceOnly("QLinear::backward");
}

void QLinear::saveExtra(std::ostream&) const { noLayerIo("QLinear::saveExtra"); }
void QLinear::loadExtra(std::istream&) { noLayerIo("QLinear::loadExtra"); }

// --- quantizeNet ------------------------------------------------------------

Sequential quantizeNet(const Sequential& src) {
  Sequential out(src.inShape());
  for (size_t i = 0; i < src.numLayers(); ++i) {
    const Layer& l = src.layer(i);
    if (const auto* conv = dynamic_cast<const Conv1d*>(&l)) {
      out.add(std::make_unique<QConv1d>(*conv));
    } else if (const auto* lin = dynamic_cast<const Linear*>(&l)) {
      out.add(std::make_unique<QLinear>(*lin));
    } else if (dynamic_cast<const ReLU*>(&l) != nullptr) {
      out.add(std::make_unique<ReLU>());
    } else if (const auto* mp = dynamic_cast<const MaxPool1d*>(&l)) {
      out.add(std::make_unique<MaxPool1d>(mp->kernel()));
    } else if (dynamic_cast<const GlobalMaxPool*>(&l) != nullptr) {
      out.add(std::make_unique<GlobalMaxPool>());
    } else if (dynamic_cast<const Dropout*>(&l) != nullptr) {
      continue;  // identity at inference; the quantized net has no kTrain
    } else {
      throw std::invalid_argument("quantizeNet: cannot quantize layer kind '" +
                                  l.kind() + "'");
    }
  }
  return out;
}

}  // namespace cati::nn
