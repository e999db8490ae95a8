#include "nn/qnn.h"

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "common/serialize.h"
#include "nn/kernels.h"

namespace cati::nn {

namespace {

[[noreturn]] void inferenceOnly(const char* what) {
  throw std::logic_error(std::string(what) +
                         ": quantized layers are inference-only");
}

/// rowSum[kk * oPad + o]: the sum of output o's int8 weights in tap block
/// kk, over the whole zero-padded group row — exactly what kern::qgemvI8's
/// VNNI bias correction subtracts. A pure function of `w`, so it is derived
/// here at quantize and load time and never persisted.
std::vector<int32_t> rowSums(const std::vector<int8_t>& w, int inF, int outF,
                             int k) {
  const int oPad = kern::qOutPad(outF);
  const int groups = kern::qGroups(inF);
  std::vector<int32_t> sums(static_cast<size_t>(k) * oPad, 0);
  const int8_t* v = w.data();
  for (int kk = 0; kk < k; ++kk) {
    int32_t* blockSums = sums.data() + static_cast<size_t>(kk) * oPad;
    for (int g = 0; g < groups; ++g) {
      for (int o = 0; o < oPad; ++o, v += kern::kQGroup) {
        for (int j = 0; j < kern::kQGroup; ++j) blockSums[o] += v[j];
      }
    }
  }
  return sums;
}

void saveQWeights(std::ostream& os, const QWeights& q) {
  io::Writer w(os);
  w.vec(q.scale);
  w.vec(q.bias);
  w.vec(q.w);
}

/// Reads what saveQWeights wrote for an inF -> outF layer with k taps;
/// every count must match the dims.
QWeights loadQWeights(io::Reader& r, int inF, int outF, int k,
                      const std::string& what) {
  QWeights q;
  q.scale = r.vec<float>(static_cast<size_t>(outF), what);
  q.bias = r.vec<float>(static_cast<size_t>(outF), what);
  q.w = r.vec<int8_t>(static_cast<size_t>(k) * qBlockBytes(inF, outF), what);
  q.rowSum = rowSums(q.w, inF, outF, k);
  return q;
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
  q.w.assign(static_cast<size_t>(k) * blockBytes, 0);

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
    // Scatter the row into the k grouped blocks.
    for (int kk = 0; kk < k; ++kk) {
      int8_t* block = q.w.data() + static_cast<size_t>(kk) * blockBytes;
      for (int c = 0; c < inF; ++c) {
        const int g = c / kern::kQGroup;
        const int j = c % kern::kQGroup;
        block[(static_cast<size_t>(g) * oPad + o) * kern::kQGroup + j] =
            row[static_cast<size_t>(c) * k + kk];
      }
    }
  }
  q.rowSum = rowSums(q.w, inF, outF, k);
  return q;
}

// --- QConv1d ----------------------------------------------------------------

QConv1d::QConv1d(const Conv1d& src)
    : inC_(src.inC()), outC_(src.outC()), k_(src.kernel()) {
  const auto ps = static_cast<const Layer&>(src).params();
  q_ = quantizeWeights(ps[0]->value, ps[1]->value, inC_, outC_, k_);
}

Shape QConv1d::outShape(Shape in) const {
  if (in.c != inC_) {
    throw std::invalid_argument("QConv1d: channel mismatch");
  }
  return {outC_, in.l};
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
                       LayerScratch&, std::span<float>) const {
  inferenceOnly("QConv1d::backward");
}

void QConv1d::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(inC_);
  w.pod(outC_);
  w.pod(k_);
  saveQWeights(os, q_);
}

void QConv1d::loadExtra(std::istream& is) {
  io::Reader r(is);
  inC_ = r.dim("qconv1d");
  outC_ = r.dim("qconv1d");
  k_ = r.dim("qconv1d");
  q_ = loadQWeights(r, inC_, outC_, k_, "qconv1d");
}

// --- QLinear ----------------------------------------------------------------

QLinear::QLinear(const Linear& src) : in_(src.inF()), out_(src.outF()) {
  const auto ps = static_cast<const Layer&>(src).params();
  q_ = quantizeWeights(ps[0]->value, ps[1]->value, in_, out_, 1);
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
                       LayerScratch&, std::span<float>) const {
  inferenceOnly("QLinear::backward");
}

void QLinear::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(in_);
  w.pod(out_);
  saveQWeights(os, q_);
}

void QLinear::loadExtra(std::istream& is) {
  io::Reader r(is);
  in_ = r.dim("qlinear");
  out_ = r.dim("qlinear");
  q_ = loadQWeights(r, in_, out_, 1, "qlinear");
}

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
