#include "nn/nn.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/numeric.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "nn/kernels.h"
#include "nn/qnn.h"

// Determinism note (DESIGN.md §7): every batched kernel below iterates
// samples in ascending order and keeps the per-element accumulation order of
// the historical sample-at-a-time kernels — for a conv/linear output that is
// `bias, then (channel, tap) in ascending lexicographic order`, for gradient
// accumulators it is ascending sample order. Changing any of these orders
// changes trained-model bits and fails tests/golden/.

namespace cati::nn {

static_assert(kern::kLane == kBatchLane,
              "kernel lane width must match the batch-transposed pack");

void Layer::saveExtra(std::ostream&) const {}
void Layer::loadExtra(std::istream&) {}

namespace {

void checkSize(std::span<const float> s, size_t expected, const char* what) {
  if (s.size() != expected) {
    throw std::invalid_argument(std::string(what) + ": bad span size " +
                                std::to_string(s.size()) + " != " +
                                std::to_string(expected));
  }
}

void checkBatch(int n, const char* what) {
  if (n <= 0) {
    throw std::invalid_argument(std::string(what) + ": bad batch size " +
                                std::to_string(n));
  }
}

float heInit(Rng& rng, int fanIn) {
  return rng.normal(0.0F, std::sqrt(2.0F / static_cast<float>(fanIn)));
}

/// out[t][c] = x[c][t] for one [rows x cols] sample plane. A permutation.
void transposePlane(const float* x, int rows, int cols, float* out) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      out[static_cast<size_t>(c) * rows + r] =
          x[static_cast<size_t>(r) * cols + c];
    }
  }
}

/// dst[j * dstStride + i] = src[i * srcStride + j] for i, j < kBatchLane:
/// one kBatchLane x kBatchLane block of floats transposed in registers, a
/// pure permutation. Element by element, every float of a lane pack lands
/// on a cache line of its own.
void transposeBlock(const float* src, size_t srcStride, float* dst,
                    size_t dstStride) {
  static_assert(kBatchLane == 8, "the block is 8 x 8");
  // As in MaxPool1d::inferLanes: a vector type, loaded and stored by
  // memcpy and never passed by value.
  using V = float __attribute__((vector_size(sizeof(float) * kBatchLane)));
  V r[kBatchLane];
  // Unrolled, so r lives in registers rather than on the stack.
#pragma GCC unroll 8
  for (int i = 0; i < kBatchLane; ++i) {
    std::memcpy(&r[i], src + i * srcStride, sizeof r[i]);
  }
  // Interleave pairs of rows, then pairs of pairs, then the 128-bit
  // halves: lo and hi end up as columns j and j + 4.
  V t[kBatchLane];
  for (int i = 0; i < kBatchLane; i += 2) {
    t[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 1, 9, 4, 12, 5, 13);
    t[i + 1] =
        __builtin_shufflevector(r[i], r[i + 1], 2, 10, 3, 11, 6, 14, 7, 15);
  }
  V u[kBatchLane];
  for (int i = 0; i < kBatchLane; i += 4) {
    for (int h = 0; h < 2; ++h) {
      u[i + 2 * h] = __builtin_shufflevector(t[i + h], t[i + h + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
      u[i + 2 * h + 1] = __builtin_shufflevector(t[i + h], t[i + h + 2], 2, 3,
                                                 10, 11, 6, 7, 14, 15);
    }
  }
  for (int j = 0; j < kBatchLane / 2; ++j) {
    const V lo =
        __builtin_shufflevector(u[j], u[j + 4], 0, 1, 2, 3, 8, 9, 10, 11);
    const V hi =
        __builtin_shufflevector(u[j], u[j + 4], 4, 5, 6, 7, 12, 13, 14, 15);
    std::memcpy(dst + j * dstStride, &lo, sizeof lo);
    std::memcpy(dst + (j + 4) * dstStride, &hi, sizeof hi);
  }
}

}  // namespace

void packLanes(const float* x, size_t plane, int m, float* pack) {
  size_t i = 0;
  if (m == kBatchLane) {
    for (; i + kBatchLane <= plane; i += kBatchLane) {
      transposeBlock(x + i, plane, pack + i * kBatchLane, kBatchLane);
    }
  } else {
    std::fill_n(pack, plane * kBatchLane, 0.0F);
  }
  for (; i < plane; ++i) {
    float* dst = pack + i * kBatchLane;
    for (int b = 0; b < m; ++b) dst[b] = x[static_cast<size_t>(b) * plane + i];
  }
}

void unpackLanes(const float* pack, size_t plane, int m, float* y) {
  size_t i = 0;
  if (m == kBatchLane) {
    for (; i + kBatchLane <= plane; i += kBatchLane) {
      transposeBlock(pack + i * kBatchLane, kBatchLane, y + i, plane);
    }
  }
  for (; i < plane; ++i) {
    const float* src = pack + i * kBatchLane;
    for (int b = 0; b < m; ++b) y[static_cast<size_t>(b) * plane + i] = src[b];
  }
}

namespace {

/// The one forward path of Conv1d and Linear: n rows of shape `in` through
/// l's lane form, kBatchLane at a time, each group packed into s.laneIn (a
/// partial last group zero-padded) and unpacked from the output. Lanes
/// never mix, so batch size never changes a bit of the output (DESIGN.md
/// §7).
void forwardInLanes(const Layer& l, Shape in, const float* x, float* y, int n,
                    LayerScratch& s) {
  const auto inPlane = static_cast<size_t>(in.size());
  const auto outPlane = static_cast<size_t>(l.outShape(in).size());
  s.laneIn.resize(inPlane * kBatchLane);
  s.laneOut.resize(outPlane * kBatchLane);
  for (int b0 = 0; b0 < n; b0 += kBatchLane) {
    const int m = std::min(kBatchLane, n - b0);
    packLanes(x + static_cast<size_t>(b0) * inPlane, inPlane, m,
              s.laneIn.data());
    unpackLanes(l.inferLanes(in, s.laneIn.data(), s.laneOut.data(), s),
                outPlane, m, y + static_cast<size_t>(b0) * outPlane);
  }
}

}  // namespace

// --- Conv1d ------------------------------------------------------------------

Conv1d::Conv1d(int inC, int outC, int kernel, Rng* initRng)
    : inC_(inC),
      outC_(outC),
      k_(kernel),
      w_(static_cast<size_t>(outC) * inC * kernel),
      b_(static_cast<size_t>(outC)) {
  if (initRng != nullptr) {
    for (float& x : w_.value) x = heInit(*initRng, inC * kernel);
  }
}

Shape Conv1d::outShape(Shape in) const {
  if (in.c != inC_) throw std::invalid_argument("Conv1d: channel mismatch");
  return {outC_, in.l};
}

void Conv1d::forward(std::span<const float> x, std::span<float> y, int n,
                     LayerScratch& s, Phase phase) const {
  checkBatch(n, "Conv1d::forward");
  const int len =
      static_cast<int>(x.size() / (static_cast<size_t>(n) * inC_));
  checkSize(x, static_cast<size_t>(n) * inC_ * len, "Conv1d::forward x");
  checkSize(y, static_cast<size_t>(n) * outC_ * len, "Conv1d::forward y");

  // Per output element the accumulation order is fixed: bias, then taps in
  // ascending (c, kk) order, one fused multiply-add per tap (kernels.h),
  // over the input packed [c][t][lane] so one vector op covers a lane group.
  forwardInLanes(*this, {inC_, len}, x.data(), y.data(), n, s);
  // The weight gradient runs along input channels, so backward gets each
  // sample's input time-major ([t][c]).
  if (phase == Phase::kInfer) return;
  s.cache.resize(x.size());
  for (int b = 0; b < n; ++b) {
    const size_t off = static_cast<size_t>(b) * inC_ * len;
    transposePlane(x.data() + off, inC_, len, s.cache.data() + off);
  }
}

void Conv1d::forwardLanes(const float* x, float* y, int len, int seg) const {
  kern::kernels().conv1dLane(w_.value.data(), b_.value.data(), x, y, inC_,
                             outC_, k_, len, seg);
}

const float* Conv1d::inferLanes(Shape in, const float* x, float* y,
                                LayerScratch&) const {
  forwardLanes(x, y, in.l, in.l);
  return y;
}

void Conv1d::backward(std::span<const float> dy, std::span<float> dx, int n,
                      LayerScratch& s, std::span<float> grads) const {
  checkBatch(n, "Conv1d::backward");
  const int len =
      static_cast<int>(dy.size() / (static_cast<size_t>(n) * outC_));
  const size_t inPlane = static_cast<size_t>(inC_) * len;
  const size_t outPlane = static_cast<size_t>(outC_) * len;
  checkSize(dy, static_cast<size_t>(n) * outPlane, "Conv1d::backward dy");
  if (!dx.empty()) {
    checkSize(dx, static_cast<size_t>(n) * inPlane, "Conv1d::backward dx");
  }
  checkSize(s.cache, static_cast<size_t>(n) * inPlane,
            "Conv1d::backward cache");
  checkSize(grads, w_.value.size() + b_.value.size(),
            "Conv1d::backward grads");
  const kern::KernelSet& ks = kern::kernels();
  ks.conv1dGrad(s.cache.data(), dy.data(), grads.data(),
                grads.data() + w_.value.size(), inC_, outC_, k_, len, n);
  if (dx.empty()) return;
  // The input gradient is the transposed conv, on the forward's lane path.
  s.laneOut.resize(outPlane * kBatchLane);
  s.laneIn.resize(inPlane * kBatchLane);
  for (int b0 = 0; b0 < n; b0 += kBatchLane) {
    const int m = std::min(kBatchLane, n - b0);
    packLanes(dy.data() + static_cast<size_t>(b0) * outPlane, outPlane, m,
              s.laneOut.data());
    ks.conv1dLaneDx(w_.value.data(), s.laneOut.data(), s.laneIn.data(), inC_,
                    outC_, k_, len);
    unpackLanes(s.laneIn.data(), inPlane, m,
                dx.data() + static_cast<size_t>(b0) * inPlane);
  }
}

void Conv1d::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(inC_);
  w.pod(outC_);
  w.pod(k_);
  w.vec(w_.value);
  w.vec(b_.value);
}

void Conv1d::loadExtra(std::istream& is) {
  io::Reader r(is);
  inC_ = r.dim("conv1d");
  outC_ = r.dim("conv1d");
  k_ = r.dim("conv1d");
  w_.value = r.vec<float>(static_cast<size_t>(outC_) * inC_ * k_, "conv1d");
  b_.value = r.vec<float>(static_cast<size_t>(outC_), "conv1d");
}

// --- ReLU --------------------------------------------------------------------

void ReLU::forward(std::span<const float> x, std::span<float> y, int n,
                   LayerScratch& s, Phase phase) const {
  checkBatch(n, "ReLU::forward");
  checkSize(y, x.size(), "ReLU::forward");
  if (phase == Phase::kInfer) {
    for (size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
    return;
  }
  s.mask.resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const bool pos = x[i] > 0.0F;
    s.mask[i] = pos ? 1 : 0;
    y[i] = pos ? x[i] : 0.0F;
  }
}

const float* ReLU::inferLanes(Shape in, const float* x, float* y,
                              LayerScratch&) const {
  const size_t n = static_cast<size_t>(in.size()) * kBatchLane;
  for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0F ? x[i] : 0.0F;
  return y;
}

void ReLU::backward(std::span<const float> dy, std::span<float> dx, int n,
                    LayerScratch& s, std::span<float>) const {
  checkBatch(n, "ReLU::backward");
  if (dx.empty()) return;  // input gradient not wanted
  checkSize(dy, s.mask.size(), "ReLU::backward");
  for (size_t i = 0; i < dy.size(); ++i) {
    dx[i] = s.mask[i] != 0 ? dy[i] : 0.0F;
  }
}

// --- MaxPool1d ----------------------------------------------------------------

void MaxPool1d::forward(std::span<const float> x, std::span<float> y, int n,
                        LayerScratch& s, Phase phase) const {
  checkBatch(n, "MaxPool1d::forward");
  const int outL = in_.l / k_;
  const size_t inSize = static_cast<size_t>(in_.c) * in_.l;
  const size_t outSize = static_cast<size_t>(in_.c) * outL;
  checkSize(x, static_cast<size_t>(n) * inSize, "MaxPool1d::forward x");
  checkSize(y, static_cast<size_t>(n) * outSize, "MaxPool1d::forward y");
  const bool track = phase != Phase::kInfer;
  if (track) s.argmax.assign(static_cast<size_t>(n) * outSize, 0);
  // Branch-free: the running max and its index move together by select
  // under the same strict `>` as a compare-and-branch, so NaN never wins,
  // -0 does not replace +0 (or the reverse), and the first max wins ties.
  const int rows = n * in_.c;
  for (int r = 0; r < rows; ++r) {
    const float* xRow = x.data() + static_cast<size_t>(r) * in_.l;
    float* yRow = y.data() + static_cast<size_t>(r) * outL;
    int32_t* aRow =
        track ? s.argmax.data() + static_cast<size_t>(r) * outL : nullptr;
    for (int t = 0; t < outL; ++t) {
      const int base = t * k_;
      float best = xRow[base];
      int32_t arg = base;
      for (int j = 1; j < k_; ++j) {
        const float v = xRow[base + j];
        const bool gt = v > best;
        best = gt ? v : best;
        arg = gt ? base + j : arg;
      }
      yRow[t] = best;
      if (track) aRow[t] = arg;
    }
  }
}

const float* MaxPool1d::inferLanes(Shape in, const float* x, float* y,
                                   LayerScratch&) const {
  // forward()'s select on a lane group's 8 lanes at once. GCC 12 leaves a
  // plain loop over the lanes scalar; a vector type, loaded and stored by
  // memcpy (no alignment, no aliasing) and never passed by value (that
  // changes the ABI below AVX), makes it one vmaxps.
  using Lanes = float __attribute__((vector_size(sizeof(float) * kBatchLane)));
  const int outL = in.l / k_;
  for (int c = 0; c < in.c; ++c) {
    for (int t = 0; t < outL; ++t) {
      const float* xs =
          x + (static_cast<size_t>(c) * in.l + t * k_) * kBatchLane;
      Lanes best;
      std::memcpy(&best, xs, sizeof best);
      for (int j = 1; j < k_; ++j) {
        Lanes v;
        std::memcpy(&v, xs + static_cast<size_t>(j) * kBatchLane, sizeof v);
        best = v > best ? v : best;
      }
      std::memcpy(y + (static_cast<size_t>(c) * outL + t) * kBatchLane, &best,
                  sizeof best);
    }
  }
  return y;
}

void MaxPool1d::backward(std::span<const float> dy, std::span<float> dx,
                         int n, LayerScratch& s, std::span<float>) const {
  checkBatch(n, "MaxPool1d::backward");
  if (dx.empty()) return;  // input gradient not wanted
  const int outL = in_.l / k_;
  const size_t inSize = static_cast<size_t>(in_.c) * in_.l;
  const size_t outSize = static_cast<size_t>(in_.c) * outL;
  checkSize(dy, static_cast<size_t>(n) * outSize, "MaxPool1d::backward dy");
  checkSize(dx, static_cast<size_t>(n) * inSize, "MaxPool1d::backward dx");
  std::fill(dx.begin(), dx.end(), 0.0F);
  for (int b = 0; b < n; ++b) {
    const float* dys = dy.data() + static_cast<size_t>(b) * outSize;
    float* dxs = dx.data() + static_cast<size_t>(b) * inSize;
    const int32_t* as = s.argmax.data() + static_cast<size_t>(b) * outSize;
    for (int c = 0; c < in_.c; ++c) {
      const float* dyRow = dys + static_cast<size_t>(c) * outL;
      float* dxRow = dxs + static_cast<size_t>(c) * in_.l;
      const int32_t* aRow = as + static_cast<size_t>(c) * outL;
      for (int t = 0; t < outL; ++t) dxRow[aRow[t]] += dyRow[t];
    }
  }
}

void MaxPool1d::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(k_);
}

void MaxPool1d::loadExtra(std::istream& is) {
  io::Reader r(is);
  k_ = r.dim("maxpool1d");
}

// --- Linear -------------------------------------------------------------------

Linear::Linear(int in, int out, Rng* initRng)
    : in_(in),
      out_(out),
      w_(static_cast<size_t>(out) * in),
      b_(static_cast<size_t>(out)) {
  if (initRng != nullptr) {
    for (float& x : w_.value) x = heInit(*initRng, in);
  }
}

Shape Linear::outShape(Shape in) const {
  if (in.size() != in_) throw std::invalid_argument("Linear: size mismatch");
  return {out_, 1};
}

void Linear::forward(std::span<const float> x, std::span<float> y, int n,
                     LayerScratch& s, Phase phase) const {
  checkBatch(n, "Linear::forward");
  checkSize(x, static_cast<size_t>(n) * in_, "Linear::forward x");
  checkSize(y, static_cast<size_t>(n) * out_, "Linear::forward y");
  if (phase != Phase::kInfer) s.cache.assign(x.begin(), x.end());

  // Lane groups through the dispatched dense kernel (kernels.h:
  // mul-then-add head, fused inF%4 tail).
  forwardInLanes(*this, {in_, 1}, x.data(), y.data(), n, s);
}

const float* Linear::inferLanes(Shape, const float* x, float* y,
                                LayerScratch&) const {
  kern::kernels().denseLane(w_.value.data(), b_.value.data(), x, y, in_,
                            out_);
  return y;
}

void Linear::backward(std::span<const float> dy, std::span<float> dx, int n,
                      LayerScratch& s, std::span<float> grads) const {
  checkBatch(n, "Linear::backward");
  checkSize(dy, static_cast<size_t>(n) * out_, "Linear::backward dy");
  checkSize(s.cache, static_cast<size_t>(n) * in_, "Linear::backward cache");
  checkSize(grads, w_.value.size() + b_.value.size(),
            "Linear::backward grads");
  // Sample-major rows: each weight's chain runs across samples, so the
  // kernels vectorize along a weight row instead of across lanes.
  const kern::KernelSet& ks = kern::kernels();
  ks.denseGrad(s.cache.data(), dy.data(), grads.data(),
               grads.data() + w_.value.size(), n, in_, out_);
  if (dx.empty()) return;
  checkSize(dx, static_cast<size_t>(n) * in_, "Linear::backward dx");
  ks.denseDx(w_.value.data(), dy.data(), dx.data(), n, in_, out_);
}

void Linear::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(in_);
  w.pod(out_);
  w.vec(w_.value);
  w.vec(b_.value);
}

void Linear::loadExtra(std::istream& is) {
  io::Reader r(is);
  in_ = r.dim("linear");
  out_ = r.dim("linear");
  w_.value = r.vec<float>(static_cast<size_t>(out_) * in_, "linear");
  b_.value = r.vec<float>(static_cast<size_t>(out_), "linear");
}

// --- Dropout ------------------------------------------------------------------

void Dropout::forward(std::span<const float> x, std::span<float> y, int n,
                      LayerScratch& s, Phase phase) const {
  checkBatch(n, "Dropout::forward");
  checkSize(y, x.size(), "Dropout::forward");
  if (phase != Phase::kTrain || p_ <= 0.0F) {
    std::copy(x.begin(), x.end(), y.begin());
    if (phase == Phase::kEval) s.cache.assign(x.size(), 1.0F);
    return;
  }
  if (!s.rngSeeded) {
    // First use of this scratch stream: start at the layer's construction
    // seed, so the unseeded single-thread path replays the historical
    // member-RNG sequence. Data-parallel training overrides this via
    // Scratch::reseed before every chunk.
    s.rng = Rng(seed_);
    s.rngSeeded = true;
  }
  s.cache.resize(x.size());
  const float keep = 1.0F - p_;
  // Draws advance element-major, i.e. ascending sample order: batch=B pulls
  // the same stream prefix as B sequential batch=1 calls.
  for (size_t i = 0; i < x.size(); ++i) {
    s.cache[i] = s.rng.chance(p_) ? 0.0F : 1.0F / keep;
    y[i] = x[i] * s.cache[i];
  }
}

const float* Dropout::inferLanes(Shape, const float* x, float*,
                                 LayerScratch&) const {
  return x;
}

void Dropout::backward(std::span<const float> dy, std::span<float> dx, int n,
                       LayerScratch& s, std::span<float>) const {
  checkBatch(n, "Dropout::backward");
  if (dx.empty()) return;  // input gradient not wanted
  checkSize(dy, s.cache.size(), "Dropout::backward");
  for (size_t i = 0; i < dy.size(); ++i) dx[i] = dy[i] * s.cache[i];
}

void Dropout::saveExtra(std::ostream& os) const {
  io::Writer w(os);
  w.pod(p_);
}

void Dropout::loadExtra(std::istream& is) {
  io::Reader r(is);
  p_ = r.pod<float>();
  if (!(p_ >= 0.0F && p_ < 1.0F)) {  // NaN fails too
    throw CorruptError("dropout: rate " + std::to_string(p_) +
                       " outside [0, 1)");
  }
}

// --- Scratch -------------------------------------------------------------------

void Scratch::reseed(uint64_t seed) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].rng = Rng(splitSeed(seed, i));
    layers_[i].rngSeeded = true;
  }
}

// --- Sequential ----------------------------------------------------------------

void Sequential::add(std::unique_ptr<Layer> layer) {
  const Shape in = layers_.empty() ? inShape_ : shapes_.back();
  layer->setInShape(in);
  const Shape out = layer->outShape(in);
  size_t paramsEnd = gradOff_.back();
  for (const Param* p : static_cast<const Layer&>(*layer).params()) {
    paramsEnd += p->value.size();
  }
  shapes_.push_back(out);
  gradOff_.push_back(paramsEnd);
  layers_.push_back(std::move(layer));
}

Shape Sequential::outShape() const {
  return shapes_.empty() ? inShape_ : shapes_.back();
}

Scratch Sequential::makeScratch() const {
  Scratch s;
  s.layers_.resize(layers_.size());
  s.acts_.resize(layers_.size());
  return s;
}

std::span<const float> Sequential::forward(std::span<const float> x, int n,
                                           Scratch& s, Phase phase) const {
  return forwardFrom(0, x, n, s, phase);
}

void Sequential::checkFrom(size_t first, std::span<const float> x, int n,
                           const Scratch& s) const {
  checkBatch(n, "Sequential::forward");
  if (first > layers_.size()) {
    throw std::invalid_argument("Sequential::forwardFrom: no such layer");
  }
  checkSize(x, static_cast<size_t>(n) * layerInShape(first).size(),
            "Sequential::forward x");
  if (s.layers_.size() != layers_.size()) {
    throw std::invalid_argument(
        "Sequential::forward: scratch does not match this net "
        "(use makeScratch)");
  }
}

std::span<const float> Sequential::forwardFrom(size_t first,
                                               std::span<const float> x, int n,
                                               Scratch& s, Phase phase) const {
  checkFrom(first, x, n, s);
  std::span<const float> cur = x;
  for (size_t i = first; i < layers_.size(); ++i) {
    std::vector<float>& act = s.acts_[i];
    act.resize(static_cast<size_t>(n) * shapes_[i].size());
    layers_[i]->forward(cur, act, n, s.layers_[i], phase);
    cur = act;
  }
  return cur;
}

std::span<const float> Sequential::forwardLanes(size_t first,
                                                std::span<const float> x,
                                                Scratch& s) const {
  checkFrom(first, x, kBatchLane, s);  // a lane group: 8 samples' floats
  const float* cur = x.data();
  for (size_t i = first; i < layers_.size(); ++i) {
    std::vector<float>& act = s.acts_[i];
    act.resize(static_cast<size_t>(kBatchLane) * shapes_[i].size());
    cur = layers_[i]->inferLanes(layerInShape(i), cur, act.data(),
                                 s.layers_[i]);
  }
  return {cur, static_cast<size_t>(kBatchLane) * outShape().size()};
}

void Sequential::backward(std::span<const float> dOut, int n, Scratch& s,
                          std::span<float> grads) const {
  checkBatch(n, "Sequential::backward");
  checkSize(dOut, static_cast<size_t>(n) * outShape().size(),
            "Sequential::backward dOut");
  checkSize(grads, numParams(), "Sequential::backward grads");
  if (s.layers_.size() != layers_.size()) {
    throw std::invalid_argument(
        "Sequential::backward: scratch does not match this net "
        "(use makeScratch)");
  }
  const auto layerGrads = [&](size_t i) {
    return grads.subspan(gradOff_[i], gradOff_[i + 1] - gradOff_[i]);
  };
  std::vector<float>* cur = &s.dPing_;
  std::vector<float>* next = &s.dPong_;
  cur->assign(dOut.begin(), dOut.end());
  // Nothing reads the gradient of the net's input (the embedding is not
  // fine-tuned), so the first layer gets an empty dx and skips it.
  for (size_t i = layers_.size(); i-- > 1;) {
    next->resize(static_cast<size_t>(n) * shapes_[i - 1].size());
    layers_[i]->backward(*cur, *next, n, s.layers_[i], layerGrads(i));
    std::swap(cur, next);
  }
  if (!layers_.empty()) {
    layers_[0]->backward(*cur, {}, n, s.layers_[0], layerGrads(0));
  }
}

void Sequential::backward(std::span<const float> dOut, int n,
                          Scratch& s) const {
  if (s.grads_.empty()) s.grads_.assign(numParams(), 0.0F);
  backward(dOut, n, s, s.grads_);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (const auto& l : layers_) {
    for (Param* p : l->params()) out.push_back(p);
  }
  return out;
}

std::vector<const Param*> Sequential::params() const {
  std::vector<const Param*> out;
  for (const auto& l : layers_) {
    for (const Param* p : static_cast<const Layer&>(*l).params()) {
      out.push_back(p);
    }
  }
  return out;
}

void Sequential::save(std::ostream& os) const {
  io::Writer w(os);
  io::writeHeader(w, 0x434e4e31 /*"CNN1"*/, 1);
  w.pod(inShape_.c);
  w.pod(inShape_.l);
  w.pod<uint64_t>(layers_.size());
  for (const auto& l : layers_) {
    w.str(l->kind());
    l->saveExtra(os);
  }
}

Sequential Sequential::load(std::istream& is) {
  io::Reader r(is);
  io::expectHeader(r, 0x434e4e31, 1, "sequential");
  // Every shape in the net — the input and each layer's output — must be
  // non-empty, so no forward pass can index outside its buffers, and all of
  // them together must fit io::kMaxDim floats per sample, which bounds the
  // activation buffers a forward pass sizes from them.
  int64_t floats = 0;
  const auto checkShape = [&floats](Shape s, const std::string& what) {
    if (s.c < 1 || s.l < 1) {
      throw CorruptError("sequential: " + what + " shape out of range");
    }
    floats += static_cast<int64_t>(s.c) * s.l;
    if (floats > io::kMaxDim) {
      throw CorruptError("sequential: activations exceed " +
                         std::to_string(io::kMaxDim) +
                         " floats per sample at the " + what);
    }
  };
  Shape in{};
  in.c = r.pod<int>();
  in.l = r.pod<int>();
  checkShape(in, "input");
  Sequential seq(in);
  const auto n = r.pod<uint64_t>();
  if (n > kMaxLayers) {
    throw CorruptError("sequential: " + std::to_string(n) +
                       " layers, more than " + std::to_string(kMaxLayers));
  }
  for (uint64_t i = 0; i < n; ++i) {
    const std::string kind = r.str();
    std::unique_ptr<Layer> layer;
    if (kind == "conv1d") {
      layer = std::make_unique<Conv1d>(1, 1, 1, nullptr);
    } else if (kind == "relu") {
      layer = std::make_unique<ReLU>();
    } else if (kind == "maxpool1d") {
      layer = std::make_unique<MaxPool1d>(2);
    } else if (kind == "linear") {
      layer = std::make_unique<Linear>(1, 1, nullptr);
    } else if (kind == "dropout") {
      layer = std::make_unique<Dropout>(0.0F, 0);
    } else if (kind == "qconv1d") {
      layer = std::make_unique<QConv1d>();
    } else if (kind == "qlinear") {
      layer = std::make_unique<QLinear>();
    } else {
      throw CorruptError("sequential: unknown layer kind " + kind);
    }
    layer->loadExtra(is);
    try {
      seq.add(std::move(layer));
    } catch (const std::invalid_argument& e) {
      throw CorruptError("sequential: " + std::string(e.what()));
    }
    checkShape(seq.outShape(), kind + " output");
  }
  return seq;
}

// --- SoftmaxCE -----------------------------------------------------------------

float SoftmaxCE::forward(std::span<const float> logits, int target,
                         std::span<float> probs) {
  checkSize(probs, logits.size(), "SoftmaxCE::forward");
  num::softmax(logits, probs);
  if (target < 0) return 0.0F;
  return -std::log(std::max(probs[static_cast<size_t>(target)], 1e-12F));
}

void SoftmaxCE::backward(std::span<const float> probs, int target,
                         std::span<float> dLogits) {
  checkSize(dLogits, probs.size(), "SoftmaxCE::backward");
  std::copy(probs.begin(), probs.end(), dLogits.begin());
  dLogits[static_cast<size_t>(target)] -= 1.0F;
}

// --- Adam ----------------------------------------------------------------------

namespace {

/// Parameter elements per Adam task: ranges depend only on parameter sizes.
constexpr size_t kAdamGrain = 4096;

}  // namespace

Adam::Adam(std::vector<Param*> params, Config cfg)
    : cfg_(cfg), params_(std::move(params)) {
  for (size_t p = 0; p < params_.size(); ++p) {
    const size_t n = params_[p]->value.size();
    m_.emplace_back(n, 0.0F);
    v_.emplace_back(n, 0.0F);
    for (size_t b = 0; b < n; b += kAdamGrain) {
      ranges_.push_back({p, b, std::min(n, b + kAdamGrain), numParams_ + b});
    }
    numParams_ += n;
  }
}

void Adam::step(std::span<const float> slabs, float gradScale,
                par::ThreadPool& pool) {
  if (numParams_ == 0 || slabs.empty() || slabs.size() % numParams_ != 0) {
    throw std::invalid_argument("Adam::step: " + std::to_string(slabs.size()) +
                                " gradient floats are not whole slabs of " +
                                std::to_string(numParams_));
  }
  const auto nSlabs = static_cast<int>(slabs.size() / numParams_);
  static obs::Counter& steps = obs::counter("nn.adam.steps");
  steps.add();
  ++t_;
  const float bc1 = 1.0F - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(cfg_.beta2, static_cast<float>(t_));
  const kern::AdamCoef c{cfg_.lr, cfg_.beta1, cfg_.beta2, cfg_.eps,
                         bc1, bc2, gradScale};
  const kern::KernelSet& k = kern::kernels();
  pool.run(ranges_.size(), [&](size_t i, int) {
    const Range& r = ranges_[i];
    k.adamStep(params_[r.param]->value.data() + r.begin,
               m_[r.param].data() + r.begin, v_[r.param].data() + r.begin,
               slabs.data() + r.flat, numParams_, nSlabs,
               static_cast<int>(r.end - r.begin), c);
  });
}

void Adam::save(std::ostream& os) const {
  io::Writer w(os);
  io::writeHeader(w, 0x4144414d /*"ADAM"*/, 1);
  w.pod(t_);
  w.pod<uint64_t>(params_.size());
  for (size_t p = 0; p < params_.size(); ++p) {
    w.vec(m_[p]);
    w.vec(v_[p]);
  }
}

void Adam::load(std::istream& is) {
  io::Reader r(is);
  io::expectHeader(r, 0x4144414d, 1, "adam");
  t_ = r.pod<int64_t>();
  const auto n = r.pod<uint64_t>();
  if (n != params_.size()) {
    throw CorruptError("adam: parameter count mismatch");
  }
  for (size_t p = 0; p < params_.size(); ++p) {
    m_[p] = r.vec<float>();
    v_[p] = r.vec<float>();
    if (m_[p].size() != params_[p]->value.size() ||
        v_[p].size() != params_[p]->value.size()) {
      throw CorruptError("adam: moment shape mismatch");
    }
  }
}

// --- factory / gradient check ---------------------------------------------------

Sequential makeCnn(Shape in, int conv1, int conv2, int hidden, int classes,
                   float dropout, Rng& rng) {
  // Two conv blocks, then the pooled feature map is *flattened* (not
  // globally pooled) into the FC layer: the target instruction sits at a
  // fixed position in the VUC, so the classifier must stay position-aware
  // (the paper's Fig. 6 shows the centre instruction dominating).
  Sequential net(in);
  net.add(std::make_unique<Conv1d>(in.c, conv1, 3, &rng));
  net.add(std::make_unique<ReLU>());
  int len = in.l;
  if (len >= 2) {  // tiny windows (ablation sweeps) skip pooling
    net.add(std::make_unique<MaxPool1d>(2));
    len /= 2;
  }
  net.add(std::make_unique<Conv1d>(conv1, conv2, 3, &rng));
  net.add(std::make_unique<ReLU>());
  if (len >= 2) {
    net.add(std::make_unique<MaxPool1d>(2));
    len /= 2;
  }
  net.add(std::make_unique<Linear>(conv2 * len, hidden, &rng));
  net.add(std::make_unique<ReLU>());
  if (dropout > 0.0F) {
    net.add(std::make_unique<Dropout>(dropout, rng.next()));
  }
  net.add(std::make_unique<Linear>(hidden, classes, &rng));
  return net;
}

double gradientCheck(Sequential& net, std::span<const float> x, int target,
                     double eps) {
  const int classes = net.outShape().size();
  std::vector<float> probs(static_cast<size_t>(classes));
  std::vector<float> dLogits(static_cast<size_t>(classes));
  Scratch s = net.makeScratch();

  const auto loss = [&]() {
    const auto logits = net.forward(x, 1, s, Phase::kEval);
    return SoftmaxCE::forward(logits, target, probs);
  };

  // Analytic gradients, flat in params() order.
  loss();
  SoftmaxCE::backward(probs, target, dLogits);
  net.backward(dLogits, 1, s);
  const std::span<const float> grads = s.grads();

  std::vector<double> rels;
  size_t flat = 0;  // p's offset in grads
  for (Param* p : net.params()) {
    // Spot-check a subset of indices for large blocks.
    const size_t stride = std::max<size_t>(1, p->value.size() / 25);
    for (size_t i = 0; i < p->value.size(); i += stride) {
      const float orig = p->value[i];
      p->value[i] = orig + static_cast<float>(eps);
      const double lp = loss();
      p->value[i] = orig - static_cast<float>(eps);
      const double lm = loss();
      p->value[i] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      const double analytic = grads[flat + i];
      const double denom = std::max({std::abs(numeric), std::abs(analytic),
                                     1e-4});
      rels.push_back(std::abs(numeric - analytic) / denom);
    }
    flat += p->value.size();
  }
  // Report the 95th percentile: a perturbed weight can flip a ReLU sign or
  // a max-pool argmax, making the central difference straddle a kink where
  // the (one-sided) analytic gradient is still correct — a handful of such
  // indices is expected; systematic backprop bugs blow up the bulk.
  std::sort(rels.begin(), rels.end());
  if (rels.empty()) return 0.0;
  return rels[static_cast<size_t>(0.95 * static_cast<double>(rels.size() - 1))];
}

}  // namespace cati::nn
