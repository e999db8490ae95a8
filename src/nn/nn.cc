#include "nn/nn.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/numeric.h"
#include "common/obs.h"
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

/// Packs samples [0, m) of `x` (rows of `plane` floats) into the
/// batch-transposed lane group `pack` ([i][kBatchLane]). Lanes m.. of a
/// partial group are zero-filled: the kernel computes them like any other
/// lane and unpackLanes drops them. A pure permutation, no FP ops. The
/// pack is written in order, one lane row at a time: a conv1 pack (64 KB)
/// outgrows L1, and sweeping it once per sample re-fetches every line.
void packLanes(const float* x, size_t plane, int m, float* pack) {
  if (m < kBatchLane) std::fill_n(pack, plane * kBatchLane, 0.0F);
  for (size_t i = 0; i < plane; ++i) {
    float* dst = pack + i * kBatchLane;
    for (int b = 0; b < m; ++b) dst[b] = x[static_cast<size_t>(b) * plane + i];
  }
}

/// Copies lanes [0, m) of the lane group `pack` back to sample rows of `y`.
void unpackLanes(const float* pack, size_t plane, int m, float* y) {
  for (int b = 0; b < m; ++b) {
    float* ys = y + static_cast<size_t>(b) * plane;
    const float* src = pack + b;
    for (size_t i = 0; i < plane; ++i) ys[i] = src[i * kBatchLane];
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
  if (phase != Phase::kInfer) s.cache.assign(x.begin(), x.end());

  // Per output element the accumulation order is fixed: bias, then taps in
  // ascending (c, kk) order, one fused multiply-add per tap (kernels.h).
  // Every sample takes that one path, batch-transposed kBatchLane at a time:
  // the input is packed [c][t][lane] so one vector op covers a lane group,
  // and the last partial group is zero-padded. Lanes never mix, so batch
  // size never changes a single bit of the output (DESIGN.md §7).
  const size_t inPlane = static_cast<size_t>(inC_) * len;
  const size_t outPlane = static_cast<size_t>(outC_) * len;
  s.laneIn.resize(inPlane * kBatchLane);
  s.laneOut.resize(outPlane * kBatchLane);
  for (int b0 = 0; b0 < n; b0 += kBatchLane) {
    const int m = std::min(kBatchLane, n - b0);
    packLanes(x.data() + static_cast<size_t>(b0) * inPlane, inPlane, m,
              s.laneIn.data());
    kern::kernels().conv1dLane(w_.value.data(), b_.value.data(),
                               s.laneIn.data(), s.laneOut.data(), inC_, outC_,
                               k_, len);
    unpackLanes(s.laneOut.data(), outPlane, m,
                y.data() + static_cast<size_t>(b0) * outPlane);
  }
}

void Conv1d::backward(std::span<const float> dy, std::span<float> dx, int n,
                      LayerScratch& s) const {
  checkBatch(n, "Conv1d::backward");
  const int len =
      static_cast<int>(dx.size() / (static_cast<size_t>(n) * inC_));
  checkSize(dy, static_cast<size_t>(n) * outC_ * len, "Conv1d::backward dy");
  checkSize(dx, static_cast<size_t>(n) * inC_ * len, "Conv1d::backward dx");
  checkSize(s.cache, static_cast<size_t>(n) * inC_ * len,
            "Conv1d::backward cache");
  std::fill(dx.begin(), dx.end(), 0.0F);
  // Highest index first: growing the accumulator list reallocates it, which
  // would invalidate a reference taken from an earlier grad() call.
  std::vector<float>& gbv = s.grad(1, b_.value.size());
  std::vector<float>& gw = s.grad(0, w_.value.size());
  const int pad = k_ / 2;
  for (int b = 0; b < n; ++b) {
    const float* xs = s.cache.data() + static_cast<size_t>(b) * inC_ * len;
    const float* dys = dy.data() + static_cast<size_t>(b) * outC_ * len;
    float* dxs = dx.data() + static_cast<size_t>(b) * inC_ * len;
    for (int o = 0; o < outC_; ++o) {
      const float* dyRow = dys + static_cast<size_t>(o) * len;
      float* gwRow = gw.data() + static_cast<size_t>(o) * inC_ * k_;
      const float* wRow = w_.value.data() + static_cast<size_t>(o) * inC_ * k_;
      float gb = 0.0F;
      for (int t = 0; t < len; ++t) gb += dyRow[t];
      gbv[static_cast<size_t>(o)] += gb;
      for (int c = 0; c < inC_; ++c) {
        const float* xRow = xs + static_cast<size_t>(c) * len;
        float* dxRow = dxs + static_cast<size_t>(c) * len;
        float* gwk = gwRow + static_cast<size_t>(c) * k_;
        const float* wk = wRow + static_cast<size_t>(c) * k_;
        for (int kk = 0; kk < k_; ++kk) {
          const int shift = kk - pad;
          const int lo = std::max(0, -shift);
          const int hi = std::min(len, len - shift);
          float gwAcc = 0.0F;
          const float wv = wk[kk];
          for (int t = lo; t < hi; ++t) {
            gwAcc += dyRow[t] * xRow[t + shift];
            dxRow[t + shift] += dyRow[t] * wv;
          }
          gwk[kk] += gwAcc;
        }
      }
    }
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
  w_.grad.assign(w_.value.size(), 0.0F);
  b_.value = r.vec<float>(static_cast<size_t>(outC_), "conv1d");
  b_.grad.assign(b_.value.size(), 0.0F);
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

void ReLU::backward(std::span<const float> dy, std::span<float> dx, int n,
                    LayerScratch& s) const {
  checkBatch(n, "ReLU::backward");
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

void MaxPool1d::backward(std::span<const float> dy, std::span<float> dx,
                         int n, LayerScratch& s) const {
  checkBatch(n, "MaxPool1d::backward");
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

// --- GlobalMaxPool -------------------------------------------------------------

void GlobalMaxPool::forward(std::span<const float> x, std::span<float> y,
                            int n, LayerScratch& s, Phase phase) const {
  checkBatch(n, "GlobalMaxPool::forward");
  const size_t inSize = static_cast<size_t>(in_.c) * in_.l;
  checkSize(x, static_cast<size_t>(n) * inSize, "GlobalMaxPool x");
  checkSize(y, static_cast<size_t>(n) * in_.c, "GlobalMaxPool y");
  const bool track = phase != Phase::kInfer;
  if (track) s.argmax.assign(static_cast<size_t>(n) * in_.c, 0);
  for (int b = 0; b < n; ++b) {
    const float* xs = x.data() + static_cast<size_t>(b) * inSize;
    float* ys = y.data() + static_cast<size_t>(b) * in_.c;
    for (int c = 0; c < in_.c; ++c) {
      const float* xRow = xs + static_cast<size_t>(c) * in_.l;
      int best = 0;
      for (int t = 1; t < in_.l; ++t) {
        if (xRow[t] > xRow[best]) best = t;
      }
      ys[static_cast<size_t>(c)] = xRow[best];
      if (track) {
        s.argmax[static_cast<size_t>(b) * in_.c + c] = best;
      }
    }
  }
}

void GlobalMaxPool::backward(std::span<const float> dy, std::span<float> dx,
                             int n, LayerScratch& s) const {
  checkBatch(n, "GlobalMaxPool::backward");
  const size_t inSize = static_cast<size_t>(in_.c) * in_.l;
  checkSize(dy, static_cast<size_t>(n) * in_.c, "GlobalMaxPool dy");
  checkSize(dx, static_cast<size_t>(n) * inSize, "GlobalMaxPool dx");
  std::fill(dx.begin(), dx.end(), 0.0F);
  for (int b = 0; b < n; ++b) {
    float* dxs = dx.data() + static_cast<size_t>(b) * inSize;
    for (int c = 0; c < in_.c; ++c) {
      dxs[static_cast<size_t>(c) * in_.l +
          s.argmax[static_cast<size_t>(b) * in_.c + c]] =
          dy[static_cast<size_t>(b) * in_.c + c];
    }
  }
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

  // One path for every sample, as in Conv1d::forward: lane groups run
  // through the dispatched dense kernel (kernels.h: mul-then-add head, fused
  // inF%4 tail), the last partial group zero-padded.
  const auto inPlane = static_cast<size_t>(in_);
  const auto outPlane = static_cast<size_t>(out_);
  s.laneIn.resize(inPlane * kBatchLane);
  s.laneOut.resize(outPlane * kBatchLane);
  for (int b0 = 0; b0 < n; b0 += kBatchLane) {
    const int m = std::min(kBatchLane, n - b0);
    packLanes(x.data() + static_cast<size_t>(b0) * inPlane, inPlane, m,
              s.laneIn.data());
    kern::kernels().denseLane(w_.value.data(), b_.value.data(),
                              s.laneIn.data(), s.laneOut.data(), in_, out_);
    unpackLanes(s.laneOut.data(), outPlane, m,
                y.data() + static_cast<size_t>(b0) * outPlane);
  }
}

void Linear::backward(std::span<const float> dy, std::span<float> dx, int n,
                      LayerScratch& s) const {
  checkBatch(n, "Linear::backward");
  checkSize(dy, static_cast<size_t>(n) * out_, "Linear::backward dy");
  checkSize(dx, static_cast<size_t>(n) * in_, "Linear::backward dx");
  checkSize(s.cache, static_cast<size_t>(n) * in_, "Linear::backward cache");
  std::fill(dx.begin(), dx.end(), 0.0F);
  // Highest index first so the second grad() call cannot reallocate the
  // accumulator list out from under the first reference.
  std::vector<float>& gb = s.grad(1, b_.value.size());
  std::vector<float>& gw = s.grad(0, w_.value.size());
  for (int b = 0; b < n; ++b) {
    const float* xs = s.cache.data() + static_cast<size_t>(b) * in_;
    const float* dys = dy.data() + static_cast<size_t>(b) * out_;
    float* dxs = dx.data() + static_cast<size_t>(b) * in_;
    for (int o = 0; o < out_; ++o) {
      const float g = dys[o];
      if (g == 0.0F) continue;
      float* gwRow = gw.data() + static_cast<size_t>(o) * in_;
      const float* wRow = w_.value.data() + static_cast<size_t>(o) * in_;
      gb[static_cast<size_t>(o)] += g;
      for (int i = 0; i < in_; ++i) {
        gwRow[i] += g * xs[i];
        dxs[i] += g * wRow[i];
      }
    }
  }
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
  w_.grad.assign(w_.value.size(), 0.0F);
  b_.value = r.vec<float>(static_cast<size_t>(out_), "linear");
  b_.grad.assign(b_.value.size(), 0.0F);
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

void Dropout::backward(std::span<const float> dy, std::span<float> dx, int n,
                       LayerScratch& s) const {
  checkBatch(n, "Dropout::backward");
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

void Scratch::zeroGrad() {
  for (LayerScratch& ls : layers_) {
    for (std::vector<float>& g : ls.grads) {
      std::fill(g.begin(), g.end(), 0.0F);
    }
  }
}

void Scratch::reseed(uint64_t seed) {
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].rng = Rng(splitSeed(seed, i));
    layers_[i].rngSeeded = true;
  }
}

void Scratch::appendGrads(std::vector<float>& out) const {
  for (const LayerScratch& ls : layers_) {
    for (const std::vector<float>& g : ls.grads) {
      out.insert(out.end(), g.begin(), g.end());
    }
  }
}

// --- Sequential ----------------------------------------------------------------

void Sequential::add(std::unique_ptr<Layer> layer) {
  const Shape in = layers_.empty() ? inShape_ : shapes_.back();
  layer->setInShape(in);
  const Shape out = layer->outShape(in);
  shapes_.push_back(out);
  layers_.push_back(std::move(layer));
  own_.reset();  // layer structure changed; any old scratch is stale
}

Shape Sequential::outShape() const {
  return shapes_.empty() ? inShape_ : shapes_.back();
}

Scratch Sequential::makeScratch() const {
  Scratch s;
  s.layers_.resize(layers_.size());
  s.acts_.resize(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    // Pre-size the accumulator list so grad() never grows it mid-backward
    // (growth would invalidate outstanding references).
    s.layers_[i].grads.resize(
        static_cast<const Layer&>(*layers_[i]).params().size());
  }
  return s;
}

std::span<const float> Sequential::forward(std::span<const float> x, int n,
                                           Scratch& s, Phase phase) const {
  checkBatch(n, "Sequential::forward");
  checkSize(x, static_cast<size_t>(n) * inShape_.size(),
            "Sequential::forward x");
  if (s.layers_.size() != layers_.size()) {
    throw std::invalid_argument(
        "Sequential::forward: scratch does not match this net "
        "(use makeScratch)");
  }
  std::span<const float> cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    std::vector<float>& act = s.acts_[i];
    act.resize(static_cast<size_t>(n) * shapes_[i].size());
    layers_[i]->forward(cur, act, n, s.layers_[i], phase);
    cur = act;
  }
  return cur;
}

void Sequential::backward(std::span<const float> dOut, int n,
                          Scratch& s) const {
  checkBatch(n, "Sequential::backward");
  checkSize(dOut, static_cast<size_t>(n) * outShape().size(),
            "Sequential::backward dOut");
  if (s.layers_.size() != layers_.size()) {
    throw std::invalid_argument(
        "Sequential::backward: scratch does not match this net "
        "(use makeScratch)");
  }
  std::vector<float>* cur = &s.dPing_;
  std::vector<float>* next = &s.dPong_;
  cur->assign(dOut.begin(), dOut.end());
  for (size_t i = layers_.size(); i-- > 0;) {
    const size_t inSize =
        i == 0 ? static_cast<size_t>(inShape_.size())
               : static_cast<size_t>(shapes_[i - 1].size());
    next->resize(static_cast<size_t>(n) * inSize);
    layers_[i]->backward(*cur, *next, n, s.layers_[i]);
    std::swap(cur, next);
  }
}

Scratch& Sequential::ownScratch() {
  if (!own_) own_ = std::make_unique<Scratch>(makeScratch());
  return *own_;
}

std::span<const float> Sequential::forward(std::span<const float> x,
                                           bool train) {
  // Caches are always kept (kEval, not kInfer) so a backward may follow —
  // the historical single-sample contract.
  return forward(x, 1, ownScratch(), train ? Phase::kTrain : Phase::kEval);
}

void Sequential::backward(std::span<const float> dOut) {
  Scratch& s = ownScratch();
  s.zeroGrad();
  backward(dOut, 1, s);
  for (size_t i = 0; i < layers_.size(); ++i) {
    const std::vector<Param*> ps = layers_[i]->params();
    const LayerScratch& ls = s.layers_[i];
    for (size_t p = 0; p < ps.size() && p < ls.grads.size(); ++p) {
      for (size_t j = 0; j < ls.grads[p].size(); ++j) {
        ps[p]->grad[j] += ls.grads[p][j];
      }
    }
  }
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

void Sequential::zeroGrad() {
  for (Param* p : params()) p->zeroGrad();
}

void Sequential::reseed(uint64_t seed) {
  ownScratch().reseed(seed);
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
    } else if (kind == "globalmaxpool") {
      layer = std::make_unique<GlobalMaxPool>();
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

Adam::Adam(std::vector<Param*> params, Config cfg)
    : cfg_(cfg), params_(std::move(params)) {
  for (const Param* p : params_) {
    m_.emplace_back(p->value.size(), 0.0F);
    v_.emplace_back(p->value.size(), 0.0F);
  }
}

void Adam::step(float gradScale) {
  static obs::Counter& steps = obs::counter("nn.adam.steps");
  steps.add();
  ++t_;
  const float bc1 = 1.0F - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0F - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (size_t p = 0; p < params_.size(); ++p) {
    Param& par = *params_[p];
    for (size_t i = 0; i < par.value.size(); ++i) {
      const float g = par.grad[i] * gradScale;
      m_[p][i] = cfg_.beta1 * m_[p][i] + (1.0F - cfg_.beta1) * g;
      v_[p][i] = cfg_.beta2 * v_[p][i] + (1.0F - cfg_.beta2) * g * g;
      const float mhat = m_[p][i] / bc1;
      const float vhat = v_[p][i] / bc2;
      par.value[i] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
    par.zeroGrad();
  }
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

  const auto loss = [&]() {
    const auto logits = net.forward(x, /*train=*/false);
    return SoftmaxCE::forward(logits, target, probs);
  };

  // Analytic gradients.
  net.zeroGrad();
  loss();
  SoftmaxCE::backward(probs, target, dLogits);
  net.backward(dLogits);

  std::vector<double> rels;
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
      const double analytic = p->grad[i];
      const double denom = std::max({std::abs(numeric), std::abs(analytic),
                                     1e-4});
      rels.push_back(std::abs(numeric - analytic) / denom);
    }
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
