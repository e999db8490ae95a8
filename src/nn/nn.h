// Minimal from-scratch neural-network library: exactly what the paper's
// per-stage classifier needs (Conv1d over the VUC sequence, ReLU, max
// pooling, fully-connected layers, softmax cross-entropy, Adam), with
// batch-major forward/backward, model (de)serialization and a numeric
// gradient checker used by the test suite.
//
// Data layout: a sample is a [channels x length] row-major matrix; linear
// layers treat it as a flat vector. A batch of n samples is n such matrices
// back to back ([n x C x L]). The CATI input is [96 x 21]: embedding
// dimensions as channels over the 21 instruction positions.
//
// Execution model (DESIGN.md §7 "Memory & batching model"): layers and
// Sequential hold only immutable configuration and learnable parameters —
// every per-pass artifact (activations, backward caches, dropout RNG
// streams, parameter-gradient accumulators) lives in a caller-owned Scratch.
// Forward/backward are therefore const on the model: any number of threads
// can run the same network concurrently, each with its own Scratch, without
// replicating a single weight. Scratch buffers grow to the high-water batch
// size and are then reused, so steady-state passes allocate nothing.
//
// Determinism: batched kernels process samples in ascending order with the
// exact per-element operation order of the historical sample-at-a-time
// kernels, so batch=1 and batch=B produce bit-identical activations and
// gradients (pinned by tests/test_parallel.cc and tests/golden/).
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"

namespace cati::nn {

struct Shape {
  int c = 1;
  int l = 1;
  int size() const { return c * l; }
  bool operator==(const Shape&) const = default;
};

/// A learnable parameter block with its gradient accumulator. The gradient
/// buffer belongs to the *master* optimization loop (Adam); data-parallel
/// workers accumulate into their Scratch instead and are merged in chunk
/// order by the caller.
struct Param {
  std::vector<float> value;
  std::vector<float> grad;

  explicit Param(size_t n = 0) : value(n, 0.0F), grad(n, 0.0F) {}
  void zeroGrad() { std::fill(grad.begin(), grad.end(), 0.0F); }
};

/// Samples per batch-transposed lane group of Conv1d and Linear forward:
/// one AVX2 register of floats. Every sample runs in a lane group (the
/// innermost loop runs across samples); a partial last group is zero-padded
/// and its padding lanes dropped, so results never depend on batch size.
inline constexpr int kBatchLane = 8;

/// Bound on the layer count of a loaded net. The stage CNNs have at most
/// ten layers; Sequential::load rejects more with cati::CorruptError
/// (DESIGN.md §6). Dimensions are bounded by io::kMaxDim.
inline constexpr uint64_t kMaxLayers = 64;

/// What a forward pass must produce.
enum class Phase {
  kInfer,  ///< outputs only: no backward caches, dropout is identity
  kEval,   ///< backward caches kept, dropout is identity (gradient checks)
  kTrain,  ///< backward caches kept, dropout active
};

/// Per-layer execution state owned by the caller (one per thread): backward
/// caches, the dropout RNG stream and parameter-gradient accumulators.
/// Reused across passes; buffers only ever grow.
struct LayerScratch {
  std::vector<float> cache;    ///< Conv1d/Linear: input copy; Dropout: scale
  std::vector<uint8_t> mask;   ///< ReLU sign mask
  std::vector<int32_t> argmax; ///< pooling argmax indices
  std::vector<float> laneIn;   ///< Conv1d/Linear: batch-transposed input lane
  std::vector<float> laneOut;  ///< Conv1d/Linear: batch-transposed output lane
  std::vector<int8_t> qx;      ///< quantized layers: per-sample int8 input
  std::vector<int8_t> qt;      ///< quantized conv: [t][c] transposed int8
  std::vector<int32_t> qacc;   ///< quantized layers: int32 dot accumulators
  /// One gradient accumulator per layer param, in params() order,
  /// value-sized. Sized by Sequential::makeScratch (or lazily on first use).
  std::vector<std::vector<float>> grads;
  Rng rng{0};                  ///< layer-private stream (Dropout)
  bool rngSeeded = false;      ///< false: layer seeds it from its own seed

  /// The i-th gradient accumulator, (re)sized to `size` (zero-filled when
  /// created or resized). Growing the accumulator list invalidates
  /// references from earlier calls — when taking several, fetch the highest
  /// index first (Sequential::makeScratch pre-sizes the list, making any
  /// order safe for scratches it created).
  std::vector<float>& grad(size_t i, size_t size) {
    if (grads.size() <= i) grads.resize(i + 1);
    if (grads[i].size() != size) grads[i].assign(size, 0.0F);
    return grads[i];
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Shape outShape(Shape in) const = 0;

  /// Called once by Sequential::add with the layer's input shape; layers
  /// whose forward needs the shape (pooling) store it here.
  virtual void setInShape(Shape) {}

  /// Batch forward: x is [n x inSize], y is [n x outSize], samples
  /// processed in ascending order. Const: all mutable state goes to `s`,
  /// so one layer instance serves any number of threads concurrently.
  virtual void forward(std::span<const float> x, std::span<float> y, int n,
                       LayerScratch& s, Phase phase) const = 0;

  /// Batch backward: accumulates parameter gradients into `s` (ascending
  /// sample order — the same element-wise accumulation order as n calls at
  /// batch 1) and writes dL/dx. Must follow a non-kInfer forward of the
  /// same batch on the same scratch.
  virtual void backward(std::span<const float> dy, std::span<float> dx, int n,
                        LayerScratch& s) const = 0;

  virtual std::vector<Param*> params() { return {}; }
  std::vector<const Param*> params() const {
    // params() only reads layer state; the const_cast never mutates.
    const auto ps = const_cast<Layer*>(this)->params();
    return {ps.begin(), ps.end()};
  }

  virtual std::string kind() const = 0;
  virtual void saveExtra(std::ostream& os) const;
  /// Reads what saveExtra wrote. Throws cati::CorruptError when a count or
  /// parameter is out of range or disagrees with the layer's dimensions.
  virtual void loadExtra(std::istream& is);
};

/// 1-D convolution with `same` zero padding: [inC x L] -> [outC x L].
class Conv1d final : public Layer {
 public:
  Conv1d(int inC, int outC, int kernel, Rng* initRng);

  Shape outShape(Shape in) const override;
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string kind() const override { return "conv1d"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  int inC() const { return inC_; }
  int outC() const { return outC_; }
  int kernel() const { return k_; }

 private:
  int inC_;
  int outC_;
  int k_;
  Param w_;  // [outC x inC x k]
  Param b_;  // [outC]
};

class ReLU final : public Layer {
 public:
  Shape outShape(Shape in) const override { return in; }
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::string kind() const override { return "relu"; }
};

/// Non-overlapping max pooling along the length axis (stride == kernel);
/// trailing remainder positions are dropped, as in common frameworks.
class MaxPool1d final : public Layer {
 public:
  explicit MaxPool1d(int kernel) : k_(kernel) {}

  Shape outShape(Shape in) const override { return {in.c, in.l / k_}; }
  void setInShape(Shape in) override { in_ = in; }
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::string kind() const override { return "maxpool1d"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  int kernel() const { return k_; }

 private:
  int k_;
  Shape in_{};
};

/// Max over the whole length axis: [C x L] -> [C x 1].
class GlobalMaxPool final : public Layer {
 public:
  Shape outShape(Shape in) const override { return {in.c, 1}; }
  void setInShape(Shape in) override { in_ = in; }
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::string kind() const override { return "globalmaxpool"; }

 private:
  Shape in_{};
};

class Linear final : public Layer {
 public:
  Linear(int in, int out, Rng* initRng);

  Shape outShape(Shape in) const override;
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string kind() const override { return "linear"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  int inF() const { return in_; }
  int outF() const { return out_; }

 private:
  int in_;
  int out_;
  Param w_;  // [out x in]
  Param b_;  // [out]
};

/// Inverted dropout; identity outside Phase::kTrain. Draws come from the
/// scratch RNG stream: unseeded scratches start at the layer's construction
/// seed, data-parallel training reseeds per (batch, chunk) via
/// Scratch::reseed so draws depend on the sample chunk, not on the worker.
class Dropout final : public Layer {
 public:
  Dropout(float p, uint64_t seed) : p_(p), seed_(seed) {}

  Shape outShape(Shape in) const override { return in; }
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s) const override;
  std::string kind() const override { return "dropout"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

 private:
  float p_;
  uint64_t seed_;
};

class Sequential;

/// Per-thread execution state for one Sequential: per-layer activations and
/// caches, ping-pong gradient buffers and parameter-gradient accumulators.
/// Create with Sequential::makeScratch(); a Scratch is bound to the layer
/// structure of the net that made it. Reuse across calls — buffers grow to
/// the high-water batch size, after which passes allocate nothing.
class Scratch {
 public:
  Scratch() = default;

  /// Zeroes every parameter-gradient accumulator.
  void zeroGrad();

  /// Re-derives the per-layer RNG streams (Dropout) from `seed`; layer i
  /// gets its own splitSeed(seed, i) stream, matching Sequential::reseed's
  /// historical layout.
  void reseed(uint64_t seed);

  /// Appends every accumulated parameter gradient to `out`, in the net's
  /// params() order — the flat layout the engine's ordered chunk merge
  /// consumes.
  void appendGrads(std::vector<float>& out) const;

 private:
  friend class Sequential;
  std::vector<LayerScratch> layers_;
  std::vector<std::vector<float>> acts_;  // per-layer [n x outSize]
  std::vector<float> dPing_;              // backward ping-pong buffers
  std::vector<float> dPong_;
};

/// An owning layer pipeline with fixed input shape. The model itself
/// (layers + params) is immutable during forward/backward; per-thread state
/// lives in Scratch. The single-sample `forward(x, train)` / `backward(d)`
/// overloads run on an internal scratch for convenience (tests, gradient
/// checks, single-threaded tools) and additionally fold gradients into
/// Param::grad, preserving the historical accumulate-into-params contract.
class Sequential {
 public:
  explicit Sequential(Shape inShape) : inShape_(inShape) {}

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);

  Shape inShape() const { return inShape_; }
  Shape outShape() const;

  /// A scratch sized for this net's layer structure (activation and grad
  /// buffers are allocated lazily, at first use, to the batch then seen).
  Scratch makeScratch() const;

  /// Batch forward over [n x inShape] samples; returns the [n x outShape]
  /// final activation (a view into `s`, valid until its next use). Const:
  /// concurrent calls with distinct scratches share the weights.
  std::span<const float> forward(std::span<const float> x, int n, Scratch& s,
                                 Phase phase) const;

  /// Batch backward from dL/d(output) [n x outShape]; parameter gradients
  /// accumulate into `s` (ascending sample order). Must follow a non-kInfer
  /// forward of the same batch on `s`.
  void backward(std::span<const float> dOut, int n, Scratch& s) const;

  /// Single-sample convenience on the internal scratch (train ? kTrain :
  /// kEval — caches are always kept so a backward may follow).
  std::span<const float> forward(std::span<const float> x, bool train);

  /// Single-sample convenience: batch backward on the internal scratch,
  /// then folds the resulting gradients into Param::grad (accumulating
  /// across calls, as the historical API did).
  void backward(std::span<const float> dOut);

  std::vector<Param*> params();
  std::vector<const Param*> params() const;
  void zeroGrad();

  /// Reseeds the internal-scratch RNG streams (layer i gets splitSeed(seed,
  /// i)), for the single-sample convenience path.
  void reseed(uint64_t seed);

  size_t numLayers() const { return layers_.size(); }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// Input shape, then each layer's kind and saveExtra bytes.
  void save(std::ostream& os) const;
  /// Reads a net written by save(), fp32 or int8 (nn/qnn.h) layers alike.
  /// Throws cati::CorruptError on an unknown kind, a layer whose loadExtra
  /// rejects its bytes, or a layer that does not fit the shape before it.
  static Sequential load(std::istream& is);

 private:
  Scratch& ownScratch();

  Shape inShape_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Shape> shapes_;  // per-layer output shapes
  /// Lazily-built scratch backing the single-sample convenience overloads.
  std::unique_ptr<Scratch> own_;
};

/// Softmax + cross-entropy head. probs/logits have length C.
struct SoftmaxCE {
  /// Fills `probs` with softmax(logits); returns -log probs[target]
  /// (target < 0 skips the loss and returns 0 — inference mode).
  static float forward(std::span<const float> logits, int target,
                       std::span<float> probs);
  /// dL/dlogits = probs - onehot(target).
  static void backward(std::span<const float> probs, int target,
                       std::span<float> dLogits);
};

class Adam {
 public:
  struct Config {
    float lr = 1e-3F;
    float beta1 = 0.9F;
    float beta2 = 0.999F;
    float eps = 1e-8F;
  };

  explicit Adam(std::vector<Param*> params) : Adam(std::move(params), Config{}) {}
  Adam(std::vector<Param*> params, Config cfg);

  /// Applies one update from the accumulated grads (scaled by 1/batchSize)
  /// and zeroes them.
  void step(float gradScale = 1.0F);

  /// Serializes the optimizer moments (m, v) and step count — everything a
  /// training checkpoint needs to continue bit-identically. The parameter
  /// values themselves belong to the net and are saved with it.
  void save(std::ostream& os) const;
  /// Restores state saved by save(); the bound params must have the same
  /// shapes (throws cati::CorruptError otherwise).
  void load(std::istream& is);

 private:
  Config cfg_;
  std::vector<Param*> params_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  int64_t t_ = 0;
};

/// Builds the paper's per-stage architecture: Conv(3,c1)-ReLU-MaxPool(2)-
/// Conv(3,c2)-ReLU-GlobalMaxPool-FC(hidden)-ReLU-[Dropout]-FC(classes).
Sequential makeCnn(Shape in, int conv1, int conv2, int hidden, int classes,
                   float dropout, Rng& rng);

/// Central-difference gradient check of a sequential + softmax head on one
/// sample; returns the 95th-percentile relative error over sampled
/// parameters (the extreme tail is dominated by ReLU / max-pool kink
/// crossings, not backprop errors).
double gradientCheck(Sequential& net, std::span<const float> x, int target,
                     double eps = 1e-3);

}  // namespace cati::nn
