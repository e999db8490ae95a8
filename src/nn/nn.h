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
// streams) lives in a caller-owned Scratch, and a backward accumulates its
// parameter gradients into a flat slab the caller passes (the net's
// params() order, the layout Adam's slab step reads). A gradient exists
// nowhere else: not in a Param, not in a layer's scratch.
// Forward/backward are therefore const on the model: any number of threads
// can run the same network concurrently, each with its own Scratch and
// slab, without replicating a single weight. Scratch buffers grow to the
// high-water batch size and are then reused, so steady-state passes
// allocate nothing.
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

namespace cati::par {
class ThreadPool;
}  // namespace cati::par

namespace cati::nn {

struct Shape {
  int c = 1;
  int l = 1;
  int size() const { return c * l; }
  bool operator==(const Shape&) const = default;
};

/// A learnable parameter block. Its gradient lives in the caller's slab
/// (Sequential::backward), never beside the value.
struct Param {
  std::vector<float> value;

  explicit Param(size_t n = 0) : value(n, 0.0F) {}
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
/// caches and the dropout RNG stream. Reused across passes; buffers only
/// ever grow.
struct LayerScratch {
  std::vector<float> cache;    ///< Conv1d: time-major input; Linear: input
                               ///< copy; Dropout: scale
  std::vector<uint8_t> mask;   ///< ReLU sign mask
  std::vector<int32_t> argmax; ///< pooling argmax indices
  std::vector<float> laneIn;   ///< Conv1d/Linear: input (Conv1d dx) lane pack
  std::vector<float> laneOut;  ///< Conv1d/Linear: output (Conv1d dy) lane pack
  std::vector<int8_t> qx;      ///< quantized layers: per-sample int8 input
  std::vector<int8_t> qt;      ///< quantized conv: [t][c] transposed int8
  std::vector<int32_t> qacc;   ///< quantized layers: int32 dot accumulators
  Rng rng{0};                  ///< layer-private stream (Dropout)
  bool rngSeeded = false;      ///< false: layer seeds it from its own seed
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

  /// Batch backward: accumulates parameter gradients into `grads`, this
  /// layer's params() back to back (empty for a layer without params), in
  /// ascending sample order — the same element-wise accumulation order as n
  /// calls at batch 1 — and writes dL/dx, unless `dx` is empty (the caller
  /// does not want the input gradient). Must follow a non-kInfer forward of
  /// the same batch on the same scratch.
  virtual void backward(std::span<const float> dy, std::span<float> dx, int n,
                        LayerScratch& s, std::span<float> grads) const = 0;

  /// The Phase::kInfer forward of one lane group, lane-major: `x` is the
  /// [in.size()][kBatchLane] pack of up to 8 samples, `y` gets the output's.
  /// Each lane gets forward()'s bits. Returns `y`, or `x` when the layer is
  /// the identity. Layers without a lane form (int8) throw std::logic_error.
  virtual const float* inferLanes(Shape in, const float* x, float* y) const;

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
                LayerScratch& s, std::span<float> grads) const override;
  const float* inferLanes(Shape in, const float* x, float* y) const override;
  std::vector<Param*> params() override { return {&w_, &b_}; }
  std::string kind() const override { return "conv1d"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  int inC() const { return inC_; }
  int outC() const { return outC_; }
  int kernel() const { return k_; }

  /// The forward conv of one pre-packed lane group: `x` is
  /// [inC][len][kBatchLane], `y` [outC][len][kBatchLane], and no tap
  /// crosses a `seg`-long segment of the time axis (kern::conv1dLane).
  /// forward() is this at seg == len; Engine's shared-context predict runs
  /// it over whole instruction streams (DESIGN.md §7).
  void forwardLanes(const float* x, float* y, int len, int seg) const;

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
                LayerScratch& s, std::span<float> grads) const override;
  const float* inferLanes(Shape in, const float* x, float* y) const override;
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
                LayerScratch& s, std::span<float> grads) const override;
  const float* inferLanes(Shape in, const float* x, float* y) const override;
  std::string kind() const override { return "maxpool1d"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

  int kernel() const { return k_; }

 private:
  int k_;
  Shape in_{};
};

class Linear final : public Layer {
 public:
  Linear(int in, int out, Rng* initRng);

  Shape outShape(Shape in) const override;
  void forward(std::span<const float> x, std::span<float> y, int n,
               LayerScratch& s, Phase phase) const override;
  void backward(std::span<const float> dy, std::span<float> dx, int n,
                LayerScratch& s, std::span<float> grads) const override;
  const float* inferLanes(Shape in, const float* x, float* y) const override;
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
                LayerScratch& s, std::span<float> grads) const override;
  const float* inferLanes(Shape in, const float* x, float* y) const override;
  std::string kind() const override { return "dropout"; }
  void saveExtra(std::ostream& os) const override;
  void loadExtra(std::istream& is) override;

 private:
  float p_;
  uint64_t seed_;
};

class Sequential;

/// Per-thread execution state for one Sequential: per-layer activations and
/// caches and ping-pong gradient buffers. Create with
/// Sequential::makeScratch(); a Scratch is bound to the layer structure of
/// the net that made it. Reuse across calls — buffers grow to the
/// high-water batch size, after which passes allocate nothing.
class Scratch {
 public:
  Scratch() = default;

  /// Re-derives the per-layer RNG streams (Dropout) from `seed`; layer i
  /// gets its own splitSeed(seed, i) stream.
  void reseed(uint64_t seed);

  /// The gradient slab Sequential::backward(dOut, n, s) accumulates into:
  /// the net's params() back to back, zero when the first such backward
  /// sizes it and summed over every backward since. Empty until then.
  std::span<const float> grads() const { return grads_; }

 private:
  friend class Sequential;
  std::vector<LayerScratch> layers_;
  std::vector<std::vector<float>> acts_;  // per-layer [n x outSize] or pack
  std::vector<float> dPing_;              // backward ping-pong buffers
  std::vector<float> dPong_;
  std::vector<float> grads_;              // see grads()
};

/// An owning layer pipeline with fixed input shape. The model itself
/// (layers + params) is immutable during forward/backward; all per-pass
/// state lives in the caller's Scratch.
class Sequential {
 public:
  explicit Sequential(Shape inShape) : inShape_(inShape) {}

  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  void add(std::unique_ptr<Layer> layer);

  Shape inShape() const { return inShape_; }
  Shape outShape() const;

  /// A scratch sized for this net's layer structure (activation buffers are
  /// allocated lazily, at first use, to the batch then seen).
  Scratch makeScratch() const;

  /// Batch forward over [n x inShape] samples; returns the [n x outShape]
  /// final activation (a view into `s`, valid until its next use). Const:
  /// concurrent calls with distinct scratches share the weights.
  std::span<const float> forward(std::span<const float> x, int n, Scratch& s,
                                 Phase phase) const;

  /// forward() of layers [first, numLayers()) only: `x` holds n samples of
  /// layerInShape(first), e.g. activations computed outside the net.
  std::span<const float> forwardFrom(size_t first, std::span<const float> x,
                                     int n, Scratch& s, Phase phase) const;

  /// forwardFrom(first, ..., Phase::kInfer) of one lane group kept
  /// lane-major through every layer (Layer::inferLanes): `x` and the result
  /// (a view into `s`, or `x`) are [size][kBatchLane] packs of the layer
  /// input and the output; lane b holds forwardFrom's bits for sample b.
  std::span<const float> forwardLanes(size_t first, std::span<const float> x,
                                      Scratch& s) const;

  /// Batch backward from dL/d(output) [n x outShape]; parameter gradients
  /// accumulate into `grads`, numParams() floats in params() order
  /// (ascending sample order; the caller zeroes it to start a sum). The
  /// gradient of the net's input is not computed. Must follow a non-kInfer
  /// forward of the same batch on `s`.
  void backward(std::span<const float> dOut, int n, Scratch& s,
                std::span<float> grads) const;
  /// backward() into the scratch's own slab, Scratch::grads().
  void backward(std::span<const float> dOut, int n, Scratch& s) const;

  /// Parameter count: the length of one gradient slab.
  size_t numParams() const { return gradOff_.back(); }

  std::vector<Param*> params();
  std::vector<const Param*> params() const;

  size_t numLayers() const { return layers_.size(); }
  /// The shape layer i consumes (the net's input shape for i == 0).
  Shape layerInShape(size_t i) const {
    return i == 0 ? inShape_ : shapes_[i - 1];
  }
  Layer& layer(size_t i) { return *layers_[i]; }
  const Layer& layer(size_t i) const { return *layers_[i]; }

  /// Input shape, then each layer's kind and saveExtra bytes.
  void save(std::ostream& os) const;
  /// Reads a net written by save(), fp32 or int8 (nn/qnn.h) layers alike.
  /// Throws cati::CorruptError on an unknown kind, a layer whose loadExtra
  /// rejects its bytes, or a layer that does not fit the shape before it.
  static Sequential load(std::istream& is);

 private:
  /// forwardFrom's argument checks (std::invalid_argument).
  void checkFrom(size_t first, std::span<const float> x, int n,
                 const Scratch& s) const;

  Shape inShape_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Shape> shapes_;  // per-layer output shapes
  // Layer i's params start at gradOff_[i] in a gradient slab; the last
  // entry is numParams().
  std::vector<size_t> gradOff_{0};
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

  /// Applies one update from `slabs`: k >= 1 back-to-back flat gradients of
  /// numParams() floats each, in params() order, summed per element in
  /// ascending slab order (kern::adamStep). Fixed ranges of the parameters
  /// run as tasks on `pool`; the ranges depend only on the parameter sizes
  /// and every element is independent, so the bits do not depend on
  /// pool.jobs().
  void step(std::span<const float> slabs, float gradScale,
            par::ThreadPool& pool);

  /// Total parameter count, the length of one gradient slab.
  size_t numParams() const { return numParams_; }
  /// Steps taken so far (restored by load()).
  int64_t steps() const { return t_; }

  /// Serializes the optimizer moments (m, v) and step count — everything a
  /// training checkpoint needs to continue bit-identically. The parameter
  /// values themselves belong to the net and are saved with it.
  void save(std::ostream& os) const;
  /// Restores state saved by save(); the bound params must have the same
  /// shapes (throws cati::CorruptError otherwise).
  void load(std::istream& is);

 private:
  /// Elements [begin, end) of params_[param]; `flat` is `begin`'s offset in
  /// a gradient slab.
  struct Range {
    size_t param;
    size_t begin;
    size_t end;
    size_t flat;
  };

  Config cfg_;
  std::vector<Param*> params_;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
  std::vector<Range> ranges_;
  size_t numParams_ = 0;
  int64_t t_ = 0;
};

/// Builds the paper's per-stage architecture: Conv(3,c1)-ReLU-MaxPool(2)-
/// Conv(3,c2)-ReLU-MaxPool(2)-Flatten-FC(hidden)-ReLU-[Dropout]-FC(classes).
/// Flatten is implicit (Linear reads the pooled [c2 x L/4] map as one
/// vector); a pool is skipped when its input is shorter than 2, so window 0
/// has neither. Engine's shared-context predict relies on the
/// Conv(3)-ReLU-MaxPool(2) prefix (DESIGN.md §7).
Sequential makeCnn(Shape in, int conv1, int conv2, int hidden, int classes,
                   float dropout, Rng& rng);

/// Central-difference gradient check of a sequential + softmax head on one
/// sample, against the analytic gradients of a batch-1 backward into a
/// fresh scratch's slab; returns the 95th-percentile relative error over
/// sampled parameters (the extreme tail is dominated by ReLU / max-pool
/// kink crossings, not backprop errors).
double gradientCheck(Sequential& net, std::span<const float> x, int target,
                     double eps = 1e-3);

}  // namespace cati::nn
