// Tests for the NN library: shape propagation, numeric gradient checks for
// every layer (the backprop correctness proof), softmax invariants, Adam
// convergence on a toy problem, and model serialization — including the
// range checks that keep a CRC-valid but hostile model from loading.
#include "nn/nn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/errors.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "nn/qnn.h"

namespace cati::nn {
namespace {

TEST(Shapes, CnnPipeline) {
  Rng rng(1);
  Sequential net = makeCnn({96, 21}, 32, 64, 128, 5, 0.0F, rng);
  EXPECT_EQ(net.outShape(), (Shape{5, 1}));
}

TEST(Shapes, TinyWindowSkipsPooling) {
  Rng rng(1);
  // L=1 (window 0 ablation) must still build a valid net.
  Sequential net = makeCnn({96, 1}, 8, 8, 16, 3, 0.0F, rng);
  EXPECT_EQ(net.outShape(), (Shape{3, 1}));
  std::vector<float> x(96, 0.5F);
  Scratch s = net.makeScratch();
  const auto y = net.forward(x, 1, s, Phase::kInfer);
  EXPECT_EQ(y.size(), 3U);
}

TEST(Softmax, SumsToOneAndLossPositive) {
  std::vector<float> logits = {1.0F, -2.0F, 0.5F, 3.0F};
  std::vector<float> probs(4);
  const float loss = SoftmaxCE::forward(logits, 1, probs);
  float sum = 0.0F;
  for (const float p : probs) {
    EXPECT_GT(p, 0.0F);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0F, 1e-5F);
  EXPECT_GT(loss, 0.0F);
  // Large logits must not overflow.
  logits = {1000.0F, 999.0F, -1000.0F, 0.0F};
  SoftmaxCE::forward(logits, 0, probs);
  for (const float p : probs) EXPECT_TRUE(std::isfinite(p));
}

TEST(Softmax, BackwardIsProbsMinusOneHot) {
  std::vector<float> probs = {0.1F, 0.7F, 0.2F};
  std::vector<float> d(3);
  SoftmaxCE::backward(probs, 1, d);
  EXPECT_FLOAT_EQ(d[0], 0.1F);
  EXPECT_FLOAT_EQ(d[1], -0.3F);
  EXPECT_FLOAT_EQ(d[2], 0.2F);
}

// Gradient checks: analytic backprop vs central differences, per layer type.
struct GradCase {
  const char* name;
  Shape in;
  int conv1;
  int conv2;
  int hidden;
  int classes;
};

class GradCheck : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradCheck, AnalyticMatchesNumeric) {
  const GradCase& c = GetParam();
  Rng rng(42);
  Sequential net =
      makeCnn(c.in, c.conv1, c.conv2, c.hidden, c.classes, 0.0F, rng);
  std::vector<float> x(static_cast<size_t>(c.in.size()));
  for (float& v : x) v = rng.normal() * 0.5F;
  const double err = gradientCheck(net, x, c.classes - 1);
  EXPECT_LT(err, 6e-2) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, GradCheck,
    ::testing::Values(GradCase{"tiny", {6, 9}, 4, 4, 8, 2},
                      GradCase{"narrow", {12, 21}, 6, 8, 16, 5},
                      GradCase{"threeclass", {8, 11}, 4, 6, 12, 3},
                      GradCase{"nineclass", {10, 7}, 4, 4, 8, 9}));

TEST(GradCheckLayers, LinearOnly) {
  Rng rng(3);
  Sequential net({7, 1});
  net.add(std::make_unique<Linear>(7, 5, &rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Linear>(5, 3, &rng));
  std::vector<float> x(7);
  for (float& v : x) v = rng.normal();
  EXPECT_LT(gradientCheck(net, x, 0), 6e-2);
}

TEST(Layers, ReluMasksNegatives) {
  ReLU r;
  LayerScratch s;
  std::vector<float> x = {-1.0F, 0.0F, 2.0F};
  std::vector<float> y(3);
  r.forward(x, y, 1, s, Phase::kTrain);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 0.0F);
  EXPECT_EQ(y[2], 2.0F);
  std::vector<float> dy = {1.0F, 1.0F, 1.0F};
  std::vector<float> dx(3);
  r.backward(dy, dx, 1, s, {});
  EXPECT_EQ(dx[0], 0.0F);
  EXPECT_EQ(dx[2], 1.0F);
}

TEST(Layers, MaxPoolForwardBackward) {
  MaxPool1d p(2);
  p.setInShape({1, 6});
  LayerScratch s;
  std::vector<float> x = {1.0F, 3.0F, 2.0F, 2.0F, -1.0F, -5.0F};
  std::vector<float> y(3);
  p.forward(x, y, 1, s, Phase::kTrain);
  EXPECT_EQ(y[0], 3.0F);
  EXPECT_EQ(y[1], 2.0F);
  EXPECT_EQ(y[2], -1.0F);
  std::vector<float> dy = {1.0F, 1.0F, 1.0F};
  std::vector<float> dx(6);
  p.backward(dy, dx, 1, s, {});
  EXPECT_EQ(dx[1], 1.0F);
  EXPECT_EQ(dx[0], 0.0F);
  EXPECT_EQ(dx[4], 1.0F);
}

TEST(Layers, MaxPoolBranchFreeKeepsCompareSemantics) {
  // The pooled value and argmax follow a strict `x > best` scan that starts
  // at the window's first element: NaN never wins (and a leading NaN is
  // kept), -0 and +0 tie so the first one is kept, the first of equal maxima
  // wins. kInfer (value only) must be byte-equal to kEval.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float special[] = {nan, -0.0F, 0.0F, inf, -inf, 1.0F, 1.0F, -2.0F};
  Rng rng(41);
  for (const int k : {2, 3, 4}) {
    const int c = 3, l = 4 * k + 1;  // + 1: a trailing element no window uses
    MaxPool1d p(k);
    p.setInShape({c, l});
    const int n = 5;
    std::vector<float> x(static_cast<size_t>(n) * c * l);
    for (float& v : x) {
      v = special[rng.uniformInt(0, std::ssize(special) - 1)];
    }
    const int outL = l / k;
    std::vector<float> yInfer(static_cast<size_t>(n) * c * outL);
    std::vector<float> yEval(yInfer.size());
    LayerScratch si, se;
    p.forward(x, yInfer, n, si, Phase::kInfer);
    p.forward(x, yEval, n, se, Phase::kEval);
    ASSERT_EQ(std::memcmp(yInfer.data(), yEval.data(),
                          yInfer.size() * sizeof(float)),
              0)
        << "k=" << k;
    ASSERT_EQ(se.argmax.size(), yEval.size());
    for (int r = 0; r < n * c; ++r) {
      const float* row = x.data() + static_cast<size_t>(r) * l;
      for (int t = 0; t < outL; ++t) {
        int best = t * k;  // the compare-and-branch reference scan
        for (int j = 1; j < k; ++j) {
          if (row[t * k + j] > row[best]) best = t * k + j;
        }
        const size_t at = static_cast<size_t>(r) * outL + t;
        EXPECT_EQ(se.argmax[at], best) << "k=" << k << " row=" << r
                                       << " t=" << t;
        EXPECT_EQ(std::memcmp(&yEval[at], &row[best], sizeof(float)), 0)
            << "k=" << k << " row=" << r << " t=" << t;
      }
    }
  }
}

TEST(Layers, DropoutInferenceIsIdentity) {
  Dropout d(0.5F, 7);
  LayerScratch s;
  std::vector<float> x = {1.0F, 2.0F, 3.0F};
  std::vector<float> y(3);
  d.forward(x, y, 1, s, Phase::kInfer);
  EXPECT_EQ(y, x);
}

TEST(Layers, DropoutTrainZeroesSome) {
  Dropout d(0.5F, 7);
  LayerScratch s;
  std::vector<float> x(1000, 1.0F);
  std::vector<float> y(1000);
  d.forward(x, y, 1, s, Phase::kTrain);
  int zeros = 0;
  for (const float v : y) {
    if (v == 0.0F) ++zeros;
  }
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 700);
}

TEST(Layers, InferSkipsBackwardCaches) {
  // Phase::kInfer is the shared-const fast path: it must not populate the
  // scratch caches a backward would need.
  ReLU r;
  LayerScratch s;
  std::vector<float> x = {-1.0F, 2.0F};
  std::vector<float> y(2);
  r.forward(x, y, 1, s, Phase::kInfer);
  EXPECT_TRUE(s.mask.empty());
  MaxPool1d p(2);
  p.setInShape({1, 2});
  std::vector<float> py(1);
  p.forward(x, py, 1, s, Phase::kInfer);
  EXPECT_TRUE(s.argmax.empty());
}

TEST(Adam, LearnsXorLikeSeparation) {
  // A small FC net must drive training loss near zero on a separable toy
  // problem — smoke test that optimizer + backprop learn at all.
  Rng rng(11);
  Sequential net({2, 1});
  net.add(std::make_unique<Linear>(2, 16, &rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Linear>(16, 2, &rng));
  Adam adam(net.params(), {.lr = 5e-2F});
  Scratch s = net.makeScratch();
  par::ThreadPool pool(1);

  const float xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const int ys[4] = {0, 1, 1, 0};
  std::vector<float> probs(2);
  std::vector<float> d(2);
  std::vector<float> grads(net.numParams());
  double lastLoss = 0.0;
  for (int it = 0; it < 400; ++it) {
    lastLoss = 0.0;
    std::ranges::fill(grads, 0.0F);
    for (int i = 0; i < 4; ++i) {
      const auto logits = net.forward({xs[i], 2}, 1, s, Phase::kTrain);
      lastLoss += SoftmaxCE::forward(logits, ys[i], probs);
      SoftmaxCE::backward(probs, ys[i], d);
      net.backward(d, 1, s, grads);
    }
    adam.step(grads, 0.25F, pool);
  }
  EXPECT_LT(lastLoss / 4.0, 0.1);
}

TEST(Serialize, SequentialRoundTrip) {
  Rng rng(9);
  Sequential net = makeCnn({6, 9}, 4, 4, 8, 3, 0.3F, rng);
  std::vector<float> x(54);
  for (float& v : x) v = rng.normal();
  Scratch s1 = net.makeScratch();
  const auto y1 = net.forward(x, 1, s1, Phase::kInfer);
  const std::vector<float> out1(y1.begin(), y1.end());

  std::stringstream ss;
  net.save(ss);
  Sequential back = Sequential::load(ss);
  EXPECT_EQ(back.outShape(), net.outShape());
  Scratch s2 = back.makeScratch();
  const auto y2 = back.forward(x, 1, s2, Phase::kInfer);
  ASSERT_EQ(y2.size(), out1.size());
  for (size_t i = 0; i < out1.size(); ++i) EXPECT_FLOAT_EQ(y2[i], out1[i]);
}

TEST(Serialize, CorruptModelThrows) {
  std::stringstream ss("this is not a model");
  EXPECT_THROW(Sequential::load(ss), std::runtime_error);
}

// --- hostile layer fields (DESIGN.md §6) -------------------------------------
// Each stream below is what an attacker who recomputes the container CRC can
// hand Sequential::load: a well-formed header and layer kind followed by
// saveExtra bytes of their choosing.

/// A Sequential stream with input shape `in` and one layer of `kind` whose
/// saveExtra bytes `extra` writes.
std::string oneLayerNet(Shape in, const std::string& kind,
                        const std::function<void(io::Writer&)>& extra) {
  std::ostringstream os;
  io::Writer w(os);
  io::writeHeader(w, 0x434e4e31 /*"CNN1"*/, 1);
  w.pod(in.c);
  w.pod(in.l);
  w.pod<uint64_t>(1);
  w.str(kind);
  extra(w);
  return std::move(os).str();
}

Sequential loadNet(const std::string& bytes) {
  std::istringstream is(bytes);
  return Sequential::load(is);
}

/// Conv1d / QConv1d-style dims: inC, outC, k.
std::function<void(io::Writer&)> convDims(int inC, int outC, int k,
                                          size_t weights, size_t biases) {
  return [=](io::Writer& w) {
    w.pod(inC);
    w.pod(outC);
    w.pod(k);
    w.vec(std::vector<float>(weights, 0.5F));
    w.vec(std::vector<float>(biases, 0.0F));
  };
}

TEST(SerializeHostile, Conv1dWeightCountMustMatchDims) {
  // 96 -> 32, k = 3 needs 9216 weights; forward would read past 10.
  EXPECT_THROW(loadNet(oneLayerNet({96, 21}, "conv1d",
                                   convDims(96, 32, 3, 10, 32))),
               CorruptError);
  EXPECT_THROW(loadNet(oneLayerNet({96, 21}, "conv1d",
                                   convDims(96, 32, 3, 96 * 32 * 3, 31))),
               CorruptError);
  EXPECT_NO_THROW(loadNet(oneLayerNet({96, 21}, "conv1d",
                                      convDims(96, 32, 3, 96 * 32 * 3, 32))));
}

TEST(SerializeHostile, LinearWeightCountMustMatchDims) {
  const auto linear = [](size_t weights, size_t biases) {
    return [=](io::Writer& w) {
      w.pod(8);
      w.pod(3);
      w.vec(std::vector<float>(weights, 0.5F));
      w.vec(std::vector<float>(biases, 0.0F));
    };
  };
  EXPECT_THROW(loadNet(oneLayerNet({8, 1}, "linear", linear(23, 3))),
               CorruptError);
  EXPECT_THROW(loadNet(oneLayerNet({8, 1}, "linear", linear(24, 4))),
               CorruptError);
  EXPECT_NO_THROW(loadNet(oneLayerNet({8, 1}, "linear", linear(24, 3))));
}

TEST(SerializeHostile, LayerDimsMustBePositiveAndBounded) {
  for (const int bad : {0, -1, io::kMaxDim + 1}) {
    EXPECT_THROW(loadNet(oneLayerNet({4, 5}, "conv1d",
                                     convDims(4, bad, 3, 0, 0))),
                 CorruptError)
        << bad;
    EXPECT_THROW(loadNet(oneLayerNet({4, 5}, "conv1d",
                                     convDims(4, 2, bad, 0, 0))),
                 CorruptError)
        << bad;
  }
}

TEST(SerializeHostile, MaxPoolKernelMustBePositive) {
  // k = 0 would divide by zero in MaxPool1d::outShape (SIGFPE).
  for (const int k : {0, -2}) {
    EXPECT_THROW(loadNet(oneLayerNet({4, 6}, "maxpool1d",
                                     [k](io::Writer& w) { w.pod(k); })),
                 CorruptError)
        << k;
  }
}

TEST(SerializeHostile, EmptyOutputShapeRejected) {
  // A pool wider than the input leaves zero positions for the next layer.
  EXPECT_THROW(loadNet(oneLayerNet({4, 6}, "maxpool1d",
                                   [](io::Writer& w) { w.pod(7); })),
               CorruptError);
  EXPECT_NO_THROW(loadNet(oneLayerNet({4, 6}, "maxpool1d",
                                      [](io::Writer& w) { w.pod(6); })));
}

TEST(SerializeHostile, DropoutRateMustBeInUnitInterval) {
  for (const float p : {1.0F, -0.25F, 7.0F,
                        std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_THROW(loadNet(oneLayerNet({4, 6}, "dropout",
                                     [p](io::Writer& w) { w.pod(p); })),
                 CorruptError)
        << p;
  }
  EXPECT_NO_THROW(loadNet(oneLayerNet({4, 6}, "dropout",
                                      [](io::Writer& w) { w.pod(0.0F); })));
}

TEST(SerializeHostile, InputShapeMustBeNonEmptyAndBounded) {
  const auto relu = [](io::Writer&) {};
  for (const Shape in : {Shape{0, 5}, Shape{4, -1}, Shape{io::kMaxDim, 2}}) {
    EXPECT_THROW(loadNet(oneLayerNet(in, "relu", relu)), CorruptError)
        << in.c << "x" << in.l;
  }
}

/// A Sequential stream with input shape `in` followed by `layers` relu
/// records (12 bytes each).
std::string reluNet(Shape in, uint64_t layers) {
  std::ostringstream os;
  io::Writer w(os);
  io::writeHeader(w, 0x434e4e31 /*"CNN1"*/, 1);
  w.pod(in.c);
  w.pod(in.l);
  w.pod<uint64_t>(layers);
  for (uint64_t i = 0; i < layers; ++i) w.str("relu");
  return std::move(os).str();
}

TEST(SerializeHostile, LayerCountIsBounded) {
  EXPECT_NO_THROW(loadNet(reluNet({4, 6}, kMaxLayers)));
  EXPECT_THROW(loadNet(reluNet({4, 6}, kMaxLayers + 1)), CorruptError);
  // A huge count is rejected before any layer record is read.
  std::string huge = reluNet({4, 6}, 0);
  huge.replace(huge.size() - sizeof(uint64_t), sizeof(uint64_t),
               std::string(sizeof(uint64_t), '\xff'));
  EXPECT_THROW(loadNet(huge), CorruptError);
}

TEST(SerializeHostile, NetActivationsAreBounded) {
  // Each shape alone fits io::kMaxDim, but a forward pass would size one
  // activation buffer per layer: seven 171,000-float shapes exceed the
  // per-sample budget, six do not.
  const Shape wide{1000, 171};
  EXPECT_NO_THROW(loadNet(reluNet(wide, 5)));
  EXPECT_THROW(loadNet(reluNet(wide, 6)), CorruptError);
}

TEST(SerializeHostile, LayerMustFitThePreviousShape) {
  // A well-formed 5 -> 2 conv behind a 4-channel input.
  EXPECT_THROW(loadNet(oneLayerNet({4, 6}, "conv1d",
                                   convDims(5, 2, 3, 30, 2))),
               CorruptError);
}

TEST(SerializeHostile, UnknownLayerKindRejected) {
  for (const char* kind : {"conv3d", "globalmaxpool"}) {
    EXPECT_THROW(loadNet(oneLayerNet({4, 6}, kind, [](io::Writer&) {})),
                 CorruptError)
        << kind;
  }
}

// --- int8 layers persist like fp32 ones ------------------------------------

TEST(SerializeQuant, QuantizedNetRoundTripsByteIdentically) {
  Rng rng(31);
  const Sequential net = makeCnn({6, 9}, 4, 5, 8, 3, 0.3F, rng);
  const Sequential q = quantizeNet(net);
  std::ostringstream os;
  q.save(os);
  const std::string bytes = std::move(os).str();
  Sequential back = loadNet(bytes);
  ASSERT_EQ(back.numLayers(), q.numLayers());
  for (size_t i = 0; i < q.numLayers(); ++i) {
    EXPECT_EQ(back.layer(i).kind(), q.layer(i).kind());
  }
  // Row sums are recomputed on load, not stored: they must come back equal.
  const auto& a = dynamic_cast<const QConv1d&>(q.layer(0)).qweights();
  const auto& b = dynamic_cast<const QConv1d&>(back.layer(0)).qweights();
  EXPECT_EQ(a.rowSum, b.rowSum);
  EXPECT_EQ(a.w, b.w);

  std::vector<float> x(2 * 54);
  for (float& v : x) v = rng.normal();
  Scratch sa = q.makeScratch();
  Scratch sb = back.makeScratch();
  const auto ya = q.forward(x, 2, sa, Phase::kInfer);
  const std::vector<float> outA(ya.begin(), ya.end());
  const auto yb = back.forward(x, 2, sb, Phase::kInfer);
  ASSERT_EQ(yb.size(), outA.size());
  EXPECT_EQ(std::memcmp(yb.data(), outA.data(), outA.size() * sizeof(float)),
            0);

  std::ostringstream again;
  back.save(again);
  EXPECT_EQ(std::move(again).str(), bytes);
}

TEST(SerializeQuant, QuantizedCountsMustMatchDims) {
  // A 6 -> 5, k = 3 qconv1d: scale/bias of 5, w of 3 blocks.
  const size_t wBytes = 3 * qBlockBytes(6, 5);
  const auto qconv = [](int inC, size_t scales, size_t w) {
    return [=](io::Writer& wr) {
      wr.pod(inC);
      wr.pod(5);
      wr.pod(3);
      wr.vec(std::vector<float>(scales, 0.01F));
      wr.vec(std::vector<float>(5, 0.0F));
      wr.vec(std::vector<int8_t>(w, 1));
    };
  };
  EXPECT_NO_THROW(loadNet(oneLayerNet({6, 9}, "qconv1d", qconv(6, 5, wBytes))));
  EXPECT_THROW(loadNet(oneLayerNet({6, 9}, "qconv1d", qconv(6, 4, wBytes))),
               CorruptError);
  EXPECT_THROW(
      loadNet(oneLayerNet({6, 9}, "qconv1d", qconv(6, 5, wBytes - 1))),
      CorruptError);
  // Counts consistent with inC = 7, but the input has 6 channels.
  EXPECT_THROW(loadNet(oneLayerNet({6, 9}, "qconv1d",
                                   qconv(7, 5, 3 * qBlockBytes(7, 5)))),
               CorruptError);

  const auto qlinear = [](size_t w) {
    return [=](io::Writer& wr) {
      wr.pod(6);
      wr.pod(2);
      wr.vec(std::vector<float>(2, 0.01F));
      wr.vec(std::vector<float>(2, 0.0F));
      wr.vec(std::vector<int8_t>(w, 1));
    };
  };
  EXPECT_NO_THROW(
      loadNet(oneLayerNet({6, 1}, "qlinear", qlinear(qBlockBytes(6, 2)))));
  EXPECT_THROW(
      loadNet(oneLayerNet({6, 1}, "qlinear", qlinear(qBlockBytes(6, 2) + 4))),
      CorruptError);
}

TEST(Layers, SizeMismatchThrows) {
  Rng rng(2);
  Linear lin(4, 2, &rng);
  LayerScratch s;
  std::vector<float> x(3);
  std::vector<float> y(2);
  EXPECT_THROW(lin.forward(x, y, 1, s, Phase::kInfer), std::invalid_argument);
  std::vector<float> x8(8);
  std::vector<float> y4(4);
  EXPECT_THROW(lin.forward(x8, y4, 3, s, Phase::kInfer),
               std::invalid_argument);
}

// --- batch/per-sample differential: the §7 determinism contract at the nn
// layer. batch=B must reproduce batch=1 bit-for-bit: forward activations,
// accumulated gradients, and dropout draw order.

TEST(Batch, ForwardMatchesPerSampleBitExact) {
  Rng rng(21);
  Sequential net = makeCnn({6, 9}, 4, 4, 8, 3, 0.0F, rng);
  // 13 = one full lane group (kBatchLane) plus a zero-padded partial one,
  // and batch 1 pads seven lanes: the padding never reaches a real sample.
  constexpr int kN = kBatchLane + 5;
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto outSize = static_cast<size_t>(net.outShape().size());
  std::vector<float> xs(kN * inSize);
  for (float& v : xs) v = rng.normal();

  Scratch sb = net.makeScratch();
  const auto yb = net.forward(xs, kN, sb, Phase::kInfer);
  ASSERT_EQ(yb.size(), kN * outSize);

  Scratch s1 = net.makeScratch();
  for (int i = 0; i < kN; ++i) {
    const auto y1 = net.forward(
        std::span(xs).subspan(static_cast<size_t>(i) * inSize, inSize), 1, s1,
        Phase::kInfer);
    for (size_t j = 0; j < outSize; ++j) {
      EXPECT_EQ(yb[static_cast<size_t>(i) * outSize + j], y1[j])
          << "sample " << i << " logit " << j;
    }
  }
  // kEval (caching) must not change the numbers either.
  Scratch se = net.makeScratch();
  const auto ye = net.forward(xs, kN, se, Phase::kEval);
  for (size_t j = 0; j < yb.size(); ++j) EXPECT_EQ(yb[j], ye[j]);
}

TEST(Batch, BackwardGradsMatchPerSampleFold) {
  Rng rng(22);
  Sequential net = makeCnn({6, 9}, 4, 4, 8, 3, 0.0F, rng);
  constexpr int kN = 4;
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto outSize = static_cast<size_t>(net.outShape().size());
  std::vector<float> xs(kN * inSize);
  std::vector<float> douts(kN * outSize);
  for (float& v : xs) v = rng.normal();
  for (float& v : douts) v = rng.normal();

  // Both destinations, each way round: the batch into a caller slab and
  // into the scratch's own, and the per-sample fold likewise.
  std::vector<float> slab(net.numParams());
  Scratch sb = net.makeScratch();
  net.forward(xs, kN, sb, Phase::kEval);
  net.backward(douts, kN, sb, slab);
  const std::vector<float> gb = slab;
  net.backward(douts, kN, sb);
  const std::vector<float> gbOwn(sb.grads().begin(), sb.grads().end());

  // Per-sample fold on one scratch: gradients accumulate across backward
  // calls in sample order — the historical chunk loop.
  std::ranges::fill(slab, 0.0F);
  Scratch s1 = net.makeScratch();
  for (int i = 0; i < kN; ++i) {
    net.forward(std::span(xs).subspan(static_cast<size_t>(i) * inSize, inSize),
                1, s1, Phase::kEval);
    const auto dOut =
        std::span(douts).subspan(static_cast<size_t>(i) * outSize, outSize);
    net.backward(dOut, 1, s1, slab);
    net.backward(dOut, 1, s1);
  }
  const std::vector<float> g1(s1.grads().begin(), s1.grads().end());

  ASSERT_FALSE(gb.empty());
  ASSERT_EQ(gb.size(), g1.size());
  for (size_t j = 0; j < gb.size(); ++j) {
    EXPECT_EQ(gb[j], g1[j]) << "grad element " << j;
    EXPECT_EQ(gbOwn[j], g1[j]) << "scratch slab, grad element " << j;
    EXPECT_EQ(slab[j], g1[j]) << "caller slab fold, grad element " << j;
  }
}

TEST(Batch, BackwardIntoCallerSlabMatchesScratchSlab) {
  // One accumulation, two destinations: a backward into a caller's slab
  // gives the bits a backward into Scratch::grads() gives, adds onto what
  // the slab held, and leaves the other destination untouched.
  Rng rng(24);
  Sequential net = makeCnn({6, 9}, 4, 4, 8, 3, 0.0F, rng);
  constexpr int kN = 5;
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto outSize = static_cast<size_t>(net.outShape().size());
  std::vector<float> xs(kN * inSize);
  std::vector<float> douts(kN * outSize);
  for (float& v : xs) v = rng.normal();
  for (float& v : douts) v = rng.normal();

  Scratch s = net.makeScratch();
  net.forward(xs, kN, s, Phase::kEval);
  std::vector<float> slab(net.numParams());
  net.backward(douts, kN, s, slab);
  EXPECT_TRUE(s.grads().empty()) << "a caller-slab backward sized the "
                                    "scratch's own slab";

  net.backward(douts, kN, s);
  const std::vector<float> once = slab;
  ASSERT_EQ(s.grads().size(), slab.size());
  EXPECT_TRUE(std::ranges::equal(s.grads(), slab));

  // A second pass adds onto each destination alone, the same ops on each.
  net.backward(douts, kN, s, slab);
  EXPECT_TRUE(std::ranges::equal(s.grads(), once))
      << "a caller-slab backward touched the scratch's slab";
  EXPECT_FALSE(std::ranges::equal(slab, once))
      << "a second backward did not accumulate";
  const std::vector<float> twice = slab;
  net.backward(douts, kN, s);
  EXPECT_TRUE(std::ranges::equal(s.grads(), twice));
  EXPECT_TRUE(std::ranges::equal(slab, twice))
      << "a scratch-slab backward touched the caller's slab";

  std::vector<float> wrong(net.numParams() + 1);
  EXPECT_THROW(net.backward(douts, kN, s, wrong), std::invalid_argument);
}

TEST(Batch, DropoutDrawsMatchPerSampleOrder) {
  Rng rng(23);
  Sequential net = makeCnn({4, 5}, 4, 4, 8, 2, 0.5F, rng);
  constexpr int kN = 3;
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto outSize = static_cast<size_t>(net.outShape().size());
  std::vector<float> xs(kN * inSize);
  for (float& v : xs) v = rng.normal();

  Scratch sb = net.makeScratch();
  sb.reseed(99);
  const auto yb = net.forward(xs, kN, sb, Phase::kTrain);
  const std::vector<float> batched(yb.begin(), yb.end());

  Scratch s1 = net.makeScratch();
  s1.reseed(99);
  for (int i = 0; i < kN; ++i) {
    const auto y1 = net.forward(
        std::span(xs).subspan(static_cast<size_t>(i) * inSize, inSize), 1, s1,
        Phase::kTrain);
    for (size_t j = 0; j < outSize; ++j) {
      EXPECT_EQ(batched[static_cast<size_t>(i) * outSize + j], y1[j])
          << "sample " << i << " logit " << j;
    }
  }
}

// --- lane-resident inference: Sequential::forwardLanes keeps one lane group
// of up to kBatchLane samples lane-major through every layer from `first`
// on, and must give forwardFrom's bits in every lane.

/// Each of the n samples of `x` ([n x size], sample-major) as a lane of
/// ceil(n / kBatchLane) back-to-back lane groups ([size][kBatchLane] each).
/// Lanes past n hold NaN: no lane may read another.
std::vector<float> packGroups(std::span<const float> x, size_t size, int n) {
  const int groups = (n + kBatchLane - 1) / kBatchLane;
  std::vector<float> packs(static_cast<size_t>(groups) * size * kBatchLane,
                           std::numeric_limits<float>::quiet_NaN());
  for (int k = 0; k < n; ++k) {
    float* pack = packs.data() + static_cast<size_t>(k / kBatchLane) * size *
                                     kBatchLane;
    for (size_t i = 0; i < size; ++i) {
      pack[i * kBatchLane + k % kBatchLane] = x[k * size + i];
    }
  }
  return packs;
}

/// Checks forwardLanes(first) against forwardFrom(first, kInfer) on the n
/// samples `x`, bit for bit.
void expectLanesMatch(const Sequential& net, size_t first,
                      std::span<const float> x, int n,
                      const std::string& what) {
  const auto inSize = static_cast<size_t>(net.layerInShape(first).size());
  const auto outSize = static_cast<size_t>(net.outShape().size());
  Scratch ref = net.makeScratch();
  const auto want = net.forwardFrom(first, x, n, ref, Phase::kInfer);
  const std::vector<float> packs = packGroups(x, inSize, n);
  Scratch s = net.makeScratch();
  for (int g = 0; g * kBatchLane < n; ++g) {
    const auto got = net.forwardLanes(
        first,
        std::span(packs).subspan(static_cast<size_t>(g) * inSize * kBatchLane,
                                 inSize * kBatchLane),
        s);
    ASSERT_EQ(got.size(), outSize * kBatchLane) << what;
    for (int b = 0; b < kBatchLane && g * kBatchLane + b < n; ++b) {
      const size_t k = static_cast<size_t>(g) * kBatchLane + b;
      for (size_t j = 0; j < outSize; ++j) {
        ASSERT_EQ(std::memcmp(&got[j * kBatchLane + b], &want[k * outSize + j],
                              sizeof(float)),
                  0)
            << what << " sample " << k << " output " << j;
      }
    }
  }
}

TEST(Lanes, StageNetsMatchForwardFromEveryLayer) {
  // The default stage net (EngineConfig: 96 channels, conv 32-64, FC 128,
  // dropout 0.3) at windows 10, 2 and 1, whose nets differ in shape: window
  // 1 has no second pool. From every layer on, at 1..17 samples: full lane
  // groups, partial ones and both together.
  for (const int window : {10, 2, 1}) {
    Rng rng(static_cast<uint64_t>(90 + window));
    const Sequential net =
        makeCnn({96, 2 * window + 1}, 32, 64, 128, 5, 0.3F, rng);
    for (size_t first = 0; first <= net.numLayers(); ++first) {
      const auto inSize = static_cast<size_t>(net.layerInShape(first).size());
      for (int n = 1; n <= 2 * kBatchLane + 1; ++n) {
        std::vector<float> x(static_cast<size_t>(n) * inSize);
        for (float& v : x) v = rng.normal();
        expectLanesMatch(net, first, x, n,
                         "window " + std::to_string(window) + " from layer " +
                             std::to_string(first) + " n " +
                             std::to_string(n));
      }
    }
  }
}

TEST(Lanes, ReluAndPoolKeepCompareSemantics) {
  // NaN never wins a pool and ReLU maps it to +0, -0 and +0 tie (the first
  // is kept; ReLU gives +0 for both), the first of equal maxima wins: the
  // lane selects must keep every bit of the scalar ones, pools of 2 and 3.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float special[] = {nan, -0.0F, 0.0F, inf, -inf, 1.0F, 1.0F, -2.0F};
  Rng rng(43);
  for (const int k : {2, 3}) {
    Sequential net({3, 4 * k + 1});
    net.add(std::make_unique<MaxPool1d>(k));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool1d>(2));
    for (size_t first = 0; first < net.numLayers(); ++first) {
      const auto inSize = static_cast<size_t>(net.layerInShape(first).size());
      for (const int n : {1, 7, 8, 9, 17}) {
        std::vector<float> x(static_cast<size_t>(n) * inSize);
        for (float& v : x) {
          v = special[rng.uniformInt(0, std::ssize(special) - 1)];
        }
        expectLanesMatch(net, first, x, n,
                         "k " + std::to_string(k) + " from layer " +
                             std::to_string(first) + " n " +
                             std::to_string(n));
      }
    }
  }
}

TEST(Lanes, LayersWithoutALaneFormThrow) {
  Rng rng(44);
  const Sequential q = quantizeNet(makeCnn({6, 9}, 4, 4, 8, 3, 0.0F, rng));
  Scratch s = q.makeScratch();
  std::vector<float> x(static_cast<size_t>(q.inShape().size()) * kBatchLane);
  EXPECT_THROW(q.forwardLanes(0, x, s), std::logic_error);
  EXPECT_THROW(q.forwardLanes(0, std::span(x).first(1), s),
               std::invalid_argument);
}

TEST(Batch, ScratchMismatchThrows) {
  Rng rng(24);
  Sequential a = makeCnn({6, 9}, 4, 4, 8, 3, 0.0F, rng);
  Sequential b({6, 9});  // different layer structure
  Scratch sb = b.makeScratch();
  std::vector<float> x(54);
  EXPECT_THROW(a.forward(x, 1, sb, Phase::kInfer), std::invalid_argument);
}

}  // namespace
}  // namespace cati::nn
