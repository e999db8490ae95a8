// The int8 quantization contract (DESIGN.md §11):
//
//   - quantize -> dequantize error is bounded by half a quantization step
//     per weight (symmetric per-output-channel scales);
//   - a quantized engine saves into the same CENG container as an fp32
//     one and is rejected on corruption the same way: bad magic,
//     truncation and flipped bits anywhere — int8 weights included, under
//     either load mode — are deterministic CorruptError, never a model
//     that predicts from garbage;
//   - quantized inference is bit-identical across batch sizes and job
//     counts (per-sample activation scales, exact int32 accumulation);
//   - the accuracy cost vs fp32 on the seeded micro-model is at most
//     0.5 pp — the gate that makes --quant safe to ship.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cati/engine.h"
#include "common/errors.h"
#include "common/rng.h"
#include "nn/kernels.h"
#include "nn/qnn.h"
#include "support/micro_model.h"

namespace cati {
namespace {

namespace stdfs = std::filesystem;

// --- weight round-trip -------------------------------------------------------

TEST(QuantWeights, RoundTripBoundedByHalfStep) {
  Rng rng(0x9047);
  for (const auto& [inF, outF, k] : {std::tuple{96, 32, 3},
                                     std::tuple{320, 128, 1},
                                     std::tuple{5, 3, 5}}) {
    std::vector<float> w(static_cast<size_t>(outF) * inF * k);
    for (auto& v : w) v = rng.normal(0.0F, 0.3F);
    std::vector<float> b(static_cast<size_t>(outF));
    for (auto& v : b) v = rng.normal();
    const nn::QWeights q = nn::quantizeWeights(w, b, inF, outF, k);

    ASSERT_EQ(q.w.size(), static_cast<size_t>(k) * nn::qBlockBytes(inF, outF));
    const int oPad = nn::kern::qOutPad(outF);
    const size_t blockBytes = nn::qBlockBytes(inF, outF);
    for (int o = 0; o < outF; ++o) {
      const float s = q.scale[static_cast<size_t>(o)];
      ASSERT_GT(s, 0.0F);
      for (int c = 0; c < inF; ++c) {
        for (int kk = 0; kk < k; ++kk) {
          const int g = c / nn::kern::kQGroup;
          const int j = c % nn::kern::kQGroup;
          const int8_t qv =
              q.w[static_cast<size_t>(kk) * blockBytes +
                  (static_cast<size_t>(g) * oPad + o) * nn::kern::kQGroup + j];
          const float orig =
              w[(static_cast<size_t>(o) * inF + c) * k + kk];
          // |w - q*s| <= s/2 unless the value clamped at ±127 (it cannot:
          // the scale is amax/127, so |w/s| <= 127 by construction).
          EXPECT_LE(std::fabs(orig - static_cast<float>(qv) * s),
                    s * 0.5F + 1e-7F)
              << "o=" << o << " c=" << c << " kk=" << kk;
        }
      }
    }
    // Row sums must equal the int8 rows: the VNNI kernel's bias correction
    // depends on them (loadExtra recomputes them from w the same way).
    for (int kk = 0; kk < k; ++kk) {
      for (int o = 0; o < outF; ++o) {
        int32_t sum = 0;
        for (int c = 0; c < inF; ++c) {
          const int g = c / nn::kern::kQGroup;
          const int j = c % nn::kern::kQGroup;
          sum += q.w[static_cast<size_t>(kk) * blockBytes +
                     (static_cast<size_t>(g) * oPad + o) * nn::kern::kQGroup +
                     j];
        }
        EXPECT_EQ(sum, q.rowSum[static_cast<size_t>(kk) * oPad + o]);
      }
    }
  }
}

TEST(QuantWeights, AllZeroRowUsesUnitScale) {
  const std::vector<float> w(12, 0.0F);
  const std::vector<float> b(3, 0.5F);
  const nn::QWeights q = nn::quantizeWeights(w, b, 4, 3, 1);
  for (const float s : q.scale) EXPECT_EQ(s, 1.0F);
  for (const int8_t v : q.w) EXPECT_EQ(v, 0);
}

TEST(QuantLayers, InferenceOnly) {
  Rng rng(1);
  nn::Conv1d conv(3, 4, 3, &rng);
  nn::QConv1d qconv(conv);
  nn::LayerScratch s;
  std::vector<float> x(3 * 5), y(4 * 5);
  EXPECT_THROW(qconv.forward(x, y, 1, s, nn::Phase::kTrain), std::logic_error);
  EXPECT_THROW(qconv.forward(x, y, 1, s, nn::Phase::kEval), std::logic_error);
  EXPECT_NO_THROW(qconv.forward(x, y, 1, s, nn::Phase::kInfer));
  EXPECT_THROW(qconv.backward(y, x, 1, s, {}), std::logic_error);
}

// --- engine-level: container, invariance, accuracy ---------------------------

class QuantEngineTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new Engine(testsupport::cachedMicroEngine());
    quant_ = new Engine(engine_->quantize());
    ds_ = new corpus::Dataset(testsupport::microDataset());
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete quant_;
    delete ds_;
    engine_ = nullptr;
    quant_ = nullptr;
    ds_ = nullptr;
  }

  static std::string quantBytes() {
    std::ostringstream os;
    quant_->save(os);
    return std::move(os).str();
  }

  /// Serialized per-stage probability bytes for the first `n` VUCs,
  /// predicted `batch` VUCs per predictVucs call.
  static std::string probeBytes(Engine& e, size_t n, par::ThreadPool* pool,
                                size_t batch) {
    const std::span<const corpus::Vuc> vucs(ds_->vucs.data(),
                                            std::min(n, ds_->vucs.size()));
    std::vector<StageProbs> probs;
    for (size_t at = 0; at < vucs.size(); at += batch) {
      const auto part = e.predictVucs(
          vucs.subspan(at, std::min(batch, vucs.size() - at)), pool);
      probs.insert(probs.end(), part.begin(), part.end());
    }
    std::string bytes;
    for (const auto& sp : probs) {
      for (int s = 0; s < kNumStages; ++s) {
        const std::span<const float> stage = sp.stage(static_cast<Stage>(s));
        bytes.append(reinterpret_cast<const char*>(stage.data()),
                     stage.size() * sizeof(float));
      }
    }
    return bytes;
  }

  static Engine* engine_;
  static Engine* quant_;
  static corpus::Dataset* ds_;
};

Engine* QuantEngineTest::engine_ = nullptr;
Engine* QuantEngineTest::quant_ = nullptr;
corpus::Dataset* QuantEngineTest::ds_ = nullptr;

TEST_F(QuantEngineTest, QuantizeGuards) {
  EXPECT_TRUE(quant_->quantized());
  EXPECT_FALSE(engine_->quantized());
  EXPECT_THROW(quant_->quantize(), std::logic_error);
  EXPECT_THROW(quant_->train(*ds_), std::logic_error);
  EXPECT_THROW(Engine{}.quantize(), std::logic_error);
}

TEST_F(QuantEngineTest, ContainerRoundTripsByteIdentically) {
  const std::string bytes = quantBytes();
  std::istringstream is(bytes);
  Engine loaded = Engine::load(is);
  EXPECT_TRUE(loaded.quantized());
  // Same predictions as the in-memory quantized engine...
  EXPECT_EQ(probeBytes(loaded, 32, nullptr, 8),
            probeBytes(*quant_, 32, nullptr, 8));
  // ...and re-saving reproduces the container bytes exactly.
  std::ostringstream os;
  loaded.save(os);
  EXPECT_EQ(std::move(os).str(), bytes);
}

TEST_F(QuantEngineTest, CorruptionIsRejectedDeterministically) {
  const std::string bytes = quantBytes();
  const auto loadFrom = [](std::string b) {
    std::istringstream is(std::move(b));
    return Engine::load(is);
  };
  // Bad magic.
  {
    std::string b = bytes;
    b[0] ^= 0x40;
    EXPECT_THROW(loadFrom(b), CorruptError);
  }
  // A flipped bit early in the payload (config echo / encoder).
  {
    std::string b = bytes;
    b[60] ^= 0x01;
    EXPECT_THROW(loadFrom(b), CorruptError);
  }
  // A flipped bit near the end: the last stage's int8 weights.
  {
    std::string b = bytes;
    b[b.size() - 40] ^= 0x01;
    EXPECT_THROW(loadFrom(b), CorruptError);
  }
  // Truncations: in the header and at three points of the payload.
  for (const size_t keep : {size_t{3}, size_t{200}, bytes.size() / 2,
                            bytes.size() - 33}) {
    EXPECT_THROW(loadFrom(bytes.substr(0, keep)), CorruptError) << keep;
  }
}

TEST_F(QuantEngineTest, FileLoadMatchesMemoryAndChecksEveryByte) {
  const stdfs::path dir = stdfs::temp_directory_path() / "cati_quant_file";
  stdfs::create_directories(dir);
  const stdfs::path file = dir / "model.q.bin";
  quant_->saveFile(file);

  Engine loaded = Engine::loadFile(file);
  EXPECT_TRUE(loaded.quantized());
  EXPECT_EQ(probeBytes(loaded, 32, nullptr, 8),
            probeBytes(*quant_, 32, nullptr, 8));

  const std::string bytes = quantBytes();
  const auto loadWritten = [&dir](const std::string& b) {
    const stdfs::path p = dir / "bad.bin";
    {
      std::ofstream os(p, std::ios::binary);
      os.write(b.data(), static_cast<std::streamsize>(b.size()));
    }
    return Engine::loadFile(p);
  };
  // Truncated payload.
  EXPECT_THROW(loadWritten(bytes.substr(0, bytes.size() - 33)), CorruptError);
  // A flip in the config echo / encoder, and one in the int8 weights: the
  // CRC covers both.
  for (const size_t at : {size_t{60}, bytes.size() - 40}) {
    std::string b = bytes;
    b[at] ^= 0x01;
    EXPECT_THROW(loadWritten(b), CorruptError) << at;
  }
  stdfs::remove_all(dir);
}

TEST_F(QuantEngineTest, PredictionsInvariantAcrossJobsAndBatch) {
  const std::string ref = probeBytes(*quant_, 64, nullptr, 1);
  for (const int jobs : {1, 2}) {
    par::ThreadPool pool(jobs);
    for (const size_t batch : {8, 32, 64}) {
      EXPECT_EQ(probeBytes(*quant_, 64, &pool, batch), ref)
          << "jobs=" << jobs << " batch=" << batch;
    }
  }
}

TEST_F(QuantEngineTest, AccuracyWithinHalfPointOfFp32) {
  // VUC-level leaf accuracy over every labeled micro-dataset VUC: the gate
  // the bench harness enforces, in ctest form.
  const std::span<const corpus::Vuc> vucs(ds_->vucs);
  const auto fp32Probs = engine_->predictVucs(vucs);
  const auto quantProbs = quant_->predictVucs(vucs);
  size_t labeled = 0, okFp = 0, okQ = 0;
  for (size_t i = 0; i < vucs.size(); ++i) {
    if (vucs[i].label == TypeLabel::kCount) continue;
    ++labeled;
    if (engine_->routeVuc(fp32Probs[i]) == vucs[i].label) ++okFp;
    if (quant_->routeVuc(quantProbs[i]) == vucs[i].label) ++okQ;
  }
  ASSERT_GT(labeled, 100U);
  const double accFp = static_cast<double>(okFp) / static_cast<double>(labeled);
  const double accQ = static_cast<double>(okQ) / static_cast<double>(labeled);
  EXPECT_LE(accFp - accQ, 0.005)
      << "fp32 " << accFp << " vs int8 " << accQ << " over " << labeled
      << " VUCs";
}

}  // namespace
}  // namespace cati
