// Seeded mutation-fuzz harness for the hostile-input contract: no byte
// sequence may crash the loader -> decoder -> recovery -> engine path, driven
// through serve::analyzeImage, the analysis entry point both tools run.
// Synth-generated images are mutated (bit flips, truncations, splices,
// garbage blocks) at two levels — the serialized container and the
// in-memory structure — and the full pipeline must return diagnostics,
// never throw, never UB. Run under -DCATI_SANITIZE=ON in CI so "never UB"
// is checked by ASan+UBSan, not just by not-crashing.
//
// Self-contained (common/rng.h, no libFuzzer). Deterministic: every
// mutation derives from fixed seeds. CATI_FUZZ_ITERS scales the iteration
// count (default 10500 across the three tests).
#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "asmx/encode.h"
#include "cati/engine.h"
#include "common/rng.h"
#include "corpus/corpus.h"
#include "loader/cache.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "support/env.h"
#include "synth/synth.h"

namespace cati {
namespace {

using testsupport::scaledIters;

std::string serializeImage(const loader::Image& img) {
  std::ostringstream os;
  loader::write(img, os);
  return std::move(os).str();
}

/// One random byte-level corruption: flip bits, truncate, overwrite a
/// block with garbage, splice a block from elsewhere in the file, or
/// extend with random tail bytes.
std::string mutateBytes(const std::string& base, Rng& rng) {
  std::string m = base;
  switch (rng.uniformInt(0, 4)) {
    case 0: {  // flip 1-8 bits
      const int flips = static_cast<int>(rng.uniformInt(1, 8));
      for (int i = 0; i < flips && !m.empty(); ++i) {
        const auto pos = static_cast<size_t>(
            rng.uniformInt(0, static_cast<int64_t>(m.size()) - 1));
        m[pos] = static_cast<char>(m[pos] ^ (1 << rng.uniformInt(0, 7)));
      }
      break;
    }
    case 1:  // truncate
      m.resize(static_cast<size_t>(
          rng.uniformInt(0, static_cast<int64_t>(m.size()))));
      break;
    case 2: {  // garbage block
      if (m.empty()) break;
      const auto pos = static_cast<size_t>(
          rng.uniformInt(0, static_cast<int64_t>(m.size()) - 1));
      const auto len = static_cast<size_t>(rng.uniformInt(1, 64));
      for (size_t i = pos; i < m.size() && i < pos + len; ++i) {
        m[i] = static_cast<char>(rng.uniformInt(0, 255));
      }
      break;
    }
    case 3: {  // splice: copy a block over another offset
      if (m.size() < 2) break;
      const auto n = static_cast<int64_t>(m.size());
      const auto src = static_cast<size_t>(rng.uniformInt(0, n - 1));
      const auto dst = static_cast<size_t>(rng.uniformInt(0, n - 1));
      const auto len = static_cast<size_t>(rng.uniformInt(1, 128));
      for (size_t i = 0; i < len && src + i < m.size() && dst + i < m.size();
           ++i) {
        m[dst + i] = m[src + i];
      }
      break;
    }
    default: {  // extend with a random tail
      const auto len = static_cast<size_t>(rng.uniformInt(1, 256));
      for (size_t i = 0; i < len; ++i) {
        m.push_back(static_cast<char>(rng.uniformInt(0, 255)));
      }
      break;
    }
  }
  return m;
}

class FuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Two donor images: one stripped gcc, one clang with debug info.
    loader::Image a = loader::buildImage(synth::generateBinary(
        synth::defaultProfile("fz", 0x77, 5), synth::Dialect::Gcc, 2, 11));
    loader::strip(a);
    const loader::Image b = loader::buildImage(synth::generateBinary(
        synth::defaultProfile("fz2", 0x78, 4), synth::Dialect::Clang, 1, 12));
    images_ = new std::vector<loader::Image>{std::move(a), b};
    bytes_ = new std::vector<std::string>{serializeImage((*images_)[0]),
                                          serializeImage((*images_)[1])};

    // Micro engine: the analyze stage only needs to *run* on garbage, so
    // the model is sized for speed, not accuracy.
    const auto bins = synth::generateCorpus(2, 5, synth::Dialect::Gcc, 31);
    EngineConfig cfg;
    cfg.window = 3;
    cfg.w2v.dim = 8;
    cfg.w2v.epochs = 1;
    cfg.conv1 = 4;
    cfg.conv2 = 4;
    cfg.fcHidden = 8;
    cfg.epochs = 1;
    cfg.maxTrainPerStage = 300;
    engine_ = new Engine(cfg);
    engine_->train(corpus::extractAll(bins, cfg.window));
    cache_ = new loader::DecodeCache();
  }
  static void TearDownTestSuite() {
    delete cache_;
    delete engine_;
    delete images_;
    delete bytes_;
    engine_ = nullptr;
    cache_ = nullptr;
    images_ = nullptr;
    bytes_ = nullptr;
  }

  /// The contract under test: load, disassemble, recover and analyze must
  /// be total. Any exception escaping here fails the test with the seed.
  static void runPipeline(const std::string& bytes, uint64_t seed) {
    DiagList diags;
    std::istringstream is(bytes);
    const auto img = loader::tryRead(is, diags);
    if (!img) {
      EXPECT_TRUE(hasErrors(diags)) << "seed " << seed;
      return;
    }
    analyze(*img, seed);
  }

  /// The entry point both tools run (cati-infer per image, cati-serve per
  /// request), through a decode cache shared across iterations the way the
  /// daemon shares one across requests.
  static void analyze(const loader::Image& img, uint64_t seed) {
    serve::AnalyzeOptions opts;
    opts.cache = cache_;
    const serve::AnalyzeResult res =
        serve::analyzeImage(*engine_, img, nullptr, 0, opts);
    EXPECT_NE(res.report.find(" variables typed"), std::string::npos)
        << "seed " << seed;
  }

  static std::vector<loader::Image>* images_;
  static std::vector<std::string>* bytes_;
  static Engine* engine_;
  static loader::DecodeCache* cache_;
};

std::vector<loader::Image>* FuzzTest::images_ = nullptr;
std::vector<std::string>* FuzzTest::bytes_ = nullptr;
Engine* FuzzTest::engine_ = nullptr;
loader::DecodeCache* FuzzTest::cache_ = nullptr;

TEST_F(FuzzTest, MutatedContainerBytes) {
  const int iters = scaledIters(6000);
  Rng rng(0xF0220001);
  for (int i = 0; i < iters; ++i) {
    const std::string& base = (*bytes_)[static_cast<size_t>(i) %
                                        bytes_->size()];
    const std::string m = mutateBytes(base, rng);
    ASSERT_NO_FATAL_FAILURE(runPipeline(m, rng.next()))
        << "iteration " << i;
  }
}

TEST_F(FuzzTest, MutatedImageStructure) {
  // Structural mutations that survive the container CRC (they happen after
  // parsing): garbage in .text, hostile boundaries, shifted baseAddr,
  // out-of-range symbols. This is the layer that exercises decoder resync
  // and recovery/engine totality on garbage instructions.
  const int iters = scaledIters(4000);
  Rng rng(0xF0220002);
  for (int i = 0; i < iters; ++i) {
    loader::Image img =
        (*images_)[static_cast<size_t>(i) % images_->size()];
    const int mutations = static_cast<int>(rng.uniformInt(1, 3));
    for (int k = 0; k < mutations; ++k) {
      switch (rng.uniformInt(0, 4)) {
        case 0: {  // corrupt a .text block
          if (img.text.empty()) break;
          const auto pos = static_cast<size_t>(rng.uniformInt(
              0, static_cast<int64_t>(img.text.size()) - 1));
          const auto len = static_cast<size_t>(rng.uniformInt(1, 96));
          for (size_t j = pos; j < img.text.size() && j < pos + len; ++j) {
            img.text[j] = static_cast<uint8_t>(rng.uniformInt(0, 255));
          }
          break;
        }
        case 1: {  // hostile boundary
          if (img.boundaries.empty()) break;
          auto& bd = img.boundaries[static_cast<size_t>(rng.uniformInt(
              0, static_cast<int64_t>(img.boundaries.size()) - 1))];
          bd.start = rng.next();
          bd.end = rng.chance(0.5) ? bd.start + rng.uniformInt(0, 4096)
                                   : rng.next();
          break;
        }
        case 2:  // shift the base so boundaries dangle
          img.baseAddr = rng.next();
          break;
        case 3: {  // truncate .text under the boundaries
          img.text.resize(static_cast<size_t>(rng.uniformInt(
              0, static_cast<int64_t>(img.text.size()))));
          break;
        }
        default: {  // out-of-range / aliased symbol
          if (img.symbols.empty()) break;
          auto& s = img.symbols[static_cast<size_t>(rng.uniformInt(
              0, static_cast<int64_t>(img.symbols.size()) - 1))];
          s.value = rng.next();
          break;
        }
      }
    }
    DiagList diags;
    loader::validate(img, diags);  // must be total too
    ASSERT_NO_FATAL_FAILURE(analyze(img, rng.next()))
        << "iteration " << i;
  }
}

TEST_F(FuzzTest, RandomBytesNeverCrash) {
  const int iters = scaledIters(500);
  Rng rng(0xF0220003);
  for (int i = 0; i < iters; ++i) {
    std::string buf(static_cast<size_t>(rng.uniformInt(0, 4096)), '\0');
    for (char& c : buf) c = static_cast<char>(rng.uniformInt(0, 255));
    ASSERT_NO_FATAL_FAILURE(runPipeline(buf, rng.next()))
        << "iteration " << i;
  }
}

TEST_F(FuzzTest, ParallelRecoveringDisassembleMatchesSerial) {
  // decodeAllRecover under jobs>1: the pooled overload must produce the
  // exact function list AND diagnostic sequence of the serial walk, even on
  // hostile images where some boundaries error and others quarantine bytes
  // (the merge is keyed on boundary-table order, not completion order).
  const int iters = scaledIters(300);
  Rng rng(0xF0220005);
  par::ThreadPool pool(3);
  for (int i = 0; i < iters; ++i) {
    loader::Image img = (*images_)[static_cast<size_t>(i) % images_->size()];
    // A light structural mutation mix: garbage .text block + one hostile
    // boundary, so runs hit both diagnostic paths.
    if (!img.text.empty()) {
      const auto pos = static_cast<size_t>(
          rng.uniformInt(0, static_cast<int64_t>(img.text.size()) - 1));
      const auto len = static_cast<size_t>(rng.uniformInt(1, 96));
      for (size_t j = pos; j < img.text.size() && j < pos + len; ++j) {
        img.text[j] = static_cast<uint8_t>(rng.uniformInt(0, 255));
      }
    }
    if (!img.boundaries.empty() && rng.chance(0.5)) {
      auto& bd = img.boundaries[static_cast<size_t>(rng.uniformInt(
          0, static_cast<int64_t>(img.boundaries.size()) - 1))];
      bd.start = rng.next();
      bd.end = rng.chance(0.5) ? bd.start + rng.uniformInt(0, 4096)
                               : rng.next();
    }

    DiagList serialDiags;
    DiagList poolDiags;
    const auto serial = loader::disassemble(img, serialDiags);
    const auto pooled = loader::disassemble(img, poolDiags, pool);

    ASSERT_EQ(serial.size(), pooled.size()) << "iteration " << i;
    for (size_t f = 0; f < serial.size(); ++f) {
      EXPECT_EQ(serial[f].name, pooled[f].name) << "iteration " << i;
      EXPECT_EQ(serial[f].addr, pooled[f].addr) << "iteration " << i;
      EXPECT_EQ(serial[f].insns.size(), pooled[f].insns.size())
          << "iteration " << i;
    }
    ASSERT_EQ(serialDiags.size(), poolDiags.size()) << "iteration " << i;
    for (size_t d = 0; d < serialDiags.size(); ++d) {
      EXPECT_EQ(toString(serialDiags[d]), toString(poolDiags[d]))
          << "iteration " << i << " diag " << d;
    }
  }
}

TEST_F(FuzzTest, DecoderResyncIsTotalOnRandomCode) {
  // decodeAllRecover directly on random byte soup: must account for every
  // byte and never throw.
  Rng rng(0xF0220004);
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> code(static_cast<size_t>(rng.uniformInt(0, 512)));
    for (auto& b : code) b = static_cast<uint8_t>(rng.uniformInt(0, 255));
    DiagList diags;
    const auto insns = asmx::decodeAllRecover(code, 0x401000, &diags);
    // Every instruction consumes >= 1 byte, and empty input decodes to
    // nothing; quarantine runs must only be reported when .byte was
    // emitted.
    EXPECT_LE(insns.size(), code.size()) << "iteration " << i;
    bool sawByte = false;
    for (const auto& ins : insns) sawByte |= asmx::isQuarantinedByte(ins);
    EXPECT_EQ(diags.empty(), !sawByte) << "iteration " << i;
  }
}

}  // namespace
}  // namespace cati
