// Tests for the embedding stack: vocabulary, skip-gram word2vec training
// properties (co-occurrence -> similarity), the BLANK pinning invariant,
// VUC encoding layout and serialization.
#include "embed/word2vec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "corpus/source.h"
#include "synth/synth.h"

namespace cati::embed {
namespace {

TEST(Vocab, ReservedTokens) {
  Vocab v;
  EXPECT_EQ(v.lookup("BLANK"), Vocab::kBlankId);
  EXPECT_EQ(v.lookup("UNK"), Vocab::kUnkId);
  EXPECT_EQ(v.lookup("never-seen"), Vocab::kUnkId);
}

TEST(Vocab, AddCountsOccurrences) {
  Vocab v;
  const int32_t a = v.add("mov");
  EXPECT_EQ(v.add("mov"), a);
  EXPECT_EQ(v.add("mov"), a);
  EXPECT_EQ(v.count(a), 3U);
  EXPECT_EQ(v.word(a), "mov");
  EXPECT_EQ(v.lookup("mov"), a);
}

TEST(Vocab, SaveLoadIdentity) {
  Vocab v;
  v.add("mov");
  v.add("mov");
  v.add("%rax");
  std::stringstream ss;
  v.save(ss);
  const Vocab back = Vocab::load(ss);
  EXPECT_EQ(back.size(), v.size());
  EXPECT_EQ(back.lookup("mov"), v.lookup("mov"));
  EXPECT_EQ(back.count(back.lookup("mov")), 2U);
}

TEST(Tokenize, SixtyThreeTokensPerVuc) {
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("e", 0x4, 4), synth::Dialect::Gcc, 2, 3);
  const corpus::Dataset ds = corpus::extractGroundTruth(bin, 10);
  corpus::DatasetSource src(ds);
  const TokenizedCorpus tc = tokenize(src);
  ASSERT_EQ(tc.sentences.size(), ds.vucs.size());
  for (const auto& s : tc.sentences) EXPECT_EQ(s.size(), 63U);
  EXPECT_GT(tc.vocab.size(), 10);
}

/// A tiny synthetic corpus where tokens "a" and "b" always co-occur and "z"
/// never appears near them: cosine(a,b) should exceed cosine(a,z).
TEST(Word2Vec, CooccurrenceDrivesSimilarity) {
  TokenizedCorpus tc;
  const int32_t a = tc.vocab.add("a");
  const int32_t b = tc.vocab.add("b");
  const int32_t z = tc.vocab.add("z");
  const int32_t w = tc.vocab.add("w");
  Rng rng(5);
  for (int i = 0; i < 400; ++i) {
    if (i % 2 == 0) {
      tc.sentences.push_back({a, b, a, b, a, b});
      tc.vocab.add("a");
      tc.vocab.add("b");
    } else {
      tc.sentences.push_back({z, w, z, w, z, w});
      tc.vocab.add("z");
      tc.vocab.add("w");
    }
  }
  W2VConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 10;
  cfg.seed = 5;
  cfg.subsample = 1.0;  // no downsampling in this tiny test
  Word2Vec w2v;
  w2v.train(tc, cfg);
  EXPECT_GT(w2v.similarity(a, b), w2v.similarity(a, z) + 0.2);
}

TEST(Word2Vec, BlankPinnedToZero) {
  TokenizedCorpus tc;
  const int32_t a = tc.vocab.add("a");
  const int32_t b = tc.vocab.add("b");
  tc.sentences.assign(50, {a, b, a, b});
  W2VConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 2;
  Word2Vec w2v;
  w2v.train(tc, cfg);
  for (const float x : w2v.vec(Vocab::kBlankId)) EXPECT_EQ(x, 0.0F);
}

TEST(Word2Vec, VectorsAreFiniteAndBounded) {
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("e2", 0x8, 6), synth::Dialect::Gcc, 1, 9);
  const corpus::Dataset ds = corpus::extractGroundTruth(bin, 10);
  corpus::DatasetSource src(ds);
  TokenizedCorpus tc = tokenize(src);
  W2VConfig cfg;
  cfg.epochs = 1;
  Word2Vec w2v;
  w2v.train(tc, cfg);
  for (int32_t t = 0; t < w2v.vocabSize(); ++t) {
    float norm = 0.0F;
    for (const float x : w2v.vec(t)) {
      ASSERT_TRUE(std::isfinite(x));
      norm += x * x;
    }
    EXPECT_LT(std::sqrt(norm), 100.0F);
  }
}

TEST(Word2Vec, SaveLoadIdentity) {
  TokenizedCorpus tc;
  const int32_t a = tc.vocab.add("a");
  const int32_t b = tc.vocab.add("b");
  tc.sentences.assign(20, {a, b});
  W2VConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  Word2Vec w2v;
  w2v.train(tc, cfg);
  std::stringstream ss;
  w2v.save(ss);
  const Word2Vec back = Word2Vec::load(ss);
  ASSERT_EQ(back.dim(), w2v.dim());
  for (int32_t t = 0; t < w2v.vocabSize(); ++t) {
    const auto va = w2v.vec(t);
    const auto vb = back.vec(t);
    for (int d = 0; d < w2v.dim(); ++d) EXPECT_EQ(va[d], vb[d]);
  }
}

TEST(Encoder, LayoutAndOcclusion) {
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("e3", 0x2, 4), synth::Dialect::Gcc, 2, 5);
  const corpus::Dataset ds = corpus::extractGroundTruth(bin, 10);
  corpus::DatasetSource src(ds);
  TokenizedCorpus tc = tokenize(src);
  W2VConfig cfg;
  cfg.epochs = 1;
  Word2Vec w2v;
  w2v.train(tc, cfg);
  const VucEncoder enc(std::move(tc.vocab), std::move(w2v));

  const corpus::Vuc& v = ds.vucs[0];
  const size_t rows = v.window.size();
  const auto cols = static_cast<size_t>(enc.cols());
  std::vector<float> full(rows * cols);
  enc.encodeChannelMajor(v, full);

  // Channel c of instruction r lands at c * rows + r; channels [0, dim)
  // hold the mnemonic's embedding.
  const int32_t mnemId = enc.vocab().lookup(v.window[10].mnem);
  const auto mnemVec = enc.w2v().vec(mnemId);
  for (int d = 0; d < enc.w2v().dim(); ++d) {
    EXPECT_EQ(full[static_cast<size_t>(d) * rows + 10], mnemVec[d]);
  }

  // Occluding row k — replacing it by BLANK — writes +0 into exactly that
  // column.
  corpus::Vuc occluded = v;
  occluded.window[10] = corpus::GenInstr{};
  std::vector<float> occ(rows * cols);
  enc.encodeChannelMajor(occluded, occ);
  for (size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(std::bit_cast<uint32_t>(occ[c * rows + 10]), 0U);
    for (size_t r = 0; r < rows; ++r) {
      if (r == 10) continue;
      EXPECT_EQ(occ[c * rows + r], full[c * rows + r]);
    }
  }
}

TEST(Encoder, RejectsWrongBufferSize) {
  Vocab v;
  Word2Vec w;
  TokenizedCorpus tc;
  tc.sentences.assign(4, {tc.vocab.add("a"), tc.vocab.add("b")});
  W2VConfig cfg;
  cfg.dim = 8;
  cfg.epochs = 1;
  w.train(tc, cfg);
  const VucEncoder enc(std::move(tc.vocab), std::move(w));
  corpus::Vuc vuc;
  vuc.window.resize(21);
  vuc.posLabel.assign(21, -1);
  std::vector<float> tooSmall(10);
  EXPECT_THROW(enc.encodeChannelMajor(vuc, tooSmall), std::invalid_argument);
}

}  // namespace
}  // namespace cati::embed
