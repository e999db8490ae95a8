// Assembly-token embedding: a from-scratch word2vec (skip-gram with negative
// sampling, the objective of paper eq. 1, window 5, dim 32) plus the VUC
// encoder that turns a 21-instruction window into the [21 x 96] matrix the
// CNN consumes (mnemonic/op1/op2 embeddings concatenated per instruction,
// §IV-C / Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "corpus/corpus.h"
#include "corpus/source.h"

namespace cati::embed {

/// Token vocabulary. Index 0 is reserved for BLANK (whose vector is held at
/// zero so occlusion/padding is a true null signal); index 1 for UNK.
class Vocab {
 public:
  Vocab();

  /// Adds an occurrence, creating the token if new. Returns the index.
  int32_t add(std::string_view token);
  /// Lookup without insertion; UNK index for unseen tokens.
  int32_t lookup(std::string_view token) const;

  int32_t size() const { return static_cast<int32_t>(words_.size()); }
  const std::string& word(int32_t idx) const {
    return words_[static_cast<size_t>(idx)];
  }
  uint64_t count(int32_t idx) const { return counts_[static_cast<size_t>(idx)]; }

  static constexpr int32_t kBlankId = 0;
  static constexpr int32_t kUnkId = 1;

  void save(std::ostream& os) const;
  static Vocab load(std::istream& is);

 private:
  std::unordered_map<std::string, int32_t> index_;
  std::vector<std::string> words_;
  std::vector<uint64_t> counts_;
};

/// The vocabulary and the token "sentences" (one per VUC: its window's
/// mnemonic/operand tokens in order, 3 per instruction) of a training set.
struct TokenizedCorpus {
  Vocab vocab;
  std::vector<std::vector<int32_t>> sentences;
};
/// One forEach pass in dataset order: token ids are assigned at first
/// occurrence, so an in-memory and a sharded source over the same VUCs give
/// the same bytes. The token stream — not the VUCs — is what stays resident
/// for word2vec and stage training.
TokenizedCorpus tokenize(corpus::VucSource& src);

struct W2VConfig {
  int dim = 32;         // paper: token vectors of length 32
  int window = 5;       // paper: maximum distance m = 5
  int negatives = 5;
  int epochs = 3;
  float lr = 0.025F;
  uint64_t seed = 7;
  double subsample = 1e-3;  // frequent-token downsampling threshold
};

class Word2Vec {
 public:
  Word2Vec() = default;

  /// Trains skip-gram with negative sampling over the sentences via
  /// deterministic local SGD (fixed sentence chunks, per-chunk RNG streams,
  /// ordered delta merge): the result is bit-identical at any job count.
  /// The BLANK token's vector is pinned to zero.
  void train(const TokenizedCorpus& corpus, const W2VConfig& cfg,
             par::ThreadPool* pool = nullptr);

  int dim() const { return dim_; }
  int32_t vocabSize() const { return static_cast<int32_t>(vectors_.size()) / dim_; }

  /// The embedding vector of a token (length dim()).
  std::span<const float> vec(int32_t token) const {
    return {vectors_.data() + static_cast<size_t>(token) * dim_,
            static_cast<size_t>(dim_)};
  }

  /// Cosine similarity between two token vectors (0 when either is zero).
  float similarity(int32_t a, int32_t b) const;

  void save(std::ostream& os) const;
  static Word2Vec load(std::istream& is);

 private:
  int dim_ = 0;
  std::vector<float> vectors_;   // input vectors, row-major [vocab x dim]
  std::vector<float> context_;   // output vectors
};

/// One generalized instruction as vocabulary ids: [mnem, op1, op2].
using TokenRow = std::array<int32_t, 3>;

/// Encodes instructions as CNN input: each one is the concatenation
/// [mnem | op1 | op2] of its token embeddings, 3*dim channels, written
/// channel-major.
class VucEncoder {
 public:
  VucEncoder(Vocab vocab, Word2Vec w2v)
      : vocab_(std::move(vocab)), w2v_(std::move(w2v)) {}

  int cols() const { return 3 * w2v_.dim(); }

  /// Encodes `v` into the channel-major [3*dim x rows] layout the CNNs
  /// consume: instruction r's channel c = p*dim + d lands at c*rows + r.
  /// `out` may be a slice of a larger batch buffer.
  void encodeChannelMajor(const corpus::Vuc& v, std::span<float> out) const;

  /// The vocabulary ids of one generalized instruction (UNK for unseen
  /// tokens) — the row encodeChannelMajor looks up for it.
  TokenRow tokenize(const corpus::GenInstr& g) const;

  /// Writes the embedding of one token row as one time step of the
  /// channel-major layout: channel c = p*dim + d lands at out[c * stride].
  /// The same values encodeChannelMajor writes for that instruction.
  void encodeRow(const TokenRow& row, float* out, size_t stride) const;

  const Vocab& vocab() const { return vocab_; }
  const Word2Vec& w2v() const { return w2v_; }

  void save(std::ostream& os) const;
  /// Throws CorruptError unless every vocab token has a vector and BLANK's
  /// vector is bitwise +0 — the stream pads and occluded rows rely on it.
  static VucEncoder load(std::istream& is);

 private:
  Vocab vocab_;
  Word2Vec w2v_;
};

}  // namespace cati::embed
