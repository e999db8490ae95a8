#include "embed/word2vec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "common/obs.h"
#include "common/serialize.h"

namespace cati::embed {

Vocab::Vocab() {
  add("BLANK");
  add("UNK");
  counts_[0] = 0;
  counts_[1] = 0;
}

int32_t Vocab::add(std::string_view token) {
  const auto [it, inserted] =
      index_.try_emplace(std::string(token), size());
  if (inserted) {
    words_.emplace_back(token);
    counts_.push_back(0);
  }
  ++counts_[static_cast<size_t>(it->second)];
  return it->second;
}

int32_t Vocab::lookup(std::string_view token) const {
  // transparent lookup without allocation is not worth the complexity here
  const auto it = index_.find(std::string(token));
  return it == index_.end() ? kUnkId : it->second;
}

void Vocab::save(std::ostream& os) const {
  io::Writer w(os);
  io::writeHeader(w, 0x43564f43 /*"CVOC"*/, 1);
  w.pod<uint64_t>(words_.size());
  for (size_t i = 0; i < words_.size(); ++i) {
    w.str(words_[i]);
    w.pod(counts_[i]);
  }
}

Vocab Vocab::load(std::istream& is) {
  io::Reader r(is);
  io::expectHeader(r, 0x43564f43, 1, "vocab");
  Vocab v;
  const auto n = r.pod<uint64_t>();
  for (uint64_t i = 0; i < n; ++i) {
    std::string word = r.str();
    const auto count = r.pod<uint64_t>();
    if (i < 2) {
      // BLANK/UNK already exist from the constructor.
      v.counts_[i] = count;
      continue;
    }
    const int32_t idx = v.add(word);
    v.counts_[static_cast<size_t>(idx)] = count;
  }
  return v;
}

TokenizedCorpus tokenize(corpus::VucSource& src) {
  TokenizedCorpus out;
  out.sentences.reserve(src.numVucs());
  src.forEach([&](const corpus::Vuc& v) {
    std::vector<int32_t> sent;
    sent.reserve(v.window.size() * 3);
    for (const corpus::GenInstr& g : v.window) {
      sent.push_back(out.vocab.add(g.mnem));
      sent.push_back(out.vocab.add(g.op1));
      sent.push_back(out.vocab.add(g.op2));
    }
    out.sentences.push_back(std::move(sent));
  });
  return out;
}

namespace {

/// sum of a[d] * b[d] from +0 in ascending d: the first n - n%4 products are
/// rounded before their add, the last n%4 terms are fused. This is the
/// in-order reduction GCC 12 emits at -O3 -march=x86-64-v3 for
/// `dot += a[d] * b[d]` (8- then 4-wide vmulps with sequential adds, fused
/// scalar tail), written out so every build type computes it; word2vec.cc
/// is compiled with -ffp-contract=off.
float dotInOrder(const float* a, const float* b, int n) {
  float dot = 0.0F;
  const int head = n - n % 4;
  int d = 0;
  for (; d < head; ++d) dot = dot + a[d] * b[d];
  for (; d < n; ++d) dot = std::fma(a[d], b[d], dot);
  return dot;
}

float sigmoid(float x) {
  if (x > 8.0F) return 1.0F;
  if (x < -8.0F) return 0.0F;
  return 1.0F / (1.0F + std::exp(-x));
}

/// Unigram^0.75 negative-sampling table (word2vec's standard choice).
std::vector<int32_t> buildUnigramTable(const Vocab& vocab, size_t tableSize) {
  std::vector<int32_t> table;
  table.reserve(tableSize);
  double total = 0.0;
  for (int32_t i = 2; i < vocab.size(); ++i) {
    total += std::pow(static_cast<double>(vocab.count(i)), 0.75);
  }
  if (total == 0.0) return table;
  double cum = 0.0;
  int32_t word = 2;
  for (size_t k = 0; k < tableSize; ++k) {
    const double target = (static_cast<double>(k) + 0.5) / tableSize * total;
    while (word < vocab.size() - 1 && cum + std::pow(static_cast<double>(
                                                vocab.count(word)),
                                            0.75) < target) {
      cum += std::pow(static_cast<double>(vocab.count(word)), 0.75);
      ++word;
    }
    table.push_back(word);
  }
  return table;
}

// Fixed parallel grains for training: chunk boundaries, per-chunk RNG
// streams and the round structure depend only on these constants and the
// corpus — never on the job count — so embeddings are jobs-invariant.
constexpr size_t kChunkSentences = 32;
constexpr size_t kRoundChunks = 8;

/// The serial SGNS inner loop over sentences [sentBegin, sentEnd), updating
/// the given (chunk-local) vector tables in place. `processedStart` offsets
/// the learning-rate schedule to the chunk's position in the global token
/// stream, matching what a serial pass would have reached.
void trainRange(const TokenizedCorpus& corpus, const W2VConfig& cfg, int dim,
                const std::vector<int32_t>& table,
                const std::vector<float>& keepProb, uint64_t processedStart,
                uint64_t totalWork, size_t sentBegin, size_t sentEnd, Rng& rng,
                std::vector<float>& vectors, std::vector<float>& context,
                std::vector<uint8_t>& touchedV, std::vector<uint8_t>& touchedC) {
  std::vector<float> grad(static_cast<size_t>(dim));
  uint64_t processed = processedStart;
  for (size_t si = sentBegin; si < sentEnd; ++si) {
    const auto& sentence = corpus.sentences[si];
    for (size_t pos = 0; pos < sentence.size(); ++pos) {
      ++processed;
      const int32_t centre = sentence[pos];
      if (centre < 2) continue;  // never train BLANK/UNK as centre
      if (keepProb[static_cast<size_t>(centre)] < 1.0F &&
          rng.uniform() > keepProb[static_cast<size_t>(centre)]) {
        continue;
      }
      const float lr =
          cfg.lr * std::max(0.05F, 1.0F - static_cast<float>(processed) /
                                             static_cast<float>(totalWork));
      const auto win = static_cast<size_t>(
          rng.uniformInt(1, cfg.window));  // dynamic window, as word2vec
      const size_t lo = pos >= win ? pos - win : 0;
      const size_t hi = std::min(sentence.size() - 1, pos + win);
      float* vIn = vectors.data() + static_cast<size_t>(centre) * dim;
      touchedV[static_cast<size_t>(centre)] = 1;
      for (size_t c = lo; c <= hi; ++c) {
        if (c == pos) continue;
        const int32_t ctx = sentence[c];
        if (ctx < 2) continue;
        std::fill(grad.begin(), grad.end(), 0.0F);
        for (int neg = 0; neg <= cfg.negatives; ++neg) {
          int32_t target;
          float label;
          if (neg == 0) {
            target = ctx;
            label = 1.0F;
          } else {
            target = table[static_cast<size_t>(rng.next() % table.size())];
            if (target == ctx) continue;
            label = 0.0F;
          }
          float* vOut = context.data() + static_cast<size_t>(target) * dim;
          touchedC[static_cast<size_t>(target)] = 1;
          const float dot = dotInOrder(vIn, vOut, dim);
          const float g = (label - sigmoid(dot)) * lr;
          for (int d = 0; d < dim; ++d) {
            grad[static_cast<size_t>(d)] =
                std::fma(g, vOut[d], grad[static_cast<size_t>(d)]);
            vOut[d] = std::fma(g, vIn[d], vOut[d]);
          }
        }
        for (int d = 0; d < dim; ++d) vIn[d] += grad[static_cast<size_t>(d)];
      }
    }
  }
}

}  // namespace

void Word2Vec::train(const TokenizedCorpus& corpus, const W2VConfig& cfg,
                     par::ThreadPool* pool) {
  static obs::Histogram& trainNs = obs::timer("w2v.train_ns");
  const obs::ScopedTimer timing(trainNs);
  const Vocab& vocab = corpus.vocab;
  dim_ = cfg.dim;
  const auto vocabSize = static_cast<size_t>(vocab.size());
  vectors_.assign(vocabSize * static_cast<size_t>(dim_), 0.0F);
  context_.assign(vocabSize * static_cast<size_t>(dim_), 0.0F);

  Rng initRng(cfg.seed);
  for (size_t i = 2 * static_cast<size_t>(dim_); i < vectors_.size(); ++i) {
    vectors_[i] = (static_cast<float>(initRng.uniform()) - 0.5F) / dim_;
  }

  const std::vector<int32_t> table = buildUnigramTable(vocab, 1 << 18);
  if (table.empty()) return;

  uint64_t totalTokens = 0;
  for (const auto& s : corpus.sentences) totalTokens += s.size();
  obs::counter("w2v.tokens_processed")
      .add(totalTokens * static_cast<uint64_t>(cfg.epochs));

  // Subsampling keep-probability per token (frequent-token downsampling).
  std::vector<float> keepProb(vocabSize, 1.0F);
  for (int32_t t = 2; t < vocab.size(); ++t) {
    const double f =
        static_cast<double>(vocab.count(t)) / static_cast<double>(totalTokens);
    if (f > cfg.subsample) {
      keepProb[static_cast<size_t>(t)] =
          static_cast<float>(std::sqrt(cfg.subsample / f));
    }
  }

  // Deterministic local SGD over fixed sentence chunks. A round snapshots
  // the tables, trains up to kRoundChunks chunks independently (each a full
  // serial SGNS pass over its sentences, with a private splitSeed stream and
  // an lr schedule offset to its global token position), then applies each
  // chunk's delta against the snapshot in ascending chunk order. A row
  // touched by k chunks in the round gets its deltas scaled by 1/sqrt(k):
  // plain summing lets colliding chunks compound a row's update k-fold past
  // saturation (hot rows oscillate), while full 1/k averaging under-trains
  // them ~k-fold; sqrt splits the difference and keeps rows private to one
  // chunk at the exact serial update. The round structure is fixed by the
  // corpus alone, so jobs=1 and jobs=N walk the identical sequence of float
  // operations.
  const size_t nSent = corpus.sentences.size();
  std::vector<uint64_t> tokenPrefix(nSent + 1, 0);
  for (size_t i = 0; i < nSent; ++i) {
    tokenPrefix[i + 1] = tokenPrefix[i] + corpus.sentences[i].size();
  }
  const uint64_t totalWork =
      static_cast<uint64_t>(cfg.epochs) * std::max<uint64_t>(totalTokens, 1);

  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  const size_t chunks = par::numChunks(nSent, kChunkSentences);
  std::vector<float> snapV;
  std::vector<float> snapC;
  std::vector<std::vector<float>> localV(kRoundChunks);
  std::vector<std::vector<float>> localC(kRoundChunks);
  std::vector<std::vector<uint8_t>> touchedV(kRoundChunks);
  std::vector<std::vector<uint8_t>> touchedC(kRoundChunks);
  std::vector<uint16_t> countV(vocabSize);
  std::vector<uint16_t> countC(vocabSize);

  static obs::Counter& rounds = obs::counter("w2v.rounds");
  static obs::Histogram& roundNs = obs::timer("w2v.round_ns");
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    for (size_t round = 0; round < chunks; round += kRoundChunks) {
      rounds.add();
      const obs::ScopedTimer roundTiming(roundNs);
      const size_t inRound = std::min(kRoundChunks, chunks - round);
      snapV = vectors_;
      snapC = context_;
      tp.run(inRound, [&](size_t t, int) {
        const size_t c = round + t;
        const auto [b, e] = par::chunkRange(nSent, kChunkSentences, c);
        localV[t] = snapV;
        localC[t] = snapC;
        touchedV[t].assign(vocabSize, 0);
        touchedC[t].assign(vocabSize, 0);
        Rng rng(splitSeed(cfg.seed,
                          static_cast<uint64_t>(epoch) * chunks + c + 1));
        trainRange(corpus, cfg, dim_, table, keepProb,
                   static_cast<uint64_t>(epoch) * totalTokens + tokenPrefix[b],
                   totalWork, b, e, rng, localV[t], localC[t], touchedV[t],
                   touchedC[t]);
      });
      std::fill(countV.begin(), countV.end(), 0);
      std::fill(countC.begin(), countC.end(), 0);
      for (size_t t = 0; t < inRound; ++t) {
        for (size_t r = 0; r < vocabSize; ++r) {
          countV[r] = static_cast<uint16_t>(countV[r] + touchedV[t][r]);
          countC[r] = static_cast<uint16_t>(countC[r] + touchedC[t][r]);
        }
      }
      const auto dim = static_cast<size_t>(dim_);
      for (size_t t = 0; t < inRound; ++t) {
        const std::vector<float>& lv = localV[t];
        const std::vector<float>& lc = localC[t];
        for (size_t r = 0; r < vocabSize; ++r) {
          if (touchedV[t][r]) {
            const float scale =
                1.0F / std::sqrt(static_cast<float>(countV[r]));
            for (size_t d = r * dim; d < (r + 1) * dim; ++d) {
              vectors_[d] = std::fma(lv[d] - snapV[d], scale, vectors_[d]);
            }
          }
          if (touchedC[t][r]) {
            const float scale =
                1.0F / std::sqrt(static_cast<float>(countC[r]));
            for (size_t d = r * dim; d < (r + 1) * dim; ++d) {
              context_[d] = std::fma(lc[d] - snapC[d], scale, context_[d]);
            }
          }
        }
      }
    }
  }
  // Pin BLANK to +0 so padding and occlusion carry no signal (UNK keeps its
  // initial vector).
  std::fill(vectors_.begin(), vectors_.begin() + dim_, 0.0F);
}

float Word2Vec::similarity(int32_t a, int32_t b) const {
  const float* va = vec(a).data();
  const float* vb = vec(b).data();
  const float dot = dotInOrder(va, vb, dim_);
  const float na = dotInOrder(va, va, dim_);
  const float nb = dotInOrder(vb, vb, dim_);
  if (na == 0.0F || nb == 0.0F) return 0.0F;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

void Word2Vec::save(std::ostream& os) const {
  io::Writer w(os);
  io::writeHeader(w, 0x43573256 /*"CW2V"*/, 1);
  w.pod<int32_t>(dim_);
  w.vec(vectors_);
  w.vec(context_);
}

Word2Vec Word2Vec::load(std::istream& is) {
  io::Reader r(is);
  io::expectHeader(r, 0x43573256, 1, "word2vec");
  Word2Vec v;
  v.dim_ = r.dim("word2vec");
  v.vectors_ = r.vec<float>();
  v.context_ = r.vec<float>(v.vectors_.size(), "word2vec context");
  if (v.vectors_.size() % static_cast<size_t>(v.dim_) != 0) {
    throw CorruptError("word2vec: corrupt model");
  }
  return v;
}

void VucEncoder::encodeChannelMajor(const corpus::Vuc& v,
                                    std::span<float> out) const {
  const int dim = w2v_.dim();
  const size_t rows = v.window.size();
  if (out.size() != rows * static_cast<size_t>(3 * dim)) {
    throw std::invalid_argument("VucEncoder::encodeChannelMajor: bad size");
  }
  for (size_t r = 0; r < rows; ++r) {
    // Channel c is a row of length `rows`; this instruction fills column r.
    encodeRow(tokenize(v.window[r]), out.data() + r, rows);
  }
}

TokenRow VucEncoder::tokenize(const corpus::GenInstr& g) const {
  return {vocab_.lookup(g.mnem), vocab_.lookup(g.op1), vocab_.lookup(g.op2)};
}

void VucEncoder::encodeRow(const TokenRow& row, float* out,
                           size_t stride) const {
  const int dim = w2v_.dim();
  for (int p = 0; p < 3; ++p) {
    const auto src = w2v_.vec(row[static_cast<size_t>(p)]);
    float* dst = out + static_cast<size_t>(p) * dim * stride;
    for (int d = 0; d < dim; ++d) dst[static_cast<size_t>(d) * stride] = src[d];
  }
}

void VucEncoder::save(std::ostream& os) const {
  vocab_.save(os);
  w2v_.save(os);
}

VucEncoder VucEncoder::load(std::istream& is) {
  Vocab vocab = Vocab::load(is);
  Word2Vec w2v = Word2Vec::load(is);
  // Every token id the vocab can return must have a vector.
  if (vocab.size() != w2v.vocabSize()) {
    throw CorruptError("encoder: vocab has " + std::to_string(vocab.size()) +
                       " tokens but word2vec has " +
                       std::to_string(w2v.vocabSize()) + " vectors");
  }
  for (const float x : w2v.vec(Vocab::kBlankId)) {
    if (std::bit_cast<uint32_t>(x) != 0) {
      throw CorruptError("encoder: BLANK's vector is not +0");
    }
  }
  return VucEncoder(std::move(vocab), std::move(w2v));
}

}  // namespace cati::embed
