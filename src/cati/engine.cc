#include "cati/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <fstream>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/fault.h"
#include "common/fs.h"
#include "common/numeric.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nn/qnn.h"

namespace cati {

namespace {

/// Per-classifier-stage metric handles, resolved once per name pattern
/// (e.g. "engine.infer.samples.Stage2-1") so hot paths never build strings.
/// Call sites hold these in magic statics — initialization is thread-safe
/// and registers all six stage names eagerly, so a snapshot always carries
/// the full stage set once the pattern is touched.
template <typename Make>
auto stageHandles(const char* prefix, Make make) {
  std::array<decltype(make(std::string())), kNumStages> a{};
  for (int i = 0; i < kNumStages; ++i) {
    a[static_cast<size_t>(i)] = make(
        std::string(prefix) + "." +
        std::string(stageName(static_cast<Stage>(i))));
  }
  return a;
}

std::array<obs::Counter*, kNumStages> stageCounters(const char* prefix) {
  return stageHandles(prefix,
                      [](const std::string& n) { return &obs::counter(n); });
}

std::array<obs::Histogram*, kNumStages> stageHistograms(const char* prefix,
                                                        obs::Unit unit) {
  return stageHandles(prefix, [unit](const std::string& n) {
    return &obs::Registry::global().histogram(n, unit);
  });
}

}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(cfg) {}

nn::Shape Engine::inputShape() const {
  // Channel-major: embedding dimensions (3 tokens x dim) as channels over
  // the 2w+1 instruction positions.
  return {3 * cfg_.w2v.dim, 2 * cfg_.window + 1};
}

namespace {

/// Every VUC window must hold the engine's 2w+1 instructions.
void checkWindowRows(size_t rows, int window) {
  if (rows != 2 * static_cast<size_t>(window) + 1) {
    throw std::invalid_argument(
        "Engine: VUC window length does not match the engine's window "
        "configuration");
  }
}

}  // namespace

std::vector<embed::TokenRow> Engine::windowRows(const corpus::Vuc& vuc) const {
  checkWindowRows(vuc.window.size(), cfg_.window);
  std::vector<embed::TokenRow> rows;
  rows.reserve(vuc.window.size());
  for (const corpus::GenInstr& g : vuc.window) {
    rows.push_back(encoder_->tokenize(g));
  }
  return rows;
}

namespace {

/// Balanced subsample under a total budget: water-filling allocation —
/// small classes keep every sample, the remaining budget is split evenly
/// among the larger classes (bounded by balanceMultiplier x fair share so a
/// single giant class cannot reclaim the whole budget). Deterministic in
/// `rng`.
std::vector<uint32_t> balancedSubsample(
    const std::vector<std::vector<uint32_t>>& byClass, size_t totalCap,
    double balanceMultiplier, Rng& rng) {
  const size_t numClasses = byClass.size();
  std::vector<size_t> order(numClasses);
  for (size_t i = 0; i < numClasses; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return byClass[a].size() < byClass[b].size();
  });
  const size_t hardCap = std::max<size_t>(
      1, static_cast<size_t>(balanceMultiplier * static_cast<double>(totalCap) /
                             static_cast<double>(numClasses)));
  std::vector<size_t> take(numClasses, 0);
  size_t remaining = totalCap;
  size_t classesLeft = numClasses;
  for (const size_t c : order) {
    const size_t fair = remaining / std::max<size_t>(1, classesLeft);
    take[c] = std::min({byClass[c].size(), fair, hardCap});
    remaining -= take[c];
    --classesLeft;
  }
  std::vector<uint32_t> out;
  out.reserve(totalCap);
  for (size_t c = 0; c < numClasses; ++c) {
    if (take[c] == byClass[c].size()) {
      out.insert(out.end(), byClass[c].begin(), byClass[c].end());
    } else {
      std::vector<uint32_t> copy = byClass[c];
      rng.shuffle(copy);
      out.insert(out.end(), copy.begin(),
                 copy.begin() + static_cast<long>(take[c]));
    }
  }
  rng.shuffle(out);
  return out;
}

// Fixed data-parallel grain: a minibatch is split into chunks of
// kGradChunk samples whose gradients accumulate in per-worker scratch and
// are then summed in ascending chunk order. Chunk boundaries and dropout
// streams depend only on these constants — never on the job count — so
// trained weights are jobs-invariant.
constexpr size_t kGradChunk = 8;
// Stream stride between batches for dropout seed derivation; an upper
// bound on chunks per batch.
constexpr uint64_t kChunkStreams = 1ULL << 16;

}  // namespace

std::vector<uint32_t> Engine::stageTrainSet(Stage s,
                                            const corpus::VucSource& src,
                                            Rng& rng) const {
  // Collect the VUCs whose ground-truth path passes through this stage.
  // Labels are O(1) on every source (the sharded one keeps them resident
  // from the manifest), so grouping and subsampling touch no shard bytes.
  std::vector<std::vector<uint32_t>> byClass(
      static_cast<size_t>(numClasses(s)));
  const auto total = static_cast<uint32_t>(src.numVucs());
  for (uint32_t i = 0; i < total; ++i) {
    const TypeLabel label = src.labelOf(i);
    if (label == TypeLabel::kCount) continue;
    const int cls = stageClassOf(s, label);
    if (cls >= 0) byClass[static_cast<size_t>(cls)].push_back(i);
  }
  return balancedSubsample(byClass, cfg_.maxTrainPerStage,
                           cfg_.balanceMultiplier, rng);
}

void Engine::trainStage(Stage s, const corpus::VucSource& src,
                        std::span<const std::vector<int32_t>> ids,
                        uint64_t seed, par::ThreadPool& pool, int startEpoch,
                        std::istream* adamState, const TrainCheckpointing* ck,
                        const std::array<uint64_t, kNumStages>* seeds) {
  static const std::array<obs::Histogram*, kNumStages> stageNs =
      stageHistograms("engine.train.stage_ns", obs::Unit::Nanoseconds);
  static const std::array<obs::Counter*, kNumStages> stageSamples =
      stageCounters("engine.train.samples");
  const obs::ScopedTimer stageTiming(*stageNs[static_cast<size_t>(s)]);
  Rng rng(seed);
  const int classes = numClasses(s);
  std::vector<uint32_t> train = stageTrainSet(s, src, rng);
  stageSamples[static_cast<size_t>(s)]->add(
      train.size() *
      static_cast<size_t>(std::max(0, cfg_.epochs - startEpoch)));

  auto& net = stages_[static_cast<size_t>(s)];
  nn::Adam adam(net.params(), {.lr = cfg_.lr});

  // Workers share the one const net — master weights only change in
  // adam.step, after the chunks of a minibatch finish — and own only a
  // scratch arena plus reusable batch buffers. No weight replicas, no
  // per-batch sync.
  const int jobs = pool.jobs();
  struct TrainWorker {
    nn::Scratch scratch;
    std::vector<float> input;    // [chunk x inSize]
    std::vector<float> dLogits;  // [chunk x classes]
    std::vector<float> probs;    // [classes]
  };
  std::vector<TrainWorker> workers(static_cast<size_t>(jobs));
  for (TrainWorker& t : workers) t.scratch = net.makeScratch();

  // Dropout stream base, drawn serially so it is jobs-invariant; each chunk
  // reseeds its scratch per (batch, chunk), making dropout draws a function
  // of the samples, not of the worker.
  const uint64_t dropBase = rng.next();

  const auto inSize = static_cast<size_t>(inputShape().size());
  const size_t rows = 2 * static_cast<size_t>(cfg_.window) + 1;
  struct ChunkOut {
    double loss = 0.0;
    size_t correct = 0;
  };
  std::vector<ChunkOut> chunkOut;
  const auto batchSize = static_cast<size_t>(std::max(1, cfg_.batchSize));
  uint64_t batchId = 1;
  // One flat gradient slab per chunk of a full minibatch, allocated once per
  // stage: chunk c zeroes slab c and its backward accumulates straight into
  // it, and Adam sums the slabs per element in ascending chunk order inside
  // its update, so the bits are jobs-invariant.
  const size_t slabFloats = adam.numParams();
  std::vector<float> slabs(par::numChunks(batchSize, kGradChunk) * slabFloats);

  // Mid-stage resume: everything the checkpoint did NOT serialize is
  // re-derived here by replaying the RNG prefix — the per-epoch shuffles
  // advance `rng` and reorder `train` exactly as the original run did, and
  // batchId (the dropout stream cursor) is a pure function of the epoch
  // count. Only the Adam moments carry true state, restored below.
  if (startEpoch > 0) {
    for (int e = 0; e < startEpoch; ++e) rng.shuffle(train);
    const uint64_t batches = static_cast<uint64_t>(startEpoch) *
                             par::numChunks(train.size(), batchSize);
    batchId += batches;
    if (adamState != nullptr) adam.load(*adamState);
    // A CRC-valid checkpoint can still carry a step count that is not the
    // one its epoch cursor implies; t <= 0 would zero Adam's bias correction
    // and turn every weight into NaN.
    if (adam.steps() != static_cast<int64_t>(batches)) {
      throw CorruptError("checkpoint: stage " + std::string(stageName(s)) +
                         " Adam step count " + std::to_string(adam.steps()) +
                         " does not match epoch " +
                         std::to_string(startEpoch) + " (" +
                         std::to_string(batches) + " minibatches)");
    }
  }

  for (int epoch = startEpoch; epoch < cfg_.epochs; ++epoch) {
    rng.shuffle(train);
    double lossSum = 0.0;
    size_t correct = 0;
    for (size_t batch = 0; batch < train.size();
         batch += batchSize, ++batchId) {
      static obs::Histogram& batchNs = obs::timer("engine.train.batch_ns");
      const obs::ScopedTimer batchTiming(batchNs);
      const size_t bn = std::min(batchSize, train.size() - batch);
      const size_t chunks = par::numChunks(bn, kGradChunk);
      chunkOut.assign(chunks, {});
      pool.run(chunks, [&](size_t c, int w) {
        const auto [cb, ce] = par::chunkRange(bn, kGradChunk, c);
        const size_t nb = ce - cb;
        TrainWorker& t = workers[static_cast<size_t>(w)];
        const std::span<float> grads =
            std::span(slabs).subspan(c * slabFloats, slabFloats);
        std::fill(grads.begin(), grads.end(), 0.0F);
        t.scratch.reseed(splitSeed(dropBase, batchId * kChunkStreams + c));
        t.input.resize(nb * inSize);
        t.dLogits.resize(nb * static_cast<size_t>(classes));
        t.probs.resize(static_cast<size_t>(classes));
        // Each sample straight into the channel-major [3*dim x rows] layout
        // the CNNs consume, from the ids tokenization kept for its VUC.
        for (size_t k = 0; k < nb; ++k) {
          const std::vector<int32_t>& id = ids[train[batch + cb + k]];
          float* out = t.input.data() + k * inSize;
          for (size_t r = 0; r < rows; ++r) {
            encoder_->encodeRow({id[3 * r], id[3 * r + 1], id[3 * r + 2]},
                                out + r, rows);
          }
        }
        // One batched forward/backward over the chunk. Kernels keep the
        // per-sample accumulation order, so gradients are bit-identical to
        // the historical sample-at-a-time fold over [cb, ce).
        const auto logits = net.forward(t.input, static_cast<int>(nb),
                                        t.scratch, nn::Phase::kTrain);
        ChunkOut& out = chunkOut[c];
        for (size_t k = 0; k < nb; ++k) {
          const int target =
              stageClassOf(s, src.labelOf(train[batch + cb + k]));
          out.loss += nn::SoftmaxCE::forward(
              logits.subspan(k * static_cast<size_t>(classes),
                             static_cast<size_t>(classes)),
              target, t.probs);
          if (num::argmax(t.probs) == target) ++out.correct;
          nn::SoftmaxCE::backward(
              t.probs, target,
              std::span(t.dLogits)
                  .subspan(k * static_cast<size_t>(classes),
                           static_cast<size_t>(classes)));
        }
        net.backward(t.dLogits, static_cast<int>(nb), t.scratch, grads);
      });
      for (const ChunkOut& out : chunkOut) {
        lossSum += out.loss;
        correct += out.correct;
      }
      adam.step(std::span(slabs).first(chunks * slabFloats),
                1.0F / static_cast<float>(bn), pool);
    }
    if (cfg_.verbose && !train.empty()) {
      std::cerr << "  " << stageName(s) << " epoch " << epoch + 1 << '/'
                << cfg_.epochs << ": n=" << train.size()
                << " loss=" << lossSum / static_cast<double>(train.size())
                << " acc="
                << static_cast<double>(correct) /
                       static_cast<double>(train.size())
                << '\n';
    }
    if (ck != nullptr && !ck->dir.empty() && seeds != nullptr) {
      const int done = epoch + 1;
      const bool stageEnd = done >= cfg_.epochs;
      if (stageEnd || done % std::max(1, ck->everyEpochs) == 0) {
        // A stage boundary records "next stage, epoch 0" with no Adam state
        // (the next stage starts its own optimizer); a mid-stage boundary
        // records the position and the moments needed to continue exactly.
        if (stageEnd) {
          writeTrainCheckpoint(*ck, static_cast<int>(s) + 1, 0, *seeds,
                               nullptr, src.numVars(), src.numVucs());
        } else {
          writeTrainCheckpoint(*ck, static_cast<int>(s), done, *seeds, &adam,
                               src.numVars(), src.numVucs());
        }
        // The crash-sweep seam: a kill here models dying right after the
        // checkpoint landed (the write itself is covered by the fs.* seams).
        fault::killPoint("train.checkpoint");
      }
    }
  }
}

void Engine::train(const corpus::Dataset& trainSet, par::ThreadPool* pool,
                   const TrainCheckpointing* ckpt) {
  corpus::DatasetSource src(trainSet);
  train(src, pool, ckpt);
}

void Engine::train(corpus::VucSource& src, par::ThreadPool* pool,
                   const TrainCheckpointing* ckpt) {
  if (quantized_) {
    throw std::logic_error(
        "Engine::train: quantized engines are inference-only (train the "
        "fp32 model, then Engine::quantize)");
  }
  if (src.window() != cfg_.window) {
    throw std::invalid_argument("Engine::train: dataset window mismatch");
  }
  static obs::Histogram& trainNs = obs::timer("engine.train_ns");
  const obs::ScopedTimer timing(trainNs);
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;

  int startStage = 0;
  int startEpoch = 0;
  std::array<uint64_t, kNumStages> stageSeeds{};
  std::string adamBlob;
  bool resumed = false;
  if (ckpt != nullptr && ckpt->resume) {
    resumed = loadTrainCheckpoint(*ckpt, src.numVars(), src.numVucs(),
                                  startStage, startEpoch, stageSeeds,
                                  adamBlob);
    if (resumed && cfg_.verbose) {
      std::cerr << "resuming from checkpoint: stage " << startStage
                << ", epoch " << startEpoch << '\n';
    }
  }

  // The token ids of every VUC's window, 3 per row ([mnem, op1, op2]):
  // word2vec trains on them and every stage encodes its samples from them,
  // so nothing after tokenization reads a VUC again (DESIGN.md §12).
  std::vector<std::vector<int32_t>> ids;
  if (!resumed) {
    // Layer init and the per-stage seed forks touch only the engine RNG —
    // no word2vec state.
    Rng rng(cfg_.seed);
    stages_.clear();
    for (int s = 0; s < kNumStages; ++s) {
      stages_.push_back(nn::makeCnn(inputShape(), cfg_.conv1, cfg_.conv2,
                                    cfg_.fcHidden,
                                    numClasses(static_cast<Stage>(s)),
                                    cfg_.dropout, rng));
    }
    // The per-stage seeds are drawn up front (same engine-RNG op sequence
    // as the historical lazy rng.fork() per stage — trainStage never draws
    // from `rng`), so a resumed run can reuse them from the checkpoint
    // without replaying layer initialization.
    for (int s = 0; s < kNumStages; ++s) {
      stageSeeds[static_cast<size_t>(s)] = rng.fork();
    }

    if (cfg_.verbose) std::cerr << "training word2vec embedding...\n";
    // One streaming pass; the compact token stream (not the VUCs) is what
    // stays resident for word2vec and the stages.
    embed::TokenizedCorpus tokens = embed::tokenize(src);
    for (const std::vector<int32_t>& sentence : tokens.sentences) {
      checkWindowRows(sentence.size() / 3, cfg_.window);
    }
    embed::Word2Vec w2v;
    w2v.train(tokens, cfg_.w2v, &tp);
    // Every id is the one the encoder's vocab.lookup returns for its token:
    // tokenization built that vocabulary from these very tokens.
    encoder_.emplace(std::move(tokens.vocab), std::move(w2v));
    ids = std::move(tokens.sentences);
    if (ckpt != nullptr && !ckpt->dir.empty()) {
      // Post-embedding checkpoint: word2vec is the most expensive
      // epoch-less phase; a crash right after it resumes without repaying.
      writeTrainCheckpoint(*ckpt, 0, 0, stageSeeds, nullptr, src.numVars(),
                           src.numVucs());
      fault::killPoint("train.checkpoint");
    }
  } else {
    // A resumed run skips word2vec; one pass through the checkpoint's
    // vocabulary rebuilds the same ids.
    ids.reserve(src.numVucs());
    src.forEach([&](const corpus::Vuc& v) {
      std::vector<int32_t> id;
      id.reserve(3 * v.window.size());
      for (const embed::TokenRow& row : windowRows(v)) {
        id.insert(id.end(), row.begin(), row.end());
      }
      ids.push_back(std::move(id));
    });
  }

  for (int s = startStage; s < kNumStages; ++s) {
    if (cfg_.verbose) {
      std::cerr << "training " << stageName(static_cast<Stage>(s)) << "...\n";
    }
    const bool firstResumed = resumed && s == startStage && startEpoch > 0;
    std::istringstream adamIs(adamBlob);
    trainStage(static_cast<Stage>(s), src, ids,
               stageSeeds[static_cast<size_t>(s)], tp,
               firstResumed ? startEpoch : 0,
               firstResumed && !adamBlob.empty() ? &adamIs : nullptr, ckpt,
               &stageSeeds);
  }
}

// --- chunk streams and the one predict path (DESIGN.md §7) -----------------

ChunkStream::ChunkStream(int window, std::span<const embed::TokenRow> insns,
                         std::span<const uint32_t> targets,
                         std::span<const uint32_t> vars)
    : window_(window) {
  if (window < 0) throw std::invalid_argument("ChunkStream: negative window");
  if (!vars.empty() && vars.size() != targets.size()) {
    throw std::invalid_argument("ChunkStream: one variable per VUC target");
  }
  const embed::TokenRow blank{embed::Vocab::kBlankId, embed::Vocab::kBlankId,
                              embed::Vocab::kBlankId};
  const auto pad = static_cast<size_t>(window);
  rows_.reserve(insns.size() + 2 * pad);
  rows_.assign(pad, blank);
  rows_.insert(rows_.end(), insns.begin(), insns.end());
  rows_.resize(rows_.size() + pad, blank);
  centres_.reserve(targets.size());
  for (const uint32_t t : targets) {
    if (t >= insns.size() ||
        (!centres_.empty() && t + pad <= centres_.back())) {
      throw std::invalid_argument(
          "ChunkStream: VUC targets must be ascending instruction indices");
    }
    centres_.push_back(static_cast<uint32_t>(t + pad));
  }
  if (vars.empty()) {
    vars_.resize(targets.size());
    std::iota(vars_.begin(), vars_.end(), 0U);
    numVars_ = static_cast<uint32_t>(vars_.size());
  } else {
    vars_.assign(vars.begin(), vars.end());
    numVars_ = *std::max_element(vars.begin(), vars.end()) + 1;
  }
}

void ChunkStream::append(const ChunkStream& other) {
  if (other.rows_.empty()) return;
  if (rows_.empty()) {
    *this = other;
    return;
  }
  if (other.window_ != window_) {
    throw std::invalid_argument("ChunkStream::append: window mismatch");
  }
  // This stream ends with a pad and `other` starts with one: keep one.
  const auto pad = static_cast<size_t>(window_);
  const auto shift = static_cast<uint32_t>(rows_.size() - pad);
  rows_.insert(rows_.end(),
               other.rows_.begin() + static_cast<ptrdiff_t>(pad),
               other.rows_.end());
  for (const uint32_t c : other.centres_) centres_.push_back(c + shift);
  for (const uint32_t v : other.vars_) vars_.push_back(v + numVars_);
  numVars_ += other.numVars_;
}

namespace {

// Fan-out grain of the whole-net branch: small enough to balance uneven VUC
// batches, large enough that chunk dispatch is amortized.
constexpr size_t kPredictGrain = 16;

// Bounds of the shared-prefix branch's VUC ranges. A full range's rows
// (about 2.3 per VUC) run through conv1 as one 8-lane call of about 30 time
// steps, and its left-border pairs as one of exactly 24, two full 12-step
// AVX-512 tiles; ranges of 32 leave much of each tile empty.
constexpr size_t kMinStreamRange = 16;
constexpr size_t kMaxStreamRange = 96;
// A round splits into about this many (range, stage) items: a routed
// round 2 or 3 holds only some of the chunk's VUCs, and 96-VUC ranges
// would leave most of a 4-worker pool idle on it.
constexpr size_t kRoundItems = 12;

// Default inference batch when neither the caller nor CATI_BATCH asks for a
// specific size: big enough to amortize per-layer dispatch, small enough
// that a worker's activation arena stays cache-resident.
constexpr int kDefaultInferBatch = 32;

/// The first layer of `net` when the net starts Conv1d(k=3) -> ReLU ->
/// MaxPool1d(2), else null.
const nn::Conv1d* sharedConv1(const nn::Sequential& net) {
  if (net.numLayers() < 3) return nullptr;
  const auto* conv = dynamic_cast<const nn::Conv1d*>(&net.layer(0));
  const auto* pool = dynamic_cast<const nn::MaxPool1d*>(&net.layer(2));
  const bool prefix = conv != nullptr && conv->kernel() == 3 &&
                      dynamic_cast<const nn::ReLU*>(&net.layer(1)) != nullptr &&
                      pool != nullptr && pool->kernel() == 2;
  return prefix ? conv : nullptr;
}

size_t ceilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// VUCs per range of a shared-prefix round of `evals` stage evaluations:
/// evals / kRoundItems rounded up to whole conv lanes, kept within the
/// bounds. A function of the round's size alone, never of the job count.
size_t streamRange(size_t evals) {
  const size_t r =
      ceilDiv(ceilDiv(evals, kRoundItems), nn::kBatchLane) * nn::kBatchLane;
  return std::clamp(r, kMinStreamRange, kMaxStreamRange);
}

/// One predict worker's state: one nn::Scratch that every stage net runs
/// on, one item at a time, plus the encoded VUC range and the shared-prefix
/// buffers. There is one per OS thread (tWorker): a pool worker runs one
/// (range, stage) item at a time and worker 0 is the calling thread, so the
/// engines that predict on one pool share its states. Buffers keep their
/// high water, so steady-state predicts do not reallocate.
struct WorkerState {
  nn::Scratch scratch;
  /// The layer count `scratch` was made for: a net of another count (a
  /// window-0 net, say) gets a new one.
  size_t scratchLayers = 0;
  /// The range `input` holds: (predict round, range index).
  uint64_t round = 0;
  size_t range = 0;
  /// Shared prefix: the range's rows as the conv lane pack
  /// [C][len][kLane]. Otherwise: its windows, [m x inputShape].
  std::vector<float> input;
  std::vector<float> pairs;     ///< left-border pairs [C][2P][kLane]
  std::vector<uint32_t> flatRow;  ///< packed position -> stream row
  std::vector<uint32_t> start;    ///< per VUC: packed window start
  int len = 0;       ///< lane length of `input`
  int step = 0;      ///< packed positions between lane starts
  int pairLen = 0;   ///< lane length of `pairs`
  std::vector<float> conv;    ///< conv1 output pack
  std::vector<float> convB;   ///< conv1 output of the pairs
  std::vector<float> lanes;   ///< one lane group's conv1 output pack
  std::vector<size_t> colAt;  ///< per lane: its window columns' offsets
};

thread_local WorkerState tWorker;

/// Keys WorkerState::round. Process-wide, so no two rounds of any predict
/// calls on any engines share a key.
std::atomic<uint64_t> gPredictRounds{0};

/// Throws TimeoutError when `deadline` has passed, or when an armed
/// `engine.deadline` fault rule fires (a deterministic expiry). Without a
/// deadline it checks nothing, the fault site included.
void checkDeadline(const Deadline& deadline) {
  if (!deadline) return;
  if (fault::hit("engine.deadline") == fault::Action::kNone &&
      std::chrono::steady_clock::now() <= *deadline) {
    return;
  }
  static obs::Counter& timeouts = obs::counter("engine.analyze.timeout");
  timeouts.add();
  throw TimeoutError("engine: analysis deadline exceeded (--timeout-ms)");
}

/// One stage's vote (formulas 3-4).
struct StageVote {
  int winner = 0;
  float sum = 0.0F;  ///< the winner's vote sum
  uint64_t clipped = 0;
};

/// Stage `s`'s vote over the VUCs probs[i], i in `vucs`: a confidence at or
/// above `clip` counts 1.0 when clipping is enabled, each class sums in
/// `vucs` order, and the first largest sum wins. The one vote arithmetic of
/// voteVariable, voteRoute and the routed predict. Throws
/// std::invalid_argument when a VUC has no distribution for `s`.
StageVote voteStage(Stage s, std::span<const StageProbs> probs,
                    std::span<const uint32_t> vucs, float clip,
                    bool clipEnabled) {
  const auto classes = static_cast<size_t>(numClasses(s));
  std::array<float, kMaxClasses> sums{};
  StageVote v;
  for (const uint32_t i : vucs) {
    const std::span<const float> p = probs[i].stage(s);
    if (p.empty()) {
      throw std::invalid_argument("vote: no " + std::string(stageName(s)) +
                                  " distribution for a VUC");
    }
    for (size_t c = 0; c < classes; ++c) {
      float z = p[c];
      if (clipEnabled && z >= clip) {
        z = 1.0F;
        ++v.clipped;
      }
      sums[c] += z;
    }
  }
  v.winner = num::argmax(std::span<const float>(sums.data(), classes));
  v.sum = sums[static_cast<size_t>(v.winner)];
  return v;
}

/// The leaf reached by walking the stage tree from Stage 1, taking class
/// cls(s) at each stage s it passes.
template <typename ClassAt>
TypeLabel walkTree(ClassAt cls) {
  for (Stage s = Stage::S1;;) {
    const int c = cls(s);
    if (const auto leaf = leafOf(s, c)) return *leaf;
    const auto next = nextStage(s, c);
    if (!next) throw std::logic_error("engine: broken stage tree");
    s = *next;
  }
}

/// The engine.vote.* metrics voteVariable and voteRoute tally.
struct VoteMetrics {
  obs::Counter* variables = &obs::counter("engine.vote.variables");
  obs::Counter* vucs = &obs::counter("engine.vote.vucs");
  obs::Counter* clipped = &obs::counter("engine.vote.clipped");
  std::array<obs::Histogram*, kNumStages> confidence =
      stageHistograms("engine.vote.confidence", obs::Unit::Count);

  /// Mean winning-class vote of a stage — the distribution the paper's
  /// formula 4 argmaxes over, normalized to [0, 1] by the VUC count.
  void observe(Stage s, const StageVote& v, size_t numVucs) const {
    confidence[static_cast<size_t>(s)]->observe(
        static_cast<double>(v.sum) / static_cast<double>(numVucs));
  }
};

/// True when every stage net of `e` starts Conv1d(k=3) -> ReLU ->
/// MaxPool1d(2): predictStream runs its conv1 once per stream row, and the
/// pool drops the one window column the stream cannot give.
bool sharedPrefix(const Engine& e) {
  for (int s = 0; s < kNumStages; ++s) {
    if (sharedConv1(e.stageNet(static_cast<Stage>(s))) == nullptr) {
      return false;
    }
  }
  return true;
}

/// Encodes the VUCs `vucs` (ascending) of `st` into ws (see WorkerState).
void encodeRange(const embed::VucEncoder& enc, const ChunkStream& st,
                 std::span<const uint32_t> vucs, bool shared,
                 WorkerState& ws) {
  const size_t w = static_cast<size_t>(st.window());
  const size_t span = 2 * w + 1;
  const size_t channels = static_cast<size_t>(enc.cols());
  const size_t m = vucs.size();
  const std::vector<embed::TokenRow>& rows = st.rows();
  const std::vector<uint32_t>& centres = st.centres();
  if (!shared) {
    // Each VUC's own window, channel-major, as the net's input.
    const size_t inSize = channels * span;
    ws.input.resize(m * inSize);
    for (size_t k = 0; k < m; ++k) {
      for (size_t r = 0; r < span; ++r) {
        enc.encodeRow(rows[centres[vucs[k]] - w + r],
                      ws.input.data() + k * inSize + r, span);
      }
    }
    return;
  }
  // Packed positions: the union of the range's windows, each run of
  // overlapping or touching windows once, runs end to end.
  ws.flatRow.clear();
  ws.start.clear();
  size_t runRow = 0;  // stream row and packed position of the run's start
  size_t runPos = 0;
  for (const uint32_t i : vucs) {
    const size_t lo = centres[i] - w;
    const size_t hi = centres[i] + w + 1;
    size_t next = ws.flatRow.empty() ? lo : ws.flatRow.back() + 1;
    if (lo > next || ws.flatRow.empty()) {
      runRow = next = lo;
      runPos = ws.flatRow.size();
    }
    for (size_t row = next; row < hi; ++row) {
      ws.flatRow.push_back(static_cast<uint32_t>(row));
    }
    ws.start.push_back(static_cast<uint32_t>(runPos + (lo - runRow)));
  }
  // Lane l holds packed positions [l*step, l*step + len). The lanes
  // overlap by two rows, so every position but the ends has all three taps
  // in some lane.
  const size_t total = ws.flatRow.size();
  ws.step = static_cast<int>(ceilDiv(total - 2, nn::kBatchLane));
  ws.len = ws.step + 2;
  const auto len = static_cast<size_t>(ws.len);
  const auto step = static_cast<size_t>(ws.step);
  ws.input.assign(channels * len * nn::kBatchLane, 0.0F);
  for (size_t l = 0; l < nn::kBatchLane; ++l) {
    for (size_t t = 0; t < len && l * step + t < total; ++t) {
      enc.encodeRow(rows[ws.flatRow[l * step + t]],
                    ws.input.data() + t * nn::kBatchLane + l,
                    len * nn::kBatchLane);
    }
  }
  // A window's first column skips its left tap, which the stream conv does
  // not: it comes from the pair (first row, second row) run with seg = 2.
  // VUC k's pair sits in lane k % 8 at time step 2 * (k / 8).
  ws.pairLen = static_cast<int>(2 * ceilDiv(m, nn::kBatchLane));
  const size_t pairStride = static_cast<size_t>(ws.pairLen) * nn::kBatchLane;
  ws.pairs.assign(channels * pairStride, 0.0F);
  for (size_t k = 0; k < m; ++k) {
    float* dst = ws.pairs.data() + 2 * (k / nn::kBatchLane) * nn::kBatchLane +
                 k % nn::kBatchLane;
    enc.encodeRow(rows[centres[vucs[k]] - w], dst, pairStride);
    enc.encodeRow(rows[centres[vucs[k]] - w + 1], dst + nn::kBatchLane,
                  pairStride);
  }
}

/// Writes the conv1 outputs of VUCs [k0, k0 + lanes) of the range encoded
/// in ws as the lane group ws.lanes, the [c1][2w+1][kLane] input of layer 1.
/// Window column 0 comes from the VUC's pair; column c > 0, packed position
/// p = start + c, from the stream in lane (p - 1) / step at time
/// p - lane * step, the one lane that holds all three of its taps. Column
/// 2w is +0: it never saw its right tap, and MaxPool1d drops it.
void gatherLanes(WorkerState& ws, size_t c1, size_t w, size_t k0,
                 size_t lanes) {
  constexpr auto kLane = static_cast<size_t>(nn::kBatchLane);
  const size_t span = 2 * w + 1;
  const auto step = static_cast<size_t>(ws.step);
  ws.lanes.resize(c1 * span * kLane);
  if (lanes < kLane) std::fill(ws.lanes.begin(), ws.lanes.end(), 0.0F);
  // at[b * 2w + c]: lane b's column c in a conv1 plane, its pair for c = 0.
  std::vector<size_t>& at = ws.colAt;
  at.resize(lanes * 2 * w);
  for (size_t b = 0; b < lanes; ++b) {
    const size_t k = k0 + b;
    size_t* a = at.data() + b * 2 * w;
    a[0] = 2 * (k / kLane) * kLane + k % kLane;
    size_t lane = ws.start[k] / step;  // column 1's, p = start + 1
    size_t t = ws.start[k] + 1 - lane * step;
    for (size_t c = 1; c < 2 * w; ++c, ++t) {
      if (t > step) {
        ++lane;
        t -= step;
      }
      a[c] = t * kLane + lane;
    }
  }
  for (size_t o = 0; o < c1; ++o) {
    const float* y = ws.conv.data() + o * ws.len * kLane;
    for (size_t b = 0; b < lanes; ++b) {
      const size_t* a = at.data() + b * 2 * w;
      float* d = ws.lanes.data() + o * span * kLane + b;
      d[0] = ws.convB[o * ws.pairLen * kLane + a[0]];
      for (size_t c = 1; c < 2 * w; ++c) d[c * kLane] = y[a[c]];
      d[2 * w * kLane] = 0.0F;
    }
  }
}

/// Stage `s` (net `net`) of the VUCs `vucs` encoded in ws, into
/// out[vucs[k]], in sub-batches of `batch`: on the shared-prefix branch
/// (`shared`) conv1 once over the range's stream, then the rest of the net
/// lane-resident per lane group of 8 VUCs, from its gathered conv1 columns
/// to the logits; otherwise the whole net, sample-major.
void predictRangeStage(const nn::Sequential& net, Stage s,
                       const ChunkStream& st, std::span<const uint32_t> vucs,
                       int batch, bool shared, const Deadline& deadline,
                       WorkerState& ws, StageProbs* out) {
  static const std::array<obs::Counter*, kNumStages> samples =
      stageCounters("engine.infer.samples");
  static obs::Counter& conv1Cols = obs::counter("engine.infer.conv1_cols");
  static obs::Histogram& prefixNs = obs::timer("engine.infer.prefix_ns");
  static obs::Histogram& netNs = obs::timer("engine.infer.net_ns");
  constexpr auto kLane = static_cast<size_t>(nn::kBatchLane);
  const auto si = static_cast<size_t>(s);
  if (ws.scratchLayers != net.numLayers()) {
    ws.scratch = net.makeScratch();
    ws.scratchLayers = net.numLayers();
  }
  const size_t m = vucs.size();
  const auto w = static_cast<size_t>(st.window());
  const auto classes = static_cast<size_t>(numClasses(s));
  size_t c1 = 0;
  if (shared) {
    // conv1 once over the packed rows and once over the border pairs.
    const obs::ScopedTimer timing(prefixNs);
    const nn::Conv1d& conv = *sharedConv1(net);
    c1 = static_cast<size_t>(conv.outC());
    ws.conv.resize(c1 * static_cast<size_t>(ws.len) * kLane);
    conv.forwardLanes(ws.input.data(), ws.conv.data(), ws.len, ws.len);
    ws.convB.resize(c1 * static_cast<size_t>(ws.pairLen) * kLane);
    conv.forwardLanes(ws.pairs.data(), ws.convB.data(), ws.pairLen, 2);
    conv1Cols.add(static_cast<size_t>(ws.len + ws.pairLen) * kLane);
  }
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto bs = static_cast<size_t>(std::max(1, batch));
  std::array<float, kMaxClasses> logits{};
  for (size_t sb = 0; sb < m; sb += bs) {
    const size_t nb = std::min(bs, m - sb);
    // Deadline check once per sub-batch of VUCs, in the first stage only,
    // which every VUC passes and the rest of its path follows: cheap (a
    // clock read, only when a deadline is set) and bounds how late a
    // timeout fires.
    if (s == Stage::S1) checkDeadline(deadline);
    samples[si]->add(nb);
    if (!shared) {
      conv1Cols.add(ceilDiv(nb, kLane) * kLane * (2 * w + 1));
      const obs::ScopedTimer timing(netNs);
      // Caches skipped (Phase::kInfer).
      const auto y = net.forward(
          std::span<const float>(ws.input).subspan(sb * inSize, nb * inSize),
          static_cast<int>(nb), ws.scratch, nn::Phase::kInfer);
      for (size_t k = 0; k < nb; ++k) {
        nn::SoftmaxCE::forward(y.subspan(k * classes, classes), -1,
                               out[vucs[sb + k]].set(s));
      }
      continue;
    }
    for (size_t k0 = sb; k0 < sb + nb; k0 += kLane) {
      const size_t lanes = std::min(kLane, sb + nb - k0);
      {
        const obs::ScopedTimer timing(prefixNs);
        gatherLanes(ws, c1, w, k0, lanes);
      }
      const obs::ScopedTimer timing(netNs);
      const auto y = net.forwardLanes(1, ws.lanes, ws.scratch);
      for (size_t b = 0; b < lanes; ++b) {
        for (size_t c = 0; c < classes; ++c) logits[c] = y[c * kLane + b];
        nn::SoftmaxCE::forward(std::span(logits).first(classes), -1,
                               out[vucs[k0 + b]].set(s));
      }
    }
  }
}

/// One part of a predict round: the stage nets `stages` on the VUCs
/// `vucs` (stream indices, ascending).
struct RoundPart {
  std::vector<Stage> stages;
  std::vector<uint32_t> vucs;
};

/// Runs one round's parts of `e`'s nets over the pool into out[i] for every
/// selected i, each item on its thread's WorkerState.
void predictRound(const Engine& e, const ChunkStream& st,
                  std::span<const RoundPart> parts, par::ThreadPool& tp,
                  int batch, bool shared, const Deadline& deadline,
                  StageProbs* out) {
  // Items are (range, stage) on the shared-prefix branch and whole ranges
  // through every stage of their part on the other; either way a worker
  // encodes a range once and keeps it for the next item of the same range.
  size_t evals = 0;
  for (const RoundPart& p : parts) evals += p.vucs.size() * p.stages.size();
  const size_t grain =
      shared ? streamRange(evals)
             : std::max(kPredictGrain, static_cast<size_t>(batch));
  const auto itemsPerRange = [shared](const RoundPart& p) {
    return shared ? p.stages.size() : size_t{1};
  };
  // Part p's items are [firstItem[p], firstItem[p + 1]).
  std::vector<size_t> firstItem(parts.size() + 1, 0);
  for (size_t p = 0; p < parts.size(); ++p) {
    firstItem[p + 1] = firstItem[p] + par::numChunks(parts[p].vucs.size(),
                                                     grain) *
                                          itemsPerRange(parts[p]);
  }
  const uint64_t round = gPredictRounds.fetch_add(1) + 1;
  tp.run(firstItem.back(), [&](size_t item, int) {
    size_t p = 0;
    while (item >= firstItem[p + 1]) ++p;
    const RoundPart& part = parts[p];
    const size_t perRange = itemsPerRange(part);
    const size_t local = item - firstItem[p];
    const par::ChunkRange cr =
        par::chunkRange(part.vucs.size(), grain, local / perRange);
    const std::span<const uint32_t> vucs =
        std::span(part.vucs).subspan(cr.begin, cr.end - cr.begin);
    WorkerState& ws = tWorker;
    const size_t range = item - local % perRange;  // its first item
    if (ws.round != round || ws.range != range) {
      static obs::Histogram& encodeNs = obs::timer("engine.infer.encode_ns");
      const obs::ScopedTimer timing(encodeNs);
      encodeRange(e.encoder(), st, vucs, shared, ws);
      ws.round = round;
      ws.range = range;
    }
    if (shared) {
      const Stage s = part.stages[local % perRange];
      predictRangeStage(e.stageNet(s), s, st, vucs, batch, true, deadline, ws,
                        out);
      return;
    }
    for (const Stage s : part.stages) {
      predictRangeStage(e.stageNet(s), s, st, vucs, batch, false, deadline,
                        ws, out);
    }
  });
}

}  // namespace

std::vector<StageProbs> Engine::predictStream(const ChunkStream& st,
                                              par::ThreadPool* pool, int batch,
                                              StagePlan plan,
                                              Deadline deadline) const {
  if (!trained()) throw std::logic_error("Engine::predict: not trained");
  static obs::Histogram& batchNs = obs::timer("engine.infer.batch_ns");
  static obs::Counter& inferVucs = obs::counter("engine.infer.vucs");
  const obs::ScopedTimer timing(batchNs);
  const size_t n = st.numVucs();
  inferVucs.add(n);
  std::vector<StageProbs> out(n);
  if (n == 0) return out;
  if (st.window() != cfg_.window) {
    throw std::invalid_argument(
        "Engine: chunk stream window does not match the engine's window "
        "configuration");
  }
  const int32_t vocab = encoder_->vocab().size();
  for (const embed::TokenRow& row : st.rows()) {
    for (const int32_t id : row) {
      if (id < 0 || id >= vocab) {
        throw std::invalid_argument("Engine: chunk stream token out of range");
      }
    }
  }
  const auto w = static_cast<uint32_t>(st.window());
  const std::vector<uint32_t>& centres = st.centres();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = centres[i];
    if (c < w || c + w >= st.rows().size() ||
        (i > 0 && c <= centres[i - 1])) {
      throw std::invalid_argument("Engine: chunk stream centre out of range");
    }
  }
  batch = par::resolveBatch(batch, kDefaultInferBatch);
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  const bool shared = sharedPrefix(*this);
  std::vector<RoundPart> round(1);
  round[0].vucs.resize(n);
  std::iota(round[0].vucs.begin(), round[0].vucs.end(), 0U);
  if (plan == StagePlan::kAll) {
    round[0].stages = {Stage::S1,   Stage::S2_1, Stage::S2_2,
                       Stage::S3_1, Stage::S3_2, Stage::S3_3};
    predictRound(*this, st, round, tp, batch, shared, deadline, out.data());
    return out;
  }
  // Routed. Variable v's VUCs, ascending: byVar[varBegin[v], varBegin[v+1]).
  const std::vector<uint32_t>& vars = st.vars();
  const uint32_t numVars = st.numVars();
  std::vector<uint32_t> varBegin(numVars + 1, 0);
  for (const uint32_t v : vars) ++varBegin[v + 1];
  std::partial_sum(varBegin.begin(), varBegin.end(), varBegin.begin());
  std::vector<uint32_t> byVar(n);
  {
    std::vector<uint32_t> fill(varBegin.begin(), varBegin.end() - 1);
    for (uint32_t i = 0; i < n; ++i) byVar[fill[vars[i]]++] = i;
  }
  // at[v]: the stage variable v runs next, kCount once its vote reached a
  // leaf. Every variable still on its way ran that stage in the last round.
  std::vector<Stage> at(numVars, Stage::S1);
  round[0].stages = {Stage::S1};
  while (!round.empty()) {
    predictRound(*this, st, round, tp, batch, shared, deadline, out.data());
    for (uint32_t v = 0; v < numVars; ++v) {
      if (at[v] == Stage::kCount || varBegin[v] == varBegin[v + 1]) continue;
      const std::span<const uint32_t> vucs(byVar.data() + varBegin[v],
                                           varBegin[v + 1] - varBegin[v]);
      const int cls =
          voteStage(at[v], out, vucs, cfg_.voteClip, cfg_.clipEnabled).winner;
      at[v] = nextStage(at[v], cls).value_or(Stage::kCount);
    }
    std::array<std::vector<uint32_t>, kNumStages> next;
    for (uint32_t i = 0; i < n; ++i) {
      const Stage s = at[vars[i]];
      if (s != Stage::kCount) next[static_cast<size_t>(s)].push_back(i);
    }
    round.clear();
    for (int s = 0; s < kNumStages; ++s) {
      if (next[static_cast<size_t>(s)].empty()) continue;
      round.push_back({{static_cast<Stage>(s)},
                       std::move(next[static_cast<size_t>(s)])});
    }
  }
  return out;
}

std::vector<StageProbs> Engine::predictVucs(std::span<const corpus::Vuc> vucs,
                                            par::ThreadPool* pool,
                                            int batch) const {
  if (!trained()) throw std::logic_error("Engine::predictVucs: not trained");
  // Each window as its own one-VUC function: BLANK^w window BLANK^w.
  const std::array<uint32_t, 1> centre{static_cast<uint32_t>(cfg_.window)};
  ChunkStream st;
  for (const corpus::Vuc& v : vucs) {
    st.append(ChunkStream(cfg_.window, windowRows(v), centre));
  }
  return predictStream(st, pool, batch);
}

StageProbs Engine::predictVuc(const corpus::Vuc& vuc) const {
  return predictVucs(std::span(&vuc, 1), nullptr, 1).front();
}

TypeLabel Engine::routeVuc(const StageProbs& p) const {
  return walkTree([&](Stage s) { return num::argmax(p.stage(s)); });
}

VariableDecision Engine::voteVariable(
    std::span<const StageProbs> vucProbs) const {
  return voteVariable(vucProbs, cfg_.voteClip, cfg_.clipEnabled);
}

VariableDecision Engine::voteVariable(std::span<const StageProbs> vucProbs,
                                      float clipThreshold,
                                      bool clipEnabled) const {
  if (vucProbs.empty()) {
    throw std::invalid_argument("voteVariable: no VUCs");
  }
  static const VoteMetrics metrics;
  metrics.variables->add();
  metrics.vucs->add(vucProbs.size());
  std::vector<uint32_t> all(vucProbs.size());
  std::iota(all.begin(), all.end(), 0U);
  VariableDecision d;
  uint64_t clipped = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const StageVote v = voteStage(static_cast<Stage>(s), vucProbs, all,
                                  clipThreshold, clipEnabled);
    d.stageClass[static_cast<size_t>(s)] = v.winner;
    clipped += v.clipped;
    metrics.observe(static_cast<Stage>(s), v, all.size());
  }
  metrics.clipped->add(clipped);
  // Route the voted classes down the tree to the final type.
  d.finalType =
      walkTree([&](Stage s) { return d.stageClass[static_cast<size_t>(s)]; });
  return d;
}

RoutedDecision Engine::voteRoute(std::span<const StageProbs> probs,
                                 std::span<const uint32_t> vucs) const {
  if (vucs.empty()) throw std::invalid_argument("voteRoute: no VUCs");
  static const VoteMetrics metrics;
  metrics.variables->add();
  metrics.vucs->add(vucs.size());
  Stage last = Stage::S1;
  int winner = 0;
  const TypeLabel type = walkTree([&](Stage s) {
    const StageVote v =
        voteStage(s, probs, vucs, cfg_.voteClip, cfg_.clipEnabled);
    metrics.clipped->add(v.clipped);
    metrics.observe(s, v, vucs.size());
    last = s;
    return winner = v.winner;
  });
  // Confidence: mean probability of the winning class at the leaf stage.
  float sum = 0.0F;
  for (const uint32_t i : vucs) {
    sum += probs[i].stage(last)[static_cast<size_t>(winner)];
  }
  return {type, sum / static_cast<float>(vucs.size())};
}

std::vector<double> Engine::occlusionEpsilons(const corpus::Vuc& vuc,
                                              Stage u) const {
  if (!trained()) throw std::logic_error("occlusionEpsilons: not trained");
  // The window, then one copy per position k with row k replaced by BLANK,
  // each a one-VUC function. BLANK's vector is +0 (VucEncoder::load), so an
  // occluded row encodes as the zero row R(VUC, k) of formula 5.
  const std::vector<embed::TokenRow> rows = windowRows(vuc);
  const std::array<uint32_t, 1> centre{static_cast<uint32_t>(cfg_.window)};
  ChunkStream st(cfg_.window, rows, centre);
  for (size_t k = 0; k < rows.size(); ++k) {
    std::vector<embed::TokenRow> occluded = rows;
    occluded[k].fill(embed::Vocab::kBlankId);
    st.append(ChunkStream(cfg_.window, occluded, centre));
  }
  const std::vector<StageProbs> probs = predictStream(st);
  const std::span<const float> original = probs[0].stage(u);
  const auto predicted = static_cast<size_t>(num::argmax(original));
  const double base = std::max<double>(original[predicted], 1e-9);
  std::vector<double> eps;
  eps.reserve(rows.size());
  for (size_t k = 1; k < probs.size(); ++k) {
    eps.push_back(probs[k].stage(u)[predicted] / base);
  }
  return eps;
}

void Engine::admitFunction(Deadline deadline) const {
  static obs::Counter& fnCount = obs::counter("engine.analyze.functions");
  fnCount.add();
  checkDeadline(deadline);
  fault::failPoint("engine.prepare");
}

Engine::FunctionWork Engine::prepareFunction(
    std::span<const asmx::Instruction> insns,
    dataflow::RecoveryResult rec) const {
  admitFunction();
  return extract(insns, std::move(rec), /*windows=*/true);
}

Engine::FunctionWork Engine::streamFunction(
    std::span<const asmx::Instruction> insns,
    dataflow::RecoveryResult rec) const {
  return extract(insns, std::move(rec), /*windows=*/false);
}

Engine::FunctionWork Engine::extract(std::span<const asmx::Instruction> insns,
                                     dataflow::RecoveryResult rec,
                                     bool windows) const {
  if (!trained()) throw std::logic_error("prepareFunction: not trained");
  static obs::Counter& vucCount = obs::counter("engine.analyze.vucs");
  FunctionWork work;
  work.rec = std::move(rec);

  std::vector<int32_t> varOfInsn(insns.size(), -1);
  for (size_t v = 0; v < work.rec.vars.size(); ++v) {
    for (const uint32_t idx : work.rec.vars[v].targetInsns) {
      varOfInsn[idx] = static_cast<int32_t>(v);
    }
  }
  const std::vector<corpus::GenInstr> gen = corpus::generalizeAll(insns);
  if (windows) {
    const std::vector<TypeLabel> labels(work.rec.vars.size(),
                                        TypeLabel::kCount);
    work.ds = corpus::extractFromFunction(gen, varOfInsn, labels, cfg_.window);
  }
  // One VUC per variable-operating instruction, in instruction order — the
  // order extraction emits the windows in.
  std::vector<embed::TokenRow> tokens(gen.size());
  std::vector<uint32_t> targets;
  std::vector<uint32_t> vars;
  for (size_t i = 0; i < gen.size(); ++i) {
    tokens[i] = encoder_->tokenize(gen[i]);
    if (varOfInsn[i] >= 0) {
      targets.push_back(static_cast<uint32_t>(i));
      vars.push_back(static_cast<uint32_t>(varOfInsn[i]));
    }
  }
  work.stream = ChunkStream(cfg_.window, tokens, targets, vars);
  vucCount.add(work.stream.numVucs());
  return work;
}

std::vector<std::exception_ptr> Engine::probeVotes(
    const FunctionWork& work) const {
  std::vector<std::exception_ptr> faults;
  if (!fault::enabled()) return faults;
  faults.resize(work.rec.vars.size());
  std::vector<bool> voted(work.rec.vars.size(), false);
  for (const uint32_t v : work.stream.vars()) voted[v] = true;
  for (size_t v = 0; v < faults.size(); ++v) {
    if (!voted[v]) continue;
    try {
      fault::failPoint("engine.vote");
    } catch (const std::exception&) {
      faults[v] = std::current_exception();
    }
  }
  return faults;
}

std::vector<AnalyzedVariable> Engine::finishFunction(
    const FunctionWork& work, std::span<const StageProbs> probs,
    DiagList* diags, std::span<const std::exception_ptr> voteFaults) const {
  static obs::Counter& varCount = obs::counter("engine.analyze.variables");
  static obs::Counter& degraded = obs::counter("engine.analyze.degraded");
  const std::vector<uint32_t>& vucVar = work.stream.vars();
  if (probs.size() != vucVar.size()) {
    throw std::logic_error("finishFunction: probs/vucs size mismatch");
  }
  std::vector<std::vector<uint32_t>> byVar(work.rec.vars.size());
  for (uint32_t i = 0; i < vucVar.size(); ++i) byVar[vucVar[i]].push_back(i);
  std::vector<AnalyzedVariable> out;
  for (size_t v = 0; v < work.rec.vars.size(); ++v) {
    if (byVar[v].empty()) continue;
    // Per-variable isolation: a poisoned variable (broken stage routing,
    // malformed probabilities, an injected engine.vote fault) degrades to a
    // diagnostic and a counter; the rest of the function still gets typed.
    try {
      if (v < voteFaults.size() && voteFaults[v]) {
        std::rethrow_exception(voteFaults[v]);
      }
      const RoutedDecision d = voteRoute(probs, byVar[v]);
      out.push_back({work.rec.vars[v], d.type, d.confidence, byVar[v].size()});
    } catch (const std::exception& e) {
      degraded.add();
      addDiag(diags, Severity::Warning, DiagStage::Engine,
              static_cast<uint64_t>(work.rec.vars[v].offset),
              std::string("variable skipped (degraded): ") + e.what());
    }
  }
  varCount.add(out.size());
  return out;
}

// --- training checkpoints (DESIGN.md §9) ------------------------------------

namespace {

constexpr uint32_t kCkptMagic = 0x43434b50;  // "CCKP"
constexpr uint32_t kCkptVersion = 1;
constexpr const char* kCkptName = "train.ckpt";

/// The config fields that shape training numerics; echoed into checkpoints
/// so a resume with different hyperparameters fails loudly instead of
/// producing a silently different model.
void writeConfigEcho(io::Writer& w, const EngineConfig& cfg) {
  w.pod(cfg.window);
  w.pod(cfg.w2v.dim);
  w.pod(cfg.w2v.window);
  w.pod(cfg.w2v.negatives);
  w.pod(cfg.w2v.epochs);
  w.pod(cfg.w2v.lr);
  w.pod(cfg.w2v.seed);
  w.pod(cfg.w2v.subsample);
  w.pod(cfg.conv1);
  w.pod(cfg.conv2);
  w.pod(cfg.fcHidden);
  w.pod(cfg.dropout);
  w.pod(cfg.epochs);
  w.pod(cfg.lr);
  w.pod(cfg.batchSize);
  w.pod<uint64_t>(cfg.maxTrainPerStage);
  w.pod(cfg.balanceMultiplier);
  w.pod(cfg.seed);
}

void expectConfigEcho(io::Reader& r, const EngineConfig& cfg) {
  const bool ok = r.pod<int>() == cfg.window && r.pod<int>() == cfg.w2v.dim &&
                  r.pod<int>() == cfg.w2v.window &&
                  r.pod<int>() == cfg.w2v.negatives &&
                  r.pod<int>() == cfg.w2v.epochs &&
                  r.pod<float>() == cfg.w2v.lr &&
                  r.pod<uint64_t>() == cfg.w2v.seed &&
                  r.pod<double>() == cfg.w2v.subsample &&
                  r.pod<int>() == cfg.conv1 && r.pod<int>() == cfg.conv2 &&
                  r.pod<int>() == cfg.fcHidden &&
                  r.pod<float>() == cfg.dropout &&
                  r.pod<int>() == cfg.epochs && r.pod<float>() == cfg.lr &&
                  r.pod<int>() == cfg.batchSize &&
                  r.pod<uint64_t>() == cfg.maxTrainPerStage &&
                  r.pod<double>() == cfg.balanceMultiplier &&
                  r.pod<uint64_t>() == cfg.seed;
  if (!ok) {
    throw std::runtime_error(
        "checkpoint: training configuration mismatch — resume with the "
        "flags the checkpoint was written with, or delete it");
  }
}

}  // namespace

void Engine::writeTrainCheckpoint(const TrainCheckpointing& ck, int nextStage,
                                  int epochsDone,
                                  const std::array<uint64_t, kNumStages>& seeds,
                                  const nn::Adam* adam, uint64_t numVars,
                                  uint64_t numVucs) const {
  static obs::Counter& ckpts = obs::counter("engine.train.checkpoints");
  static obs::Histogram& ckptNs = obs::timer("engine.train.checkpoint_ns");
  const obs::ScopedTimer timing(ckptNs);
  std::filesystem::create_directories(ck.dir);
  fs::atomicWrite(ck.dir / kCkptName, [&](std::ostream& os) {
    io::writeChecksummed(os, kCkptMagic, kCkptVersion, [&](std::ostream& body) {
      io::Writer w(body);
      writeConfigEcho(w, cfg_);
      // Dataset fingerprint: a resume must see the same (regenerated or
      // re-opened) training set or the replayed subsample/shuffle order is
      // garbage. Total counts only — no shard cursor — because every
      // checkpoint lands at a stage/epoch boundary, where the position is
      // shard-plan-independent; in-memory and streaming runs over the same
      // corpus therefore share checkpoints (DESIGN.md §12).
      w.pod<uint64_t>(numVars);
      w.pod<uint64_t>(numVucs);
      w.pod<int32_t>(nextStage);
      w.pod<int32_t>(epochsDone);
      for (const uint64_t s : seeds) w.pod(s);
      encoder_->save(body);
      for (const auto& net : stages_) net.save(body);
      std::string adamBytes;
      if (adam != nullptr) {
        std::ostringstream ab;
        adam->save(ab);
        adamBytes = std::move(ab).str();
      }
      w.str(adamBytes);
    });
  });
  ckpts.add();
}

bool Engine::loadTrainCheckpoint(const TrainCheckpointing& ck,
                                 uint64_t numVars, uint64_t numVucs,
                                 int& startStage, int& startEpoch,
                                 std::array<uint64_t, kNumStages>& seeds,
                                 std::string& adamBlob) {
  const std::filesystem::path path = ck.dir / kCkptName;
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;  // nothing to resume — train from scratch
  io::readChecksummed(is, kCkptMagic, kCkptVersion, "checkpoint",
                      [&](std::istream& body) {
    io::Reader r(body);
    expectConfigEcho(r, cfg_);
    const auto vars = r.pod<uint64_t>();
    const auto vucs = r.pod<uint64_t>();
    if (vars != numVars || vucs != numVucs) {
      throw std::runtime_error(
          "checkpoint: training-set mismatch (checkpoint saw " +
          std::to_string(vucs) + " VUCs, dataset has " +
          std::to_string(numVucs) + ")");
    }
    startStage = r.pod<int32_t>();
    startEpoch = r.pod<int32_t>();
    if (startStage < 0 || startStage > kNumStages || startEpoch < 0 ||
        startEpoch > cfg_.epochs) {
      throw CorruptError("checkpoint: position out of range");
    }
    for (uint64_t& s : seeds) s = r.pod<uint64_t>();
    if (readNets(body, "checkpoint")) {
      throw CorruptError("checkpoint: holds int8 layers (training is fp32)");
    }
    adamBlob = r.str();
    return 0;
  });
  return true;
}

bool Engine::readNets(std::istream& body, const std::string& what) {
  encoder_.emplace(embed::VucEncoder::load(body));
  if (encoder_->w2v().dim() != cfg_.w2v.dim) {
    throw CorruptError(what + ": encoder dimension disagrees with the config");
  }
  // Each stage net must take inputShape() — in 64 bits, so a hostile window
  // cannot overflow — and emit one logit per class.
  const int64_t channels = 3 * static_cast<int64_t>(cfg_.w2v.dim);
  const int64_t rows = 2 * static_cast<int64_t>(cfg_.window) + 1;
  bool fp32 = false;
  bool int8 = false;
  stages_.clear();
  for (int s = 0; s < kNumStages; ++s) {
    nn::Sequential net = nn::Sequential::load(body);
    if (net.inShape().c != channels || net.inShape().l != rows ||
        net.outShape().size() != numClasses(static_cast<Stage>(s))) {
      throw CorruptError(what + ": stage " +
                         std::string(stageName(static_cast<Stage>(s))) +
                         " does not fit the config's input shape and class "
                         "count");
    }
    for (size_t i = 0; i < net.numLayers(); ++i) {
      const std::string kind = net.layer(i).kind();
      fp32 |= kind == "conv1d" || kind == "linear";
      int8 |= kind == "qconv1d" || kind == "qlinear";
    }
    stages_.push_back(std::move(net));
  }
  if (fp32 && int8) throw CorruptError(what + ": mixes fp32 and int8 layers");
  // The six stages are one architecture, and a predict thread runs them all
  // on one scratch that is remade whenever the layer count changes.
  if (std::ranges::any_of(stages_, [&](const nn::Sequential& net) {
        return net.numLayers() != stages_.front().numLayers();
      })) {
    throw CorruptError(what + ": stage nets differ in layer count");
  }
  return int8;
}

// --- int8 quantization (DESIGN.md §11) + persistence ------------------------

Engine Engine::quantize() const {
  if (!trained()) throw std::logic_error("Engine::quantize: not trained");
  if (quantized_) throw std::logic_error("Engine::quantize: already quantized");
  Engine e(cfg_);
  e.encoder_ = encoder_;
  e.quantized_ = true;
  for (const auto& s : stages_) e.stages_.push_back(nn::quantizeNet(s));
  return e;
}

// v2: payload carried under a CRC32 trailer (io::writeChecksummed), so a
// bit-flipped model file fails deterministically at load instead of
// predicting from corrupt weights. Quantized engines write the same
// container; their stage nets just hold qconv1d/qlinear layers.
void Engine::save(std::ostream& os) const {
  if (!trained()) throw std::logic_error("Engine::save: not trained");
  io::writeChecksummed(os, 0x43454e47 /*"CENG"*/, 2, [&](std::ostream& body) {
    io::Writer w(body);
    w.pod(cfg_.window);
    w.pod(cfg_.w2v.dim);
    w.pod(cfg_.conv1);
    w.pod(cfg_.conv2);
    w.pod(cfg_.fcHidden);
    w.pod(cfg_.voteClip);
    w.pod(static_cast<uint8_t>(cfg_.clipEnabled ? 1 : 0));
    encoder_->save(body);
    for (const auto& s : stages_) s.save(body);
  });
}

Engine Engine::load(std::istream& is) {
  return io::readChecksummed(
      is, 0x43454e47, 2, "engine", [](std::istream& body) {
        io::Reader r(body);
        EngineConfig cfg;
        cfg.window = r.pod<int>();
        cfg.w2v.dim = r.pod<int>();
        cfg.conv1 = r.pod<int>();
        cfg.conv2 = r.pod<int>();
        cfg.fcHidden = r.pod<int>();
        cfg.voteClip = r.pod<float>();
        cfg.clipEnabled = r.pod<uint8_t>() != 0;
        Engine e(cfg);
        e.quantized_ = e.readNets(body, "engine");
        if (body.peek() != std::char_traits<char>::eof()) {
          throw CorruptError("engine: trailing bytes after the last stage");
        }
        return e;
      });
}

// Durable write (DESIGN.md §9): serialize to a temp sibling, fsync, rename,
// fsync the directory. A crash mid-save leaves the previous model intact.
void Engine::saveFile(const std::filesystem::path& p) const {
  fs::atomicWrite(p, [this](std::ostream& os) { save(os); });
}

Engine Engine::loadFile(const std::filesystem::path& p,
                        LoadMode /*mode*/) {
  std::ifstream is(p, std::ios::binary);
  if (!is) throw std::runtime_error("Engine::loadFile: cannot open " + p.string());
  return load(is);
}

}  // namespace cati
