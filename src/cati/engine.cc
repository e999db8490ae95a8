#include "cati/engine.h"

#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
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
std::string stageMetricName(const char* prefix, Stage s) {
  return std::string(prefix) + "." + std::string(stageName(s));
}

std::array<obs::Counter*, kNumStages> stageCounters(const char* prefix) {
  std::array<obs::Counter*, kNumStages> a{};
  for (int i = 0; i < kNumStages; ++i) {
    a[static_cast<size_t>(i)] =
        &obs::counter(stageMetricName(prefix, static_cast<Stage>(i)));
  }
  return a;
}

std::array<obs::Histogram*, kNumStages> stageHistograms(const char* prefix,
                                                        obs::Unit unit) {
  std::array<obs::Histogram*, kNumStages> a{};
  for (int i = 0; i < kNumStages; ++i) {
    a[static_cast<size_t>(i)] = &obs::Registry::global().histogram(
        stageMetricName(prefix, static_cast<Stage>(i)), unit);
  }
  return a;
}

}  // namespace

Engine::Engine(EngineConfig cfg) : cfg_(cfg) {}

nn::Shape Engine::inputShape() const {
  // Channel-major: embedding dimensions (3 tokens x dim) as channels over
  // the 2w+1 instruction positions.
  return {3 * cfg_.w2v.dim, 2 * cfg_.window + 1};
}

void Engine::encodeInput(const corpus::Vuc& vuc, int occlude,
                         std::span<float> out) const {
  const int rows = 2 * cfg_.window + 1;
  const int cols = 3 * cfg_.w2v.dim;
  if (static_cast<int>(vuc.window.size()) != rows) {
    throw std::invalid_argument(
        "Engine: VUC window length does not match the engine's window "
        "configuration");
  }
  if (static_cast<int>(out.size()) != rows * cols) {
    throw std::invalid_argument("Engine::encodeInput: bad output size");
  }
  // Straight into the [cols x rows] channel-major layout the CNNs consume —
  // no row-major temporary, no transpose pass. `out` is typically a slice
  // of a worker's batch buffer.
  encoder_->encodeChannelMajor(vuc, occlude, out);
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

}  // namespace

namespace {

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

void Engine::preGatherStages(corpus::VucSource& src,
                             const std::array<uint64_t, kNumStages>& seeds,
                             int startStage, bool planOnly) const {
  std::vector<uint32_t> all;
  for (int s = startStage; s < kNumStages; ++s) {
    // A fresh Rng per stage, exactly as trainStage seeds its own: the
    // replayed draws are identical, and nothing here advances any RNG a
    // later consumer observes.
    Rng rng(seeds[static_cast<size_t>(s)]);
    const std::vector<uint32_t> train =
        stageTrainSet(static_cast<Stage>(s), src, rng);
    all.insert(all.end(), train.begin(), train.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  if (planOnly) {
    src.planGather(all);
  } else {
    src.gather(all);
  }
}

void Engine::trainStage(Stage s, corpus::VucSource& src, uint64_t seed,
                        par::ThreadPool& pool, int startEpoch,
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
  // Make this stage's subset resident. train() pre-gathered the union of
  // every remaining stage's subset in one streaming pass, so this is a
  // residency check, not I/O (and a no-op for the in-memory source). The
  // index set is fixed for the whole stage — epoch shuffles only permute
  // it — so it serves every epoch, including a mid-stage resume's replay.
  src.gather(train);
  stageSamples[static_cast<size_t>(s)]->add(
      train.size() *
      static_cast<size_t>(std::max(0, cfg_.epochs - startEpoch)));

  auto& net = stages_[static_cast<size_t>(s)];
  nn::Adam adam(net.params(), {.lr = cfg_.lr});
  const std::vector<nn::Param*> masterParams = net.params();
  size_t totalParams = 0;
  for (const nn::Param* p : masterParams) totalParams += p->value.size();

  // Workers share the one const net — master weights only change in
  // adam.step, outside the parallel region — and own only a scratch arena
  // plus reusable batch buffers. No weight replicas, no per-batch sync.
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
  struct ChunkOut {
    std::vector<float> grads;
    double loss = 0.0;
    size_t correct = 0;
  };
  std::vector<ChunkOut> chunkOut;
  const auto batchSize = static_cast<size_t>(std::max(1, cfg_.batchSize));
  uint64_t batchId = 1;

  // Mid-stage resume: everything the checkpoint did NOT serialize is
  // re-derived here by replaying the RNG prefix — the per-epoch shuffles
  // advance `rng` and reorder `train` exactly as the original run did, and
  // batchId (the dropout stream cursor) is a pure function of the epoch
  // count. Only the Adam moments carry true state, restored below.
  if (startEpoch > 0) {
    for (int e = 0; e < startEpoch; ++e) rng.shuffle(train);
    batchId += static_cast<uint64_t>(startEpoch) *
               par::numChunks(train.size(), batchSize);
    if (adamState != nullptr) adam.load(*adamState);
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
        t.scratch.zeroGrad();
        t.scratch.reseed(splitSeed(dropBase, batchId * kChunkStreams + c));
        t.input.resize(nb * inSize);
        t.dLogits.resize(nb * static_cast<size_t>(classes));
        t.probs.resize(static_cast<size_t>(classes));
        for (size_t k = 0; k < nb; ++k) {
          encodeInput(src.vuc(train[batch + cb + k]), -1,
                      std::span(t.input).subspan(k * inSize, inSize));
        }
        // One batched forward/backward over the chunk. Kernels keep the
        // per-sample accumulation order, so gradients are bit-identical to
        // the historical sample-at-a-time fold over [cb, ce).
        const auto logits = net.forward(t.input, static_cast<int>(nb),
                                        t.scratch, nn::Phase::kTrain);
        ChunkOut out;
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
        net.backward(t.dLogits, static_cast<int>(nb), t.scratch);
        out.grads.reserve(totalParams);
        t.scratch.appendGrads(out.grads);
        chunkOut[c] = std::move(out);
      });
      // Ordered merge: chunk gradients sum into the master in ascending
      // chunk index, so the FP accumulation order is jobs-invariant.
      net.zeroGrad();
      for (const ChunkOut& out : chunkOut) {
        size_t off = 0;
        for (nn::Param* p : masterParams) {
          for (size_t i = 0; i < p->grad.size(); ++i) {
            p->grad[i] += out.grads[off + i];
          }
          off += p->grad.size();
        }
        lossSum += out.loss;
        correct += out.correct;
      }
      adam.step(1.0F / static_cast<float>(bn));
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
  workers_.clear();
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

  if (!resumed) {
    // Layer init and the per-stage seed forks touch only the engine RNG —
    // no word2vec state — so they run first: the seeds let the stage
    // pre-gather be PLANNED before tokenization, and the tokenize pass
    // below fulfils it, so the streaming path pays exactly one pass for
    // vocabulary + token stream + every stage's training subset.
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
    preGatherStages(src, stageSeeds, 0, /*planOnly=*/true);

    if (cfg_.verbose) std::cerr << "training word2vec embedding...\n";
    // One streaming pass; the compact token stream (not the VUCs) is what
    // word2vec keeps resident across its epochs.
    embed::TokenizedCorpus tokens = embed::tokenize(src);
    embed::Word2Vec w2v;
    w2v.train(tokens, cfg_.w2v, &tp);
    encoder_.emplace(std::move(tokens.vocab), std::move(w2v));
    if (ckpt != nullptr && !ckpt->dir.empty()) {
      // Post-embedding checkpoint: word2vec is the most expensive
      // epoch-less phase; a crash right after it resumes without repaying.
      writeTrainCheckpoint(*ckpt, 0, 0, stageSeeds, nullptr, src.numVars(),
                           src.numVucs());
      fault::killPoint("train.checkpoint");
    }
  } else {
    // A resumed run skips tokenization, so the remaining stages' union is
    // gathered in its own (single) streaming pass.
    preGatherStages(src, stageSeeds, startStage, /*planOnly=*/false);
  }

  for (int s = startStage; s < kNumStages; ++s) {
    if (cfg_.verbose) {
      std::cerr << "training " << stageName(static_cast<Stage>(s)) << "...\n";
    }
    const bool firstResumed = resumed && s == startStage && startEpoch > 0;
    std::istringstream adamIs(adamBlob);
    trainStage(static_cast<Stage>(s), src,
               stageSeeds[static_cast<size_t>(s)], tp,
               firstResumed ? startEpoch : 0,
               firstResumed && !adamBlob.empty() ? &adamIs : nullptr, ckpt,
               &stageSeeds);
  }
}

Engine::WorkerState& Engine::worker(int w) {
  if (static_cast<int>(workers_.size()) <= w) {
    workers_.resize(static_cast<size_t>(w) + 1);
  }
  WorkerState& ws = workers_[static_cast<size_t>(w)];
  if (ws.stages.size() != stages_.size()) {
    ws.stages.clear();
    ws.stages.reserve(stages_.size());
    for (const nn::Sequential& net : stages_) {
      ws.stages.push_back(net.makeScratch());
    }
  }
  return ws;
}

void Engine::predictRange(std::span<const corpus::Vuc> vucs, size_t b,
                          size_t e, int batch, WorkerState& ws,
                          StageProbs* out) {
  static const std::array<obs::Counter*, kNumStages> samples =
      stageCounters("engine.infer.samples");
  const auto inSize = static_cast<size_t>(inputShape().size());
  const auto bs = static_cast<size_t>(std::max(1, batch));
  for (size_t sb = b; sb < e; sb += bs) {
    // Deadline check once per sub-batch: cheap (a clock read, only when a
    // deadline is set) and bounds how late a timeout can fire by one batch.
    checkDeadline();
    const size_t nb = std::min(bs, e - sb);
    ws.input.resize(nb * inSize);
    for (size_t k = 0; k < nb; ++k) {
      encodeInput(vucs[sb + k], -1,
                  std::span(ws.input).subspan(k * inSize, inSize));
    }
    for (int s = 0; s < kNumStages; ++s) {
      samples[static_cast<size_t>(s)]->add(nb);
      const auto classes =
          static_cast<size_t>(numClasses(static_cast<Stage>(s)));
      // One shared-const forward over the whole sub-batch, caches skipped
      // (Phase::kInfer).
      const auto logits =
          stages_[static_cast<size_t>(s)].forward(ws.input,
                                                  static_cast<int>(nb),
                                                  ws.stages[static_cast<size_t>(s)],
                                                  nn::Phase::kInfer);
      for (size_t k = 0; k < nb; ++k) {
        auto& probs = out[sb + k].probs[static_cast<size_t>(s)];
        probs.resize(classes);
        nn::SoftmaxCE::forward(logits.subspan(k * classes, classes), -1,
                               probs);
      }
    }
  }
}

void Engine::runStage(Stage s, std::span<const float> input,
                      std::span<float> probs) {
  static const std::array<obs::Counter*, kNumStages> samples =
      stageCounters("engine.infer.samples");
  samples[static_cast<size_t>(s)]->add();
  const auto logits = stages_[static_cast<size_t>(s)].forward(
      input, 1, worker(0).stages[static_cast<size_t>(s)], nn::Phase::kInfer);
  nn::SoftmaxCE::forward(logits, -1, probs);
}

StageProbs Engine::predictVuc(const corpus::Vuc& vuc) {
  if (!trained()) throw std::logic_error("Engine::predictVuc: not trained");
  StageProbs out;
  predictRange(std::span<const corpus::Vuc>(&vuc, 1), 0, 1, 1, worker(0),
               &out);
  return out;
}

namespace {

// Prediction fan-out grain: small enough to balance uneven VUC batches,
// large enough that chunk dispatch is amortized. Chunk boundaries don't
// affect results here (each VUC is independent), but keep them fixed anyway.
constexpr size_t kPredictGrain = 16;

// Default inference batch when neither the caller nor CATI_BATCH asks for a
// specific size: big enough to amortize per-layer dispatch, small enough
// that a worker's activation arena stays cache-resident.
constexpr int kDefaultInferBatch = 32;

}  // namespace

std::vector<StageProbs> Engine::predictVucs(std::span<const corpus::Vuc> vucs,
                                            par::ThreadPool* pool,
                                            int batch) {
  if (!trained()) throw std::logic_error("Engine::predictVucs: not trained");
  static obs::Histogram& batchNs = obs::timer("engine.infer.batch_ns");
  static obs::Counter& inferVucs = obs::counter("engine.infer.vucs");
  const obs::ScopedTimer timing(batchNs);
  inferVucs.add(vucs.size());
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  const int bs = par::resolveBatch(batch, kDefaultInferBatch);
  // Worker scratches are created outside the parallel region (worker() may
  // grow the vector); the fan-out then only touches disjoint entries.
  for (int w = 0; w < tp.jobs(); ++w) worker(w);
  // Grain grows with the batch size so a full chunk feeds at least one full
  // forward pass; boundaries stay fixed for a given (n, batch).
  const size_t grain = std::max(kPredictGrain, static_cast<size_t>(bs));
  std::vector<StageProbs> out(vucs.size());
  par::parallelChunks(
      tp, vucs.size(), grain, [&](size_t b, size_t e, size_t, int w) {
        predictRange(vucs, b, e, bs, workers_[static_cast<size_t>(w)],
                     out.data());
      });
  return out;
}

TypeLabel Engine::routeVuc(const StageProbs& p) const {
  Stage s = Stage::S1;
  for (;;) {
    const int cls = num::argmax(p.probs[static_cast<size_t>(s)]);
    if (const auto leaf = leafOf(s, cls)) return *leaf;
    const auto next = nextStage(s, cls);
    if (!next) throw std::logic_error("routeVuc: broken stage tree");
    s = *next;
  }
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
  static const std::array<obs::Histogram*, kNumStages> confidence =
      stageHistograms("engine.vote.confidence", obs::Unit::Count);
  static obs::Counter& voteVars = obs::counter("engine.vote.variables");
  static obs::Counter& voteVucs = obs::counter("engine.vote.vucs");
  static obs::Counter& voteClipped = obs::counter("engine.vote.clipped");
  voteVars.add();
  voteVucs.add(vucProbs.size());
  VariableDecision d;
  // Formula 3-4 per stage: clip high confidences to 1.0 and sum.
  uint64_t clipped = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const int classes = numClasses(static_cast<Stage>(s));
    std::vector<float> sums(static_cast<size_t>(classes), 0.0F);
    for (const StageProbs& p : vucProbs) {
      const auto& probs = p.probs[static_cast<size_t>(s)];
      for (int c = 0; c < classes; ++c) {
        float z = probs[static_cast<size_t>(c)];
        if (clipEnabled && z >= clipThreshold) {
          z = 1.0F;
          ++clipped;
        }
        sums[static_cast<size_t>(c)] += z;
      }
    }
    const int winner = num::argmax(sums);
    d.stageClass[static_cast<size_t>(s)] = winner;
    // Mean winning-class vote per stage — the distribution the paper's
    // formula 4 argmaxes over, normalized to [0, 1] by the VUC count.
    confidence[static_cast<size_t>(s)]->observe(
        static_cast<double>(sums[static_cast<size_t>(winner)]) /
        static_cast<double>(vucProbs.size()));
  }
  voteClipped.add(clipped);
  // Route the voted classes down the tree to the final type.
  Stage s = Stage::S1;
  for (;;) {
    const int cls = d.stageClass[static_cast<size_t>(s)];
    if (const auto leaf = leafOf(s, cls)) {
      d.finalType = *leaf;
      return d;
    }
    const auto next = nextStage(s, cls);
    if (!next) throw std::logic_error("voteVariable: broken stage tree");
    s = *next;
  }
}

double Engine::occlusionEpsilon(const corpus::Vuc& vuc, int k, Stage u) {
  if (!trained()) throw std::logic_error("occlusionEpsilon: not trained");
  const auto inSize = static_cast<size_t>(inputShape().size());
  std::vector<float> input(inSize);
  std::vector<float> probs(static_cast<size_t>(numClasses(u)));

  encodeInput(vuc, -1, input);
  runStage(u, input, probs);
  const int predicted = num::argmax(probs);
  const double base = probs[static_cast<size_t>(predicted)];

  encodeInput(vuc, k, input);
  runStage(u, input, probs);
  const double occluded = probs[static_cast<size_t>(predicted)];
  return occluded / std::max(base, 1e-9);
}

Engine::FunctionWork Engine::prepareFunction(
    std::span<const asmx::Instruction> insns,
    dataflow::RecoveryResult rec) const {
  if (!trained()) throw std::logic_error("prepareFunction: not trained");
  static obs::Counter& fnCount = obs::counter("engine.analyze.functions");
  static obs::Counter& vucCount = obs::counter("engine.analyze.vucs");
  fnCount.add();
  checkDeadline();
  fault::failPoint("engine.prepare");
  FunctionWork work;
  work.rec = std::move(rec);

  std::vector<int32_t> varOfInsn(insns.size(), -1);
  for (size_t v = 0; v < work.rec.vars.size(); ++v) {
    for (const uint32_t idx : work.rec.vars[v].targetInsns) {
      varOfInsn[idx] = static_cast<int32_t>(v);
    }
  }
  const std::vector<TypeLabel> labels(work.rec.vars.size(), TypeLabel::kCount);
  work.ds = corpus::extractFromFunction(insns, varOfInsn, labels, cfg_.window);
  vucCount.add(work.ds.vucs.size());
  return work;
}

std::vector<AnalyzedVariable> Engine::finishFunction(
    const FunctionWork& work, std::span<const StageProbs> probs,
    DiagList* diags) const {
  static obs::Counter& varCount = obs::counter("engine.analyze.variables");
  static obs::Counter& degraded = obs::counter("engine.analyze.degraded");
  if (probs.size() != work.ds.vucs.size()) {
    throw std::logic_error("finishFunction: probs/vucs size mismatch");
  }
  const auto byVar = work.ds.vucsByVar();
  std::vector<AnalyzedVariable> out;
  for (size_t v = 0; v < work.rec.vars.size(); ++v) {
    if (byVar[v].empty()) continue;
    // Per-variable isolation: a poisoned variable (broken stage routing,
    // malformed probabilities) degrades to a diagnostic and a counter; the
    // rest of the function still gets typed. Deadline expiry is not a
    // degradation — it must stop the whole analysis, so it passes through.
    try {
      std::vector<StageProbs> varProbs;
      varProbs.reserve(byVar[v].size());
      for (const uint32_t i : byVar[v]) varProbs.push_back(probs[i]);
      const VariableDecision d = voteVariable(varProbs);

      AnalyzedVariable av;
      av.location = work.rec.vars[v];
      av.type = d.finalType;
      av.numVucs = byVar[v].size();
      // Confidence: mean probability of the winning class at the leaf stage.
      const StagePath path = pathOf(d.finalType);
      const Stage leafStage =
          path.stages[static_cast<size_t>(path.length - 1)];
      const int leafCls = stageClassOf(leafStage, d.finalType);
      float sum = 0.0F;
      for (const StageProbs& p : varProbs) {
        sum += p.probs[static_cast<size_t>(leafStage)]
                      [static_cast<size_t>(leafCls)];
      }
      av.confidence = sum / static_cast<float>(varProbs.size());
      out.push_back(std::move(av));
    } catch (const TimeoutError&) {
      throw;
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
    encoder_.emplace(embed::VucEncoder::load(body));
    stages_.clear();
    for (int s = 0; s < kNumStages; ++s) {
      stages_.push_back(nn::Sequential::load(body));
    }
    adamBlob = r.str();
    return 0;
  });
  return true;
}

void Engine::checkDeadline() const {
  if (!deadline_) return;
  if (fault::hit("engine.deadline") == fault::Action::kNone &&
      std::chrono::steady_clock::now() <= *deadline_) {
    return;
  }
  static obs::Counter& timeouts = obs::counter("engine.analyze.timeout");
  timeouts.add();
  throw TimeoutError("engine: analysis deadline exceeded (--timeout-ms)");
}

// --- int8 quantization + the CQNT container (DESIGN.md §11) -----------------

namespace {

constexpr uint32_t kQuantMagic = 0x43514e54;  // "CQNT"
constexpr uint32_t kQuantVersion = 1;
/// The heap and every blob inside it start on this boundary, so mmapped
/// weight pointers are cache-line aligned (mmap bases are page aligned).
constexpr size_t kHeapAlign = 64;

constexpr size_t alignUp(size_t n, size_t a) { return (n + a - 1) / a * a; }

/// A quantized layer's heap reference inside the CQNT metadata.
struct QBlobRef {
  uint64_t off = 0;
  uint64_t len = 0;
};

void writeQWeights(io::Writer& w, const nn::QWeights& q, uint64_t off) {
  w.vec(q.scale);
  w.vec(q.bias);
  w.vec(q.rowSum);
  w.pod<uint64_t>(off);
  w.pod<uint64_t>(static_cast<uint64_t>(q.w.size()));
}

nn::QWeights readQWeights(io::Reader& r, QBlobRef& ref) {
  nn::QWeights q;
  q.scale = r.vec<float>();
  q.bias = r.vec<float>();
  q.rowSum = r.vec<int32_t>();
  ref.off = r.pod<uint64_t>();
  ref.len = r.pod<uint64_t>();
  return q;
}

/// One parsed CQNT layer descriptor; `q.w` is patched in once the heap's
/// whereabouts are known.
struct QLayerDesc {
  std::string kind;
  int a = 0;  // inC / inF
  int b = 0;  // outC / outF
  int k = 1;  // conv taps / maxpool kernel
  nn::QWeights q;
  QBlobRef blob;
};

int readQDim(io::Reader& r, const char* what) {
  const auto v = r.pod<int32_t>();
  if (v <= 0 || v > (1 << 20)) {
    throw CorruptError(std::string("quantized engine: corrupt ") + what);
  }
  return v;
}

}  // namespace

Engine Engine::quantize() const {
  if (!trained()) throw std::logic_error("Engine::quantize: not trained");
  if (quantized_) throw std::logic_error("Engine::quantize: already quantized");
  Engine e(cfg_);
  e.encoder_ = encoder_;
  e.quantized_ = true;
  for (const auto& s : stages_) e.stages_.push_back(nn::quantizeNet(s));
  return e;
}

void Engine::saveQuantized(std::ostream& os) const {
  // Pass 1: lay the weight blobs out in a contiguous heap, each on a
  // kHeapAlign boundary, in stage/layer traversal order.
  std::vector<int8_t> heap;
  std::vector<uint64_t> offs;
  for (const auto& st : stages_) {
    for (size_t i = 0; i < st.numLayers(); ++i) {
      const nn::Layer& l = st.layer(i);
      std::span<const int8_t> bytes;
      if (const auto* qc = dynamic_cast<const nn::QConv1d*>(&l)) {
        bytes = qc->qweights().w;
      } else if (const auto* ql = dynamic_cast<const nn::QLinear*>(&l)) {
        bytes = ql->qweights().w;
      } else {
        continue;
      }
      const size_t off = alignUp(heap.size(), kHeapAlign);
      heap.resize(off, 0);
      offs.push_back(off);
      heap.insert(heap.end(), bytes.begin(), bytes.end());
    }
  }

  // Pass 2: the checksummed metadata frame. Buffered separately so the
  // frame's exact length is known — the heap is placed at the next
  // kHeapAlign boundary after it.
  std::ostringstream metaBuf;
  {
    io::Writer w(metaBuf);
    w.pod(cfg_.window);
    w.pod(cfg_.w2v.dim);
    w.pod(cfg_.conv1);
    w.pod(cfg_.conv2);
    w.pod(cfg_.fcHidden);
    w.pod(cfg_.voteClip);
    w.pod(static_cast<uint8_t>(cfg_.clipEnabled ? 1 : 0));
    encoder_->save(metaBuf);
    w.pod<uint64_t>(heap.size());
    w.pod<uint32_t>(io::crc32(heap.data(), heap.size()));
    size_t qi = 0;
    for (const auto& st : stages_) {
      w.pod<int32_t>(st.inShape().c);
      w.pod<int32_t>(st.inShape().l);
      w.pod<uint64_t>(st.numLayers());
      for (size_t i = 0; i < st.numLayers(); ++i) {
        const nn::Layer& l = st.layer(i);
        w.str(l.kind());
        if (const auto* qc = dynamic_cast<const nn::QConv1d*>(&l)) {
          w.pod<int32_t>(qc->inC());
          w.pod<int32_t>(qc->outC());
          w.pod<int32_t>(qc->kernel());
          writeQWeights(w, qc->qweights(), offs[qi++]);
        } else if (const auto* ql = dynamic_cast<const nn::QLinear*>(&l)) {
          w.pod<int32_t>(ql->inF());
          w.pod<int32_t>(ql->outF());
          writeQWeights(w, ql->qweights(), offs[qi++]);
        } else if (const auto* mp = dynamic_cast<const nn::MaxPool1d*>(&l)) {
          w.pod<int32_t>(mp->kernel());
        } else if (l.kind() == "relu" || l.kind() == "globalmaxpool") {
          // no extra state
        } else {
          throw std::logic_error(
              "Engine::save: unexpected layer in quantized net: " + l.kind());
        }
      }
    }
  }
  const std::string meta = std::move(metaBuf).str();
  io::writeChecksummed(os, kQuantMagic, kQuantVersion,
                       [&](std::ostream& body) {
                         body.write(meta.data(),
                                    static_cast<std::streamsize>(meta.size()));
                         if (!body) throw IoError("Engine::save: write failed");
                       });
  // Frame = magic + version + payload length + payload + CRC trailer.
  const size_t frameLen = 16 + meta.size() + 4;
  const std::array<char, kHeapAlign> zeros{};
  os.write(zeros.data(),
           static_cast<std::streamsize>(alignUp(frameLen, kHeapAlign) -
                                        frameLen));
  os.write(reinterpret_cast<const char*>(heap.data()),
           static_cast<std::streamsize>(heap.size()));
  if (!os) throw IoError("Engine::save: write failed");
}

Engine Engine::loadQuantized(std::istream& is, const char* mapBase,
                             size_t mapSize,
                             std::shared_ptr<const void> hold) {
  const std::streampos start = is.tellg();
  uint64_t heapLen = 0;
  uint32_t heapCrc = 0;
  std::vector<std::pair<nn::Shape, std::vector<QLayerDesc>>> stageDescs;
  Engine e = io::readChecksummed(
      is, kQuantMagic, kQuantVersion, "quantized engine",
      [&](std::istream& body) {
        io::Reader r(body);
        EngineConfig cfg;
        cfg.window = r.pod<int>();
        cfg.w2v.dim = r.pod<int>();
        cfg.conv1 = r.pod<int>();
        cfg.conv2 = r.pod<int>();
        cfg.fcHidden = r.pod<int>();
        cfg.voteClip = r.pod<float>();
        cfg.clipEnabled = r.pod<uint8_t>() != 0;
        Engine eng(cfg);
        eng.encoder_.emplace(embed::VucEncoder::load(body));
        heapLen = r.pod<uint64_t>();
        heapCrc = r.pod<uint32_t>();
        for (int s = 0; s < kNumStages; ++s) {
          nn::Shape in{};
          in.c = readQDim(r, "stage input shape");
          in.l = readQDim(r, "stage input shape");
          const auto nl = r.pod<uint64_t>();
          if (nl > 64) {
            throw CorruptError("quantized engine: corrupt layer count");
          }
          std::vector<QLayerDesc> ls(nl);
          for (auto& d : ls) {
            d.kind = r.str();
            if (d.kind == "qconv1d") {
              d.a = readQDim(r, "conv channels");
              d.b = readQDim(r, "conv channels");
              d.k = readQDim(r, "conv kernel");
              d.q = readQWeights(r, d.blob);
            } else if (d.kind == "qlinear") {
              d.a = readQDim(r, "linear features");
              d.b = readQDim(r, "linear features");
              d.k = 1;
              d.q = readQWeights(r, d.blob);
            } else if (d.kind == "maxpool1d") {
              d.k = readQDim(r, "pool kernel");
            } else if (d.kind != "relu" && d.kind != "globalmaxpool") {
              throw CorruptError("quantized engine: unknown layer kind '" +
                                 d.kind + "'");
            }
          }
          stageDescs.emplace_back(in, std::move(ls));
        }
        return eng;
      });
  const auto frameLen = static_cast<size_t>(is.tellg() - start);
  const size_t padded = alignUp(frameLen, kHeapAlign);

  const int8_t* heapPtr = nullptr;
  if (mapBase != nullptr) {
    // Zero-copy path: weights stay in the mapping. The metadata (and its
    // CRC) above already vouches for shapes, scales and the heap CRC field;
    // the heap bytes themselves are NOT checksummed here — that is the
    // deal that makes cold start O(pages touched) instead of O(model size).
    if (heapLen > mapSize || padded > mapSize - heapLen) {
      throw CorruptError(
          "quantized engine: truncated input (heap extends past end of "
          "file)");
    }
    heapPtr = reinterpret_cast<const int8_t*>(mapBase) + padded;
    e.heapHold_ = std::move(hold);
  } else {
    if (heapLen > (1ULL << 34)) {
      throw CorruptError("quantized engine: corrupt heap length");
    }
    is.ignore(static_cast<std::streamsize>(padded - frameLen));
    auto owned = std::make_shared<std::vector<int8_t>>(heapLen);
    is.read(reinterpret_cast<char*>(owned->data()),
            static_cast<std::streamsize>(heapLen));
    if (static_cast<uint64_t>(is.gcount()) != heapLen) {
      throw CorruptError("quantized engine: truncated input (heap cut "
                         "short)");
    }
    if (io::crc32(owned->data(), owned->size()) != heapCrc) {
      throw CorruptError(
          "quantized engine: heap checksum mismatch (corrupt file)");
    }
    heapPtr = owned->data();
    e.heapHold_ = std::move(owned);
  }

  for (auto& [in, ls] : stageDescs) {
    nn::Sequential net(in);
    for (auto& d : ls) {
      if (d.kind == "qconv1d" || d.kind == "qlinear") {
        const size_t want =
            static_cast<size_t>(d.k) * nn::qBlockBytes(d.a, d.b);
        if (d.blob.len != want || d.blob.off % kHeapAlign != 0 ||
            d.blob.off > heapLen || d.blob.len > heapLen - d.blob.off) {
          throw CorruptError(
              "quantized engine: weight blob out of bounds");
        }
        d.q.w = {heapPtr + d.blob.off, static_cast<size_t>(d.blob.len)};
        if (d.kind == "qconv1d") {
          net.add(std::make_unique<nn::QConv1d>(d.a, d.b, d.k,
                                                std::move(d.q)));
        } else {
          net.add(std::make_unique<nn::QLinear>(d.a, d.b, std::move(d.q)));
        }
      } else if (d.kind == "maxpool1d") {
        net.add(std::make_unique<nn::MaxPool1d>(d.k));
      } else if (d.kind == "relu") {
        net.add(std::make_unique<nn::ReLU>());
      } else {
        net.add(std::make_unique<nn::GlobalMaxPool>());
      }
    }
    e.stages_.push_back(std::move(net));
  }
  e.quantized_ = true;
  return e;
}

// v2: payload carried under a CRC32 trailer (io::writeChecksummed), so a
// bit-flipped model file fails deterministically at load instead of
// predicting from corrupt weights. Quantized engines write the CQNT
// container instead (saveQuantized above).
void Engine::save(std::ostream& os) const {
  if (!trained()) throw std::logic_error("Engine::save: not trained");
  if (quantized_) {
    saveQuantized(os);
    return;
  }
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
  // Peek the container magic to route: CQNT -> quantized, CENG -> fp32.
  const std::streampos pos = is.tellg();
  uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is) throw CorruptError("engine: truncated input (missing magic)");
  is.seekg(pos);
  if (magic == kQuantMagic) return loadQuantized(is, nullptr, 0, nullptr);
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
        e.encoder_.emplace(embed::VucEncoder::load(body));
        for (int s = 0; s < kNumStages; ++s) {
          e.stages_.push_back(nn::Sequential::load(body));
        }
        return e;
      });
}

// Durable write (DESIGN.md §9): serialize to a temp sibling, fsync, rename,
// fsync the directory. A crash mid-save leaves the previous model intact.
void Engine::saveFile(const std::filesystem::path& p) const {
  fs::atomicWrite(p, [this](std::ostream& os) { save(os); });
}

Engine Engine::loadFile(const std::filesystem::path& p, LoadMode mode) {
  if (mode == LoadMode::kMap) {
    auto mf = std::make_shared<fs::MappedFile>(p);
    io::ImemStream is(mf->data(), mf->size());
    uint32_t magic = 0;
    is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    if (!is) throw CorruptError("engine: truncated input (missing magic)");
    is.seekg(0);
    if (magic == kQuantMagic) {
      return loadQuantized(is, mf->data(), mf->size(), mf);
    }
    // fp32 container out of the mapping: weights are copied into the usual
    // Param vectors (and fully CRC-checked); the mapping is then released.
    return load(is);
  }
  std::ifstream is(p, std::ios::binary);
  if (!is) throw std::runtime_error("Engine::loadFile: cannot open " + p.string());
  return load(is);
}

}  // namespace cati
