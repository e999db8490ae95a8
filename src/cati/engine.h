// The CATI engine: the paper's primary contribution. Ties together the
// embedding (word2vec over generalized tokens), the six-stage tree of CNN
// classifiers (Fig. 5), confidence-clipped voting over a variable's VUCs
// (formulas 2-4) and the occlusion importance measure ε (formula 5); plus
// the end-to-end path stripped-binary -> recovered variables -> types.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/diag.h"
#include "common/errors.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "common/types.h"
#include "corpus/corpus.h"
#include "corpus/source.h"
#include "dataflow/recovery.h"
#include "embed/word2vec.h"
#include "nn/nn.h"

namespace cati {

struct EngineConfig {
  int window = 10;  ///< VUC half-window (paper: 10 -> 21 instructions)

  embed::W2VConfig w2v{};  ///< dim 32 -> instruction vectors of 96 (paper)

  // Per-stage CNN architecture (paper: conv 32-64, FC 1024; the FC default
  // here is sized for the 1-core evaluation machine — see DESIGN.md §6).
  int conv1 = 32;
  int conv2 = 64;
  int fcHidden = 128;
  float dropout = 0.3F;

  int epochs = 3;
  float lr = 1e-3F;
  int batchSize = 32;
  /// Per-stage training-set cap; majority classes are subsampled first.
  size_t maxTrainPerStage = 20000;
  /// Per-class cap multiplier for balancing (cap = multiplier *
  /// maxTrainPerStage / numClasses), so rare classes keep every sample.
  double balanceMultiplier = 3.0;

  float voteClip = 0.9F;  ///< formula 3 threshold
  bool clipEnabled = true;

  uint64_t seed = 42;
  bool verbose = false;
};

/// Per-stage softmax distributions for one VUC. Every stage is always
/// evaluated (the voting tables need all of them); probs[s] has
/// numClasses(stage s) entries.
struct StageProbs {
  std::array<std::vector<float>, kNumStages> probs;
};

/// A variable-level decision after voting.
struct VariableDecision {
  /// Voted class per stage (always filled for all six stages).
  std::array<int, kNumStages> stageClass{};
  /// Leaf reached by routing the voted classes down the tree.
  TypeLabel finalType = TypeLabel::Int;
};

/// Crash-safe training: when `dir` is set, train() persists a checkpoint
/// (model + Adam moments + stage/epoch cursor, in a CRC-framed container
/// written via fs::atomicWrite) after word2vec and at every epoch boundary
/// matching `everyEpochs`, plus every stage boundary. With `resume`, train()
/// continues from dir/train.ckpt — the final model is bit-identical to an
/// uninterrupted run at any job count and batch size, because everything not
/// serialized (subsample order, shuffles, dropout streams) is replayed from
/// the same seeds (DESIGN.md §9).
struct TrainCheckpointing {
  std::filesystem::path dir;
  int everyEpochs = 1;
  bool resume = false;
};

/// A recovered-and-typed variable from the end-to-end stripped path.
struct AnalyzedVariable {
  dataflow::RecoveredVariable location;
  TypeLabel type = TypeLabel::Int;
  float confidence = 0.0F;  ///< mean leaf-stage confidence over its VUCs
  size_t numVucs = 0;
};

class Engine {
 public:
  explicit Engine(EngineConfig cfg = {});

  /// Trains the embedding and all six stage classifiers from a labeled
  /// dataset (the output of corpus::extractGroundTruth over the training
  /// corpus). Replaces any previous model. The optional pool data-parallels
  /// word2vec and per-stage minibatch gradient accumulation; the trained
  /// model bytes are identical at any job count (fixed sample chunks,
  /// ordered gradient merge, per-chunk dropout streams).
  void train(const corpus::Dataset& trainSet, par::ThreadPool* pool = nullptr,
             const TrainCheckpointing* ckpt = nullptr);

  /// Source-based training — the streaming path (DESIGN.md §12). With a
  /// corpus::ShardedSource the corpus is never materialized: tokenization is
  /// one prefetch-pipelined pass, per-stage subsampling runs on the resident
  /// label array, and only each stage's selected VUCs are gathered from the
  /// shards. For a fixed shard plan the trained bytes are identical to the
  /// in-memory overload at any job count and batch size, and checkpoints
  /// are interchangeable between the two paths (same dataset fingerprint).
  void train(corpus::VucSource& src, par::ThreadPool* pool = nullptr,
             const TrainCheckpointing* ckpt = nullptr);

  bool trained() const { return encoder_.has_value(); }

  /// Wall-clock deadline for analysis (--timeout-ms): prepareFunction checks
  /// it per function and predictVucs between NN sub-batches, throwing
  /// cati::TimeoutError on expiry, so a caller always gets back with the
  /// partial results it accumulated so far. nullopt (default) disables.
  void setDeadline(std::optional<std::chrono::steady_clock::time_point> d) {
    deadline_ = d;
  }

  // --- VUC-level inference ---
  // (Model weights are shared-const during inference; all mutable state is
  // per-worker scratch owned by this Engine, so one Engine must not be used
  // from multiple threads concurrently — fan-out happens *inside*
  // predictVucs, where each pool worker gets its own scratch arena.)
  StageProbs predictVuc(const corpus::Vuc& vuc);
  /// Batched prediction; out[i] corresponds to vucs[i]. Workers run forward
  /// passes on the one shared set of weights with per-worker scratch;
  /// kernels preserve per-sample accumulation order, so results are
  /// bit-identical to a serial predictVuc loop at any job count and any
  /// batch size. batch <= 0 resolves via par::resolveBatch (CATI_BATCH env,
  /// then a default of 32).
  std::vector<StageProbs> predictVucs(std::span<const corpus::Vuc> vucs,
                                      par::ThreadPool* pool = nullptr,
                                      int batch = 0);
  /// Hard routing of one VUC's stage distributions down the tree.
  TypeLabel routeVuc(const StageProbs& p) const;

  // --- variable-level voting (formulas 2-4) ---
  VariableDecision voteVariable(std::span<const StageProbs> vucProbs) const;
  /// Voting with explicit clipping parameters (used by the threshold
  /// ablation bench); clipEnabled=false reduces to plain confidence sums.
  VariableDecision voteVariable(std::span<const StageProbs> vucProbs,
                                float clipThreshold, bool clipEnabled) const;

  /// Occlusion importance (formula 5): the confidence of stage `u`'s
  /// predicted class with instruction `k` blanked, divided by the original
  /// confidence. Values < 1 mean instruction k supported the prediction.
  double occlusionEpsilon(const corpus::Vuc& vuc, int k, Stage u);

  // --- end-to-end stripped-binary analysis (DESIGN.md §10) ---
  // The full §III pipeline with src/dataflow standing in for IDA Pro runs in
  // three phases: prepareFunction per function, one predictVucs over the
  // VUCs of many functions, finishFunction per function.
  // serve::ImageAnalysis drives them for both cati-infer and cati-serve.
  // Kernels preserve per-sample accumulation order, so how the prepared
  // functions are grouped into predictVucs calls never changes the votes.

  /// The deterministic, model-independent share of the analysis: recovered
  /// variables plus this function's extracted (unlabeled) VUCs.
  struct FunctionWork {
    dataflow::RecoveryResult rec;
    corpus::Dataset ds;  ///< function-local var ids; vucs in extraction order
  };

  /// Phase 1: VUC extraction from the caller's recovery — e.g.
  /// dataflow::recoverVariables over a loader FunctionGraph (decode-cache
  /// hits skip relowering) or over `insns`. Counts the function toward the
  /// engine.analyze.* metrics, honours the analysis deadline, and is the
  /// `engine.prepare` fault-injection site.
  FunctionWork prepareFunction(std::span<const asmx::Instruction> insns,
                               dataflow::RecoveryResult rec) const;

  /// Phase 3: voting + confidence over `probs`, which must hold one
  /// StageProbs per work.ds.vucs entry, in order (typically a slice of a
  /// coalesced predictVucs result). One poisoned variable degrades (a Diag
  /// in `diags` + the engine.analyze.degraded counter) instead of aborting
  /// the function.
  std::vector<AnalyzedVariable> finishFunction(
      const FunctionWork& work, std::span<const StageProbs> probs,
      DiagList* diags = nullptr) const;

  // --- int8 quantization (DESIGN.md §11) ---
  /// Builds the int8 quantized twin of this trained fp32 engine: weights
  /// quantized symmetric per output channel, activations per sample at run
  /// time (see nn/qnn.h). The twin shares nothing with this engine and is
  /// inference-only — train() on it throws; training always stays fp32.
  /// Results are bit-identical across kernels, batch sizes and job counts;
  /// accuracy vs fp32 is gated (≤ 0.5 pp) by tests and the bench harness.
  Engine quantize() const;
  bool quantized() const { return quantized_; }

  // --- persistence ---
  /// fp32 engines write the CENG v2 container (unchanged bytes vs the
  /// seed); quantized engines write CQNT v1: a CRC-framed metadata block
  /// (config echo, encoder, per-layer scales/biases/row sums and heap
  /// references) followed by a 64-byte-aligned raw int8 weight heap whose
  /// CRC is recorded in the metadata.
  void save(std::ostream& os) const;
  /// Auto-detects the container by magic (CENG -> fp32, CQNT -> quantized).
  static Engine load(std::istream& is);
  void saveFile(const std::filesystem::path& p) const;

  enum class LoadMode {
    kStream,  ///< read everything, verify every byte (heap CRC included)
    kMap,     ///< mmap the file; CQNT weights are used in place (zero-copy)
              ///< and only the metadata CRC + bounds are verified, so cold
              ///< start costs O(pages touched), not O(model size)
  };
  static Engine loadFile(const std::filesystem::path& p,
                         LoadMode mode = LoadMode::kStream);

  const EngineConfig& config() const { return cfg_; }
  const embed::VucEncoder& encoder() const { return *encoder_; }

 private:
  /// Per-worker inference state: one nn::Scratch per stage net plus the
  /// reusable batch input buffer. Grown lazily, reused across predictVucs
  /// calls so steady-state inference allocates nothing.
  struct WorkerState {
    std::vector<nn::Scratch> stages;
    std::vector<float> input;  // [batch x inputShape]
  };

  nn::Shape inputShape() const;
  /// Encodes a VUC (optionally occluding instruction `k`) into the
  /// channel-major layout the CNNs consume.
  void encodeInput(const corpus::Vuc& vuc, int occlude,
                   std::span<float> out) const;
  /// Stage `s`'s training subset: class grouping over the labels (O(1) on
  /// every source) followed by the balanced subsample. A pure function of
  /// (labels, cfg, rng state) — trainStage derives it live, and
  /// preGatherStages replays it from the same per-stage seeds to learn the
  /// union of all remaining subsets without perturbing any stage RNG.
  std::vector<uint32_t> stageTrainSet(Stage s, const corpus::VucSource& src,
                                      Rng& rng) const;
  /// Makes the union of the training subsets of stages [startStage,
  /// kNumStages) resident (a no-op for in-memory sources), so each
  /// trainStage's own gather call finds its subset already decoded instead
  /// of paying a streaming pass per stage. With `planOnly` the union is
  /// only announced via planGather — the next full forEach pass (the
  /// tokenize pass) fulfils it for free.
  void preGatherStages(corpus::VucSource& src,
                       const std::array<uint64_t, kNumStages>& seeds,
                       int startStage, bool planOnly) const;
  /// Trains stage `s` starting at `startEpoch` (0 for a fresh stage). On a
  /// mid-stage resume, the shuffle/dropout RNG prefix is replayed from
  /// `seed` and the Adam moments are restored from `adamState`, so the
  /// continued run is bit-identical to one that never stopped. `ck`/`seeds`
  /// drive checkpoint writes at epoch boundaries when checkpointing is on.
  void trainStage(Stage s, corpus::VucSource& src, uint64_t seed,
                  par::ThreadPool& pool, int startEpoch = 0,
                  std::istream* adamState = nullptr,
                  const TrainCheckpointing* ck = nullptr,
                  const std::array<uint64_t, kNumStages>* seeds = nullptr);
  /// Atomically writes dir/train.ckpt: config echo, dataset fingerprint
  /// (total variable/VUC counts — shard-plan-independent, so in-memory and
  /// streaming runs share checkpoints), position (nextStage, epochsDone),
  /// stage seeds, encoder, all stage nets, and the current stage's Adam
  /// moments (when mid-stage).
  void writeTrainCheckpoint(const TrainCheckpointing& ck, int nextStage,
                            int epochsDone,
                            const std::array<uint64_t, kNumStages>& seeds,
                            const nn::Adam* adam, uint64_t numVars,
                            uint64_t numVucs) const;
  /// Restores train() state from dir/train.ckpt. Returns false when no
  /// checkpoint exists (fresh start); throws CorruptError on a damaged file
  /// and std::runtime_error on a config / dataset mismatch.
  bool loadTrainCheckpoint(const TrainCheckpointing& ck, uint64_t numVars,
                           uint64_t numVucs, int& startStage, int& startEpoch,
                           std::array<uint64_t, kNumStages>& seeds,
                           std::string& adamBlob);
  /// Throws TimeoutError when the analysis deadline has passed, or when an
  /// armed `engine.deadline` fault rule fires (a deterministic expiry).
  void checkDeadline() const;
  void runStage(Stage s, std::span<const float> input, std::span<float> probs);
  /// The lazily-created scratch for worker `w`. Must be called outside any
  /// parallel region (it may grow workers_); train() invalidates all states.
  WorkerState& worker(int w);
  /// Predicts vucs[b, e) into out[b, e) in sub-batches of `batch` samples
  /// on one worker's scratch.
  void predictRange(std::span<const corpus::Vuc> vucs, size_t b, size_t e,
                    int batch, WorkerState& ws, StageProbs* out);

  void saveQuantized(std::ostream& os) const;
  /// Parses a CQNT container positioned at `is`. With mapBase == nullptr the
  /// heap is read from the stream and CRC-verified; otherwise the weights
  /// are used in place inside [mapBase, mapBase+mapSize) and `hold` (the
  /// mapping) is retained for the engine's lifetime.
  static Engine loadQuantized(std::istream& is, const char* mapBase,
                              size_t mapSize, std::shared_ptr<const void> hold);

  EngineConfig cfg_;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  std::optional<embed::VucEncoder> encoder_;
  std::vector<nn::Sequential> stages_;  // kNumStages entries once trained
  bool quantized_ = false;
  /// Keeps the quantized weight bytes alive: the owned heap vector
  /// (stream load) or the mmapped container (kMap). Fresh quantize()
  /// results own their bytes inside the layers and leave this empty.
  std::shared_ptr<const void> heapHold_;
  /// Per-worker inference scratch (index = pool worker id; worker 0 also
  /// serves the single-sample paths). Never serialized.
  std::vector<WorkerState> workers_;
};

}  // namespace cati
