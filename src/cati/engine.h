// The CATI engine: the paper's primary contribution. Ties together the
// embedding (word2vec over generalized tokens), the six-stage tree of CNN
// classifiers (Fig. 5), confidence-clipped voting over a variable's VUCs
// (formulas 2-4) and the occlusion importance measure ε (formula 5); plus
// the end-to-end path stripped-binary -> recovered variables -> types.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <istream>
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

/// One VUC's per-stage softmax distributions, inline (no heap storage, so a
/// std::vector<StageProbs> is one flat table): stage s's floats sit at
/// kStageOffset[s], and stage(s) is empty until set(s). Flag bytes, not a
/// bit mask: predict workers set different stages of one VUC at once.
struct StageProbs {
  /// Stage s's distribution; empty when s was not evaluated.
  std::span<const float> stage(Stage s) const {
    const auto i = static_cast<size_t>(s);
    if (!evaluated_[i]) return {};
    return std::span(probs_).subspan(kStageOffset[i], kStageClasses[i]);
  }
  /// Marks s evaluated and returns its numClasses(s) floats to fill.
  std::span<float> set(Stage s) {
    const auto i = static_cast<size_t>(s);
    evaluated_[i] = true;
    return std::span(probs_).subspan(kStageOffset[i], kStageClasses[i]);
  }

 private:
  std::array<float, kStageOffset[kNumStages]> probs_{};
  std::array<bool, kNumStages> evaluated_{};
};

/// Which stage nets Engine::predictStream runs on which VUCs.
enum class StagePlan {
  kAll,     ///< every stage on every VUC (what voteVariable needs)
  kRouted,  ///< a variable's VUCs through the stages on its voted path only
};

/// A variable-level decision after voting.
struct VariableDecision {
  /// Voted class per stage (always filled for all six stages).
  std::array<int, kNumStages> stageClass{};
  /// Leaf reached by routing the voted classes down the tree.
  TypeLabel finalType = TypeLabel::Int;
};

/// A variable typed by the route walk (Engine::voteRoute).
struct RoutedDecision {
  TypeLabel type = TypeLabel::Int;
  float confidence = 0.0F;  ///< mean leaf-stage probability of `type`
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

/// The input of Engine::predictStream (DESIGN.md §7): the generalized
/// instructions of one or more functions as token rows, laid out
/// BLANK^w f1 BLANK^w f2 ... BLANK^w, plus the row of every VUC's target
/// instruction, ascending. A VUC's window is the 2w+1 rows around its
/// centre — the pads supply the BLANK rows past a function's edges — so
/// the VUCs of a function share all but a few rows of their windows, and
/// the stage nets' first conv runs once per row instead of once per window.
/// Every VUC also carries the key of the variable it belongs to, which a
/// routed prediction votes by.
class ChunkStream {
 public:
  ChunkStream() = default;
  /// One function: BLANK^window, `insns`, BLANK^window, with one VUC
  /// centred on each of `targets` (instruction indices, ascending). VUC i
  /// belongs to variable vars[i] (function-local ids); without `vars`
  /// every VUC is a variable of its own.
  ChunkStream(int window, std::span<const embed::TokenRow> insns,
              std::span<const uint32_t> targets,
              std::span<const uint32_t> vars = {});

  /// Appends the functions of `other` after this stream's, keeping the pad
  /// between them once — how a chunk, and the daemon's coalesced batch, is
  /// built. `other`'s variable keys move past this stream's, so no two
  /// appended functions share a variable. An empty stream takes `other`'s
  /// window; otherwise the windows must match (std::invalid_argument).
  void append(const ChunkStream& other);
  void clear() { *this = ChunkStream(); }

  int window() const { return window_; }
  const std::vector<embed::TokenRow>& rows() const { return rows_; }
  const std::vector<uint32_t>& centres() const { return centres_; }
  /// Per VUC: its variable key, below numVars().
  const std::vector<uint32_t>& vars() const { return vars_; }
  uint32_t numVars() const { return numVars_; }
  size_t numVucs() const { return centres_.size(); }

 private:
  int window_ = 0;
  std::vector<embed::TokenRow> rows_;
  std::vector<uint32_t> centres_;
  std::vector<uint32_t> vars_;
  uint32_t numVars_ = 0;
};

/// An analysis deadline (--timeout-ms): checked by Engine::admitFunction
/// per function and by Engine::predictStream per Stage 1 lane group, which
/// throw cati::TimeoutError once it has passed. nullopt: none.
using Deadline = std::optional<std::chrono::steady_clock::time_point>;

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
  /// chunk gradients summed in chunk order inside the Adam update,
  /// per-chunk dropout streams).
  void train(const corpus::Dataset& trainSet, par::ThreadPool* pool = nullptr,
             const TrainCheckpointing* ckpt = nullptr);

  /// Source-based training — the streaming path (DESIGN.md §12). With a
  /// corpus::ShardedSource the corpus is never materialized: tokenization is
  /// the one prefetch-pipelined pass, per-stage subsampling runs on the
  /// resident label array, and the stages encode their samples from the
  /// token ids that pass produced. Throws std::invalid_argument when any
  /// VUC's window is not 2w+1 instructions long. For a fixed shard plan the trained bytes are identical to the
  /// in-memory overload at any job count and batch size, and checkpoints
  /// are interchangeable between the two paths (same dataset fingerprint).
  void train(corpus::VucSource& src, par::ThreadPool* pool = nullptr,
             const TrainCheckpointing* ckpt = nullptr);

  bool trained() const { return encoder_.has_value(); }

  // --- VUC-level inference ---
  // Inference is const: a trained Engine is immutable while it predicts.
  // The mutable predict state (a scratch and the encoded range buffers) is
  // per OS thread, private to engine.cc: engines that share a pool share
  // one set of states, and an Engine holds none.
  // Concurrent inference on one Engine from different threads, each with
  // its own pool or none, is safe; train() and load must not overlap it.
  /// The one prediction path; out[i] belongs to the VUC centred on
  /// stream.centres()[i]. It runs in rounds of (stage, VUC selection):
  /// kAll is one round of every stage on every VUC; kRouted runs Stage 1
  /// on every VUC, votes each variable (stream.vars()) at it with
  /// voteVariable's arithmetic, and runs only the stage the vote routes to
  /// on that variable's VUCs — at most three rounds, and out[i] holds just
  /// the stages on its variable's path, all that voteRoute reads. Softmax
  /// writes each evaluated stage in place in out[i].
  /// Each stage net runs lane groups of 8 of a range's selected VUCs
  /// lane-resident to the logits (DESIGN.md §7): from layer 1, on conv1
  /// columns gathered from one conv1 over the range's stream rows, when
  /// every net starts Conv1d(k=3) -> ReLU -> MaxPool1d(2); otherwise (int8,
  /// window 0) from layer 0, on the range's encoded windows.
  /// Fan-out is over (VUC range x stage) on the one shared set of weights
  /// with per-thread scratch. The kernels keep every output's op sequence,
  /// so every evaluated stage is bit-identical to a serial per-window
  /// forward at any job count. With a `deadline`, it is checked once per
  /// Stage 1 lane group (TimeoutError).
  std::vector<StageProbs> predictStream(const ChunkStream& stream,
                                        par::ThreadPool* pool = nullptr,
                                        StagePlan plan = StagePlan::kAll,
                                        Deadline deadline = std::nullopt) const;
  /// predictStream over the VUCs' own windows, each laid out as a one-VUC
  /// function (BLANK^w window BLANK^w, centre at its index w); out[i]
  /// corresponds to vucs[i]. `batch` has no effect: the name stays only
  /// because the benchmark harness still passes it; it goes with that
  /// caller (ROADMAP item 2), as LoadMode does.
  std::vector<StageProbs> predictVucs(std::span<const corpus::Vuc> vucs,
                                      par::ThreadPool* pool = nullptr,
                                      int batch = 0) const;
  /// predictVucs of one VUC.
  StageProbs predictVuc(const corpus::Vuc& vuc) const;
  /// Hard routing of one VUC's stage distributions down the tree.
  TypeLabel routeVuc(const StageProbs& p) const;

  // --- variable-level voting (formulas 2-4) ---
  VariableDecision voteVariable(std::span<const StageProbs> vucProbs) const;
  /// Voting with explicit clipping parameters (used by the threshold
  /// ablation bench); clipEnabled=false reduces to plain confidence sums.
  VariableDecision voteVariable(std::span<const StageProbs> vucProbs,
                                float clipThreshold, bool clipEnabled) const;
  /// The route walk: the variable of the VUCs probs[i], i in `vucs`, voted
  /// at Stage 1 and then only at the stage each vote routes to, with
  /// voteVariable's per-stage arithmetic and the config's clipping. It
  /// reads no stage off that path, and its type is voteVariable's
  /// finalType. Throws std::invalid_argument when `vucs` is empty or a VUC
  /// lacks an on-path stage.
  RoutedDecision voteRoute(std::span<const StageProbs> probs,
                           std::span<const uint32_t> vucs) const;

  /// Occlusion importance (formula 5) of every window position: entry k is
  /// the confidence of stage `u`'s predicted class with instruction k
  /// replaced by BLANK, divided by the original confidence. Values < 1 mean
  /// instruction k supported the prediction. One predictStream call over
  /// the window and its 2w+1 occluded copies, each a one-VUC function.
  std::vector<double> occlusionEpsilons(const corpus::Vuc& vuc,
                                        Stage u) const;

  // --- end-to-end stripped-binary analysis (DESIGN.md §10) ---
  // The full §III pipeline with src/dataflow standing in for IDA Pro runs in
  // three phases: prepare per function, one predictStream over the
  // concatenated streams of many functions, finishFunction per function.
  // serve::ImageAnalysis drives them for both cati-infer and cati-serve,
  // fanning each chunk's per-function prepare and finish out over the pool.
  // streamFunction and finishFunction are safe to call from several
  // threads at once; admitFunction and probeVotes take the ordered side
  // effects (the caller's deadline, the fault sites) and run serially in
  // function order, so a cut or an injected fault lands on the same
  // function at any job count.
  // Kernels preserve per-sample accumulation order, so how the prepared
  // functions are grouped into predict calls never changes the votes.

  /// The deterministic share of the analysis: recovered variables plus
  /// this function's extracted (unlabeled) VUCs as a chunk stream, and, from
  /// prepareFunction only, as windows.
  struct FunctionWork {
    dataflow::RecoveryResult rec;
    /// prepareFunction: the VUCs' windows, function-local var ids, in
    /// stream order. streamFunction leaves it empty; nothing on the analysis
    /// path reads it.
    corpus::Dataset ds;
    /// The function alone as a chunk stream: one centre per VUC, in
    /// instruction order, each tagged with its variable (rec.vars index).
    ChunkStream stream;
  };

  /// Phase 1, ordered part: counts the function toward
  /// engine.analyze.functions, checks `deadline` (TimeoutError) and is the
  /// `engine.prepare` fault-injection site.
  void admitFunction(Deadline deadline = std::nullopt) const;
  /// Phase 1, per-function part: VUC extraction as a stream from the
  /// caller's recovery — e.g. dataflow::recoverVariables over a loader
  /// FunctionGraph (decode-cache hits skip relowering) or over `insns`.
  /// Counts engine.analyze.vucs. Builds no windows.
  FunctionWork streamFunction(std::span<const asmx::Instruction> insns,
                              dataflow::RecoveryResult rec) const;
  /// admitFunction (no deadline), then streamFunction plus the VUCs'
  /// windows in `ds` — one function by itself, for callers that read
  /// windows.
  FunctionWork prepareFunction(std::span<const asmx::Instruction> insns,
                               dataflow::RecoveryResult rec) const;

  /// Phase 3, ordered part: the `engine.vote` fault-injection site, hit
  /// once per variable finishFunction votes (one with VUCs), in variable
  /// order. Entry v holds the fault injected for variable v, or null; empty
  /// when no fault spec is armed.
  std::vector<std::exception_ptr> probeVotes(const FunctionWork& work) const;

  /// Phase 3: voteRoute per variable over `probs`, which must hold one
  /// StageProbs per VUC of work.stream, in order (typically a slice of a
  /// coalesced predictStream result, routed or not). One poisoned variable
  /// — voteRoute throws, or `voteFaults` (probeVotes' result) holds a fault
  /// for it — degrades (a Diag in `diags` + the engine.analyze.degraded
  /// counter) instead of aborting the function.
  std::vector<AnalyzedVariable> finishFunction(
      const FunctionWork& work, std::span<const StageProbs> probs,
      DiagList* diags = nullptr,
      std::span<const std::exception_ptr> voteFaults = {}) const;

  // --- int8 quantization (DESIGN.md §11) ---
  /// Builds the int8 quantized twin of this trained fp32 engine: weights
  /// quantized symmetric per output channel, activations per sample at run
  /// time (see nn/qnn.h). The twin shares nothing with this engine and is
  /// inference-only — train() on it throws; training always stays fp32.
  /// Results are bit-identical across kernels and job counts;
  /// accuracy vs fp32 is gated (≤ 0.5 pp) by tests and the bench harness.
  Engine quantize() const;
  bool quantized() const { return quantized_; }

  // --- persistence ---
  /// Writes the CENG v2 container: config echo, encoder and the six stage
  /// nets under one CRC32 trailer. fp32 and quantized engines share it —
  /// int8 layers serialize through Layer::saveExtra like any other layer.
  void save(std::ostream& os) const;
  /// Reads a container written by save(), verifying every byte (CRC) and
  /// range-checking every count: the encoder must match the config's
  /// embedding size, each stage net the input shape and its class count,
  /// and the stages must share a layer count and be all fp32 or all int8.
  /// Throws CorruptError.
  static Engine load(std::istream& is);
  void saveFile(const std::filesystem::path& p) const;

  /// Has no effect: every load reads the file through an ifstream and runs
  /// load(). The name stays only because the benchmark harness still passes
  /// kMap; it goes once that caller stops naming it (ROADMAP item 6(d),
  /// after the benchmark change of item 2).
  enum class LoadMode { kStream, kMap };
  static Engine loadFile(const std::filesystem::path& p,
                         LoadMode mode = LoadMode::kStream);

  const EngineConfig& config() const { return cfg_; }
  const embed::VucEncoder& encoder() const { return *encoder_; }
  /// Stage `s`'s classifier net (trained engines only).
  const nn::Sequential& stageNet(Stage s) const {
    return stages_.at(static_cast<size_t>(s));
  }

 private:
  nn::Shape inputShape() const;
  /// The token rows of a VUC's window (std::invalid_argument when its
  /// length is not the engine's 2w+1).
  std::vector<embed::TokenRow> windowRows(const corpus::Vuc& vuc) const;
  /// Stage `s`'s training subset: class grouping over the labels (O(1) on
  /// every source) followed by the balanced subsample. A pure function of
  /// (labels, cfg, rng state).
  std::vector<uint32_t> stageTrainSet(Stage s, const corpus::VucSource& src,
                                      Rng& rng) const;
  /// Trains stage `s` starting at `startEpoch` (0 for a fresh stage) on
  /// samples encoded from `ids` (VUC i's window as 3 token ids per row). On
  /// a mid-stage resume, the shuffle/dropout RNG prefix is replayed from
  /// `seed` and the Adam moments are restored from `adamState`, so the
  /// continued run is bit-identical to one that never stopped; a restored
  /// step count other than startEpoch's minibatches throws CorruptError.
  /// `ck`/`seeds` drive checkpoint writes at epoch boundaries when
  /// checkpointing is on.
  void trainStage(Stage s, const corpus::VucSource& src,
                  std::span<const std::vector<int32_t>> ids, uint64_t seed,
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
  /// Reads the encoder and the six stage nets of a model or checkpoint
  /// payload, checked against cfg_: the encoder must have cfg_'s embedding
  /// size, each stage net must take inputShape() and emit one logit per
  /// class, and the stages must share a layer count and not mix fp32 and
  /// int8 layers. Returns true when they hold int8 layers. Throws
  /// CorruptError prefixed with `what`.
  bool readNets(std::istream& body, const std::string& what);
  /// Restores train() state from dir/train.ckpt. Returns false when no
  /// checkpoint exists (fresh start); throws CorruptError on a damaged file
  /// (readNets' checks included, and no int8 layers) and std::runtime_error
  /// on a config / dataset mismatch.
  bool loadTrainCheckpoint(const TrainCheckpointing& ck, uint64_t numVars,
                           uint64_t numVucs, int& startStage, int& startEpoch,
                           std::array<uint64_t, kNumStages>& seeds,
                           std::string& adamBlob);
  /// streamFunction, plus the windows in `ds` when `windows`.
  FunctionWork extract(std::span<const asmx::Instruction> insns,
                       dataflow::RecoveryResult rec, bool windows) const;

  EngineConfig cfg_;
  std::optional<embed::VucEncoder> encoder_;
  std::vector<nn::Sequential> stages_;  // kNumStages entries once trained
  bool quantized_ = false;  ///< the stages hold int8 (nn/qnn.h) layers
};

}  // namespace cati
