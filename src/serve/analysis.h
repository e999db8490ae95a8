// Request-scoped analysis shared by cati-infer and cati-serve
// (DESIGN.md §10). One analysis path and one renderer produce the
// typed-variable report for both the offline tool and the daemon, which is
// what makes the serving equivalence guarantee structural: there is no
// second path to drift.
//
// ImageAnalysis disassembles one image, then runs the engine's three phases
// over function-aligned chunks: prepare (recovery + VUC extraction) for the
// next functions in order, one routed predictStream over the chunk's
// stream (each variable's VUCs through the stage nets on its voted path
// only), then vote and render those functions. CATI classifies every VUC on
// its own and joins VUCs only when it votes per variable — a variable never
// spans functions — so prepare and finish run one pool task per function of
// the chunk, each writing only its own slot, and the calling thread merges
// the slots in function order: the chunk stream, the report sections, the
// tallies and the diagnostics. The ordered side effects — the deadline and
// the engine.prepare / engine.vote fault sites — are taken in a serial pass
// in function order before each fan-out, so a cut or an injected fault
// lands on the same function at any job count (DESIGN.md §9). The kernels
// keep every output's op sequence (DESIGN.md §7), so where a chunk starts
// never changes a byte of output:
//
//   * analyzeImage (cati-infer) cuts chunks of kChunkInsns instructions,
//     which keeps the pool busy, bounds memory, and lets a deadline cut the
//     report at a whole function;
//   * the daemon (cati-serve) prepares each request as one chunk and
//     concatenates the chunk streams of many requests into one
//     predictStream call; its analyses never hold a deadline.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/diag.h"
#include "common/parallel.h"
#include "loader/image.h"

namespace cati::serve {

struct AnalyzeOptions {
  float confMin = 0.0F;
  /// Offline only (--timeout-ms): analyzeImage turns it into the
  /// analysis' deadline. The daemon builds its ImageAnalysis without one,
  /// so its output matches an offline run without a timeout.
  long timeoutMs = 0;
  /// Optional decode+lowering cache shared across analyses of the same
  /// bytes (cati-infer re-analysis, the daemon's batch loop). Purely a
  /// speedup: output is bit-identical with or without it.
  loader::DecodeCache* cache = nullptr;
};

/// analyzeImage's chunk bound: prepareChunk adds whole functions until the
/// chunk holds this many instructions. A chunk keeps only each function's
/// recovery and stream (no windows), so this is about 1k VUCs: enough for
/// one prepare fan-out and the predict rounds to fill the pool, small
/// enough that the chunk stays a small share of peak memory.
inline constexpr size_t kChunkInsns = 2048;

struct AnalyzeResult {
  std::string report;  ///< exactly what cati-infer prints on stdout
  DiagList diags;      ///< disassembly + degradation diagnostics, tool order
};

/// The full offline analysis of one image through ImageAnalysis, chunk by
/// chunk. With timeoutMs > 0 the analysis gets a deadline that many
/// milliseconds from the call; on expiry the report holds the functions of
/// every finished chunk, closes with the TIMEOUT summary and carries a
/// Warning diag.
AnalyzeResult analyzeImage(const Engine& engine, const loader::Image& img,
                           par::ThreadPool* pool,
                           const AnalyzeOptions& opts = {});

/// analyzeImage; `batch` has no effect. Kept only because the benchmark
/// harness still passes one; it goes with that caller (ROADMAP item 2).
inline AnalyzeResult analyzeImage(const Engine& engine,
                                  const loader::Image& img,
                                  par::ThreadPool* pool, int /*batch*/,
                                  const AnalyzeOptions& opts = {}) {
  return analyzeImage(engine, img, pool, opts);
}

class ImageAnalysis {
 public:
  /// Disassembles `img` (recovering, via `pool`, through `cache` when
  /// given); prepareChunk and finishChunk fan out over `pool` too, which
  /// must outlive this object, as must `img`. Without a pool everything
  /// runs on the calling thread. prepareChunk checks `deadline` per
  /// function; the caller passes the same one to its predictStream calls.
  ImageAnalysis(const loader::Image& img, par::ThreadPool* pool,
                float confMin, loader::DecodeCache* cache = nullptr,
                Deadline deadline = std::nullopt);

  /// Phase 1 for the next functions in order, at least one, until the
  /// chunk holds at least `maxInsns` instructions or no function is left;
  /// by default the chunk is the rest of the image. Each function is
  /// admitted (Engine::admitFunction with the analysis' deadline) serially
  /// in order, then recovered off its loader FunctionGraph and extracted
  /// (Engine::streamFunction) as one pool task. Returns false when no
  /// function was left. A function whose preparation throws degrades to a
  /// Warning diag plus the engine.analyze.degraded counter and contributes
  /// no VUCs; a TimeoutError propagates and stops the analysis.
  bool prepareChunk(const Engine& engine,
                    size_t maxInsns = std::numeric_limits<size_t>::max());

  /// The chunk's functions as one chunk stream, in function order.
  const ChunkStream& stream() const { return stream_; }

  /// Phase 3 for the chunk from its probabilities (one per VUC of
  /// stream(), routed or all six stages): the engine.vote fault hits
  /// serially in order (Engine::probeVotes), then per function as one pool
  /// task its votes, per-variable degradation and report section; the
  /// sections and diagnostics are merged in function order. Then drops the
  /// chunk.
  void finishChunk(const Engine& engine, std::span<const StageProbs> probs);

  /// The report of every finished function closed by the summary line, and
  /// the diagnostics: disassembly first, then each function's in order.
  /// With `timedOut` the summary reads `TIMEOUT after <timeoutMs>ms: k/N
  /// functions analyzed` and a Warning diag says the same.
  AnalyzeResult result(bool timedOut = false, long timeoutMs = 0) &&;

 private:
  struct Tally {
    size_t typed = 0;
    size_t withTruth = 0;
    size_t correct = 0;
  };
  /// One function of the chunk; each phase's pool task writes only its own.
  struct PreparedFn {
    /// nullopt when preparation degraded (diag already in `frag`).
    std::optional<Engine::FunctionWork> work;
    size_t vucBegin = 0;
    size_t vucEnd = 0;
    DiagList frag;  ///< this function's diagnostics, both phases
    bool finished = false;  ///< typed (not degraded) by finishChunk
    std::string section;    ///< its report section, empty when no variable
    Tally tally;
  };

  /// One function's report section into pf.section and pf.tally: header,
  /// then one row per variable above the confidence floor, with ground
  /// truth when debug info survives.
  void render(const loader::LoadedFunction& fn,
              std::span<const AnalyzedVariable> vars, PreparedFn& pf) const;

  const loader::Image& img_;
  par::ThreadPool* pool_;
  float confMin_;
  Deadline deadline_;
  /// Finished output so far; declared before fns_, whose initializer
  /// writes the disassembly diagnostics into it.
  AnalyzeResult res_;
  std::vector<loader::LoadedFunction> fns_;
  size_t next_ = 0;  ///< first function not yet prepared
  /// Prepared, not yet finished: chunk_[k] is fns_[next_ - chunk_.size() + k].
  std::vector<PreparedFn> chunk_;
  ChunkStream stream_;
  Tally tally_;
  size_t fnsDone_ = 0;
};

}  // namespace cati::serve
