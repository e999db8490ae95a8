#include "serve/analysis.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/errors.h"
#include "common/obs.h"

namespace cati::serve {

namespace {

/// printf-into-a-string; the report renderer keeps the exact format strings
/// the offline tool always used, so the bytes cannot drift.
__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n < 0) return;
  if (static_cast<size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n), '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size() + 1, fmt, args);
  va_end(args);
  out.append(big);
}

// Function-aligned prediction chunk of the offline path: functions are
// prepared until the chunk holds this many VUCs, then predicted in one call.
// Large enough that predictStream fans out over the pool, small enough that
// the chunk's VUCs and probabilities stay a small share of peak memory.
constexpr size_t kChunkVucs = 512;

void addDegradedFnDiag(DiagList* diags, const loader::LoadedFunction& fn,
                       const std::exception& e) {
  // Per-function isolation: one poisoned function must not abort the
  // binary. Record it and move on.
  obs::counter("engine.analyze.degraded").add();
  addDiag(diags, Severity::Warning, DiagStage::Engine, fn.addr,
          "function " + fn.name + " skipped (degraded): " + e.what());
}

/// Recovering disassembly, routed through the decode+lowering cache when
/// one is supplied (the cached overload needs a pool; fall back to an
/// inline single-thread pool so the cache still works without one).
std::vector<loader::LoadedFunction> disassembleFor(const loader::Image& img,
                                                   DiagList& diags,
                                                   par::ThreadPool* pool,
                                                   loader::DecodeCache* cache) {
  if (cache != nullptr) {
    if (pool != nullptr) return loader::disassemble(img, diags, *pool, *cache);
    par::ThreadPool inlinePool(1);
    return loader::disassemble(img, diags, inlinePool, *cache);
  }
  return pool != nullptr ? loader::disassemble(img, diags, *pool)
                         : loader::disassemble(img, diags);
}

}  // namespace

AnalyzeResult analyzeImage(Engine& engine, const loader::Image& img,
                           par::ThreadPool* pool, int batch,
                           const AnalyzeOptions& opts) {
  if (opts.timeoutMs > 0) {
    engine.setDeadline(std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(opts.timeoutMs));
  }
  ImageAnalysis analysis(img, pool, opts.confMin, opts.cache);
  bool timedOut = false;
  try {
    while (analysis.prepareChunk(engine, kChunkVucs)) {
      const ChunkStream& stream = analysis.stream();
      analysis.finishChunk(engine, stream.numVucs() == 0
                                       ? std::vector<StageProbs>{}
                                       : engine.predictStream(
                                             stream, pool, batch,
                                             StagePlan::kRouted));
    }
  } catch (const TimeoutError&) {
    // Clean partial output: every finished chunk stays in the report.
    timedOut = true;
  }
  engine.setDeadline(std::nullopt);
  return std::move(analysis).result(timedOut, opts.timeoutMs);
}

ImageAnalysis::ImageAnalysis(const loader::Image& img, par::ThreadPool* pool,
                             float confMin, loader::DecodeCache* cache)
    : img_(img),
      confMin_(confMin),
      fns_(disassembleFor(img, res_.diags, pool, cache)) {}

bool ImageAnalysis::prepareChunk(const Engine& engine, size_t maxVucs) {
  if (next_ == fns_.size()) return false;
  while (next_ < fns_.size() && stream_.numVucs() < maxVucs) {
    const loader::LoadedFunction& fn = fns_[next_++];
    dataflow::RecoveryResult rec = fn.graph != nullptr
                                       ? dataflow::recoverVariables(*fn.graph)
                                       : dataflow::recoverVariables(fn.insns);
    PreparedFn& pf = chunk_.emplace_back();
    try {
      pf.work = engine.prepareFunction(fn.insns, std::move(rec));
    } catch (const TimeoutError&) {
      throw;
    } catch (const std::exception& e) {
      addDegradedFnDiag(&pf.frag, fn, e);
      continue;
    }
    pf.vucBegin = stream_.numVucs();
    stream_.append(pf.work->stream);
    pf.vucEnd = stream_.numVucs();
  }
  return true;
}

void ImageAnalysis::finishChunk(const Engine& engine,
                                std::span<const StageProbs> probs) {
  const size_t first = next_ - chunk_.size();
  for (size_t k = 0; k < chunk_.size(); ++k) {
    PreparedFn& pf = chunk_[k];
    const loader::LoadedFunction& fn = fns_[first + k];
    bool ok = pf.work.has_value();
    std::vector<AnalyzedVariable> vars;
    if (ok) {
      try {
        vars = engine.finishFunction(
            *pf.work, probs.subspan(pf.vucBegin, pf.vucEnd - pf.vucBegin),
            &pf.frag);
      } catch (const std::exception& e) {
        ok = false;
        addDegradedFnDiag(&pf.frag, fn, e);
      }
    }
    if (ok) {
      ++fnsDone_;
      if (!vars.empty()) render(fn, vars);
    }
    res_.diags.insert(res_.diags.end(), pf.frag.begin(), pf.frag.end());
  }
  chunk_.clear();
  stream_.clear();
}

void ImageAnalysis::render(const loader::LoadedFunction& fn,
                           std::span<const AnalyzedVariable> vars) {
  std::string& out = res_.report;
  // The header prints even if every variable is filtered out — the
  // historical cati-infer behaviour.
  appendf(out, "%s:\n", fn.name.c_str());

  // Ground truth by frame offset, when debug info survives.
  std::unordered_map<int64_t, TypeLabel> truth;
  if (img_.debug) {
    for (const debuginfo::FunctionDie& die : img_.debug->functions) {
      // Match by address range (lowPc is an instruction index in the
      // original binary; match by name instead).
      if (die.name != fn.name) continue;
      for (const debuginfo::VariableDie& v : die.variables) {
        const auto cls = debuginfo::classify(*img_.debug, v.typeIndex);
        if (cls) truth[v.frameOffset] = *cls;
      }
    }
  }

  for (const AnalyzedVariable& av : vars) {
    if (av.confidence < confMin_) continue;
    ++tally_.typed;
    const char* truthName = "";
    const auto it = truth.find(av.location.offset);
    if (it != truth.end()) {
      ++tally_.withTruth;
      if (it->second == av.type) ++tally_.correct;
      truthName = typeName(it->second).data();
    }
    appendf(out, "  %s%+-6lld %-22s conf %.2f  (%zu VUCs)   %s\n",
            av.location.rbpFrame ? "rbp" : "rsp",
            static_cast<long long>(av.location.offset),
            std::string(typeName(av.type)).c_str(), av.confidence, av.numVucs,
            truthName);
  }
}

AnalyzeResult ImageAnalysis::result(bool timedOut, long timeoutMs) && {
  std::string& out = res_.report;
  appendf(out, "\n%zu variables typed", tally_.typed);
  if (tally_.withTruth > 0) {
    appendf(out, "; accuracy vs surviving debug info: %.1f%% (%zu/%zu)",
            100.0 * static_cast<double>(tally_.correct) /
                static_cast<double>(tally_.withTruth),
            tally_.correct, tally_.withTruth);
  }
  if (timedOut) {
    appendf(out, "; TIMEOUT after %ldms: %zu/%zu functions analyzed",
            timeoutMs, fnsDone_, fns_.size());
    addDiag(&res_.diags, Severity::Warning, DiagStage::Engine, 0,
            "analysis deadline exceeded: partial results (" +
                std::to_string(fnsDone_) + "/" + std::to_string(fns_.size()) +
                " functions)");
  }
  appendf(out, "\n");
  return std::move(res_);
}

}  // namespace cati::serve
