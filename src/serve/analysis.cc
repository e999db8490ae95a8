#include "serve/analysis.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <functional>
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

/// fn(k) for k in [0, n): one task each on `pool`, inline without one.
void forEach(par::ThreadPool* pool, size_t n,
             const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t k = 0; k < n; ++k) fn(k);
    return;
  }
  pool->run(n, [&](size_t k, int) { fn(k); });
}

}  // namespace

AnalyzeResult analyzeImage(const Engine& engine, const loader::Image& img,
                           par::ThreadPool* pool,
                           const AnalyzeOptions& opts) {
  Deadline deadline;
  if (opts.timeoutMs > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(opts.timeoutMs);
  }
  ImageAnalysis analysis(img, pool, opts.confMin, opts.cache, deadline);
  bool timedOut = false;
  try {
    while (analysis.prepareChunk(engine, kChunkInsns)) {
      const ChunkStream& stream = analysis.stream();
      analysis.finishChunk(engine, stream.numVucs() == 0
                                       ? std::vector<StageProbs>{}
                                       : engine.predictStream(
                                             stream, pool, StagePlan::kRouted,
                                             deadline));
    }
  } catch (const TimeoutError&) {
    // Clean partial output: every finished chunk stays in the report.
    timedOut = true;
  }
  return std::move(analysis).result(timedOut, opts.timeoutMs);
}

ImageAnalysis::ImageAnalysis(const loader::Image& img, par::ThreadPool* pool,
                             float confMin, loader::DecodeCache* cache,
                             Deadline deadline)
    : img_(img),
      pool_(pool),
      confMin_(confMin),
      deadline_(deadline),
      fns_(disassembleFor(img, res_.diags, pool, cache)) {}

bool ImageAnalysis::prepareChunk(const Engine& engine, size_t maxInsns) {
  if (next_ == fns_.size()) return false;
  static obs::Histogram& prepareNs = obs::timer("engine.analyze.prepare_ns");
  const obs::ScopedTimer timing(prepareNs);
  const size_t first = next_;
  size_t insns = 0;
  do {
    insns += fns_[next_++].insns.size();
  } while (next_ < fns_.size() && insns < maxInsns);
  chunk_.resize(next_ - first);

  // Serially, in function order: the function count, the deadline and the
  // engine.prepare fault site.
  std::vector<char> admitted(chunk_.size(), 0);
  for (size_t k = 0; k < chunk_.size(); ++k) {
    try {
      engine.admitFunction(deadline_);
      admitted[k] = 1;
    } catch (const TimeoutError&) {
      throw;
    } catch (const std::exception& e) {
      addDegradedFnDiag(&chunk_[k].frag, fns_[first + k], e);
    }
  }
  forEach(pool_, chunk_.size(), [&](size_t k) {
    if (admitted[k] == 0) return;
    const loader::LoadedFunction& fn = fns_[first + k];
    dataflow::RecoveryResult rec = dataflow::recoverVariables(*fn.graph);
    try {
      chunk_[k].work = engine.streamFunction(fn.insns, std::move(rec));
    } catch (const std::exception& e) {
      addDegradedFnDiag(&chunk_[k].frag, fn, e);
    }
  });
  for (PreparedFn& pf : chunk_) {
    if (!pf.work) continue;
    pf.vucBegin = stream_.numVucs();
    stream_.append(pf.work->stream);
    pf.vucEnd = stream_.numVucs();
  }
  return true;
}

void ImageAnalysis::finishChunk(const Engine& engine,
                                std::span<const StageProbs> probs) {
  static obs::Histogram& finishNs = obs::timer("engine.analyze.finish_ns");
  const obs::ScopedTimer timing(finishNs);
  const size_t first = next_ - chunk_.size();
  // Serially, in function and variable order: the engine.vote fault site.
  std::vector<std::vector<std::exception_ptr>> voteFaults(chunk_.size());
  for (size_t k = 0; k < chunk_.size(); ++k) {
    if (chunk_[k].work) voteFaults[k] = engine.probeVotes(*chunk_[k].work);
  }
  forEach(pool_, chunk_.size(), [&](size_t k) {
    PreparedFn& pf = chunk_[k];
    if (!pf.work) return;
    const loader::LoadedFunction& fn = fns_[first + k];
    std::vector<AnalyzedVariable> vars;
    try {
      vars = engine.finishFunction(
          *pf.work, probs.subspan(pf.vucBegin, pf.vucEnd - pf.vucBegin),
          &pf.frag, voteFaults[k]);
      pf.finished = true;
    } catch (const std::exception& e) {
      addDegradedFnDiag(&pf.frag, fn, e);
    }
    pf.work.reset();  // freed here, on the worker
    if (pf.finished && !vars.empty()) render(fn, vars, pf);
  });
  for (const PreparedFn& pf : chunk_) {
    fnsDone_ += pf.finished ? 1 : 0;
    res_.report += pf.section;
    tally_.typed += pf.tally.typed;
    tally_.withTruth += pf.tally.withTruth;
    tally_.correct += pf.tally.correct;
    res_.diags.insert(res_.diags.end(), pf.frag.begin(), pf.frag.end());
  }
  chunk_.clear();
  stream_.clear();
}

void ImageAnalysis::render(const loader::LoadedFunction& fn,
                           std::span<const AnalyzedVariable> vars,
                           PreparedFn& pf) const {
  std::string& out = pf.section;
  Tally& tally = pf.tally;
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
    ++tally.typed;
    const char* truthName = "";
    const auto it = truth.find(av.location.offset);
    if (it != truth.end()) {
      ++tally.withTruth;
      if (it->second == av.type) ++tally.correct;
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
