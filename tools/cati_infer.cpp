// cati-infer — run type inference over a (stripped) image: recover the
// variables of every function, classify and vote, and print a typed
// variable report. When the image still has debug info, prints ground truth
// next to each prediction and an accuracy summary.
//
// Hostile input is handled: a missing/corrupt model or image produces a
// one-line diagnostic on stderr and a typed nonzero exit, never a crash;
// images with garbage bytes degrade via recovering disassembly. One
// poisoned function degrades to a warning + the engine.analyze.degraded
// metric; the rest of the binary is still typed. --timeout-ms bounds the
// whole analysis: on expiry the report ends cleanly with the functions
// analyzed so far and a note naming how many were cut.
//
// The analysis loop and report renderer live in serve::analyzeImage, shared
// with the cati-serve daemon — the serving equivalence guarantee
// (DESIGN.md §10) is that the daemon replies with these exact bytes.
//
// Usage: cati-infer MODEL.bin IMAGE.img [--confidence-min X] [--jobs N]
//                   [--timeout-ms T]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/parallel.h"
#include "loader/image.h"
#include "serve/analysis.h"

namespace {

constexpr const char* kUsagePrefix =
    "usage: cati-infer MODEL.bin IMAGE.img [--confidence-min X] [--jobs N] "
    "[--timeout-ms T] [--quant]";

std::string usageLine() {
  return std::string(kUsagePrefix) + cati::cli::kCommonUsage + "\n";
}

int run(int argc, char** argv, const cati::cli::Common& common) {
  using namespace cati;
  if (argc < 3) {
    std::fputs(usageLine().c_str(), stderr);
    return 2;
  }
  serve::AnalyzeOptions opts;
  int jobs = 0;  // 0: CATI_JOBS env or hardware concurrency
  bool quant = false;
  cli::SeenFlags seen;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--confidence-min") {
      seen.note(arg);
      const char* v = next();
      char* end = nullptr;
      opts.confMin = std::strtof(v, &end);
      if (end == v || *end != '\0') {
        throw cli::UsageError("--confidence-min: not a number: " +
                              std::string(v));
      }
    } else if (arg == "--jobs") {
      seen.note(arg);
      jobs = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--timeout-ms") {
      seen.note(arg);
      opts.timeoutMs = cli::parseInt(arg, next());
      if (opts.timeoutMs <= 0) {
        throw cli::UsageError("--timeout-ms: must be positive");
      }
    } else if (arg == "--quant") {
      seen.note(arg);
      quant = true;
    } else {
      cli::unknownArg(arg);
    }
  }

  // --quant: run int8 inference — a quantized model file is used as-is, an
  // fp32 one is quantized in-process after loading.
  Engine engine = Engine::loadFile(argv[1]);
  if (quant && !engine.quantized()) engine = engine.quantize();
  DiagList diags;
  const auto img = loader::readFile(argv[2], diags);
  if (!img) {
    cli::printDiags(diags, common);
    return 1;
  }

  // The decode cache makes repeat analysis of the same functions (re-runs,
  // shared bodies) skip decode + IR lowering; it never changes output.
  par::ThreadPool pool(par::resolveJobs(jobs));
  loader::DecodeCache decodeCache;
  opts.cache = &decodeCache;
  const serve::AnalyzeResult result =
      serve::analyzeImage(engine, *img, &pool, opts);
  std::fputs(result.report.c_str(), stdout);
  diags.insert(diags.end(), result.diags.begin(), result.diags.end());
  cli::printDiags(diags, common);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cati::cli::toolMain("cati-infer", argc, argv, run,
                             usageLine().c_str());
}
