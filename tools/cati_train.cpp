// cati-train — train a CATI engine on a generated corpus and save the model.
//
// Crash safety (DESIGN.md §9): with --checkpoint DIR, training persists a
// resumable checkpoint after word2vec and at every --checkpoint-every epoch
// boundary; --resume continues from it and produces a model bit-identical
// to an uninterrupted run (same flags, any --jobs/--batch). The model and
// checkpoints are written atomically — a kill mid-write never leaves a torn
// file.
//
// Streaming training (DESIGN.md §12): with --corpus-dir DIR the training
// set comes from a sharded CSHD corpus built by `cati-synth --shards` and
// is never materialized — tokenization streams the shards once with
// prefetch pipelining, and training goes on from the token ids, so
// resident memory is bounded by two decoded shards plus 3 ids per window
// row of every VUC. --max-resident SIZE (K/M/G) makes that bound an
// admission check: training refuses to start when the corpus's streaming
// working set exceeds the budget. For a fixed shard plan the model bytes
// are identical to the in-memory path.
//
// Usage: cati-train MODEL.bin [--apps N] [--funcs K] [--dialect gcc|clang]
//                   [--corpus-dir DIR] [--max-resident SIZE]
//                   [--epochs E] [--cap C] [--hidden H] [--window W]
//                   [--dim D] [--seed S] [--quiet] [--jobs N]
//                   [--checkpoint DIR] [--checkpoint-every N] [--resume]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/fs.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "corpus/sharded.h"
#include "synth/synth.h"

namespace {

constexpr const char* kUsagePrefix =
    "usage: cati-train MODEL.bin [--apps N] [--funcs K] "
    "[--dialect gcc|clang] [--corpus-dir DIR] [--max-resident SIZE] "
    "[--epochs E] [--cap C] [--hidden H] "
    "[--window W] [--dim D] [--seed S] [--quiet] [--jobs N] "
    "[--checkpoint DIR] [--checkpoint-every N] [--resume] "
    "[--quantize FILE]";

std::string usageLine() {
  return std::string(kUsagePrefix) + cati::cli::kCommonUsage + "\n";
}

int run(int argc, char** argv, const cati::cli::Common& common) {
  using namespace cati;
  // A flag in the MODEL.bin slot (--help, a misplaced option) is a usage
  // error, not a file name to train into.
  if (argc < 2 || argv[1][0] == '-') {
    std::fputs(usageLine().c_str(), stderr);
    return 2;
  }
  const std::string out = argv[1];
  int apps = 10;
  int funcs = 20;
  synth::Dialect dialect = synth::Dialect::Gcc;
  EngineConfig cfg;
  cfg.verbose = true;
  cfg.epochs = 4;
  cfg.maxTrainPerStage = 10000;
  cfg.fcHidden = 96;
  uint64_t seed = 2026;
  int jobs = 0;  // 0: CATI_JOBS env or hardware concurrency
  TrainCheckpointing ckpt;
  std::string quantizeOut;
  std::string corpusDir;
  unsigned long long maxResident = 0;  // 0: no admission check
  bool sawGenFlag = false;             // --apps/--funcs/--dialect/--seed?
  bool sawWindow = false;
  cli::SeenFlags seen;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--apps") {
      seen.note(arg);
      sawGenFlag = true;
      apps = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--funcs") {
      seen.note(arg);
      sawGenFlag = true;
      funcs = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--dialect") {
      seen.note(arg);
      sawGenFlag = true;
      dialect = std::string(next()) == "clang" ? synth::Dialect::Clang
                                               : synth::Dialect::Gcc;
    } else if (arg == "--corpus-dir") {
      seen.note(arg);
      corpusDir = next();
    } else if (arg == "--max-resident") {
      seen.note(arg);
      maxResident = cli::parseSize(arg, next());
      if (maxResident == 0) {
        throw cli::UsageError("--max-resident: must be > 0");
      }
    } else if (arg == "--epochs") {
      seen.note(arg);
      cfg.epochs = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--cap") {
      seen.note(arg);
      cfg.maxTrainPerStage = static_cast<size_t>(cli::parseInt(arg, next()));
    } else if (arg == "--hidden") {
      seen.note(arg);
      cfg.fcHidden = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--window") {
      seen.note(arg);
      sawWindow = true;
      cfg.window = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--dim") {
      seen.note(arg);
      cfg.w2v.dim = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--seed") {
      seen.note(arg);
      sawGenFlag = true;
      seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--quiet") {
      seen.note(arg);
      cfg.verbose = false;
    } else if (arg == "--jobs") {
      seen.note(arg);
      jobs = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--checkpoint") {
      seen.note(arg);
      ckpt.dir = next();
    } else if (arg == "--checkpoint-every") {
      seen.note(arg);
      ckpt.everyEpochs = static_cast<int>(cli::parseInt(arg, next()));
      if (ckpt.everyEpochs < 1) {
        throw cli::UsageError("--checkpoint-every: must be >= 1");
      }
    } else if (arg == "--resume") {
      seen.note(arg);
      ckpt.resume = true;
    } else if (arg == "--quantize") {
      seen.note(arg);
      quantizeOut = next();
    } else {
      cli::unknownArg(arg);
    }
  }
  if (ckpt.resume && ckpt.dir.empty()) {
    throw cli::UsageError("--resume requires --checkpoint DIR");
  }
  if (!corpusDir.empty() && sawGenFlag) {
    throw cli::UsageError(
        "--apps/--funcs/--dialect/--seed generate an in-memory corpus and "
        "conflict with --corpus-dir (the corpus is already on disk)");
  }
  if (corpusDir.empty() && maxResident > 0) {
    throw cli::UsageError("--max-resident requires --corpus-dir DIR");
  }

  // --batch / CATI_BATCH override the training minibatch size (a documented
  // hyperparameter: it changes the trained model, unlike inference batching).
  cfg.batchSize = par::resolveBatch(common.batch, cfg.batchSize);

  if (!ckpt.dir.empty() && std::filesystem::exists(ckpt.dir)) {
    // Sweep temps a crashed previous writer may have left next to the
    // checkpoint before this run starts writing its own.
    fs::cleanupStaleTemps(ckpt.dir);
  }

  par::ThreadPool pool(par::resolveJobs(jobs));
  const TrainCheckpointing* ckptp = ckpt.dir.empty() ? nullptr : &ckpt;
  const auto finish = [&](Engine& engine) {
    engine.saveFile(out);
    std::printf("model written to %s\n", out.c_str());
    if (!quantizeOut.empty()) {
      // Post-training int8 quantization: the fp32 model above stays the
      // source of truth; FILE gets the same container with int8 stages.
      engine.quantize().saveFile(quantizeOut);
      std::printf("quantized model written to %s\n", quantizeOut.c_str());
    }
  };

  if (!corpusDir.empty()) {
    corpus::ShardedCorpus sc(corpusDir);
    if (sawWindow && cfg.window != sc.window()) {
      throw cli::UsageError(
          "--window " + std::to_string(cfg.window) +
          " disagrees with the corpus (built with --window " +
          std::to_string(sc.window()) +
          "); drop the flag or re-run cati-synth --shards");
    }
    cfg.window = sc.window();
    if (maxResident > 0) {
      const uint64_t need = sc.streamingResidentBytes();
      if (need > maxResident) {
        throw cli::UsageError(
            "--max-resident: streaming working set is ~" +
            std::to_string(need) + " bytes (> " + std::to_string(maxResident) +
            "); raise the budget, or rebuild the corpus with a smaller "
            "cati-synth --shard-vucs");
      }
    }
    std::printf("streaming corpus %s: %zu shards, %llu VUCs, %llu variables "
                "(window %d, %d jobs)\n",
                corpusDir.c_str(), sc.numShards(),
                static_cast<unsigned long long>(sc.numVucs()),
                static_cast<unsigned long long>(sc.numVars()), cfg.window,
                pool.jobs());
    Engine engine(cfg);
    corpus::ShardedSource src(sc);
    engine.train(src, &pool, ckptp);
    finish(engine);
    return 0;
  }

  std::printf("generating corpus: %d apps x O0-O3 x %d functions (%s, %d "
              "jobs)\n",
              apps, funcs, std::string(synth::dialectName(dialect)).c_str(),
              pool.jobs());
  const auto bins = synth::generateCorpus(apps, funcs, dialect, seed, &pool);
  const corpus::Dataset train =
      corpus::extractAll(bins, cfg.window, true, &pool);
  std::printf("  %zu variables, %zu VUCs\n", train.vars.size(),
              train.vucs.size());

  Engine engine(cfg);
  engine.train(train, &pool, ckptp);
  finish(engine);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cati::cli::toolMain("cati-train", argc, argv, run,
                             usageLine().c_str());
}
