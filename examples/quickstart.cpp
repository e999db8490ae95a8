// Quickstart: the whole CATI pipeline in one file.
//
//  1. generate a small synthetic training corpus (our stand-in for the
//     paper's 2141 GCC-compiled packages — see DESIGN.md);
//  2. extract labeled VUCs and train the engine (word2vec + 6 stage CNNs);
//  3. take an unseen "stripped" binary, recover its variables with the
//     data-flow pass, and infer a type for each;
//  4. print the inferred types next to the ground truth.
#include <cstdio>
#include <span>

#include "cati/engine.h"
#include "corpus/corpus.h"
#include "synth/synth.h"

int main() {
  using namespace cati;

  // --- 1. training corpus ---
  std::printf("generating training corpus...\n");
  const auto trainBins =
      synth::generateCorpus(/*numApps=*/6, /*funcsPerApp=*/12,
                            synth::Dialect::Gcc, /*seed=*/1);
  const corpus::Dataset trainSet = corpus::extractAll(trainBins);
  std::printf("  %zu binaries, %zu variables, %zu VUCs\n", trainBins.size(),
              trainSet.vars.size(), trainSet.vucs.size());

  // --- 2. train ---
  EngineConfig cfg;
  cfg.epochs = 2;
  cfg.maxTrainPerStage = 4000;
  cfg.fcHidden = 64;
  cfg.verbose = true;
  Engine engine(cfg);
  engine.train(trainSet);

  // --- 3. analyze an unseen binary, fully stripped ---
  const synth::AppProfile app =
      synth::defaultProfile("demo", /*seed=*/0xdead, /*numFunctions=*/1);
  const synth::Binary bin =
      synth::generateBinary(app, synth::Dialect::Gcc, /*optLevel=*/1,
                            /*seed=*/99);
  const synth::FunctionCode& fn = bin.funcs[0];

  std::printf("\nanalyzing stripped function '%s' (%zu instructions)\n",
              fn.name.c_str(), fn.insns.size());
  // Recovery, VUC extraction, one batched six-stage prediction, voting.
  const Engine::FunctionWork work =
      engine.prepareFunction(fn.insns, dataflow::recoverVariables(fn.insns));
  const auto inferred =
      engine.finishFunction(work, engine.predictStream(work.stream));

  // --- 4. compare with ground truth ---
  std::printf("\n%-12s %-24s %-24s %s\n", "location", "inferred",
              "ground truth", "confidence");
  for (const AnalyzedVariable& av : inferred) {
    const char* truth = "?";
    for (const synth::Variable& v : fn.vars) {
      if (v.frameOffset == av.location.offset) {
        truth = typeName(v.label).data();
        break;
      }
    }
    char loc[32];
    std::snprintf(loc, sizeof loc, "%s%+lld",
                  av.location.rbpFrame ? "rbp" : "rsp",
                  static_cast<long long>(av.location.offset));
    std::printf("%-12s %-24s %-24s %.2f  (%zu VUCs)\n", loc,
                std::string(typeName(av.type)).c_str(), truth, av.confidence,
                av.numVucs);
  }
  return 0;
}
