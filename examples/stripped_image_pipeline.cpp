// The fully-faithful end-to-end pipeline, file formats included:
//
//   synthesize -> encode to machine code -> write image -> strip ->
//   read back -> disassemble bytes -> recover variables -> infer types
//
// This is the library-API version of what the cati-synth / cati-strip /
// cati-infer command-line tools do, and the closest analog of the paper's
// deployment scenario: the analyst only ever holds the stripped file.
#include <cstdio>
#include <sstream>

#include "cati/engine.h"
#include "corpus/corpus.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "synth/synth.h"

int main() {
  using namespace cati;

  // Train a small engine (as in the quickstart).
  const auto trainBins = synth::generateCorpus(6, 14, synth::Dialect::Gcc, 77);
  const corpus::Dataset trainSet = corpus::extractAll(trainBins);
  EngineConfig cfg;
  cfg.epochs = 3;
  cfg.maxTrainPerStage = 6000;
  cfg.fcHidden = 64;
  std::printf("training on %zu VUCs...\n", trainSet.vucs.size());
  Engine engine(cfg);
  engine.train(trainSet);

  // Build a real binary image from an unseen program and strip it.
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("victim", 0xbead, 3), synth::Dialect::Gcc, 2,
      0x51);
  loader::Image img = loader::buildImage(bin);
  std::printf("\nbuilt image: %zu bytes of machine code, %zu symbols\n",
              img.text.size(), img.symbols.size());
  loader::strip(img);

  // Serialize + reload — the analyst's copy.
  std::stringstream file;
  loader::write(img, file);
  const loader::Image received = loader::read(file);
  std::printf("stripped image reloaded: stripped=%s, %zu import symbols "
              "survive (.dynsym)\n",
              received.stripped() ? "yes" : "no", received.symbols.size());

  // Disassemble the bytes, recover and type every function: the analysis
  // cati-infer runs, returning the report it prints.
  const serve::AnalyzeResult result =
      serve::analyzeImage(engine, received, /*pool=*/nullptr);
  std::printf("\n%s", result.report.c_str());
  return 0;
}
