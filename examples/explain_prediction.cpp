// Interpretability example: why did CATI pick that type?
//
// Picks variables from an unseen binary, shows (a) the per-stage confidence
// distributions of each VUC, (b) the voting tally with the 0.9 clipping rule
// (formula 3), and (c) the occlusion importance epsilon of every window
// instruction (formula 5) — the paper's Fig. 6 view, as a library feature.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "cati/engine.h"
#include "synth/synth.h"

int main() {
  using namespace cati;

  // Train a small engine (same recipe as the quickstart).
  const auto bins = synth::generateCorpus(6, 14, synth::Dialect::Gcc, 19);
  const corpus::Dataset train = corpus::extractAll(bins);
  EngineConfig cfg;
  cfg.epochs = 3;
  cfg.maxTrainPerStage = 6000;
  cfg.fcHidden = 64;
  std::printf("training on %zu VUCs...\n", train.vucs.size());
  Engine engine(cfg);
  engine.train(train);

  // An unseen test binary WITH ground truth, so the explanation can be
  // checked against the real type.
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("explainee", 0xbead, 6), synth::Dialect::Gcc, 2,
      0x1234);
  const corpus::Dataset test = corpus::extractGroundTruth(bin);
  const auto byVar = test.vucsByVar();

  // Pick a variable with 3+ VUCs for an interesting vote.
  size_t chosen = 0;
  for (size_t v = 0; v < byVar.size(); ++v) {
    if (byVar[v].size() >= 3 && test.vars[v].label != TypeLabel::kCount) {
      chosen = v;
      break;
    }
  }

  std::printf("\nvariable #%zu, ground truth: %s, %zu VUCs\n\n", chosen,
              std::string(typeName(test.vars[chosen].label)).c_str(),
              byVar[chosen].size());

  // (a) per-VUC stage distributions.
  std::vector<StageProbs> probs;
  for (const uint32_t i : byVar[chosen]) {
    const corpus::Vuc& vuc = test.vucs[i];
    const StageProbs p = engine.predictVuc(vuc);
    std::printf("VUC on `%s`:\n", vuc.target().text().c_str());
    for (int s = 0; s < kNumStages; ++s) {
      std::printf("  %-9s [", std::string(stageName(static_cast<Stage>(s))).c_str());
      for (const float x : p.stage(static_cast<Stage>(s))) {
        std::printf(" %.2f", x);
      }
      std::printf(" ]\n");
    }
    std::printf("  routed alone -> %s\n\n",
                std::string(typeName(engine.routeVuc(p))).c_str());
    probs.push_back(p);
  }

  // (b) the vote.
  const VariableDecision d = engine.voteVariable(probs);
  std::printf("voted decision (clip >= %.2f -> 1.0): %s\n\n",
              engine.config().voteClip,
              std::string(typeName(d.finalType)).c_str());

  // (c) occlusion importance on the first VUC.
  const corpus::Vuc& vuc = test.vucs[byVar[chosen][0]];
  std::printf("occlusion importance of VUC #0 at Stage 1 "
              "(epsilon < 1: instruction supported the prediction):\n");
  const std::vector<double> eps = engine.occlusionEpsilons(vuc, Stage::S1);
  for (size_t k = 0; k < vuc.window.size(); ++k) {
    std::printf("  %.4f %s %s\n", eps[k],
                static_cast<int>(k) == vuc.centre() ? ">" : " ",
                vuc.window[k].text().c_str());
  }
  return 0;
}
