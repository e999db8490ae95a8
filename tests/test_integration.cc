// Cross-module integration tests: the full pipeline at small scale,
// checked end-to-end — training improves over baselines on uncertain
// samples, the recovered-variable path agrees with the ground-truth path,
// cross-compiler transfer behaves as §VIII describes, and the voting
// pipeline's accuracy at variable granularity is at least VUC granularity.
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/baseline.h"
#include "cati/engine.h"
#include "corpus/corpus.h"
#include "dataflow/recovery.h"
#include "synth/synth.h"

namespace cati {
namespace {

// One shared small training run for the whole file (seconds, not minutes).
class Pipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto bins = synth::generateCorpus(10, 16, synth::Dialect::Gcc, 101);
    train_ = new corpus::Dataset(corpus::extractAll(bins));
    EngineConfig cfg;
    cfg.epochs = 5;
    cfg.maxTrainPerStage = 10000;
    cfg.fcHidden = 96;
    cfg.conv1 = 24;
    cfg.conv2 = 32;
    engine_ = new Engine(cfg);
    engine_->train(*train_);

    const synth::Binary bin = synth::generateBinary(
        synth::defaultProfile("it", 0x7777, 24), synth::Dialect::Gcc, 2, 909);
    test_ = new corpus::Dataset(corpus::extractGroundTruth(bin));
    testBin_ = new synth::Binary(bin);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete train_;
    delete test_;
    delete testBin_;
  }

  static double engineVarAccuracy(const corpus::Dataset& ds) {
    const auto byVar = ds.vucsByVar();
    size_t ok = 0;
    size_t total = 0;
    for (size_t v = 0; v < byVar.size(); ++v) {
      if (byVar[v].empty() || ds.vars[v].label == TypeLabel::kCount) continue;
      std::vector<StageProbs> probs;
      for (const uint32_t i : byVar[v]) {
        probs.push_back(engine_->predictVuc(ds.vucs[i]));
      }
      ++total;
      if (engine_->voteVariable(probs).finalType == ds.vars[v].label) ++ok;
    }
    return total ? static_cast<double>(ok) / static_cast<double>(total) : 0.0;
  }

  static corpus::Dataset* train_;
  static corpus::Dataset* test_;
  static synth::Binary* testBin_;
  static Engine* engine_;
};

corpus::Dataset* Pipeline::train_ = nullptr;
corpus::Dataset* Pipeline::test_ = nullptr;
synth::Binary* Pipeline::testBin_ = nullptr;
Engine* Pipeline::engine_ = nullptr;

TEST_F(Pipeline, GeneralizesToUnseenBinary) {
  // Far above the 19-class majority baseline on a never-seen binary.
  EXPECT_GT(engineVarAccuracy(*test_), 0.5);
}

TEST_F(Pipeline, BeatsNoContextBaselineOnUncertainVucs) {
  // The paper's core claim, as a falsifiable assertion: restricted to
  // uncertain samples (target instructions whose generalized text maps to
  // multiple types in the TRAINING data), the context model must beat the
  // Bayes-optimal no-context model.
  baseline::NoContextBaseline nc;
  nc.train(*train_);

  // Target texts with mixed labels in training.
  std::unordered_map<std::string, std::set<TypeLabel>> textLabels;
  for (const corpus::Vuc& v : train_->vucs) {
    if (v.label != TypeLabel::kCount) {
      textLabels[v.target().text()].insert(v.label);
    }
  }

  size_t total = 0;
  size_t okCtx = 0;
  size_t okNc = 0;
  for (const corpus::Vuc& v : test_->vucs) {
    if (v.label == TypeLabel::kCount) continue;
    const auto it = textLabels.find(v.target().text());
    if (it == textLabels.end() || it->second.size() < 2) continue;
    ++total;
    if (engine_->routeVuc(engine_->predictVuc(v)) == v.label) ++okCtx;
    if (nc.predictVuc(v) == v.label) ++okNc;
  }
  ASSERT_GT(total, 100U);  // uncertain samples must be plentiful
  EXPECT_GT(static_cast<double>(okCtx), static_cast<double>(okNc) * 1.02)
      << "context model " << okCtx << "/" << total << " vs no-context "
      << okNc << "/" << total;
}

TEST_F(Pipeline, RecoveredPathTracksGroundTruthPath) {
  // Accuracy through our own variable recovery should be within a modest
  // gap of the ground-truth-location accuracy (the paper's ~90% recovery
  // slot costs some points but not a collapse).
  const corpus::Dataset recovered = corpus::extractRecovered(*testBin_);
  const double gt = engineVarAccuracy(*test_);
  // Only labeled recovered variables are scoreable.
  corpus::Dataset labeledOnly = recovered;
  const double rec = engineVarAccuracy(labeledOnly);
  EXPECT_GT(rec, gt - 0.25);
}

TEST_F(Pipeline, VotingAtLeastMatchesVucGranularity) {
  // Table VI shape: variable-level (voted) accuracy >= VUC-level accuracy
  // minus noise.
  size_t okVuc = 0;
  size_t nVuc = 0;
  for (const corpus::Vuc& v : test_->vucs) {
    if (v.label == TypeLabel::kCount) continue;
    ++nVuc;
    if (engine_->routeVuc(engine_->predictVuc(v)) == v.label) ++okVuc;
  }
  const double vucAcc =
      static_cast<double>(okVuc) / static_cast<double>(nVuc);
  EXPECT_GE(engineVarAccuracy(*test_), vucAcc - 0.02);
}

TEST_F(Pipeline, CrossCompilerTransferDegradesGracefully) {
  // §VIII: a GCC-trained model applied to Clang code loses accuracy but
  // does not collapse to chance (idioms overlap heavily).
  const synth::Binary clangBin = synth::generateBinary(
      synth::defaultProfile("itc", 0x7777, 16), synth::Dialect::Clang, 2, 11);
  const corpus::Dataset clangDs = corpus::extractGroundTruth(clangBin);
  const double acc = engineVarAccuracy(clangDs);
  EXPECT_GT(acc, 0.25);  // well above 19-class chance
}

TEST_F(Pipeline, EndToEndMatchesManualPipeline) {
  // The three analysis phases type exactly the recovered variables that
  // own at least one VUC.
  const synth::FunctionCode& fn = testBin_->funcs[0];
  const dataflow::RecoveryResult rec = dataflow::recoverVariables(fn.insns);
  const Engine::FunctionWork work = engine_->prepareFunction(fn.insns, rec);
  const auto analyzed =
      engine_->finishFunction(work, engine_->predictVucs(work.ds.vucs));

  ASSERT_EQ(analyzed.size(),
            std::count_if(rec.vars.begin(), rec.vars.end(),
                          [](const auto& rv) {
                            return !rv.targetInsns.empty();
                          }));
  for (const AnalyzedVariable& av : analyzed) {
    // Each analyzed variable corresponds to a recovered slot.
    const bool found = std::any_of(
        rec.vars.begin(), rec.vars.end(),
        [&](const auto& rv) { return rv.offset == av.location.offset; });
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace cati
