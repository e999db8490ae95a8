// Cross-cutting property tests (parameterized sweeps) tying modules
// together: print/parse/generalize coherence over whole generated corpora,
// window-size invariants of VUC extraction, and algebraic properties of the
// confidence-clipped voting rule.
#include <gtest/gtest.h>

#include <algorithm>

#include "cati/engine.h"
#include "corpus/corpus.h"
#include "synth/synth.h"

namespace cati {
namespace {

// --- printer/parser/generalization coherence ---------------------------------

class CorpusProperty
    : public ::testing::TestWithParam<std::tuple<synth::Dialect, int>> {};

TEST_P(CorpusProperty, PrintParseGeneralizeCoherent) {
  const auto [dialect, opt] = GetParam();
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("prop", 0x9, 10), dialect, opt, 333);
  for (const synth::FunctionCode& fn : bin.funcs) {
    for (const asmx::Instruction& ins : fn.insns) {
      // Everything the generator emits prints and re-parses identically...
      const auto back = asmx::parse(asmx::toString(ins));
      ASSERT_TRUE(back.has_value()) << asmx::toString(ins);
      EXPECT_EQ(*back, ins);
      // ...and generalization only depends on the printed form.
      EXPECT_EQ(corpus::generalize(*back).text(),
                corpus::generalize(ins).text());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CorpusProperty,
    ::testing::Combine(::testing::Values(synth::Dialect::Gcc,
                                         synth::Dialect::Clang),
                       ::testing::Values(0, 1, 2, 3)));

// --- window-size invariants ----------------------------------------------------

class WindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(WindowProperty, ExtractionInvariants) {
  const int w = GetParam();
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("win", 0x3, 8), synth::Dialect::Gcc, 2, 11);
  const corpus::Dataset ds = corpus::extractGroundTruth(bin, w);
  // The number of VUCs (target instructions) is independent of the window.
  const corpus::Dataset ref = corpus::extractGroundTruth(bin, 10);
  EXPECT_EQ(ds.vucs.size(), ref.vucs.size());
  for (const corpus::Vuc& v : ds.vucs) {
    ASSERT_EQ(v.window.size(), static_cast<size_t>(2 * w + 1));
    EXPECT_EQ(v.centre(), w);
    // The centre instruction is never BLANK and carries the VUC's label.
    EXPECT_NE(v.target().mnem, corpus::kBlank);
    EXPECT_EQ(v.posLabel[static_cast<size_t>(w)],
              static_cast<int8_t>(v.label));
  }
}

INSTANTIATE_TEST_SUITE_P(HalfWindows, WindowProperty,
                         ::testing::Values(1, 2, 3, 5, 10, 15));

// --- voting algebra --------------------------------------------------------------

StageProbs uniformExcept(Stage s, const std::vector<float>& dist) {
  StageProbs p;
  for (int i = 0; i < kNumStages; ++i) {
    const std::span<float> d = p.set(static_cast<Stage>(i));
    std::ranges::fill(d, 1.0F / static_cast<float>(d.size()));
  }
  std::ranges::copy(dist, p.set(s).begin());
  return p;
}

class VotingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VotingProperty, DecisionInvariants) {
  Rng rng(GetParam());
  const Engine e{EngineConfig{}};  // voting needs no trained model

  // Random stage-1 distributions for a variable with 1..6 VUCs.
  const int n = static_cast<int>(rng.uniformInt(1, 6));
  std::vector<StageProbs> probs;
  for (int i = 0; i < n; ++i) {
    const auto p1 = static_cast<float>(rng.uniform(0.01, 0.99));
    probs.push_back(uniformExcept(Stage::S1, {1.0F - p1, p1}));
  }

  const VariableDecision d = e.voteVariable(probs, 0.9F, true);

  // Permutation invariance.
  std::vector<StageProbs> shuffled = probs;
  rng.shuffle(shuffled);
  EXPECT_EQ(e.voteVariable(shuffled, 0.9F, true).stageClass,
            d.stageClass);

  // Duplication invariance: voting on the doubled multiset agrees (sums
  // scale by exactly 2).
  std::vector<StageProbs> doubled = probs;
  doubled.insert(doubled.end(), probs.begin(), probs.end());
  EXPECT_EQ(e.voteVariable(doubled, 0.9F, true).stageClass, d.stageClass);

  // The final type's root-to-leaf path is consistent with the per-stage
  // classes the vote reports.
  const StagePath path = pathOf(d.finalType);
  for (int i = 0; i < path.length; ++i) {
    const Stage s = path.stages[static_cast<size_t>(i)];
    EXPECT_EQ(stageClassOf(s, d.finalType),
              d.stageClass[static_cast<size_t>(s)]);
  }

  // Single-VUC voting without clipping = plain argmax routing.
  const std::vector<StageProbs> one = {probs[0]};
  const VariableDecision d1 = e.voteVariable(one, 0.9F, false);
  const std::span<const float> p0 = probs[0].stage(Stage::S1);
  const int s1 = p0[1] > p0[0] ? 1 : 0;
  EXPECT_EQ(d1.stageClass[0], s1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VotingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// The clip comparison is inclusive (z >= voteClip, formula 3): a vote at
// EXACTLY the threshold is promoted to 1.0. Three hand-built VUCs at
// threshold 0.9 distinguish >= from >: with inclusive clipping class 0
// collects 1.0 + 0.28 + 0.29 = 1.57 against 0.1 + 0.72 + 0.71 = 1.53 and
// wins; without clipping (or with a threshold just above 0.9) class 0 only
// reaches 0.9 + 0.28 + 0.29 = 1.47 and loses. All margins are ~0.04,
// orders of magnitude above float rounding at this scale.
TEST(VotingClip, BoundaryValueIsClippedInclusively) {
  const Engine e{EngineConfig{}};
  const std::vector<StageProbs> probs = {
      uniformExcept(Stage::S1, {0.9F, 0.1F}),   // sits exactly at the clip
      uniformExcept(Stage::S1, {0.28F, 0.72F}),
      uniformExcept(Stage::S1, {0.29F, 0.71F}),
  };
  // z == voteClip must clip: class 0 wins.
  EXPECT_EQ(e.voteVariable(probs, 0.9F, true).stageClass[0], 0);
  // Same votes, clipping off: class 1 wins — proving the clip decided it.
  EXPECT_EQ(e.voteVariable(probs, 0.9F, false).stageClass[0], 1);
  // Threshold nudged above the vote: 0.9 no longer clips, class 1 wins —
  // proving the comparison is >= and not >.
  EXPECT_EQ(e.voteVariable(probs, 0.9001F, true).stageClass[0], 1);
}

// Values on the 1/64 grid are exactly representable, so float sums are
// exact regardless of accumulation order — the properties below hold
// bit-for-bit, not just approximately.
std::vector<float> gridDist(Rng& rng, int classes) {
  std::vector<float> d(static_cast<size_t>(classes));
  for (float& v : d) {
    v = static_cast<float>(rng.uniformInt(1, 64)) / 64.0F;
  }
  return d;
}

StageProbs gridProbs(Rng& rng) {
  StageProbs p;
  for (int s = 0; s < kNumStages; ++s) {
    const auto st = static_cast<Stage>(s);
    std::ranges::copy(gridDist(rng, numClasses(st)), p.set(st).begin());
  }
  return p;
}

class VotingAlgebra : public ::testing::TestWithParam<uint64_t> {};

// clipEnabled=false is plain summed voting, i.e. the argmax of the
// per-class MEAN vote (sums and means share an argmax for n > 0). The
// reference winner is recomputed in double; grid values make both sides
// exact, so the equality is strict on every stage.
TEST_P(VotingAlgebra, ClipDisabledEqualsPlainAveraging) {
  Rng rng(GetParam());
  const Engine e{EngineConfig{}};
  const int n = static_cast<int>(rng.uniformInt(1, 9));
  std::vector<StageProbs> probs;
  for (int i = 0; i < n; ++i) probs.push_back(gridProbs(rng));

  const VariableDecision d = e.voteVariable(probs, 0.9F, false);
  for (int s = 0; s < kNumStages; ++s) {
    const int classes = numClasses(static_cast<Stage>(s));
    // Sums, not means: dividing by n would reintroduce rounding, and for
    // n > 0 the argmax is the same either way.
    std::vector<double> sum(static_cast<size_t>(classes), 0.0);
    for (const StageProbs& p : probs) {
      for (int c = 0; c < classes; ++c) {
        sum[static_cast<size_t>(c)] += static_cast<double>(
            p.stage(static_cast<Stage>(s))[static_cast<size_t>(c)]);
      }
    }
    const int expect = static_cast<int>(
        std::max_element(sum.begin(), sum.end()) - sum.begin());
    EXPECT_EQ(d.stageClass[static_cast<size_t>(s)], expect)
        << "stage " << stageName(static_cast<Stage>(s));
  }
}

// The winner never depends on VUC order, clipping on or off, at EVERY
// stage of the tree (the older VotingProperty covers Stage 1 only).
TEST_P(VotingAlgebra, WinnerIsPermutationInvariantOnAllStages) {
  Rng rng(GetParam() ^ 0xA5A5);
  const Engine e{EngineConfig{}};
  const int n = static_cast<int>(rng.uniformInt(2, 10));
  std::vector<StageProbs> probs;
  for (int i = 0; i < n; ++i) probs.push_back(gridProbs(rng));

  for (const bool clip : {true, false}) {
    const VariableDecision d = e.voteVariable(probs, 0.9F, clip);
    std::vector<StageProbs> shuffled = probs;
    for (int trial = 0; trial < 4; ++trial) {
      rng.shuffle(shuffled);
      const VariableDecision ds = e.voteVariable(shuffled, 0.9F, clip);
      EXPECT_EQ(ds.stageClass, d.stageClass) << "clip=" << clip;
      EXPECT_EQ(ds.finalType, d.finalType) << "clip=" << clip;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VotingAlgebra,
                         ::testing::Values(2, 3, 5, 7, 11, 13, 17, 19));

// Clipping monotonicity: raising a single VUC's winning confidence above
// the threshold can only help that class.
TEST(VotingClip, PromotionNeverHurtsTheConfidentClass) {
  const Engine e{EngineConfig{}};
  for (float base = 0.55F; base < 0.9F; base += 0.05F) {
    const std::vector<StageProbs> weak = {
        uniformExcept(Stage::S1, {1.0F - base, base}),
        uniformExcept(Stage::S1, {0.6F, 0.4F}),
    };
    const std::vector<StageProbs> strong = {
        uniformExcept(Stage::S1, {0.05F, 0.95F}),  // clipped to 1.0
        uniformExcept(Stage::S1, {0.6F, 0.4F}),
    };
    const int weakCls = e.voteVariable(weak, 0.9F, true).stageClass[0];
    const int strongCls = e.voteVariable(strong, 0.9F, true).stageClass[0];
    // If the weak vote already chose class 1, the strong one must too.
    if (weakCls == 1) {
      EXPECT_EQ(strongCls, 1);
    }
  }
}

}  // namespace
}  // namespace cati
