// Tests for the CATI engine: training/inference consistency on a tiny
// corpus, stage-probability invariants, voting semantics (formulas 3-4),
// occlusion ε (formula 5), model persistence and the end-to-end
// stripped-binary path.
//
// All tests share one tiny trained engine (a fixture), keeping the suite
// fast on the 1-core machine.
#include "cati/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <type_traits>

#include "common/numeric.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "nn/qnn.h"
#include "support/framed_model.h"
#include "synth/synth.h"

namespace cati {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto bins =
        synth::generateCorpus(4, 10, synth::Dialect::Gcc, /*seed=*/21);
    train_ = new corpus::Dataset(corpus::extractAll(bins, 10));
    EngineConfig cfg;
    cfg.epochs = 2;
    cfg.maxTrainPerStage = 3000;
    cfg.fcHidden = 32;
    cfg.conv1 = 16;
    cfg.conv2 = 16;
    cfg.w2v.epochs = 1;
    engine_ = new Engine(cfg);
    engine_->train(*train_);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete train_;
    engine_ = nullptr;
    train_ = nullptr;
  }

  static corpus::Dataset* train_;
  static Engine* engine_;
};

corpus::Dataset* EngineTest::train_ = nullptr;
Engine* EngineTest::engine_ = nullptr;

TEST_F(EngineTest, StageProbsAreDistributions) {
  for (size_t i = 0; i < 50 && i < train_->vucs.size(); ++i) {
    const StageProbs p = engine_->predictVuc(train_->vucs[i]);
    for (int s = 0; s < kNumStages; ++s) {
      const std::span<const float> probs = p.stage(static_cast<Stage>(s));
      ASSERT_EQ(static_cast<int>(probs.size()),
                numClasses(static_cast<Stage>(s)));
      float sum = 0.0F;
      for (const float v : probs) {
        EXPECT_GE(v, 0.0F);
        EXPECT_LE(v, 1.0F);
        sum += v;
      }
      EXPECT_NEAR(sum, 1.0F, 1e-4F);
    }
  }
}

// A VUC's six distributions live inline: no heap storage, so a
// std::vector<StageProbs> is one flat table, and a stage reads empty until
// it is set.
static_assert(std::is_trivially_copyable_v<StageProbs>);
static_assert(sizeof(StageProbs) <=
              (kStageOffset[kNumStages] + 2) * sizeof(float));

TEST(StageProbsLayout, StagesAreDisjointSlotsSetOneAtATime) {
  static_assert(kStageOffset[kNumStages] == 24);
  static_assert(kMaxClasses == 9);
  StageProbs p;
  for (int s = 0; s < kNumStages; ++s) {
    EXPECT_TRUE(p.stage(static_cast<Stage>(s)).empty());
  }
  // Each stage gets its own numClasses(s) floats: fill stage s with s + 1
  // and every slot keeps its value.
  for (int s = 0; s < kNumStages; ++s) {
    const auto st = static_cast<Stage>(s);
    const std::span<float> d = p.set(st);
    EXPECT_EQ(static_cast<int>(d.size()), numClasses(st));
    std::ranges::fill(d, static_cast<float>(s + 1));
    for (int t = s + 1; t < kNumStages; ++t) {
      EXPECT_TRUE(p.stage(static_cast<Stage>(t)).empty());
    }
  }
  const StageProbs copy = p;
  for (int s = 0; s < kNumStages; ++s) {
    const std::span<const float> d = copy.stage(static_cast<Stage>(s));
    ASSERT_EQ(static_cast<int>(d.size()), numClasses(static_cast<Stage>(s)));
    for (const float x : d) EXPECT_EQ(x, static_cast<float>(s + 1));
  }
}

TEST_F(EngineTest, PredictionIsDeterministic) {
  const corpus::Vuc& v = train_->vucs[3];
  const StageProbs a = engine_->predictVuc(v);
  const StageProbs b = engine_->predictVuc(v);
  for (int s = 0; s < kNumStages; ++s) {
    const auto st = static_cast<Stage>(s);
    EXPECT_TRUE(std::ranges::equal(a.stage(st), b.stage(st)));
  }
}

TEST_F(EngineTest, TrainAccuracyBeatsChance) {
  // On its own training data the engine must clearly beat the majority
  // class at stage 1 — a smoke check that learning happened.
  size_t correct = 0;
  size_t total = 0;
  for (size_t i = 0; i < train_->vucs.size(); i += 7) {
    const corpus::Vuc& v = train_->vucs[i];
    if (v.label == TypeLabel::kCount) continue;
    const StageProbs p = engine_->predictVuc(v);
    const int pred = num::argmax(p.stage(Stage::S1));
    if (pred == stageClassOf(Stage::S1, v.label)) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total), 0.70);
}

TEST_F(EngineTest, RouteVucReturnsLeafConsistentWithStages) {
  for (size_t i = 0; i < 30; ++i) {
    const StageProbs p = engine_->predictVuc(train_->vucs[i]);
    const TypeLabel t = engine_->routeVuc(p);
    // The routed type's stage-1 class must equal the stage-1 argmax.
    const int s1 = num::argmax(p.stage(Stage::S1));
    EXPECT_EQ(stageClassOf(Stage::S1, t), s1);
  }
}

TEST_F(EngineTest, VotingSingleVucEqualsRouting) {
  // With exactly one VUC and clipping disabled, voting must agree with
  // plain routing.
  const StageProbs p = engine_->predictVuc(train_->vucs[5]);
  const std::vector<StageProbs> one = {p};
  const VariableDecision d = engine_->voteVariable(one, 0.9F, false);
  EXPECT_EQ(d.finalType, engine_->routeVuc(p));
}

TEST_F(EngineTest, VotingIsPermutationInvariant) {
  std::vector<StageProbs> ps;
  for (int i = 0; i < 5; ++i) ps.push_back(engine_->predictVuc(train_->vucs[i]));
  const VariableDecision d1 = engine_->voteVariable(ps);
  std::reverse(ps.begin(), ps.end());
  const VariableDecision d2 = engine_->voteVariable(ps);
  EXPECT_EQ(d1.finalType, d2.finalType);
  EXPECT_EQ(d1.stageClass, d2.stageClass);
}

TEST_F(EngineTest, VotingEmptyThrows) {
  const std::vector<StageProbs> none;
  EXPECT_THROW(engine_->voteVariable(none), std::invalid_argument);
}

TEST(Voting, ClippingPromotesConfidentMinority) {
  // Hand-built distributions: two VUCs mildly prefer class 0 (0.6) and one
  // is certain of class 1 (0.95). Without clipping class 0 wins
  // (1.2 vs 1.75-0.95... compute: c0 = .6+.6+.05=1.25, c1=.4+.4+.95=1.75 — class 1
  // already wins); use a sharper case: three mild 0.55 vs one 0.95.
  EngineConfig cfg;
  const Engine e(cfg);  // voting needs no trained model
  const auto mk = [](float p1) {
    StageProbs sp;
    // Only stage 1 matters for this test; fill others uniformly.
    const std::span<float> s1 = sp.set(Stage::S1);
    s1[0] = 1.0F - p1;
    s1[1] = p1;
    for (int s = 1; s < kNumStages; ++s) {
      const std::span<float> d = sp.set(static_cast<Stage>(s));
      std::ranges::fill(d, 1.0F / static_cast<float>(d.size()));
    }
    return sp;
  };
  // Three VUCs at p1=0.42 (class 0 wins each), one at p1=0.95.
  const std::vector<StageProbs> ps = {mk(0.42F), mk(0.42F), mk(0.42F),
                                      mk(0.95F)};
  // No clipping: c0 = 0.58*3+0.05 = 1.79, c1 = 0.42*3+0.95 = 2.21 -> class1.
  // Tie the sums more: use 0.30.
  const std::vector<StageProbs> ps2 = {mk(0.30F), mk(0.30F), mk(0.30F),
                                       mk(0.95F)};
  // No clip: c1 = 0.9+0.95 = 1.85 < c0 = 2.1+0.05 = 2.15 -> class 0.
  const VariableDecision noClip = e.voteVariable(ps2, 0.9F, false);
  EXPECT_EQ(noClip.stageClass[0], 0);
  // With clipping the 0.95 becomes 1.0: c1 = 0.9+1.0=1.9 — still < 2.15.
  // Clipping never *reduces* a class's sum:
  const VariableDecision clip = e.voteVariable(ps2, 0.9F, true);
  EXPECT_GE(clip.stageClass[0], 0);
  // And with enough confident votes the minority flips the decision.
  const std::vector<StageProbs> ps3 = {mk(0.30F), mk(0.30F), mk(0.95F),
                                       mk(0.95F)};
  // No clip: c1 = 0.6+1.9=2.5 > c0 = 1.4+0.1=1.5 -> class 1 either way;
  // verify clip keeps it and equals plain argmax of clipped sums.
  EXPECT_EQ(e.voteVariable(ps3, 0.9F, true).stageClass[0], 1);
}

TEST(Voting, RouteWalkMatchesVoteVariable) {
  // voteRoute votes Stage 1 and then only the stage each vote routes to. On
  // random six-stage distributions it must give voteVariable's finalType
  // and, bit for bit, the confidence that type implies (the mean leaf-stage
  // probability of its class) — clipping on and off, with exact ties forced
  // by coarse values, down to single-VUC variables — while reading the
  // variable's VUCs by index from between other VUCs and no stage off the
  // path.
  Rng rng(0x7a11);
  const std::array<float, 6> coarse = {0.0F, 0.25F, 0.5F, 0.9F, 0.95F, 1.0F};
  size_t ties = 0;
  size_t singles = 0;
  for (const bool clip : {true, false}) {
    EngineConfig cfg;
    cfg.clipEnabled = clip;
    const Engine e(cfg);  // voting needs no trained model
    for (int trial = 0; trial < 3000; ++trial) {
      const bool tied = trial % 3 == 0;
      const size_t n =
          trial % 7 == 0 ? 1 : static_cast<size_t>(rng.uniformInt(1, 12));
      singles += n == 1;
      // The variable's VUCs sit at the odd indices, other VUCs between.
      std::vector<StageProbs> probs(2 * n + 1);
      for (StageProbs& p : probs) {
        for (int s = 0; s < kNumStages; ++s) {
          for (float& x : p.set(static_cast<Stage>(s))) {
            x = tied ? coarse[static_cast<size_t>(rng.uniformInt(0, 5))]
                     : static_cast<float>(rng.uniform());
          }
        }
      }
      std::vector<uint32_t> vucs;
      std::vector<StageProbs> gathered;
      for (uint32_t i = 1; i < probs.size(); i += 2) {
        vucs.push_back(i);
        gathered.push_back(probs[i]);
      }
      const VariableDecision want = e.voteVariable(gathered);
      const StagePath path = pathOf(want.finalType);
      const Stage leaf = path.stages[static_cast<size_t>(path.length - 1)];
      const int leafCls = stageClassOf(leaf, want.finalType);
      float sum = 0.0F;
      for (const StageProbs& p : gathered) {
        sum += p.stage(leaf)[static_cast<size_t>(leafCls)];
      }
      const float wantConf = sum / static_cast<float>(gathered.size());
      // Only the on-path stages set, as a routed prediction leaves them.
      std::vector<StageProbs> routed(probs.size());
      for (size_t i = 0; i < probs.size(); ++i) {
        for (int k = 0; k < path.length; ++k) {
          const Stage s = path.stages[static_cast<size_t>(k)];
          std::ranges::copy(probs[i].stage(s), routed[i].set(s).begin());
        }
      }
      const RoutedDecision got = e.voteRoute(routed, vucs);
      ASSERT_EQ(got.type, want.finalType) << "trial " << trial;
      ASSERT_EQ(std::bit_cast<uint32_t>(got.confidence),
                std::bit_cast<uint32_t>(wantConf))
          << "trial " << trial;
      // A tie at Stage 1 resolves to the first class, as argmax does.
      if (tied) {
        float c0 = 0.0F;
        float c1 = 0.0F;
        for (const StageProbs& p : gathered) {
          const auto clipped = [&](float z) {
            return clip && z >= cfg.voteClip ? 1.0F : z;
          };
          c0 += clipped(p.stage(Stage::S1)[0]);
          c1 += clipped(p.stage(Stage::S1)[1]);
        }
        ties += c0 == c1;
      }
    }
  }
  EXPECT_GT(ties, 50U) << "too few exact Stage 1 ties to cover argmax order";
  EXPECT_GT(singles, 500U);
}

TEST(Voting, RouteWalkRejectsMissingStagesAndEmptyVariables) {
  // A VUC without its on-path distribution, or no VUC at all, is a poisoned
  // variable: voteRoute throws, and finishFunction turns that into one
  // degraded variable.
  const Engine e{EngineConfig{}};
  std::vector<StageProbs> probs(1);
  // Routes to Stage 2-1, left unset.
  std::ranges::copy(std::array{0.2F, 0.8F}, probs[0].set(Stage::S1).begin());
  const std::vector<uint32_t> one = {0};
  EXPECT_THROW(e.voteRoute(probs, one), std::invalid_argument);
  EXPECT_THROW(e.voteRoute(probs, {}), std::invalid_argument);
  std::ranges::copy(std::array{0.1F, 0.7F, 0.2F},
                    probs[0].set(Stage::S2_1).begin());
  EXPECT_EQ(e.voteRoute(probs, one).type, TypeLabel::StructPtr);
}

TEST_F(EngineTest, OcclusionEpsilonPositiveAndCentreSensitive) {
  double centreSum = 0.0;
  double edgeSum = 0.0;
  int n = 0;
  for (size_t i = 0; i < 40 && i < train_->vucs.size(); ++i) {
    const corpus::Vuc& v = train_->vucs[i];
    const std::vector<double> eps = engine_->occlusionEpsilons(v, Stage::S1);
    ASSERT_EQ(eps.size(), v.window.size());
    const double ec = eps[static_cast<size_t>(v.centre())];
    const double ee = eps[0];
    EXPECT_GT(ec, 0.0);
    EXPECT_TRUE(std::isfinite(ec));
    centreSum += ec;
    edgeSum += ee;
    ++n;
  }
  // Occluding the centre (target) instruction hurts confidence more than
  // occluding the outermost context instruction, on average (paper Fig. 6).
  EXPECT_LT(centreSum / n, edgeSum / n);
}

TEST_F(EngineTest, SaveLoadPreservesPredictions) {
  std::stringstream ss;
  engine_->save(ss);
  Engine back = Engine::load(ss);
  for (size_t i = 0; i < 20; ++i) {
    const StageProbs a = engine_->predictVuc(train_->vucs[i]);
    const StageProbs b = back.predictVuc(train_->vucs[i]);
    for (int s = 0; s < kNumStages; ++s) {
      const std::span<const float> pa = a.stage(static_cast<Stage>(s));
      const std::span<const float> pb = b.stage(static_cast<Stage>(s));
      ASSERT_EQ(pa.size(), pb.size());
      for (size_t c = 0; c < pa.size(); ++c) EXPECT_FLOAT_EQ(pa[c], pb[c]);
    }
  }
}

TEST_F(EngineTest, AnalysisPhasesEndToEnd) {
  // prepareFunction -> predictVucs -> finishFunction per function.
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("e2e", 0x5, 3), synth::Dialect::Gcc, 1, 77);
  for (const synth::FunctionCode& fn : bin.funcs) {
    const Engine::FunctionWork work = engine_->prepareFunction(
        fn.insns, dataflow::recoverVariables(fn.insns));
    const auto vars =
        engine_->finishFunction(work, engine_->predictVucs(work.ds.vucs));
    EXPECT_FALSE(vars.empty());
    for (const AnalyzedVariable& av : vars) {
      EXPECT_GT(av.numVucs, 0U);
      EXPECT_GT(av.confidence, 0.0F);
      EXPECT_LE(av.confidence, 1.0F);
      EXPECT_LT(static_cast<int>(av.type), kNumTypes);
    }
  }
}

TEST_F(EngineTest, CorruptModelFilesAreRejectedCleanly) {
  std::stringstream ss;
  engine_->save(ss);
  const std::string good = ss.str();

  const auto loadFrom = [](const std::string& bytes) {
    std::istringstream is(bytes);
    return Engine::load(is);
  };

  // Truncated model.
  EXPECT_THROW(loadFrom(good.substr(0, good.size() / 2)), std::runtime_error);
  EXPECT_THROW(loadFrom(good.substr(0, 3)), std::runtime_error);
  // Zero-byte file.
  EXPECT_THROW(loadFrom(""), std::runtime_error);
  // Wrong magic.
  std::string badMagic = good;
  badMagic[0] = static_cast<char>(badMagic[0] ^ 0xFF);
  EXPECT_THROW(loadFrom(badMagic), std::runtime_error);
  // Future version.
  std::string futureVer = good;
  futureVer[4] = 99;
  EXPECT_THROW(loadFrom(futureVer), std::runtime_error);
  // A single bit flip deep in the body must be caught by the CRC trailer,
  // not deserialized into a subtly-wrong model.
  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x04);
  try {
    loadFrom(flipped);
    FAIL() << "bit-flipped model loaded without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
}

// --- hostile model contents (DESIGN.md §6) ---------------------------------
// A CRC only proves the bytes arrived as written: anyone can recompute it.
// These models are assembled from parts and framed with a valid checksum, so
// Engine::load must reject them on their contents.

using testsupport::frameModel;
using testsupport::stageNets;

Engine loadBytes(const std::string& bytes) {
  std::istringstream is(bytes);
  return Engine::load(is);
}

/// Loading `bytes` must fail with a CorruptError whose message names `why`.
void expectCorrupt(const std::string& bytes, const std::string& why) {
  try {
    loadBytes(bytes);
    ADD_FAILURE() << "model loaded; expected a rejection for: " << why;
  } catch (const CorruptError& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
  }
}

TEST_F(EngineTest, FramedPartsLoad) {
  // The baseline the hostile cases below perturb one field of.
  const EngineConfig& cfg = engine_->config();
  const Engine e =
      loadBytes(frameModel(cfg, engine_->encoder(), stageNets(cfg)));
  EXPECT_FALSE(e.quantized());
}

TEST_F(EngineTest, EncoderVocabMustMatchWord2VecRows) {
  const EngineConfig& cfg = engine_->config();
  embed::Vocab vocab = engine_->encoder().vocab();
  vocab.add("token-without-a-vector");
  const embed::VucEncoder enc(std::move(vocab), engine_->encoder().w2v());
  expectCorrupt(frameModel(cfg, enc, stageNets(cfg)), "word2vec has");
}

TEST_F(EngineTest, BlankVectorMustBePositiveZero) {
  // Stream pads and occluded rows are BLANK tokens that must encode as +0,
  // the zero row of the per-window math; -0 or any other value is corrupt.
  const EngineConfig& cfg = engine_->config();
  std::ostringstream os;
  engine_->encoder().w2v().save(os);
  for (const uint8_t mask : {uint8_t{0x80}, uint8_t{0x3f}}) {
    SCOPED_TRACE(static_cast<int>(mask));
    std::string bytes = os.str();
    testsupport::flipBlankFloat(bytes, mask);
    std::istringstream is(bytes);
    const embed::VucEncoder enc(engine_->encoder().vocab(),
                                embed::Word2Vec::load(is));
    expectCorrupt(frameModel(cfg, enc, stageNets(cfg)), "BLANK");
  }
}

TEST_F(EngineTest, EncoderDimMustMatchConfig) {
  EngineConfig cfg = engine_->config();
  const auto nets = stageNets(cfg);
  cfg.w2v.dim += 1;
  expectCorrupt(frameModel(cfg, engine_->encoder(), nets),
                "encoder dimension");
}

TEST_F(EngineTest, StageInputShapeMustMatchConfigWindow) {
  EngineConfig cfg = engine_->config();
  const auto nets = stageNets(cfg);
  for (const int window : {cfg.window - 1, -1, 1 << 30}) {
    SCOPED_TRACE(window);
    cfg.window = window;
    expectCorrupt(frameModel(cfg, engine_->encoder(), nets), "input shape");
  }
}

TEST_F(EngineTest, StageClassCountMustMatch) {
  const EngineConfig& cfg = engine_->config();
  expectCorrupt(frameModel(cfg, engine_->encoder(), stageNets(cfg, 3)),
                "class count");
}

TEST_F(EngineTest, MixedFp32AndInt8StagesRejected) {
  const EngineConfig& cfg = engine_->config();
  std::vector<nn::Sequential> nets = stageNets(cfg);
  nets[2] = nn::quantizeNet(nets[2]);
  expectCorrupt(frameModel(cfg, engine_->encoder(), nets),
                "mixes fp32 and int8");
  // All six quantized is a valid int8 engine.
  for (auto& net : nets) {
    if (net.layer(0).kind() == "conv1d") net = nn::quantizeNet(net);
  }
  EXPECT_TRUE(
      loadBytes(frameModel(cfg, engine_->encoder(), nets)).quantized());
}

TEST_F(EngineTest, StageNetsOfAnotherLayerCountRejected) {
  // A predict worker runs all six stage nets on one scratch, which is bound
  // to a layer count: a net without the dropout layer does not fit it.
  const EngineConfig& cfg = engine_->config();
  ASSERT_GT(cfg.dropout, 0.0F);
  std::vector<nn::Sequential> nets = stageNets(cfg);
  Rng rng(7);
  nets[3] = nn::makeCnn(nets[3].inShape(), cfg.conv1, cfg.conv2,
                        cfg.fcHidden, numClasses(Stage::S3_1), 0.0F, rng);
  ASSERT_EQ(nets[3].numLayers() + 1, nets[0].numLayers());
  expectCorrupt(frameModel(cfg, engine_->encoder(), nets),
                "differ in layer count");
}

TEST_F(EngineTest, TrailingPayloadBytesRejected) {
  const EngineConfig& cfg = engine_->config();
  expectCorrupt(frameModel(cfg, engine_->encoder(), stageNets(cfg), "junk"),
                "trailing bytes");
}

TEST(EngineErrors, UntrainedThrows) {
  Engine e;
  corpus::Vuc v;
  v.window.resize(21);
  v.posLabel.assign(21, -1);
  EXPECT_THROW(e.predictVuc(v), std::logic_error);
  EXPECT_THROW(e.save(std::cout), std::logic_error);
}

TEST(EngineErrors, WindowMismatchThrows) {
  const auto bins = synth::generateCorpus(1, 2, synth::Dialect::Gcc, 3);
  const corpus::Dataset ds = corpus::extractAll(bins, 5);
  EngineConfig cfg;  // window 10 != dataset window 5
  Engine e(cfg);
  EXPECT_THROW(e.train(ds), std::invalid_argument);
}

}  // namespace
}  // namespace cati
