// Differential suite for the shared-context predict path (DESIGN.md §7).
//
// Engine::predictStream runs each stage net's Conv1d(k=3) -> ReLU ->
// MaxPool1d(2) prefix once per row of a chunk stream and gathers every VUC's
// pooled map from it; nets without that prefix (int8, window 0) gather the
// encoded windows and run whole. Either way the probabilities must equal,
// bit for bit, a whole-net forward of each VUC's own encoded window at
// batch 1 — the reference here — at any batch size and job count, and on
// whichever kernel tier runs: CI repeats this suite under
// CATI_KERNEL=scalar and CATI_KERNEL=avx2, next to the native dispatch of
// the tier-1 run. The window adapter (predictVucs) and occlusion ε
// (occlusionEpsilons) build ordinary streams of one-VUC functions and are
// held to the same reference.
//
// The streams are built to put every boundary of the path somewhere
// awkward: functions of 1-3 instructions, functions without VUCs, windows
// that reach past both edges of their function, and enough VUCs that VUC
// ranges and conv lanes start and end inside the BLANK pads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/numeric.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dataflow/recovery.h"
#include "loader/image.h"
#include "support/framed_model.h"
#include "support/micro_model.h"

namespace cati {
namespace {

/// The VUC windows of `st`, spelled back from the vocabulary: the rows
/// around each centre, as corpus extraction would have cut them.
std::vector<corpus::Vuc> windowsOf(const ChunkStream& st,
                                   const embed::Vocab& vocab) {
  const size_t w = static_cast<size_t>(st.window());
  std::vector<corpus::Vuc> out;
  for (const uint32_t c : st.centres()) {
    corpus::Vuc v;
    for (size_t r = c - w; r <= c + w; ++r) {
      const embed::TokenRow& t = st.rows()[r];
      v.window.push_back(
          {vocab.word(t[0]), vocab.word(t[1]), vocab.word(t[2])});
    }
    v.posLabel.assign(v.window.size(), -1);
    out.push_back(std::move(v));
  }
  return out;
}

/// The reference: each window encoded on its own and every stage net run
/// whole, one sample at a time.
std::vector<StageProbs> perWindow(const Engine& e,
                                  std::span<const corpus::Vuc> vucs) {
  const int rows = 2 * e.config().window + 1;
  std::vector<float> x(static_cast<size_t>(rows * e.encoder().cols()));
  std::vector<StageProbs> out(vucs.size());
  for (int s = 0; s < kNumStages; ++s) {
    const nn::Sequential& net = e.stageNet(static_cast<Stage>(s));
    nn::Scratch scratch = net.makeScratch();
    for (size_t i = 0; i < vucs.size(); ++i) {
      e.encoder().encodeChannelMajor(vucs[i], x);
      const auto logits = net.forward(x, 1, scratch, nn::Phase::kInfer);
      nn::SoftmaxCE::forward(logits, -1, out[i].set(static_cast<Stage>(s)));
    }
  }
  return out;
}

/// Formula 5 from whole-net batch-1 forwards: stage `u`'s confidence in
/// its predicted class with window row k zeroed, over the unoccluded
/// confidence, for every k.
std::vector<double> zeroedRowEpsilons(const Engine& e, const corpus::Vuc& vuc,
                                      Stage u) {
  const nn::Sequential& net = e.stageNet(u);
  nn::Scratch scratch = net.makeScratch();
  const size_t rows = vuc.window.size();
  const auto channels = static_cast<size_t>(e.encoder().cols());
  std::vector<float> probs(static_cast<size_t>(numClasses(u)));
  const auto confidences = [&](std::span<const float> x) {
    const auto logits = net.forward(x, 1, scratch, nn::Phase::kInfer);
    nn::SoftmaxCE::forward(logits, -1, probs);
  };
  std::vector<float> x(rows * channels);
  e.encoder().encodeChannelMajor(vuc, x);
  confidences(x);
  const auto predicted = static_cast<size_t>(num::argmax(probs));
  const double base = std::max<double>(probs[predicted], 1e-9);
  std::vector<double> out;
  for (size_t k = 0; k < rows; ++k) {
    std::vector<float> zeroed = x;
    for (size_t c = 0; c < channels; ++c) zeroed[c * rows + k] = 0.0F;
    confidences(zeroed);
    out.push_back(probs[predicted] / base);
  }
  return out;
}

testing::AssertionResult sameBits(const std::vector<StageProbs>& got,
                                  const std::vector<StageProbs>& want) {
  if (got.size() != want.size()) {
    return testing::AssertionFailure()
           << got.size() << " VUCs predicted, " << want.size() << " expected";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    for (int s = 0; s < kNumStages; ++s) {
      const std::span<const float> a = got[i].stage(static_cast<Stage>(s));
      const std::span<const float> b = want[i].stage(static_cast<Stage>(s));
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        return testing::AssertionFailure()
               << "VUC " << i << " stage " << s << " differs";
      }
    }
  }
  return testing::AssertionSuccess();
}

/// `fns` random functions: lengths 0-30 with every third 1-3 instructions,
/// token ids over the whole vocabulary, and VUCs on no instruction, on
/// every instruction, or on a random subset.
ChunkStream randomStream(int window, int32_t vocab, int fns, Rng& rng) {
  ChunkStream st;
  for (int f = 0; f < fns; ++f) {
    const auto len = static_cast<size_t>(
        f % 3 == 0 ? rng.uniformInt(1, 3) : rng.uniformInt(0, 30));
    std::vector<embed::TokenRow> insns(len);
    for (embed::TokenRow& t : insns) {
      for (int32_t& id : t) {
        id = static_cast<int32_t>(rng.uniformInt(0, vocab - 1));
      }
    }
    const int mode = static_cast<int>(rng.uniformInt(0, 2));
    std::vector<uint32_t> targets;
    for (uint32_t i = 0; i < len; ++i) {
      if (mode == 1 || (mode == 2 && rng.chance(0.4))) targets.push_back(i);
    }
    st.append(ChunkStream(window, insns, targets));
  }
  return st;
}

/// An engine of untrained makeCnn nets at any window and width, on the
/// micro model's encoder.
Engine framedEngine(const Engine& base, int window, int conv1, int conv2,
                    int hidden) {
  EngineConfig cfg = base.config();
  cfg.window = window;
  cfg.conv1 = conv1;
  cfg.conv2 = conv2;
  cfg.fcHidden = hidden;
  std::istringstream is(testsupport::frameModel(
      cfg, base.encoder(), testsupport::stageNets(cfg, -1, 0x57AE + window)));
  return Engine::load(is);
}

/// predictStream over `st` (and predictVucs over its windows) at batch
/// {1, 8, 32} x jobs {1, 4} against the per-window reference.
void expectStreamMatchesWindows(Engine& e, const ChunkStream& st,
                                const std::string& what) {
  const std::vector<corpus::Vuc> vucs = windowsOf(st, e.encoder().vocab());
  const std::vector<StageProbs> want = perWindow(e, vucs);
  for (const int jobs : {1, 4}) {
    par::ThreadPool pool(jobs);
    for (const int batch : {1, 8, 32}) {
      EXPECT_TRUE(sameBits(e.predictStream(st, &pool, batch), want))
          << what << ": stream, jobs " << jobs << " batch " << batch;
      EXPECT_TRUE(sameBits(e.predictVucs(vucs, &pool, batch), want))
          << what << ": windows, jobs " << jobs << " batch " << batch;
    }
  }
}

class StreamPredictTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    micro_ = new Engine(testsupport::cachedMicroEngine());
  }
  static void TearDownTestSuite() {
    delete micro_;
    micro_ = nullptr;
  }
  static Engine* micro_;
};

Engine* StreamPredictTest::micro_ = nullptr;

TEST_F(StreamPredictTest, RandomStreamsMatchPerWindowForwards) {
  // The trained micro model (window 4), its int8 twin (whole-net gather),
  // and untrained nets at the production window and conv widths, at the
  // smallest windows, and at window 0 (no pooling: whole-net gather).
  struct Variant {
    std::string name;
    Engine engine;
  };
  std::vector<Variant> variants;
  variants.push_back({"micro", testsupport::cachedMicroEngine()});
  variants.push_back({"micro-int8", micro_->quantize()});
  variants.push_back({"window10", framedEngine(*micro_, 10, 32, 64, 32)});
  variants.push_back({"window1", framedEngine(*micro_, 1, 5, 6, 8)});
  variants.push_back({"window2", framedEngine(*micro_, 2, 7, 4, 8)});
  variants.push_back({"window0", framedEngine(*micro_, 0, 4, 4, 8)});
  Rng rng(0x57EA);
  for (Variant& v : variants) {
    const ChunkStream st = randomStream(v.engine.config().window,
                                        v.engine.encoder().vocab().size(), 90,
                                        rng);
    ASSERT_GT(st.numVucs(), 2 * 96U) << v.name;  // several VUC ranges
    expectStreamMatchesWindows(v.engine, st, v.name);
  }
}

TEST_F(StreamPredictTest, TinyFunctionsPutEveryBoundaryInsidePads) {
  // Functions of n = 1..3 instructions, each with a VUC on every
  // instruction, so every window reaches past both function edges, and
  // functions without VUCs in between. 110 such functions hold more than
  // one 96-VUC range, whose boundary then falls inside a pad.
  Engine engine = framedEngine(*micro_, 10, 32, 64, 32);
  for (size_t n = 1; n <= 3; ++n) {
    ChunkStream st;
    const std::vector<embed::TokenRow> insns(n, embed::TokenRow{7, 3, 2});
    std::vector<uint32_t> all(n);
    for (uint32_t i = 0; i < n; ++i) all[i] = i;
    for (int f = 0; f < 110; ++f) {
      st.append(ChunkStream(10, insns, all));
      st.append(ChunkStream(10, insns, {}));
    }
    ASSERT_EQ(st.numVucs(), 110 * n);
    expectStreamMatchesWindows(engine, st, "n=" + std::to_string(n));
  }
}

TEST_F(StreamPredictTest, ImageChunkMatchesPerWindowForwards) {
  // A real chunk: prepareFunction over a stripped image's functions, their
  // streams appended as ImageAnalysis appends them. Each worker runs all
  // six stage nets on its one scratch, on the shared-prefix branch (micro)
  // and the whole-net one (its int8 twin).
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  DiagList diags;
  ChunkStream st;
  std::vector<corpus::Vuc> windows;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    Engine::FunctionWork work = micro_->prepareFunction(
        fn.insns, dataflow::recoverVariables(fn.insns));
    ASSERT_EQ(work.stream.numVucs(), work.ds.vucs.size()) << fn.name;
    ASSERT_EQ(windowsOf(work.stream, micro_->encoder().vocab()).size(),
              work.ds.vucs.size());
    st.append(work.stream);
    windows.insert(windows.end(), work.ds.vucs.begin(), work.ds.vucs.end());
  }
  ASSERT_GT(st.numVucs(), 96U);
  std::vector<Engine> engines;
  engines.push_back(testsupport::cachedMicroEngine());
  engines.push_back(micro_->quantize());
  for (Engine& engine : engines) {
    const char* what = engine.quantized() ? "int8" : "fp32";
    const std::vector<StageProbs> want = perWindow(engine, windows);
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const int batch : {1, 8, 32}) {
        EXPECT_TRUE(sameBits(engine.predictStream(st, &pool, batch), want))
            << what << " jobs " << jobs << " batch " << batch;
      }
    }
  }
}

TEST_F(StreamPredictTest, Conv1ColumnsPerVuc) {
  // engine.infer.conv1_cols counts the conv1 output columns every stage
  // evaluation computes, lane padding included: about 23 per VUC and stage
  // through the window adapter, far fewer when windows share their rows.
  // Both predicts here run all six stages on every VUC.
  obs::setEnabled(true);
  obs::Counter& cols = obs::counter("engine.infer.conv1_cols");
  Engine engine = framedEngine(*micro_, 10, 32, 64, 32);
  const std::vector<embed::TokenRow> insns(200, embed::TokenRow{5, 6, 7});
  std::vector<uint32_t> every(200);
  for (uint32_t i = 0; i < 200; ++i) every[i] = i;
  const ChunkStream st(10, insns, every);
  const std::vector<corpus::Vuc> vucs = windowsOf(st, engine.encoder().vocab());
  uint64_t before = cols.value();
  (void)engine.predictVucs(vucs);
  // The adapter lays each window out as a one-VUC function, so the pads
  // keep windows apart: a 96-VUC range packs 96 x 21 rows into 8 lanes of
  // 254 (overlapping by two) plus 96 left-border pairs in 12 groups of 2
  // steps; the last 8 VUCs take lanes of 23 and one pair group.
  EXPECT_EQ(cols.value() - before,
            kNumStages * (2 * 8 * (254U + 24) + 8 * (23U + 2)));
  before = cols.value();
  (void)engine.predictStream(st);
  // Per 96-VUC range: 116 rows over 8 lanes overlapping by two, plus one
  // left-border pair per VUC.
  EXPECT_LT(cols.value() - before, kNumStages * 200U * 21 / 4);
}

TEST_F(StreamPredictTest, PredictLedgerStaysWithinBatchTimeTimesWorkers) {
  // engine.infer.encode_ns, prefix_ns and net_ns split each predict item's
  // time into exclusive phases: after a predict with obs on all three have
  // observations, and together they stay within engine.infer.batch_ns times
  // the workers. The int8 twin has no shared prefix: encode and net only.
  // Structural: counts and one inequality, no timing threshold.
  obs::setEnabled(true);
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  DiagList diags;
  ChunkStream st;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    st.append(micro_->streamFunction(fn.insns,
                                     dataflow::recoverVariables(*fn.graph))
                  .stream);
  }
  ASSERT_GT(st.numVucs(), 96U);
  const std::array<obs::Histogram*, 4> timers = {
      &obs::timer("engine.infer.encode_ns"),
      &obs::timer("engine.infer.prefix_ns"),
      &obs::timer("engine.infer.net_ns"), &obs::timer("engine.infer.batch_ns")};
  std::vector<Engine> engines;
  engines.push_back(testsupport::cachedMicroEngine());
  engines.push_back(micro_->quantize());
  for (const Engine& engine : engines) {
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const StagePlan plan : {StagePlan::kAll, StagePlan::kRouted}) {
        const std::string what =
            std::string(engine.quantized() ? "int8" : "fp32") + " jobs " +
            std::to_string(jobs) +
            (plan == StagePlan::kAll ? " kAll" : " kRouted");
        std::array<uint64_t, 4> count0{};
        std::array<double, 4> sum0{};
        for (size_t i = 0; i < timers.size(); ++i) {
          count0[i] = timers[i]->count();
          sum0[i] = timers[i]->sum();
        }
        (void)engine.predictStream(st, &pool, 0, plan);
        double ledger = 0.0;
        for (size_t i = 0; i < 3; ++i) {
          const bool observed = !(engine.quantized() && i == 1);
          EXPECT_EQ(timers[i]->count() > count0[i], observed)
              << what << " timer " << i;
          ledger += timers[i]->sum() - sum0[i];
        }
        EXPECT_EQ(timers[3]->count() - count0[3], 1U) << what;
        EXPECT_GT(ledger, 0.0) << what;
        EXPECT_LE(ledger, (timers[3]->sum() - sum0[3]) * jobs) << what;
      }
    }
  }
}

TEST_F(StreamPredictTest, OcclusionEpsilonsMatchZeroedRowForwards) {
  // occlusionEpsilons puts the window and its 2w+1 occluded copies in one
  // stream, the occluded row a BLANK token row. The ε must equal, bit for
  // bit, the ratio of whole-net batch-1 forwards of the window with that
  // row zeroed — for the trained micro model, its int8 twin, window 10
  // (shared prefix) and window 0 (whole-net gather), every k and stage.
  struct Variant {
    std::string name;
    Engine engine;
  };
  std::vector<Variant> variants;
  variants.push_back({"micro", testsupport::cachedMicroEngine()});
  variants.push_back({"micro-int8", micro_->quantize()});
  variants.push_back({"window10", framedEngine(*micro_, 10, 32, 64, 32)});
  variants.push_back({"window0", framedEngine(*micro_, 0, 4, 4, 8)});
  Rng rng(0x0CC1);
  for (Variant& v : variants) {
    Engine& e = v.engine;
    const std::vector<corpus::Vuc> all = windowsOf(
        randomStream(e.config().window, e.encoder().vocab().size(), 12, rng),
        e.encoder().vocab());
    ASSERT_GE(all.size(), 4U) << v.name;
    // The first and last VUCs reach into the outer pads; two from between.
    const std::vector<corpus::Vuc> vucs = {all.front(), all[all.size() / 3],
                                           all[2 * all.size() / 3],
                                           all.back()};
    for (size_t i = 0; i < vucs.size(); ++i) {
      for (int s = 0; s < kNumStages; ++s) {
        const auto u = static_cast<Stage>(s);
        const std::vector<double> got = e.occlusionEpsilons(vucs[i], u);
        const std::vector<double> want = zeroedRowEpsilons(e, vucs[i], u);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << v.name << " VUC " << i << " stage " << s;
      }
    }
  }
}

/// The engine.infer.samples.<Stage> counters, summed over the stages.
uint64_t stageSamples() {
  uint64_t total = 0;
  for (int s = 0; s < kNumStages; ++s) {
    total += obs::counter("engine.infer.samples." +
                          std::string(stageName(static_cast<Stage>(s))))
                 .value();
  }
  return total;
}

/// `base`'s encoder and stage nets with its voting settings replaced.
Engine withVoting(const Engine& base, float clip, bool clipEnabled) {
  EngineConfig cfg = base.config();
  cfg.voteClip = clip;
  cfg.clipEnabled = clipEnabled;
  std::vector<nn::Sequential> nets;
  for (int s = 0; s < kNumStages; ++s) {
    std::stringstream ss;
    base.stageNet(static_cast<Stage>(s)).save(ss);
    nets.push_back(nn::Sequential::load(ss));
  }
  std::istringstream is(testsupport::frameModel(cfg, base.encoder(), nets));
  return Engine::load(is);
}

TEST_F(StreamPredictTest, RoutedPredictRunsOnlyOnPathStages) {
  // StagePlan::kRouted over a real chunk gives every VUC exactly the stages
  // on its variable's voted path — bit-equal to the kAll predict there,
  // unset elsewhere — at jobs {1, 4} x batch {1, 32}, on the shared-prefix
  // branch (micro) and the whole-net one (its int8 twin), and with the
  // routing votes clipped at 0.5 (every Stage 1 winner counts 1.0) and not
  // clipped at all; finishFunction types every variable the same from
  // either. So the engine.infer.samples.<Stage> counters add up to the sum
  // over variables of path length x VUCs, and engine.infer.vucs counts each
  // VUC once.
  obs::setEnabled(true);
  // Functions the micro model never trained on, so its probabilities are
  // far from one-hot and clipping changes votes.
  loader::Image img = loader::buildImage(synth::generateBinary(
      synth::defaultProfile("route", 0x20e, 24), synth::Dialect::Clang, 1,
      0x20f));
  loader::strip(img);
  DiagList diags;
  const std::vector<loader::LoadedFunction> fns =
      loader::disassemble(img, diags);
  std::vector<Engine> engines;
  engines.push_back(testsupport::cachedMicroEngine());
  engines.push_back(micro_->quantize());
  engines.push_back(withVoting(*micro_, 0.5F, true));
  engines.push_back(withVoting(*micro_, 0.9F, false));
  obs::Counter& inferVucs = obs::counter("engine.infer.vucs");
  for (Engine& e : engines) {
    std::vector<Engine::FunctionWork> works;
    ChunkStream st;
    for (const loader::LoadedFunction& fn : fns) {
      works.push_back(
          e.prepareFunction(fn.insns, dataflow::recoverVariables(fn.insns)));
      st.append(works.back().stream);
    }
    ASSERT_GT(st.numVucs(), 96U);
    const std::vector<StageProbs> full = e.predictStream(st);
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const int batch : {1, 32}) {
        const std::string what =
            std::string(e.quantized() ? "int8" : "fp32") + " clip " +
            (e.config().clipEnabled ? std::to_string(e.config().voteClip)
                                    : "off") +
            " jobs " + std::to_string(jobs) + " batch " +
            std::to_string(batch);
        const uint64_t samples0 = stageSamples();
        const uint64_t vucs0 = inferVucs.value();
        const std::vector<StageProbs> routed =
            e.predictStream(st, &pool, batch, StagePlan::kRouted);
        EXPECT_EQ(inferVucs.value() - vucs0, st.numVucs()) << what;
        ASSERT_EQ(routed.size(), full.size());
        uint64_t evals = 0;
        size_t base = 0;
        for (const Engine::FunctionWork& work : works) {
          const size_t n = work.ds.vucs.size();
          const std::vector<AnalyzedVariable> want = e.finishFunction(
              work, std::span(full).subspan(base, n));
          const std::vector<AnalyzedVariable> got = e.finishFunction(
              work, std::span(routed).subspan(base, n));
          ASSERT_EQ(got.size(), want.size()) << what;
          size_t k = 0;
          for (const std::vector<uint32_t>& vucs : work.ds.vucsByVar()) {
            if (vucs.empty()) continue;
            EXPECT_EQ(got[k].type, want[k].type) << what;
            EXPECT_EQ(std::memcmp(&got[k].confidence, &want[k].confidence,
                                  sizeof(float)),
                      0)
                << what;
            const StagePath path = pathOf(want[k].type);
            evals += static_cast<uint64_t>(path.length) * vucs.size();
            for (const uint32_t i : vucs) {
              for (int s = 0; s < kNumStages; ++s) {
                const auto st = static_cast<Stage>(s);
                const std::span<const float> r = routed[base + i].stage(st);
                const std::span<const float> f = full[base + i].stage(st);
                const bool onPath =
                    std::find(path.stages.begin(),
                              path.stages.begin() + path.length,
                              st) != path.stages.begin() + path.length;
                if (!onPath) {
                  EXPECT_TRUE(r.empty()) << what << " stage " << s;
                } else {
                  ASSERT_EQ(f.size(), static_cast<size_t>(numClasses(st)));
                  EXPECT_TRUE(r.size() == f.size() &&
                              std::memcmp(r.data(), f.data(),
                                          r.size() * sizeof(float)) == 0)
                      << what << " stage " << s;
                }
              }
            }
            ++k;
          }
          base += n;
        }
        EXPECT_EQ(stageSamples() - samples0, evals) << what;
        EXPECT_GE(evals, 2 * st.numVucs()) << what;
        EXPECT_LT(evals, 3 * st.numVucs()) << what;
      }
    }
  }
}

TEST_F(StreamPredictTest, FinishFunctionNeedsNoWindows) {
  // finishFunction reads a function's VUCs off its stream, never its
  // windows: the variables are the same with `ds` filled (prepareFunction),
  // with it emptied, and from streamFunction, which builds no windows and
  // the same stream.
  Engine& engine = *micro_;
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  DiagList diags;
  size_t variables = 0;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    const Engine::FunctionWork filled = engine.prepareFunction(
        fn.insns, dataflow::recoverVariables(fn.insns));
    const Engine::FunctionWork emptied = [&] {
      Engine::FunctionWork work = filled;
      work.ds = corpus::Dataset{};
      return work;
    }();
    const Engine::FunctionWork streamed = engine.streamFunction(
        fn.insns, dataflow::recoverVariables(fn.insns));
    EXPECT_TRUE(streamed.ds.vucs.empty()) << fn.name;
    EXPECT_EQ(streamed.stream.rows(), filled.stream.rows()) << fn.name;
    EXPECT_EQ(streamed.stream.centres(), filled.stream.centres()) << fn.name;
    EXPECT_EQ(streamed.stream.vars(), filled.stream.vars()) << fn.name;
    const std::vector<StageProbs> probs =
        engine.predictStream(filled.stream, nullptr, 0, StagePlan::kRouted);
    const std::vector<AnalyzedVariable> want =
        engine.finishFunction(filled, probs);
    for (const Engine::FunctionWork* work : {&emptied, &streamed}) {
      const std::vector<AnalyzedVariable> got =
          engine.finishFunction(*work, probs);
      ASSERT_EQ(got.size(), want.size()) << fn.name;
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].location.offset, want[k].location.offset);
        EXPECT_EQ(got[k].location.rbpFrame, want[k].location.rbpFrame);
        EXPECT_EQ(got[k].type, want[k].type) << fn.name;
        EXPECT_EQ(std::memcmp(&got[k].confidence, &want[k].confidence,
                              sizeof(float)),
                  0)
            << fn.name;
        EXPECT_EQ(got[k].numVucs, want[k].numVucs) << fn.name;
      }
    }
    variables += want.size();
  }
  EXPECT_GT(variables, 10U);
}

TEST(ChunkStream, AppendKeepsVariablesApart) {
  // Every VUC carries its variable's key; append moves the keys of the
  // appended functions past the stream's own, so two functions (or two
  // daemon requests) never share a variable. Without keys every VUC is a
  // variable of its own.
  const std::vector<embed::TokenRow> insns(4, embed::TokenRow{4, 5, 6});
  ChunkStream st(1, insns, std::vector<uint32_t>{0, 1, 3},
                 std::vector<uint32_t>{2, 0, 2});
  EXPECT_EQ(st.numVars(), 3U);
  st.append(ChunkStream(1, insns, std::vector<uint32_t>{1, 2}));
  st.append(ChunkStream(1, insns, {}, {}));
  st.append(ChunkStream(1, insns, std::vector<uint32_t>{0, 2},
                        std::vector<uint32_t>{1, 1}));
  EXPECT_EQ(st.vars(), (std::vector<uint32_t>{2, 0, 2, 3, 4, 6, 6}));
  EXPECT_EQ(st.numVars(), 7U);
  EXPECT_EQ(st.vars().size(), st.numVucs());
  EXPECT_THROW(ChunkStream(1, insns, std::vector<uint32_t>{0, 1},
                           std::vector<uint32_t>{0}),
               std::invalid_argument);
}

TEST(ChunkStream, LaysOutFunctionsBetweenPads) {
  const embed::TokenRow a{4, 5, 6};
  const embed::TokenRow b{7, 8, 9};
  const embed::TokenRow blank{};
  ChunkStream st(2, std::vector<embed::TokenRow>{a, b},
                 std::vector<uint32_t>{1});
  st.append(ChunkStream(2, std::vector<embed::TokenRow>{}, {}));
  st.append(ChunkStream(2, std::vector<embed::TokenRow>{b},
                        std::vector<uint32_t>{0}));
  // BLANK^2 a b BLANK^2 (empty function) BLANK^2 b BLANK^2
  const std::vector<embed::TokenRow> rows = {blank, blank, a,     b,
                                             blank, blank, blank, blank,
                                             b,     blank, blank};
  EXPECT_EQ(st.rows(), rows);
  EXPECT_EQ(st.centres(), (std::vector<uint32_t>{3, 8}));
  EXPECT_THROW(st.append(ChunkStream(3, std::vector<embed::TokenRow>{a}, {})),
               std::invalid_argument);
  EXPECT_THROW(ChunkStream(2, std::vector<embed::TokenRow>{a, b},
                           std::vector<uint32_t>{1, 1}),
               std::invalid_argument);
  EXPECT_THROW(ChunkStream(2, std::vector<embed::TokenRow>{a},
                           std::vector<uint32_t>{1}),
               std::invalid_argument);
  st.clear();
  EXPECT_EQ(st.numVucs(), 0U);
  EXPECT_TRUE(st.rows().empty());
}

TEST_F(StreamPredictTest, MalformedStreamsAreRejected) {
  // A window that does not match the engine's, or a token the vocabulary
  // does not have, is the caller's error, never an out-of-bounds read.
  const int w = micro_->config().window;
  EXPECT_THROW(
      micro_->predictStream(ChunkStream(
          w + 1, std::vector<embed::TokenRow>(3), std::vector<uint32_t>{1})),
      std::invalid_argument);
  const int32_t vocab = micro_->encoder().vocab().size();
  EXPECT_THROW(micro_->predictStream(ChunkStream(
                   w, std::vector<embed::TokenRow>{{0, vocab, 0}},
                   std::vector<uint32_t>{0})),
               std::invalid_argument);
  EXPECT_TRUE(micro_->predictStream(ChunkStream()).empty());
}

}  // namespace
}  // namespace cati
