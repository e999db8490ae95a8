#include "harness/harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/fs.h"

namespace cati::bench {

namespace fs = std::filesystem;

HarnessConfig::HarnessConfig() {
  // Defaults sized for the 1-core evaluation machine (DESIGN.md §6): the
  // paper's architecture with a reduced FC width and a capped per-stage
  // training set. One full build takes a few minutes and is then cached.
  trainApps = 16;
  trainFuncsPerApp = 32;
  testScale = 2;
  engine.fcHidden = 128;
  engine.epochs = 5;
  engine.maxTrainPerStage = 16000;
  engine.w2v.epochs = 2;
  engine.verbose = true;
}

std::string HarnessConfig::cacheKey() const {
  // Bump kGeneratorRev whenever the synthetic code generator's output
  // changes — cached datasets/models are only valid for matching output.
  // rev 4: chunked deterministic training numerics (w2v round merge, CNN
  // per-chunk dropout streams) changed model bytes for all seeds.
  constexpr int kGeneratorRev = 4;
  std::ostringstream os;
  os << kGeneratorRev << '_' << trainApps << '_' << trainFuncsPerApp << '_' << testScale << '_'
     << testOptLevel << '_' << static_cast<int>(dialect) << '_' << seed << '_'
     << engine.window << '_' << engine.w2v.dim << '_' << engine.w2v.epochs
     << '_' << engine.conv1 << '_' << engine.conv2 << '_' << engine.fcHidden
     << '_' << engine.epochs << '_' << engine.maxTrainPerStage << '_'
     << engine.lr << '_' << engine.seed;
  // FNV-1a over the dump.
  uint64_t h = 1469598103934665603ULL;
  for (const char c : os.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

Bundle::Bundle(HarnessConfig cfg)
    : cfg_(std::move(cfg)), pool_(par::resolveJobs()) {
  buildOrLoad();
}

void Bundle::buildOrLoad() {
  const fs::path dir = fs::path("cati_cache");
  fs::create_directories(dir);
  cati::fs::cleanupStaleTemps(dir);
  const std::string key = cfg_.cacheKey();
  const fs::path trainPath = dir / ("train_" + key + ".bin");
  const fs::path testPath = dir / ("test_" + key + ".bin");
  const fs::path modelPath = dir / ("engine_" + key + ".bin");

  const auto loadDataset = [](const fs::path& p) {
    std::ifstream is(p, std::ios::binary);
    return corpus::load(is);
  };

  if (fs::exists(trainPath) && fs::exists(testPath)) {
    std::fprintf(stderr, "[harness] loading cached datasets (%s)\n",
                 key.c_str());
    train_ = loadDataset(trainPath);
    test_ = loadDataset(testPath);
  } else {
    std::fprintf(stderr, "[harness] generating corpora (%d jobs)...\n",
                 pool_.jobs());
    const auto trainBins =
        synth::generateCorpus(cfg_.trainApps, cfg_.trainFuncsPerApp,
                              cfg_.dialect, cfg_.seed, &pool_);
    train_ = corpus::extractAll(trainBins, cfg_.engine.window, true, &pool_);
    corpus::Dataset test;
    test.window = cfg_.engine.window;
    for (const synth::AppProfile& app : synth::paperTestApps(cfg_.testScale)) {
      const synth::Binary bin = synth::generateBinary(
          app, cfg_.dialect, cfg_.testOptLevel, cfg_.seed ^ 0x7e57);
      test.append(corpus::extractGroundTruth(bin, cfg_.engine.window));
    }
    test_ = std::move(test);
    // Atomic writes: a crash mid-save must not leave a torn cache entry that
    // poisons every later bench run (DESIGN.md §9).
    cati::fs::atomicWrite(trainPath,
                          [this](std::ostream& os) { corpus::save(train_, os); });
    cati::fs::atomicWrite(testPath,
                          [this](std::ostream& os) { corpus::save(test_, os); });
  }
  std::fprintf(stderr,
               "[harness] train: %zu vars / %zu VUCs; test: %zu vars / %zu "
               "VUCs in %zu apps\n",
               train_.vars.size(), train_.vucs.size(), test_.vars.size(),
               test_.vucs.size(), test_.appNames.size());

  if (fs::exists(modelPath)) {
    std::fprintf(stderr, "[harness] loading cached engine\n");
    engine_ = Engine::loadFile(modelPath);
  } else {
    std::fprintf(stderr, "[harness] training engine...\n");
    engine_ = Engine(cfg_.engine);
    const auto t0 = std::chrono::steady_clock::now();
    engine_.train(train_, &pool_);
    trainSeconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    engine_.saveFile(modelPath);
    std::fprintf(stderr, "[harness] trained in %.1fs\n", trainSeconds_);
  }
}

const std::vector<StageProbs>& Bundle::testProbs() {
  if (!probsReady_) {
    std::fprintf(stderr, "[harness] predicting %zu test VUCs (%d jobs)...\n",
                 test_.vucs.size(), pool_.jobs());
    probs_ = engine_.predictVucs(test_.vucs, &pool_);
    probsReady_ = true;
  }
  return probs_;
}

const std::vector<VarRecord>& Bundle::varRecords() {
  if (!varsReady_) {
    const auto& probs = testProbs();
    const auto byVar = test_.vucsByVar();
    for (size_t v = 0; v < byVar.size(); ++v) {
      if (byVar[v].empty() || test_.vars[v].label == TypeLabel::kCount) {
        continue;
      }
      std::vector<StageProbs> vp;
      vp.reserve(byVar[v].size());
      std::array<int, kNumTypes> routeVotes{};
      for (const uint32_t i : byVar[v]) {
        vp.push_back(probs[i]);
        ++routeVotes[static_cast<size_t>(engine_.routeVuc(probs[i]))];
      }
      VarRecord rec;
      rec.appId = test_.vars[v].appId;
      rec.truth = test_.vars[v].label;
      rec.voted = engine_.voteVariable(vp);
      rec.vucMajority = static_cast<TypeLabel>(
          std::max_element(routeVotes.begin(), routeVotes.end()) -
          routeVotes.begin());
      rec.numVucs = static_cast<uint32_t>(byVar[v].size());
      vars_.push_back(rec);
    }
    varsReady_ = true;
  }
  return vars_;
}

Bundle& sharedBundle() {
  static Bundle bundle{HarnessConfig{}};
  return bundle;
}

namespace {

StageScore scoreFromPairs(const std::vector<int>& yTrue,
                          const std::vector<int>& yPred, int classes) {
  StageScore s;
  if (yTrue.empty()) return s;
  const eval::Report r = eval::compute(yTrue, yPred, classes);
  s.p = r.weightedPrecision;
  s.r = r.weightedRecall;
  s.f1 = r.weightedF1;
  s.present = true;
  s.support = r.total;
  return s;
}

}  // namespace

StageScore vucStageScore(Bundle& b, uint32_t appId, Stage s) {
  const auto& probs = b.testProbs();
  const corpus::Dataset& test = b.testSet();
  std::vector<int> yTrue;
  std::vector<int> yPred;
  for (size_t i = 0; i < test.vucs.size(); ++i) {
    const corpus::Vuc& v = test.vucs[i];
    if (v.label == TypeLabel::kCount) continue;
    if (test.vars[v.varId].appId != appId) continue;
    const int cls = stageClassOf(s, v.label);
    if (cls < 0) continue;
    const std::span<const float> p = probs[i].stage(s);
    yTrue.push_back(cls);
    yPred.push_back(eval::argmax(p));
  }
  return scoreFromPairs(yTrue, yPred, numClasses(s));
}

StageScore varStageScore(Bundle& b, uint32_t appId, Stage s) {
  std::vector<int> yTrue;
  std::vector<int> yPred;
  for (const VarRecord& rec : b.varRecords()) {
    if (rec.appId != appId) continue;
    const int cls = stageClassOf(s, rec.truth);
    if (cls < 0) continue;
    yTrue.push_back(cls);
    yPred.push_back(rec.voted.stageClass[static_cast<size_t>(s)]);
  }
  return scoreFromPairs(yTrue, yPred, numClasses(s));
}

AppAccuracy appAccuracy(Bundle& b, uint32_t appId) {
  AppAccuracy a;
  const auto& probs = b.testProbs();
  const corpus::Dataset& test = b.testSet();
  size_t vucCorrect = 0;
  for (size_t i = 0; i < test.vucs.size(); ++i) {
    const corpus::Vuc& v = test.vucs[i];
    if (v.label == TypeLabel::kCount) continue;
    if (test.vars[v.varId].appId != appId) continue;
    ++a.vucSupport;
    if (b.engine().routeVuc(probs[i]) == v.label) ++vucCorrect;
  }
  if (a.vucSupport) {
    a.vucAcc = static_cast<double>(vucCorrect) /
               static_cast<double>(a.vucSupport);
  }
  size_t varCorrect = 0;
  for (const VarRecord& rec : b.varRecords()) {
    if (rec.appId != appId) continue;
    ++a.varSupport;
    if (rec.voted.finalType == rec.truth) ++varCorrect;
  }
  if (a.varSupport) {
    a.varAcc = static_cast<double>(varCorrect) /
               static_cast<double>(a.varSupport);
  }
  return a;
}

obs::Snapshot metricsBaseline() {
  if (!obs::enabled()) return {};
  return obs::Registry::global().snapshot();
}

std::vector<std::pair<std::string, double>> metricsDelta(
    const obs::Snapshot& before) {
  std::vector<std::pair<std::string, double>> out;
  if (!obs::enabled()) return out;
  const obs::Snapshot now = obs::Registry::global().snapshot();
  std::unordered_map<std::string, uint64_t> prevCounters;
  for (const auto& c : before.counters) prevCounters[c.name] = c.value;
  std::unordered_map<std::string, int64_t> prevSums;
  for (const auto& h : before.histograms) prevSums[h.name] = h.sumFx;
  for (const auto& c : now.counters) {
    const auto it = prevCounters.find(c.name);
    const uint64_t prev = it == prevCounters.end() ? 0 : it->second;
    if (c.value != prev) {
      out.emplace_back(c.name, static_cast<double>(c.value - prev));
    }
  }
  for (const auto& h : now.histograms) {
    if (h.unit != obs::Unit::Nanoseconds) continue;
    const auto it = prevSums.find(h.name);
    const int64_t prev = it == prevSums.end() ? 0 : it->second;
    if (h.sumFx != prev) out.emplace_back(h.name, obs::fromFx(h.sumFx - prev));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cati::bench
