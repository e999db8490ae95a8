// train-fp32-micro: Engine::train (the cati-train path) on in-memory
// corpora from synth::generateCorpus with 2 apps x 8 functions each and the
// default EngineConfig. Training uses the same nn layers as inference the
// other way round (forward + backward + Adam) plus word2vec, so a forward
// kernel change that slows training shows here.
//
// The timed loop cycles over six corpora drawn from the seed until
// --seconds have passed and at least the first corpus was trained twice:
// every repeat must produce the model bytes of its corpus's first run, and
// the six models' held-out accuracy (scored outside the timed region) is
// averaged. One 2x8 corpus alone makes training time and accuracy swing with
// the seed; six of them even that out.
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "corpus/corpus.h"

namespace perfbench {

using namespace cati;

namespace {

constexpr size_t kCorpora = 6;

struct Setup {
  std::vector<corpus::Dataset> corpora;
  std::vector<TestImage> heldOut;
};

Setup setUp(const Options& opt, const EngineConfig& cfg,
            par::ThreadPool& pool) {
  Setup s;
  for (size_t c = 0; c < kCorpora; ++c) {
    const std::vector<synth::Binary> bins = synth::generateCorpus(
        2, 8, synth::Dialect::Gcc, deriveSeed(opt.seed, 0xC1 + c), &pool);
    s.corpora.push_back(corpus::extractAll(bins, cfg.window, true, &pool));
  }
  const size_t n = opt.smoke ? 2 : 12;
  s.heldOut = par::parallelMap<TestImage>(pool, n, 1, [&](size_t i) {
    const uint64_t seed = deriveSeed(opt.seed, 0x3000 + i);
    return makeImage(
        synth::defaultProfile("heldout" + std::to_string(i), seed, 8),
        i % 2 ? synth::Dialect::Clang : synth::Dialect::Gcc,
        static_cast<int>(i % 4), seed >> 16);
  });
  return s;
}

/// Forward+backward samples one Engine::train call runs: every stage trains
/// `epochs` times on the VUCs whose type path passes through it, as long as
/// no stage needs subsampling (checked).
size_t trainSamples(const corpus::Dataset& ds, const EngineConfig& cfg) {
  std::array<size_t, kNumStages> perStage{};
  for (const corpus::Vuc& v : ds.vucs) {
    const StagePath p = pathOf(v.label);
    for (int i = 0; i < p.length; ++i) {
      const auto s = static_cast<size_t>(p.stages[static_cast<size_t>(i)]);
      ++perStage[s];
    }
  }
  size_t total = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const auto classes = static_cast<size_t>(numClasses(static_cast<Stage>(s)));
    const auto hardCap = static_cast<size_t>(
        cfg.balanceMultiplier * static_cast<double>(cfg.maxTrainPerStage) /
        static_cast<double>(classes));
    if (perStage[static_cast<size_t>(s)] >
        std::min(cfg.maxTrainPerStage, hardCap)) {
      throw std::runtime_error("stage " + std::to_string(s) +
                               " would be subsampled; samples unknown");
    }
    total += perStage[static_cast<size_t>(s)];
  }
  return total * static_cast<size_t>(cfg.epochs);
}

}  // namespace

void runTrain(const Options& opt, Results& r) {
  par::ThreadPool pool(opt.jobs);
  Tracer tracer(opt.trace);
  obs::setEnabled(opt.trace);
  EngineConfig cfg;
  cfg.seed = deriveSeed(opt.seed, 0xE9);

  std::vector<double> setupMs;
  Setup s;
  for (int i = 0; i < opt.setups(); ++i) {
    const Clock::time_point t0 = Clock::now();
    s = setUp(opt, cfg, pool);
    setupMs.push_back(msSince(t0));
  }
  std::vector<size_t> samples;
  for (const corpus::Dataset& ds : s.corpora) {
    samples.push_back(trainSamples(ds, cfg));
  }

  // Timed region: training runs cycling over the corpora until --seconds
  // have passed and every corpus was trained, one of them twice.
  std::vector<double> trainMs;
  std::vector<std::vector<double>> perCorpusMs(kCorpora);
  std::vector<std::optional<Engine>> models(kCorpora);
  std::vector<std::string> firstBytes(kCorpora);
  std::vector<char> sameBytes;  ///< per run: equal to its corpus's first run
  ObsWindow loopObs;
  const Clock::time_point start = Clock::now();
  while (msSince(start) < opt.seconds * 1000.0 ||
         trainMs.size() <= kCorpora) {
    const size_t c = trainMs.size() % kCorpora;
    Engine engine(cfg);
    const Clock::time_point t0 = Clock::now();
    {
      const Tracer::Span span(tracer, "cati.train", trainMs.size() + 1);
      engine.train(s.corpora[c], &pool);
    }
    trainMs.push_back(msSince(t0));
    perCorpusMs[c].push_back(trainMs.back());
    std::ostringstream os;
    engine.save(os);
    const std::string bytes = std::move(os).str();
    if (!models[c]) {
      firstBytes[c] = bytes;
      models[c].emplace(std::move(engine));
    }
    sameBytes.push_back(bytes == firstBytes[c]);
  }
  loopObs.close();
  for (size_t i = 0; i < trainMs.size(); ++i) {
    r.check(sameBytes[i] != 0, "training run " + std::to_string(i) +
                                   ": model bytes differ from the first run "
                                   "on corpus " + std::to_string(i % kCorpora));
  }

  // Accuracy of the models on the held-out images, outside the timed region.
  obs::setEnabled(false);
  Score total;
  for (std::optional<Engine>& model : models) {
    for (const TestImage& ti : s.heldOut) {
      const auto rows =
          parseReport(analyzeFresh(*model, ti.img, &pool, opt.batch).report);
      r.check(rows.has_value(), ti.name + ": report does not parse");
      if (rows) total.add(score(*rows, ti.truth));
    }
  }
  addAccuracy(r, total);

  // One cycle over the corpora, timed by per-corpus medians: the sample
  // count does not change with the program's speed.
  std::vector<double> perCorpus;
  double cycleS = 0;
  size_t cycleSamples = 0;
  for (size_t c = 0; c < kCorpora; ++c) {
    perCorpus.push_back(median(perCorpusMs[c]));
    cycleS += perCorpus.back() / 1000.0;
    cycleSamples += samples[c];
  }
  r.add("vucs_per_s", static_cast<double>(cycleSamples) / cycleS, "1/s",
        std::to_string(cycleSamples) +
            " forward+backward samples per cycle over " +
            std::to_string(kCorpora) + " corpora (" +
            std::to_string(trainMs.size()) + " training runs)");
  r.add("requests_per_s", static_cast<double>(kCorpora) / cycleS, "1/s",
        "training runs per second");
  addLatency(r, perCorpus, "per-corpus medians");
  addSetupAndRss(r, setupMs);

  if (opt.trace) {
    addTrainMetrics(loopObs, trainMs, r);
    const std::filesystem::path path =
        std::filesystem::path(opt.workDir) / "train-model.bin";
    models[0]->saveFile(path);
    const Clock::time_point t0 = Clock::now();
    Engine loaded = Engine::loadFile(path);
    r.add("cati.model_load_ms", msSince(t0), "ms", "fp32 stream load");
    std::filesystem::remove(path);

    std::vector<const TestImage*> sample;
    for (const TestImage& ti : s.heldOut) sample.push_back(&ti);
    ObsWindow passObs;
    const Clock::time_point p0 = Clock::now();
    const LayerPass pass =
        traceLayers(loaded, sample, pool, opt.batch, tracer, 1u << 20, r);
    passObs.close();
    addObsMetrics(passObs, msSince(p0), r);
    addLayerMetrics(tracer, pass, r);
    Engine int8 = loaded.quantize();
    probeNn(loaded, int8, sample, opt.seed, r);
    tracer.write((std::filesystem::path(opt.workDir) /
                  "trace-train-fp32-micro.jsonl").string());
  }
}

}  // namespace perfbench
