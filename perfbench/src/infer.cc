// infer-fp32-cold: offline serve::analyzeImage (the cati-infer path) on a
// freshly trained and reloaded fp32 engine, one stripped image at a time,
// each with a fresh decode cache, so nothing repeats between operations.
//
// Images: each of the 12 synth::paperTestApps profiles at O0-O3, two levels
// per compiler dialect, the functions drawn from the seed. Stratifying by
// profile, level and dialect keeps the ~40x size spread between gzip and R,
// and the O0/O3 mix, the same in every run whatever the seed. Every metric is taken
// over per-image medians: the number of samples, and so the percentile the
// tail reports, does not change with the program's speed, and a partial
// last pass over the images does not tilt the mix.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "bench.h"
#include "serve/analysis.h"

namespace perfbench {

using namespace cati;

namespace {

struct Plan {
  synth::AppProfile profile;
  synth::Dialect dialect;
  int opt;
  uint64_t seed;
};

std::vector<Plan> imagePlan(const Options& opt) {
  std::vector<synth::AppProfile> apps = synth::paperTestApps();
  std::vector<int> opts = {0, 1, 2, 3};
  if (opt.smoke) {
    apps = {apps[5], apps[10]};  // gzip, sed: the two smallest
    opts = {2};
  }
  std::vector<Plan> plan;
  for (size_t a = 0; a < apps.size(); ++a) {
    // Every profile at every optimization level, alternating dialects.
    for (size_t o = 0; o < opts.size(); ++o) {
      plan.push_back({apps[a],
                      (a + o) % 2 ? synth::Dialect::Clang : synth::Dialect::Gcc,
                      opts[o], deriveSeed(opt.seed, 0x200 + a * 8 + o)});
    }
  }
  return plan;
}

struct Setup {
  std::filesystem::path model;  ///< the saved model, kept for the checks
  std::optional<Engine> engine;
  std::vector<TestImage> images;
  double trainMs = 0;
  double loadMs = 0;
};

Setup setUp(const Options& opt, par::ThreadPool& pool, Tracer& tracer) {
  Setup s;
  Clock::time_point t0 = Clock::now();
  Engine trained = [&] {
    const Tracer::Span span(tracer, "setup.train", 0);
    return trainModel(opt.seed, pool);
  }();
  s.trainMs = msSince(t0);
  s.model = std::filesystem::path(opt.workDir) / "infer-model.bin";
  trained.saveFile(s.model);
  t0 = Clock::now();
  s.engine.emplace(Engine::loadFile(s.model));
  s.loadMs = msSince(t0);

  const std::vector<Plan> plan = imagePlan(opt);
  s.images = par::parallelMap<TestImage>(pool, plan.size(), 1, [&](size_t i) {
    return makeImage(plan[i].profile, plan[i].dialect, plan[i].opt,
                     plan[i].seed);
  });
  // Warm-up: worker scratch arenas grow on the first predict.
  const TestImage warm =
      makeImage(synth::defaultProfile("warmup", deriveSeed(opt.seed, 0x300), 4),
                synth::Dialect::Gcc, 2, deriveSeed(opt.seed, 0x301));
  (void)analyzeFresh(*s.engine, warm.img, &pool, opt.batch);
  return s;
}

}  // namespace

void runInfer(const Options& opt, Results& r) {
  par::ThreadPool pool(opt.jobs);
  Tracer tracer(opt.trace);
  obs::setEnabled(opt.trace);

  std::vector<double> setupMs;
  Setup s;
  ObsWindow setupObs;
  for (int i = 0; i < opt.setups(); ++i) {
    const Clock::time_point t0 = Clock::now();
    s = setUp(opt, pool, tracer);
    setupMs.push_back(msSince(t0));
  }
  setupObs.close();
  Engine& engine = *s.engine;
  const size_t n = s.images.size();

  // Timed region: shuffled passes over the images until --seconds have
  // passed and every image ran twice; a single run of an image is at the
  // mercy of the machine's hiccups.
  std::vector<std::vector<double>> latMs(n);
  std::vector<std::string> reports(n);
  std::vector<size_t> mismatches(n, 0);
  std::mt19937_64 order(deriveSeed(opt.seed, 0x400));
  std::vector<size_t> idx(n);
  ObsWindow loopObs;
  const Clock::time_point start = Clock::now();
  size_t ops = 0;
  bool done = false;
  while (!done) {
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    std::shuffle(idx.begin(), idx.end(), order);
    for (const size_t i : idx) {
      const Clock::time_point t0 = Clock::now();
      serve::AnalyzeResult res;
      {
        const Tracer::Span span(tracer, "infer.analyze_image", ops + 1);
        res = analyzeFresh(engine, s.images[i].img, &pool, opt.batch);
      }
      latMs[i].push_back(msSince(t0));
      ++ops;
      if (latMs[i].size() == 1) {
        reports[i] = std::move(res.report);
      } else if (res.report != reports[i]) {
        ++mismatches[i];
      }
      if (msSince(start) >= opt.seconds * 1000.0 &&
          std::all_of(latMs.begin(), latMs.end(),
                      [](const auto& v) { return v.size() >= 2; })) {
        done = true;
        break;
      }
    }
  }
  const double wallMs = msSince(start);
  loopObs.close();

  // Checks, outside the timed region.
  Score total;
  size_t vucs = 0;
  std::vector<double> perImage;
  for (size_t i = 0; i < n; ++i) {
    const TestImage& ti = s.images[i];
    r.check(mismatches[i] == 0,
            ti.name + ": " + std::to_string(mismatches[i]) +
                " repeat(s) differ from the first report");
    const auto rows = parseReport(reports[i]);
    r.check(rows.has_value(), ti.name + ": report does not parse");
    if (rows) {
      const Score sc = score(*rows, ti.truth);
      total.add(sc);
      vucs += sc.vucs;
    }
    perImage.push_back(median(latMs[i]));
  }
  if (!opt.trace) {
    // Each report must equal its traced twin: the same analysis with obs
    // on, here on one engine per thread loaded from the same model file
    // (reports are identical at any job count).
    obs::setEnabled(true);
    std::vector<char> same(n, 0);
    std::vector<std::thread> twins;
    for (int t = 0; t < opt.jobs; ++t) {
      twins.emplace_back([&, t] {
        try {
          Engine twin = Engine::loadFile(s.model);
          for (size_t i = static_cast<size_t>(t); i < n;
               i += static_cast<size_t>(opt.jobs)) {
            same[i] = analyzeFresh(twin, s.images[i].img, nullptr, opt.batch)
                          .report == reports[i];
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: twin %d: %s\n", t, e.what());
        }
      });
    }
    for (std::thread& t : twins) t.join();
    obs::setEnabled(false);
    for (size_t i = 0; i < n; ++i) {
      r.check(same[i] != 0, s.images[i].name + ": traced twin differs");
    }
  }
  addAccuracy(r, total);

  // One pass over the image set, timed by per-image medians.
  double passS = 0;
  for (const double ms : perImage) passS += ms / 1000.0;
  r.add("vucs_per_s", static_cast<double>(vucs) / passS, "1/s",
        std::to_string(vucs) + " VUCs typed per pass over " +
            std::to_string(n) + " images (" + std::to_string(ops) +
            " analyses in " + std::to_string(wallMs / 1000.0) + " s)");
  r.add("requests_per_s", static_cast<double>(n) / passS, "1/s",
        "images analyzed per second");
  addLatency(r, perImage, "per-image medians");
  addSetupAndRss(r, setupMs);

  if (opt.trace) {
    addObsMetrics(loopObs, wallMs, r);
    addTrainMetrics(setupObs, {s.trainMs}, r);
    r.add("cati.model_load_ms", s.loadMs, "ms", "fp32 stream load");
    // Every fifth image for the layer replay: ten profiles, all levels.
    std::vector<const TestImage*> sample;
    for (size_t i = 0; i < n; i += 5) sample.push_back(&s.images[i]);
    const LayerPass pass =
        traceLayers(engine, sample, pool, opt.batch, tracer, 1u << 20, r);
    addLayerMetrics(tracer, pass, r);
    Engine int8 = engine.quantize();
    probeNn(engine, int8, sample, opt.seed, r);
    tracer.write((std::filesystem::path(opt.workDir) /
                  "trace-infer-fp32-cold.jsonl").string());
  }
  std::filesystem::remove(s.model);
}

}  // namespace perfbench
