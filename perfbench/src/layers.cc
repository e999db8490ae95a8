// The traced layer pass and the nn probes. The replay below runs the
// cati-infer pipeline through each layer's public entry point in the order
// serve::analyzeImage runs it today — loader::disassemble, then
// dataflow::recoverVariables on every loader graph, then per function
// Engine::prepareFunction, Engine::predictVucs and Engine::finishFunction —
// with one span per call, and renders the report itself so the result can
// be checked byte for byte against the program's own report.
#include <cstdarg>
#include <cstdio>
#include <random>

#include "bench.h"
#include "corpus/corpus.h"
#include "dataflow/recovery.h"
#include "nn/nn.h"
#include "serve/analysis.h"

namespace perfbench {

using namespace cati;

namespace {

__attribute__((format(printf, 2, 3))) void appendf(std::string& out,
                                                   const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
}

/// The replay; returns the rendered report and adds the image's VUC count.
std::string replayImage(Engine& engine, const loader::Image& img,
                        par::ThreadPool& pool, int batch, Tracer& tracer,
                        uint64_t id, size_t& vucs) {
  DiagList diags;
  loader::DecodeCache cache;
  std::vector<loader::LoadedFunction> fns;
  {
    const Tracer::Span span(tracer, "loader.disassemble", id);
    fns = loader::disassemble(img, diags, pool, cache);
  }
  std::vector<dataflow::RecoveryResult> recs(fns.size());
  {
    const Tracer::Span span(tracer, "dataflow.recover", id);
    for (size_t i = 0; i < fns.size(); ++i) {
      recs[i] = fns[i].graph != nullptr
                    ? dataflow::recoverVariables(*fns[i].graph)
                    : dataflow::recoverVariables(fns[i].insns);
    }
  }
  std::string report;
  size_t typed = 0;
  for (size_t i = 0; i < fns.size(); ++i) {
    Engine::FunctionWork work;
    {
      const Tracer::Span span(tracer, "corpus.extract", id);
      work = engine.prepareFunction(fns[i].insns, std::move(recs[i]));
    }
    vucs += work.ds.vucs.size();
    std::vector<StageProbs> probs;
    {
      const Tracer::Span span(tracer, "cati.predict", id);
      probs = engine.predictVucs(work.ds.vucs, &pool, batch);
    }
    const Tracer::Span span(tracer, "cati.finish", id);
    const std::vector<AnalyzedVariable> vars =
        engine.finishFunction(work, probs, &diags);
    if (vars.empty()) continue;
    appendf(report, "%s:\n", fns[i].name.c_str());
    for (const AnalyzedVariable& av : vars) {
      ++typed;
      appendf(report, "  %s%+-6lld %-22s conf %.2f  (%zu VUCs)   \n",
              av.location.rbpFrame ? "rbp" : "rsp",
              static_cast<long long>(av.location.offset),
              std::string(typeName(av.type)).c_str(), av.confidence,
              av.numVucs);
    }
  }
  appendf(report, "\n%zu variables typed\n", typed);
  return report;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Repeats `fn` until at least `minMs` have passed; returns ms per call.
template <typename Fn>
double timePerCall(double minMs, Fn&& fn) {
  size_t reps = 0;
  const Clock::time_point t0 = Clock::now();
  double ms = 0;
  do {
    fn();
    ++reps;
    ms = msSince(t0);
  } while (ms < minMs);
  return ms / static_cast<double>(reps);
}

}  // namespace

serve::AnalyzeResult analyzeFresh(Engine& engine, const loader::Image& img,
                                  par::ThreadPool* pool, int batch) {
  loader::DecodeCache cache;
  serve::AnalyzeOptions o;
  o.cache = &cache;
  return serve::analyzeImage(engine, img, pool, batch, o);
}

LayerPass traceLayers(Engine& engine,
                      const std::vector<const TestImage*>& images,
                      par::ThreadPool& pool, int batch, Tracer& tracer,
                      uint64_t traceBase, Results& r) {
  LayerPass pass;
  for (size_t i = 0; i < images.size(); ++i) {
    const TestImage& ti = *images[i];
    const uint64_t id = traceBase + i;
    // An untimed first run, so no variant pays the image's first touch.
    obs::setEnabled(false);
    const std::string plain = analyzeFresh(engine, ti.img, &pool, batch).report;
    // Two rounds in opposite orders, so drift of the machine's speed while
    // one image is measured cancels out of the comparison.
    for (int round = 0; round < 2; ++round) {
      for (int step = 0; step < 3; ++step) {
        const Clock::time_point t0 = Clock::now();
        switch (round == 0 ? step : 2 - step) {
          case 0:
            obs::setEnabled(false);
            (void)analyzeFresh(engine, ti.img, &pool, batch);
            pass.untracedMs += msSince(t0);
            break;
          case 1: {
            obs::setEnabled(true);
            const Tracer::Span span(tracer, "twin.analyze_image", id);
            r.check(analyzeFresh(engine, ti.img, &pool, batch).report == plain,
                    "traced twin of " + ti.name + " differs from analyzeImage");
            pass.twinMs += msSince(t0);
            break;
          }
          default: {
            obs::setEnabled(true);
            const Tracer::Span span(tracer, "replay.image", id);
            r.check(replayImage(engine, ti.img, pool, batch, tracer, id,
                                pass.vucs) == plain,
                    "layer replay of " + ti.name + " differs from analyzeImage");
            ++pass.replays;
          }
        }
      }
    }
  }
  return pass;
}

void addLayerMetrics(const Tracer& tracer, const LayerPass& pass,
                     Results& r) {
  const std::map<std::string, double> self = tracer.selfMs();
  const auto selfMs = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double ops = static_cast<double>(std::max<size_t>(1, pass.replays));
  const std::string per = "self ms per image, " +
                          std::to_string(pass.replays) + " replays";
  double layers = 0;
  for (const auto& [span, metric] :
       {std::pair{"loader.disassemble", "loader.disassemble_ms"},
        std::pair{"dataflow.recover", "dataflow.recover_ms"},
        std::pair{"corpus.extract", "corpus.extract_ms"},
        std::pair{"cati.predict", "cati.predict_ms"},
        std::pair{"cati.finish", "cati.finish_ms"}}) {
    layers += selfMs(span);
    r.add(metric, selfMs(span) / ops, "ms", per);
  }
  r.add("trace.replay_glue_ms", selfMs("replay.image") / ops, "ms",
        "replay time outside every layer span, per image");
  r.add("corpus.vucs_per_op", static_cast<double>(pass.vucs) / ops, "count",
        "VUCs extracted per image");
  r.add("trace.coverage_ratio", ratio(layers, pass.untracedMs), "ratio",
        "layer self time / untraced analyzeImage wall, same images");
  r.add("trace.overhead_ratio",
        ratio(pass.twinMs - pass.untracedMs, pass.untracedMs), "ratio",
        "(traced - untraced analyzeImage wall) / untraced");
}

void addObsMetrics(const ObsWindow& w, double wallMs, Results& r) {
  const auto c = [&w](const char* n) {
    return static_cast<double>(w.counter(n));
  };
  r.add("cati.vucs_per_predict_call",
        ratio(c("engine.infer.vucs"),
              static_cast<double>(w.count("engine.infer.batch_ns"))),
        "count", "obs engine.infer.vucs per predictVucs call");
  r.add("cati.vote_clipped_ratio",
        ratio(c("engine.vote.clipped"), c("engine.vote.vucs") * kNumStages),
        "ratio", "clipped votes / (VUC votes x stages)");
  r.add("loader.cache_hit_ratio",
        ratio(c("loader.cache.hits"),
              c("loader.cache.hits") + c("loader.cache.misses")),
        "ratio", "decode-cache hits / lookups");
  r.add("serve.result_cache_hit_ratio",
        ratio(c("serve.cache.hits"),
              c("serve.cache.hits") + c("serve.cache.misses")),
        "ratio", "result-cache hits / lookups");
  r.add("serve.group_size_mean",
        ratio(c("serve.grouped_requests"), c("serve.groups")), "count",
        "requests per batch-loop group");
  r.add("serve.coalesced_vucs_per_group",
        ratio(c("serve.coalesced_vucs"), c("serve.groups")), "count",
        "VUCs per batch-loop group");
  r.add("serve.batch_busy_ratio", ratio(w.sum("serve.batch_ns") / 1e6, wallMs),
        "ratio", "batch-loop busy time / wall");
}

void addTrainMetrics(const ObsWindow& w, std::vector<double> trainMs,
                     Results& r) {
  r.add("cati.train_s", median(trainMs) / 1000.0, "s",
        "Engine::train span, median of " + std::to_string(trainMs.size()));
  const double runs = static_cast<double>(std::max<size_t>(1, trainMs.size()));
  r.add("embed.w2v_s", w.sum("w2v.train_ns") / 1e9 / runs, "s",
        "obs w2v.train_ns per training run");
  r.add("cati.train_batch_ms",
        ratio(w.sum("engine.train.batch_ns") / 1e6,
              static_cast<double>(w.count("engine.train.batch_ns"))),
        "ms", "obs engine.train.batch_ns per minibatch");
}

void probeNn(Engine& fp32, Engine& int8,
             const std::vector<const TestImage*>& images, uint64_t seed,
             Results& r) {
  const EngineConfig& cfg = fp32.config();
  const nn::Shape in{3 * cfg.w2v.dim, 2 * cfg.window + 1};
  constexpr int kBatch = 32;
  constexpr double kMinMs = 150;

  // MACs per layer from the shapes of makeCnn nets like the engine's.
  struct LayerMacs {
    const nn::Layer* layer;
    nn::Shape in;
    double macs;
  };
  const auto macsOf = [&in](const nn::Sequential& net) {
    std::vector<LayerMacs> out;
    nn::Shape s = in;
    for (size_t i = 0; i < net.numLayers(); ++i) {
      const nn::Layer& l = net.layer(i);
      const nn::Shape o = l.outShape(s);
      double macs = 0;
      if (const auto* c = dynamic_cast<const nn::Conv1d*>(&l)) {
        macs = static_cast<double>(c->inC()) * c->outC() * c->kernel() * o.l;
      } else if (const auto* f = dynamic_cast<const nn::Linear*>(&l)) {
        macs = static_cast<double>(f->inF()) * f->outF();
      }
      out.push_back({&l, s, macs});
      s = o;
    }
    return out;
  };
  Rng rng(deriveSeed(seed, 0x99));
  double macsPerVuc = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const nn::Sequential net =
        nn::makeCnn(in, cfg.conv1, cfg.conv2, cfg.fcHidden,
                    numClasses(static_cast<Stage>(s)), cfg.dropout, rng);
    for (const LayerMacs& l : macsOf(net)) macsPerVuc += l.macs;
  }
  r.add("nn.macs_per_vuc", macsPerVuc, "count",
        "multiply-adds of the six stage nets per VUC, from layer shapes");

  // Per-layer forward rate on the Stage 1 net at batch 32.
  nn::Sequential net = nn::makeCnn(in, cfg.conv1, cfg.conv2, cfg.fcHidden,
                                   numClasses(Stage::S1), cfg.dropout, rng);
  std::mt19937_64 gen(deriveSeed(seed, 0x9A));
  std::uniform_real_distribution<float> uni(-1.0F, 1.0F);
  std::vector<float> x(static_cast<size_t>(kBatch * in.size()));
  for (float& v : x) v = uni(gen);
  const std::vector<LayerMacs> layers = macsOf(net);
  std::vector<std::vector<float>> acts{x};
  std::vector<nn::LayerScratch> scratch(layers.size());
  for (size_t i = 0; i < layers.size(); ++i) {
    const nn::Shape o = layers[i].layer->outShape(layers[i].in);
    acts.emplace_back(static_cast<size_t>(kBatch * o.size()));
    layers[i].layer->forward(acts[i], acts[i + 1], kBatch, scratch[i],
                             nn::Phase::kInfer);
  }
  const char* names[] = {"nn.fp32.conv1_gmacs", "nn.fp32.conv2_gmacs",
                         "nn.fp32.fc1_gmacs", "nn.fp32.fc2_gmacs"};
  size_t next = 0;
  double forwardMacs = 0;
  for (size_t i = 0; i < layers.size(); ++i) {
    forwardMacs += layers[i].macs;
    if (layers[i].macs == 0 || next == std::size(names)) continue;
    const double ms = timePerCall(kMinMs, [&] {
      layers[i].layer->forward(acts[i], acts[i + 1], kBatch, scratch[i],
                               nn::Phase::kInfer);
    });
    r.add(names[next++], layers[i].macs * kBatch / (ms * 1e6), "GMAC/s",
          "forward at batch 32, one thread");
  }

  nn::Scratch ts = net.makeScratch();
  net.forward(x, kBatch, ts, nn::Phase::kTrain);
  std::vector<float> dOut(
      static_cast<size_t>(kBatch * net.outShape().size()), 0.01F);
  const double backMs =
      timePerCall(kMinMs, [&] { net.backward(dOut, kBatch, ts); });
  r.add("nn.fp32.backward_gmacs", 2 * forwardMacs * kBatch / (backMs * 1e6),
        "GMAC/s", "backward at batch 32 counted as 2x forward MACs");

  // predictVucs rates on the workload's own VUCs, one job.
  std::vector<corpus::Vuc> vucs;
  par::ThreadPool one(1);
  for (const TestImage* ti : images) {
    DiagList diags;
    for (const loader::LoadedFunction& fn :
         loader::disassemble(ti->img, diags, one)) {
      Engine::FunctionWork w = fp32.prepareFunction(
          fn.insns, dataflow::recoverVariables(*fn.graph));
      vucs.insert(vucs.end(), w.ds.vucs.begin(), w.ds.vucs.end());
    }
    if (vucs.size() >= 256) break;
  }
  vucs.resize(std::min<size_t>(vucs.size(), 256));
  for (auto [engine, tier] : {std::pair{&fp32, "fp32"}, {&int8, "int8"}}) {
    for (const int batch : {1, 32}) {
      const double ms = timePerCall(
          kMinMs, [&] { (void)engine->predictVucs(vucs, &one, batch); });
      r.add("nn." + std::string(tier) + ".batch" + std::to_string(batch) +
                "_vucs_per_s",
            static_cast<double>(vucs.size()) / (ms / 1000.0), "1/s",
            "predictVucs, one job, " + std::to_string(vucs.size()) + " VUCs");
    }
  }
}

}  // namespace perfbench
