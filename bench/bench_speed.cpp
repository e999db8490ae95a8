// Reproduces the §VII "Training and Inference Speed" measurements with
// google-benchmark:
//   * per-binary end-to-end analysis (disassembled stream -> recovered,
//     typed variables) — the paper's "about 6 seconds per binary";
//   * VUC extraction throughput;
//   * per-VUC prediction latency (all six stages);
//   * per-variable voting latency;
//   * per-stage training-step throughput;
//   * serial-vs-parallel throughput of the pooled paths (corpus generation,
//     batched prediction, recovering disassembly, end-to-end training) at
//     jobs ∈ {1, 2, 4} — outputs are bit-identical at every job count
//     (DESIGN.md §7), so these measure pure scheduling overhead/speedup.
// Absolute numbers differ from the paper (CPU vs their GTX 1070), but the
// per-binary total should remain interactive (single-digit seconds).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <system_error>

#include <sstream>

#include "common/cpu.h"
#include "common/parallel.h"
#include "corpus/sharded.h"
#include "harness/harness.h"
#include "ir/ir.h"
#include "loader/image.h"
#include "nn/kernels.h"
#include "serve/analysis.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

using namespace cati;

bench::Bundle& bundle() { return bench::sharedBundle(); }

// With CATI_METRICS=1 the instrumented pipeline attributes each end-to-end
// row to its stages: every nonzero metric delta over the measured region
// becomes a per-iteration counter column (so BENCH_*.json carries
// engine.train.stage_ns.*, engine.infer.samples.*, …). Without the env var
// this is a no-op and the rows measure the uninstrumented-cost path.
void exportMetricsColumns(benchmark::State& state,
                          const obs::Snapshot& base) {
  for (const auto& [name, value] : bench::metricsDelta(base)) {
    state.counters[name] =
        benchmark::Counter(value, benchmark::Counter::kAvgIterations);
  }
}

synth::Binary testBinary() {
  return synth::generateBinary(synth::defaultProfile("speed", 0x99, 24),
                               synth::Dialect::Gcc, 2, 0x5eed);
}

void BM_ExtractVucs(benchmark::State& state) {
  const synth::Binary bin = testBinary();
  size_t vucs = 0;
  for (auto _ : state) {
    const corpus::Dataset ds = corpus::extractGroundTruth(bin, 10);
    vucs = ds.vucs.size();
    benchmark::DoNotOptimize(ds);
  }
  state.counters["vucs_per_binary"] = static_cast<double>(vucs);
}
BENCHMARK(BM_ExtractVucs)->Unit(benchmark::kMillisecond);

void BM_PredictVuc(benchmark::State& state) {
  Engine& e = bundle().engine();
  const corpus::Dataset& test = bundle().testSet();
  size_t i = 0;
  for (auto _ : state) {
    const StageProbs p = e.predictVuc(test.vucs[i % test.vucs.size()]);
    benchmark::DoNotOptimize(p);
    ++i;
  }
}
BENCHMARK(BM_PredictVuc)->Unit(benchmark::kMicrosecond);

void BM_VoteVariable(benchmark::State& state) {
  Engine& e = bundle().engine();
  const corpus::Dataset& test = bundle().testSet();
  std::vector<StageProbs> probs;
  for (size_t i = 0; i < 8; ++i) probs.push_back(e.predictVuc(test.vucs[i]));
  for (auto _ : state) {
    const VariableDecision d = e.voteVariable(probs);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_VoteVariable)->Unit(benchmark::kMicrosecond);

void BM_AnalyzeBinaryEndToEnd(benchmark::State& state) {
  // The headline number: one stripped binary image through cati-infer's
  // serve::analyzeImage — disassembly, variable recovery, VUC extraction,
  // six-stage prediction, voting and the rendered report.
  Engine& e = bundle().engine();
  const synth::Binary bin = testBinary();
  loader::Image img = loader::buildImage(bin);
  loader::strip(img);
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    const serve::AnalyzeResult res = serve::analyzeImage(e, img, nullptr);
    benchmark::DoNotOptimize(res);
  }
  exportMetricsColumns(state, base);
  state.counters["instructions"] =
      static_cast<double>(bin.totalInstructions());
}
BENCHMARK(BM_AnalyzeBinaryEndToEnd)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

void BM_TrainStep(benchmark::State& state) {
  // One batch-1 forward+backward+update on the Stage-1 architecture, as the
  // trainer runs a chunk: zero the Adam slab, backward straight into it.
  Rng rng(1);
  nn::Sequential net = nn::makeCnn({96, 21}, 32, 64, 128, 2, 0.3F, rng);
  nn::Adam adam(net.params(), {.lr = 1e-3F});
  nn::Scratch s = net.makeScratch();
  par::ThreadPool pool(1);
  std::vector<float> x(96 * 21);
  for (float& v : x) v = rng.normal() * 0.3F;
  std::vector<float> probs(2);
  std::vector<float> d(2);
  std::vector<float> grads(adam.numParams());
  for (auto _ : state) {
    std::ranges::fill(grads, 0.0F);
    const auto logits = net.forward(x, 1, s, nn::Phase::kTrain);
    nn::SoftmaxCE::forward(logits, 1, probs);
    nn::SoftmaxCE::backward(probs, 1, d);
    net.backward(d, 1, s, grads);
    adam.step(grads, 1.0F, pool);
    benchmark::DoNotOptimize(probs);
  }
}
BENCHMARK(BM_TrainStep)->Unit(benchmark::kMicrosecond);

void BM_VariableRecovery(benchmark::State& state) {
  const synth::Binary bin = testBinary();
  for (auto _ : state) {
    for (const synth::FunctionCode& fn : bin.funcs) {
      const auto r = dataflow::recoverVariables(fn.insns);
      benchmark::DoNotOptimize(r);
    }
  }
}
BENCHMARK(BM_VariableRecovery)->Unit(benchmark::kMillisecond);

void BM_LowerIr(benchmark::State& state) {
  // IR lowering throughput: instruction stream -> typed ops, basic blocks,
  // CFG edges. This is the per-miss cost the decode cache amortizes;
  // items_per_second counts source instructions.
  const synth::Binary bin = testBinary();
  size_t insns = 0;
  for (auto _ : state) {
    insns = 0;
    for (const synth::FunctionCode& fn : bin.funcs) {
      ir::FunctionGraph g = ir::lower(fn.insns);
      insns += fn.insns.size();
      benchmark::DoNotOptimize(g);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(insns) * state.iterations());
}
BENCHMARK(BM_LowerIr)->Unit(benchmark::kMillisecond);

void BM_AnalyzeWarmCache(benchmark::State& state) {
  // The decode-cache lever on the loader front half: arg 0 (cold) clears
  // the cache before every iteration so every boundary misses and pays
  // decode + lowering; arg 1 (warm) primes it once so every boundary hits.
  // The cold/warm delta is what a cati-serve batch loop saves on repeat
  // binaries. cache_hit_rate reports the cache's own counters; with
  // CATI_METRICS=1 the rows also carry loader.cache.hits/misses columns.
  loader::Image img = loader::buildImage(testBinary());
  loader::strip(img);
  par::ThreadPool pool(1);
  loader::DecodeCache cache;
  const bool warm = state.range(0) != 0;
  if (warm) {
    DiagList prime;
    benchmark::DoNotOptimize(loader::disassemble(img, prime, pool, cache));
  }
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      cache.clear();
      state.ResumeTiming();
    }
    DiagList diags;
    const auto out = loader::disassemble(img, diags, pool, cache);
    benchmark::DoNotOptimize(out);
  }
  exportMetricsColumns(state, base);
  const loader::DecodeCache::Stats cs = cache.stats();
  const double lookups = static_cast<double>(cs.hits + cs.misses);
  state.counters["cache_hit_rate"] =
      lookups > 0 ? static_cast<double>(cs.hits) / lookups : 0.0;
  state.counters["cache_entries"] = static_cast<double>(cs.entries);
}
BENCHMARK(BM_AnalyzeWarmCache)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// --- serial vs parallel (--jobs) ------------------------------------------
// Each benchmark takes the job count as its argument; compare the /1 row
// (serial) against /2 and /4 for the speedup table in README.md. On a
// 1-core machine the parallel rows measure pool overhead, not speedup.

void BM_GenerateCorpusJobs(benchmark::State& state) {
  par::ThreadPool pool(static_cast<int>(state.range(0)));
  size_t bins = 0;
  for (auto _ : state) {
    const auto out =
        synth::generateCorpus(4, 12, synth::Dialect::Gcc, 0x5eed, &pool);
    bins = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["binaries"] = static_cast<double>(bins);
  state.SetItemsProcessed(static_cast<int64_t>(bins) * state.iterations());
}
BENCHMARK(BM_GenerateCorpusJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_PredictBatchJobs(benchmark::State& state) {
  Engine& e = bundle().engine();
  const corpus::Dataset& test = bundle().testSet();
  par::ThreadPool pool(static_cast<int>(state.range(0)));
  const size_t n = std::min<size_t>(test.vucs.size(), 256);
  const std::span<const corpus::Vuc> batch(test.vucs.data(), n);
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    const auto out = e.predictVucs(batch, &pool);
    benchmark::DoNotOptimize(out);
  }
  exportMetricsColumns(state, base);
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PredictBatchJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The first prediction chunk cati-infer forms on the speed binary, stripped:
/// whole functions through Engine::prepareFunction until serve::kChunkInsns
/// instructions, as serve::ImageAnalysis cuts them — once as the chunk
/// stream, once as the VUCs' own windows.
struct Chunk {
  ChunkStream stream;
  std::vector<corpus::Vuc> windows;
};

Chunk speedChunk(Engine& e) {
  loader::Image img = loader::buildImage(testBinary());
  loader::strip(img);
  DiagList diags;
  Chunk chunk;
  size_t insns = 0;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    if (insns >= serve::kChunkInsns) break;
    insns += fn.insns.size();
    Engine::FunctionWork w =
        e.prepareFunction(fn.insns, dataflow::recoverVariables(fn.insns));
    chunk.stream.append(w.stream);
    chunk.windows.insert(chunk.windows.end(), w.ds.vucs.begin(),
                         w.ds.vucs.end());
  }
  return chunk;
}

void BM_PredictChunk(benchmark::State& state) {
  // One real cati-infer chunk at jobs=1, through the
  // window adapter (/0: predictVucs, window adapter = one-VUC functions),
  // the chunk stream (/1: predictStream, conv1 once per stream row,
  // DESIGN.md §7), or the chunk stream by route (/2: StagePlan::kRouted,
  // what cati-infer runs: Stage 1 on every VUC, then only the stages each
  // variable's votes lead to). /0 and /1 give bit-identical probabilities,
  // /2 the same on every VUC's path; items_per_second is VUC/s,
  // conv1_cols_per_vuc the engine.infer.conv1_cols one predict adds per VUC
  // and stage_evals_per_vuc its engine.infer.samples.* (6 unless routed).
  Engine& e = bundle().engine();
  const Chunk chunk = speedChunk(e);
  par::ThreadPool pool(1);
  const int mode = static_cast<int>(state.range(0));
  const auto predict = [&] {
    switch (mode) {
      case 0:
        return e.predictVucs(chunk.windows, &pool);
      case 1:
        return e.predictStream(chunk.stream, &pool);
      default:
        return e.predictStream(chunk.stream, &pool, StagePlan::kRouted);
    }
  };
  const bool wasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::Counter& cols = obs::counter("engine.infer.conv1_cols");
  const auto samples = [] {
    uint64_t total = 0;
    for (int s = 0; s < kNumStages; ++s) {
      total += obs::counter("engine.infer.samples." +
                            std::string(stageName(static_cast<Stage>(s))))
                   .value();
    }
    return total;
  };
  const uint64_t cols0 = cols.value();
  const uint64_t samples0 = samples();
  (void)predict();
  const auto vucs = static_cast<double>(chunk.windows.size());
  state.counters["conv1_cols_per_vuc"] =
      static_cast<double>(cols.value() - cols0) / vucs;
  state.counters["stage_evals_per_vuc"] =
      static_cast<double>(samples() - samples0) / vucs;
  obs::setEnabled(wasEnabled);
  for (auto _ : state) {
    const auto out = predict();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(chunk.windows.size()) *
                          state.iterations());
}
BENCHMARK(BM_PredictChunk)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

Engine& quantEngine() {
  static Engine q = bundle().engine().quantize();
  return q;
}

void BM_PredictQuant(benchmark::State& state) {
  // The int8 twin of BM_PredictBatchJobs/1: same VUCs, same jobs=1
  // isolation, quantized engine. items_per_second against that row is the
  // quantization speedup; accuracy cost is gated at <=0.5pp by
  // bench_table6_accuracy and test_quant.
  Engine& e = quantEngine();
  const corpus::Dataset& test = bundle().testSet();
  par::ThreadPool pool(1);
  const size_t n = std::min<size_t>(test.vucs.size(), 256);
  const std::span<const corpus::Vuc> vucs(test.vucs.data(), n);
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    const auto out = e.predictVucs(vucs, &pool);
    benchmark::DoNotOptimize(out);
  }
  exportMetricsColumns(state, base);
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
}
BENCHMARK(BM_PredictQuant)->Unit(benchmark::kMillisecond);

// One layer of a Stage 1 net shaped like the engine's (makeCnn with the
// default EngineConfig), forward at batch 32 on one thread, input = the
// previous layer's output on uniform [-1, 1) samples. GMAC/s counts the
// layer's multiply-adds, so the rows read as a per-layer ledger of the fp32
// forward (pooling and ReLU rows report time only).
struct StageLayers {
  static constexpr int kBatch = 32;
  nn::Sequential net;
  std::vector<std::vector<float>> acts;  // acts[i] = input of layer i
  std::vector<double> macs;              // per sample
  std::vector<std::string> names;

  StageLayers() : net(makeNet()) {
    nn::Shape s = net.inShape();
    acts.emplace_back(static_cast<size_t>(kBatch) * s.size());
    Rng rng(0x1A7E);
    for (float& v : acts.back()) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    int conv = 0, fc = 0, pool = 0, relu = 0;
    for (size_t i = 0; i < net.numLayers(); ++i) {
      const nn::Layer& l = net.layer(i);
      const nn::Shape o = l.outShape(s);
      double m = 0;
      std::string name = l.kind();
      if (const auto* c = dynamic_cast<const nn::Conv1d*>(&l)) {
        m = static_cast<double>(c->inC()) * c->outC() * c->kernel() * o.l;
        name = "conv" + std::to_string(++conv);
      } else if (const auto* f = dynamic_cast<const nn::Linear*>(&l)) {
        m = static_cast<double>(f->inF()) * f->outF();
        name = "fc" + std::to_string(++fc);
      } else if (name == "maxpool1d") {
        name = "pool" + std::to_string(++pool);
      } else if (name == "relu") {
        name = "relu" + std::to_string(++relu);
      }
      macs.push_back(m);
      names.push_back(name);
      nn::LayerScratch ls;
      acts.emplace_back(static_cast<size_t>(kBatch) * o.size());
      l.forward(acts[i], acts[i + 1], kBatch, ls, nn::Phase::kInfer);
      s = o;
    }
  }

  static nn::Sequential makeNet() {
    const EngineConfig cfg;
    Rng rng(0x57A6E);
    return nn::makeCnn({3 * cfg.w2v.dim, 2 * cfg.window + 1}, cfg.conv1,
                       cfg.conv2, cfg.fcHidden, numClasses(Stage::S1),
                       cfg.dropout, rng);
  }
};

StageLayers& stageLayers() {
  static StageLayers s;
  return s;
}

void BM_StageLayerForward(benchmark::State& state, size_t i) {
  StageLayers& st = stageLayers();
  const nn::Layer& l = st.net.layer(i);
  nn::LayerScratch ls;
  std::vector<float>& out = st.acts[i + 1];
  for (auto _ : state) {
    l.forward(st.acts[i], out, StageLayers::kBatch, ls, nn::Phase::kInfer);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(StageLayers::kBatch * state.iterations());
  if (st.macs[i] > 0) {
    state.counters["GMAC/s"] = benchmark::Counter(
        st.macs[i] * StageLayers::kBatch * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  }
}

// The same Stage 1 net after its conv1 (relu1 through fc2) at 32 samples,
// as the shared-prefix predict runs it once conv1 ran on the stream: four
// lane groups, each lane-major from its conv1 columns to its logits
// (Sequential::forwardLanes). Compare with the sum of the
// BM_StageLayerForward rows from relu1 on, which pack and unpack around
// every conv and linear layer.
void BM_StageNetLanes(benchmark::State& state) {
  constexpr size_t kFirst = 1;
  constexpr int kGroups = StageLayers::kBatch / nn::kBatchLane;
  StageLayers& st = stageLayers();
  const std::vector<float>& in = st.acts[kFirst];
  const size_t inSize = in.size() / StageLayers::kBatch;
  std::vector<float> packs(in.size());
  for (size_t k = 0; k < StageLayers::kBatch; ++k) {
    float* pack = packs.data() + k / nn::kBatchLane * inSize * nn::kBatchLane;
    for (size_t i = 0; i < inSize; ++i) {
      pack[i * nn::kBatchLane + k % nn::kBatchLane] = in[k * inSize + i];
    }
  }
  nn::Scratch s = st.net.makeScratch();
  for (auto _ : state) {
    for (int g = 0; g < kGroups; ++g) {
      const auto y = st.net.forwardLanes(
          kFirst,
          std::span<const float>(packs).subspan(
              static_cast<size_t>(g) * inSize * nn::kBatchLane,
              inSize * nn::kBatchLane),
          s);
      benchmark::DoNotOptimize(y.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(StageLayers::kBatch * state.iterations());
}

// One layer's backward at batch 8 — the engine's training chunk
// (kGradChunk) — after a training forward of the same samples, as
// Sequential::backward runs it: the first layer skips its input gradient,
// and the parameter gradients accumulate into the layer's own slab.
// GMAC/s counts 2x the forward MACs (weight and input gradient), 1x for the
// first layer.
void BM_StageLayerBackward(benchmark::State& state, size_t i) {
  constexpr int kChunk = 8;
  StageLayers& st = stageLayers();
  const nn::Layer& l = st.net.layer(i);
  nn::LayerScratch ls;
  const std::vector<float>& in = st.acts[i];
  const size_t inSize = in.size() / StageLayers::kBatch;
  const size_t outSize = st.acts[i + 1].size() / StageLayers::kBatch;
  std::vector<float> out(kChunk * outSize);
  l.forward(std::span(in).first(kChunk * inSize), out, kChunk, ls,
            nn::Phase::kTrain);
  Rng rng(0xBAC4);
  std::vector<float> dy(out.size());
  for (float& v : dy) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> dx(i == 0 ? 0 : kChunk * inSize);
  size_t numParams = 0;
  for (const nn::Param* p : l.params()) numParams += p->value.size();
  std::vector<float> grads(numParams);
  for (auto _ : state) {
    l.backward(dy, dx, kChunk, ls, grads);
    benchmark::DoNotOptimize(dx.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(kChunk * state.iterations());
  if (st.macs[i] > 0) {
    state.counters["GMAC/s"] = benchmark::Counter(
        (i == 0 ? 1 : 2) * st.macs[i] * kChunk * 1e-9 *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
  }
}

// The optimizer half of a training minibatch: one fused Adam step over a
// default Stage 1 net's parameters (StageLayers::makeNet) with 4 chunk slabs
// (a 32-sample minibatch of kGradChunk = 8 chunks) summed per element inside
// the update, on one thread and on the given kernel tier. items = parameters
// updated; bytes = the slabs, value, m and v read plus value, m and v written.
void BM_AdamStep(benchmark::State& state, cpu::Isa isa) {
  constexpr int kSlabs = 4;
  const nn::Sequential net = StageLayers::makeNet();
  std::vector<float> value;
  for (const nn::Param* p : net.params()) {
    value.insert(value.end(), p->value.begin(), p->value.end());
  }
  const size_t n = value.size();
  std::vector<float> m(n, 0.0F);
  std::vector<float> v(n, 0.0F);
  std::vector<float> slabs(kSlabs * n);
  Rng rng(0xADA5);
  for (float& g : slabs) g = static_cast<float>(rng.uniform(-1e-2, 1e-2));
  const float t = 10.0F;
  const nn::kern::AdamCoef c{1e-3F,
                             0.9F,
                             0.999F,
                             1e-8F,
                             1.0F - std::pow(0.9F, t),
                             1.0F - std::pow(0.999F, t),
                             1.0F / 32.0F};
  const nn::kern::KernelSet& k = nn::kern::kernelsFor(isa);
  for (auto _ : state) {
    k.adamStep(value.data(), m.data(), v.data(), slabs.data(), n, kSlabs,
               static_cast<int>(n), c);
    benchmark::DoNotOptimize(value.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(n) * state.iterations());
  state.SetBytesProcessed(static_cast<int64_t>((kSlabs + 6) * n *
                                               sizeof(float)) *
                          state.iterations());
}

void BM_ModelLoad(benchmark::State& state) {
  // Cold-start cost of Engine::loadFile. The arg picks the stages (0: fp32,
  // 1: int8 — the same CENG container either way). Every load verifies
  // every byte: the CRC covers the whole payload, and every count is
  // range-checked.
  const bool quantized = state.range(0) != 0;
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() /
      (quantized ? "cati_bench_load.q.bin" : "cati_bench_load.bin");
  if (quantized) {
    quantEngine().saveFile(file);
  } else {
    bundle().engine().saveFile(file);
  }
  for (auto _ : state) {
    Engine e = Engine::loadFile(file);
    benchmark::DoNotOptimize(e);
  }
  std::error_code ec;
  state.counters["model_bytes"] =
      static_cast<double>(std::filesystem::file_size(file, ec));
  std::filesystem::remove(file, ec);
}
BENCHMARK(BM_ModelLoad)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_DisassembleRecoverJobs(benchmark::State& state) {
  loader::Image img = loader::buildImage(testBinary());
  loader::strip(img);
  par::ThreadPool pool(static_cast<int>(state.range(0)));
  size_t fns = 0;
  for (auto _ : state) {
    DiagList diags;
    const auto out = loader::disassemble(img, diags, pool);
    fns = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(fns) * state.iterations());
}
BENCHMARK(BM_DisassembleRecoverJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_TrainEndToEndJobs(benchmark::State& state) {
  // Micro training run (small corpus, one epoch) through the full pooled
  // path: word2vec rounds + per-stage chunked gradient accumulation. The
  // trained model bytes are identical across the /1, /2 and /4 rows.
  par::ThreadPool pool(static_cast<int>(state.range(0)));
  const auto bins = synth::generateCorpus(2, 8, synth::Dialect::Gcc, 7, &pool);
  const corpus::Dataset ds = corpus::extractAll(bins, 10, true, &pool);
  EngineConfig cfg;
  cfg.epochs = 1;
  cfg.w2v.epochs = 1;
  cfg.maxTrainPerStage = 512;
  cfg.fcHidden = 32;
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    Engine e(cfg);
    e.train(ds, &pool);
    benchmark::DoNotOptimize(e);
  }
  exportMetricsColumns(state, base);
  state.counters["train_vucs"] = static_cast<double>(ds.vucs.size());
}
BENCHMARK(BM_TrainEndToEndJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

void BM_TrainCheckpointOverhead(benchmark::State& state) {
  // The durability tax (DESIGN.md §9): the same micro run as
  // BM_TrainEndToEndJobs/1, with a checkpoint persisted at every epoch
  // boundary (arg = 1) or disabled (arg = 0). The delta between the two
  // rows is the per-run cost of crash safety — checkpoint serialization +
  // the atomic-write fsync protocol; ckpt_bytes reports the container size.
  par::ThreadPool pool(1);
  const auto bins = synth::generateCorpus(2, 8, synth::Dialect::Gcc, 7, &pool);
  const corpus::Dataset ds = corpus::extractAll(bins, 10, true, &pool);
  EngineConfig cfg;
  cfg.epochs = 1;
  cfg.w2v.epochs = 1;
  cfg.maxTrainPerStage = 512;
  cfg.fcHidden = 32;
  const bool checkpointing = state.range(0) != 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cati_bench_ckpt";
  TrainCheckpointing ck{dir, 1, false};
  const obs::Snapshot base = bench::metricsBaseline();
  for (auto _ : state) {
    Engine e(cfg);
    e.train(ds, &pool, checkpointing ? &ck : nullptr);
    benchmark::DoNotOptimize(e);
  }
  exportMetricsColumns(state, base);
  if (checkpointing) {
    std::error_code ec;
    state.counters["ckpt_bytes"] = static_cast<double>(
        std::filesystem::file_size(dir / "train.ckpt", ec));
    std::filesystem::remove_all(dir, ec);
  }
}
BENCHMARK(BM_TrainCheckpointOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

void BM_TrainCorpusMode(benchmark::State& state) {
  // The streaming tax (DESIGN.md §12): the same micro run as
  // BM_TrainEndToEndJobs/1 trained from the in-memory dataset (arg = 0) or
  // from a sharded CSHD directory through the prefetch-pipelined
  // ShardedSource (arg = 1). Models are bit-identical; the delta between
  // the rows is the cost of decoding each shard once in the tokenization
  // pass, net of prefetch overlap (with CATI_METRICS=1 the /1 row also
  // carries train.prefetch_stall_ns — the part of that cost the pipeline
  // failed to hide).
  par::ThreadPool pool(1);
  const auto bins = synth::generateCorpus(2, 8, synth::Dialect::Gcc, 7, &pool);
  const corpus::Dataset ds = corpus::extractAll(bins, 10, true, &pool);
  const bool streaming = state.range(0) != 0;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cati_bench_shards";
  if (streaming) {
    std::filesystem::remove_all(dir);
    corpus::ShardWriter w(dir, 10, ds.vucs.size() / 8 + 1);
    for (const auto& bin : bins) {
      w.append(corpus::extractGroundTruth(bin, 10));
    }
    w.finish();
  }
  EngineConfig cfg;
  cfg.epochs = 1;
  cfg.w2v.epochs = 1;
  cfg.maxTrainPerStage = 512;
  cfg.fcHidden = 32;
  const obs::Snapshot base = bench::metricsBaseline();
  if (streaming) {
    const corpus::ShardedCorpus sc(dir);
    state.counters["shards"] = static_cast<double>(sc.numShards());
    for (auto _ : state) {
      corpus::ShardedSource src(sc);
      Engine e(cfg);
      e.train(src, &pool);
      benchmark::DoNotOptimize(e);
    }
  } else {
    for (auto _ : state) {
      Engine e(cfg);
      e.train(ds, &pool);
      benchmark::DoNotOptimize(e);
    }
  }
  exportMetricsColumns(state, base);
  state.counters["train_vucs"] = static_cast<double>(ds.vucs.size());
  if (streaming) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}
BENCHMARK(BM_TrainCorpusMode)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(1.0);

void BM_ServeRoundTrip(benchmark::State& state) {
  // One analyze round-trip through the in-process daemon core (unix socket,
  // framing, batch loop, render) — arg 0: cache disabled (full pipeline per
  // request), arg 1: result cache on (the long-lived daemon's steady state,
  // replies byte-identical to the miss path). The delta vs
  // BM_AnalyzeBinaryEndToEnd is the serving layer's overhead.
  Engine& e = bundle().engine();
  loader::Image img = loader::buildImage(testBinary());
  loader::strip(img);
  std::ostringstream os;
  loader::write(img, os);
  serve::AnalyzeRequest req;
  req.image = std::move(os).str();

  serve::ServerConfig cfg;
  cfg.listen = sock::Address::parse(
      "unix:" + (std::filesystem::temp_directory_path() /
                 "cati_bench_speed_serve.sock")
                    .string());
  cfg.cacheBytes = state.range(0) != 0 ? (64ULL << 20) : 0;
  serve::Server server(e, cfg);
  server.start();
  {
    serve::Client client(server.bound());
    for (auto _ : state) {
      const serve::Frame f = client.analyze(req);
      benchmark::DoNotOptimize(f);
    }
  }
  server.stop();
}
BENCHMARK(BM_ServeRoundTrip)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Force bundle construction (and model training / cache load) outside the
  // measured regions.
  bundle();
  // Which kernel tier every NN row ran on (CATI_KERNEL can pin it); rows
  // from different kernels must never be compared without checking this.
  benchmark::AddCustomContext(
      "cati_kernel", std::string(cati::cpu::isaName(cati::cpu::active())));
  // BM_StageLayer{Forward,Backward}/<layer>: one row per layer of a stage
  // net.
  StageLayers& st = stageLayers();
  for (size_t i = 0; i < st.net.numLayers(); ++i) {
    benchmark::RegisterBenchmark(
        ("BM_StageLayerForward/" + st.names[i]).c_str(),
        BM_StageLayerForward, i)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("BM_StageNetLanes", BM_StageNetLanes)
      ->Unit(benchmark::kMicrosecond);
  for (size_t i = 0; i < st.net.numLayers(); ++i) {
    benchmark::RegisterBenchmark(
        ("BM_StageLayerBackward/" + st.names[i]).c_str(),
        BM_StageLayerBackward, i)
        ->Unit(benchmark::kMicrosecond);
  }
  // BM_AdamStep/<tier>: one row per distinct kernel this CPU runs (the
  // AVX-512 tier reuses the AVX2 kernel).
  for (const cpu::Isa isa : {cpu::Isa::kScalar, cpu::Isa::kAvx2}) {
    if (!cpu::supported(isa)) continue;
    benchmark::RegisterBenchmark(
        ("BM_AdamStep/" + std::string(cpu::isaName(isa))).c_str(),
        BM_AdamStep, isa)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
