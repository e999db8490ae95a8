// Heap allocations of the one predict path (DESIGN.md §7). A warm
// Engine::predictStream writes each evaluated stage's softmax straight into
// its VUC's inline StageProbs and runs every stage net on one scratch per
// thread, so a predict allocates per round and VUC range (index vectors,
// the result table), never per VUC and stage. The check: a stream k times
// longer may cost only a few more allocations, far fewer than k times its
// VUCs — at kAll and kRouted, jobs {1, 4}, for nets entered at layer 1
// (fp32, shared prefix) and at layer 0 (int8). The predict state belongs to
// the threads, not to an Engine, so a second engine of the same structure
// is warm on its first predict on a warm pool.
//
// Training writes each gradient once, into the slab its chunk hands the
// backward: a stage net, built or loaded, holds its parameters and no
// gradient storage beside them, and a warm training chunk (forward, then
// backward into its slab) allocates nothing.
//
// The global operator new is replaced in this test binary alone; it counts
// calls and bytes only while a measurement is on. No type on these paths
// is over-aligned, so the aligned forms are left to the library.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dataflow/recovery.h"
#include "loader/image.h"
#include "nn/nn.h"
#include "support/micro_model.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gNews{0};
std::atomic<uint64_t> gBytes{0};

void* countedNew(std::size_t n) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gNews.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return countedNew(n); }
void* operator new[](std::size_t n) { return countedNew(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cati {
namespace {

/// Starts counting heap allocations and their bytes, on any thread.
void startCounting() {
  gNews.store(0);
  gBytes.store(0);
  gCounting.store(true);
}

/// Heap allocations, on any thread, during one predictStream.
uint64_t allocations(const Engine& e, const ChunkStream& st,
                     par::ThreadPool* pool, StagePlan plan) {
  startCounting();
  const std::vector<StageProbs> out = e.predictStream(st, pool, plan);
  gCounting.store(false);
  EXPECT_EQ(out.size(), st.numVucs());
  return gNews.load();
}

constexpr int kTimes = 4;

/// The micro image's functions as one stream (`base`), and that stream
/// kTimes over (`longer`).
struct Streams {
  ChunkStream base;
  ChunkStream longer;
  /// Allocations a warm predict may add over a stream kTimes longer: room
  /// for a few index vectors growing by doubling; one allocation per (VUC,
  /// stage) evaluation would be 3 x base's VUCs or more.
  uint64_t bound = 0;
};

Streams microStreams(const Engine& micro) {
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  DiagList diags;
  Streams s;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    s.base.append(micro.streamFunction(fn.insns,
                                       dataflow::recoverVariables(*fn.graph))
                      .stream);
  }
  for (int i = 0; i < kTimes; ++i) s.longer.append(s.base);
  s.bound = (kTimes - 1) * s.base.numVucs() / 8;
  return s;
}

std::string label(const Engine& e, int jobs, StagePlan plan) {
  return std::string(e.quantized() ? "int8" : "fp32") + " jobs " +
         std::to_string(jobs) +
         (plan == StagePlan::kAll ? " kAll" : " kRouted");
}

/// Warms `e` on `pool`: the thread states and metric handles reach their
/// high water on the longer stream. Which worker runs which range is up to
/// the schedule, so a worker may still meet a larger range than it has
/// seen and grow its buffers once: the least of three counts is the steady
/// state. Returns that count over the base stream.
uint64_t warmAllocations(const Engine& e, const Streams& s,
                         par::ThreadPool& pool, StagePlan plan) {
  (void)e.predictStream(s.longer, &pool, plan);
  (void)e.predictStream(s.base, &pool, plan);
  uint64_t once = allocations(e, s.base, &pool, plan);
  for (int rep = 0; rep < 2; ++rep) {
    once = std::min(once, allocations(e, s.base, &pool, plan));
  }
  return once;
}

TEST(PredictAllocations, DoNotGrowWithVucsTimesStages) {
  const Engine micro = testsupport::cachedMicroEngine();
  const Streams s = microStreams(micro);
  const uint64_t n = s.base.numVucs();
  ASSERT_GT(n, 96U);

  std::vector<Engine> engines;
  engines.push_back(testsupport::cachedMicroEngine());
  engines.push_back(micro.quantize());
  for (const Engine& e : engines) {
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const StagePlan plan : {StagePlan::kAll, StagePlan::kRouted}) {
        const uint64_t once = warmAllocations(e, s, pool, plan);
        uint64_t more = allocations(e, s.longer, &pool, plan);
        for (int rep = 0; rep < 2; ++rep) {
          more = std::min(more, allocations(e, s.longer, &pool, plan));
        }
        EXPECT_LT(more, once + s.bound)
            << label(e, jobs, plan) << ": " << once
            << " allocations over " << n << " VUCs, " << more << " over "
            << kTimes * n;
      }
    }
  }
}

TEST(PredictAllocations, EnginesOnOnePoolShareThreadState) {
  // A second engine of the same structure, predicting for the first time
  // on a pool another engine warmed, finds every thread's state at its
  // high water: its first predict is a warm one. An engine that owned its
  // states would grow a whole set here, a scratch and range buffers per
  // worker.
  const Engine micro = testsupport::cachedMicroEngine();
  const Streams s = microStreams(micro);
  for (const bool int8 : {false, true}) {
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const StagePlan plan : {StagePlan::kAll, StagePlan::kRouted}) {
        const Engine first =
            int8 ? micro.quantize() : testsupport::cachedMicroEngine();
        const uint64_t warm = warmAllocations(first, s, pool, plan);
        const Engine second =
            int8 ? micro.quantize() : testsupport::cachedMicroEngine();
        const uint64_t fresh = allocations(second, s.base, &pool, plan);
        EXPECT_LT(fresh, warm + s.bound)
            << label(second, jobs, plan) << ": a warm predict makes " << warm
            << " allocations, the second engine's first " << fresh;
      }
    }
  }
}

/// A default-configured stage net (EngineConfig's architecture, Stage 1).
nn::Sequential makeStageNet() {
  const EngineConfig cfg;
  Rng rng(7);
  return nn::makeCnn({3 * cfg.w2v.dim, 2 * cfg.window + 1}, cfg.conv1,
                     cfg.conv2, cfg.fcHidden, numClasses(Stage::S1),
                     cfg.dropout, rng);
}

TEST(NetAllocations, HoldNoGradientStorage) {
  // Building or loading a net allocates its parameters plus a little
  // structure (layers, shapes, offsets); a gradient buffer beside every
  // parameter would double it.
  const nn::Sequential reference = makeStageNet();
  const uint64_t paramBytes = reference.numParams() * sizeof(float);
  ASSERT_GT(paramBytes, 100000U);
  const uint64_t bound = paramBytes + paramBytes / 4;

  startCounting();
  {
    const nn::Sequential built = makeStageNet();
    gCounting.store(false);
    EXPECT_LT(gBytes.load(), bound)
        << "makeCnn allocated " << gBytes.load() << " bytes for "
        << paramBytes << " bytes of parameters";
  }

  std::stringstream saved;
  reference.save(saved);
  startCounting();
  {
    const nn::Sequential loaded = nn::Sequential::load(saved);
    gCounting.store(false);
    EXPECT_EQ(loaded.numParams(), reference.numParams());
    EXPECT_LT(gBytes.load(), bound)
        << "Sequential::load allocated " << gBytes.load() << " bytes for "
        << paramBytes << " bytes of parameters";
  }
}

TEST(TrainAllocations, WarmChunkAllocatesNothing) {
  // One training chunk as the trainer runs it: zero the chunk's slab,
  // reseed the dropout streams, forward at kTrain, softmax heads, backward
  // straight into the slab. Once the scratch has seen a full chunk, a full
  // or a partial chunk allocates nothing.
  constexpr int kChunk = 8;
  const nn::Sequential net = makeStageNet();
  const auto inSize = static_cast<size_t>(net.inShape().size());
  const auto classes = static_cast<size_t>(net.outShape().size());
  Rng rng(3);
  std::vector<float> x(kChunk * inSize);
  for (float& v : x) v = rng.normal();
  std::vector<float> slab(net.numParams());
  std::vector<float> probs(classes);
  std::vector<float> dLogits(kChunk * classes);
  nn::Scratch s = net.makeScratch();
  const auto chunk = [&](int n, uint64_t seed) {
    const auto m = static_cast<size_t>(n);
    std::ranges::fill(slab, 0.0F);
    s.reseed(seed);
    const auto logits =
        net.forward(std::span(x).first(m * inSize), n, s, nn::Phase::kTrain);
    for (size_t k = 0; k < m; ++k) {
      nn::SoftmaxCE::forward(logits.subspan(k * classes, classes), 1, probs);
      nn::SoftmaxCE::backward(
          probs, 1, std::span(dLogits).subspan(k * classes, classes));
    }
    net.backward(std::span(dLogits).first(m * classes), n, s, slab);
  };
  chunk(kChunk, 1);
  chunk(kChunk, 2);
  startCounting();
  chunk(kChunk, 3);
  chunk(5, 4);
  gCounting.store(false);
  EXPECT_EQ(gNews.load(), 0U) << gBytes.load() << " bytes";
  EXPECT_TRUE(s.grads().empty())
      << "a backward into a bound slab sized the scratch's own";
}

}  // namespace
}  // namespace cati
