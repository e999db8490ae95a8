// Heap allocations of the one predict path (DESIGN.md §7). A warm
// Engine::predictStream writes each evaluated stage's softmax straight into
// its VUC's inline StageProbs and runs every stage net on one scratch per
// thread, so a predict allocates per round and VUC range (index vectors,
// the result table), never per VUC and stage. The check: a stream k times
// longer may cost only a few more allocations, far fewer than k times its
// VUCs — at kAll and kRouted, jobs {1, 4}, on the shared-prefix branch
// (fp32) and the whole-net one (int8). The predict state belongs to the
// threads, not to an Engine, so a second engine of the same structure is
// warm on its first predict on a warm pool.
//
// The global operator new is replaced in this test binary alone; it counts
// only while a measurement is on. No type on the predict path is
// over-aligned, so the aligned forms are left to the library.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/parallel.h"
#include "dataflow/recovery.h"
#include "loader/image.h"
#include "support/micro_model.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<uint64_t> gNews{0};

void* countedNew(std::size_t n) {
  if (gCounting.load(std::memory_order_relaxed)) {
    gNews.fetch_add(1, std::memory_order_relaxed);
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

/// Heap allocations, on any thread, during one predictStream.
uint64_t allocations(const Engine& e, const ChunkStream& st,
                     par::ThreadPool* pool, StagePlan plan) {
  gNews.store(0);
  gCounting.store(true);
  const std::vector<StageProbs> out = e.predictStream(st, pool, 0, plan);
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
  (void)e.predictStream(s.longer, &pool, 0, plan);
  (void)e.predictStream(s.base, &pool, 0, plan);
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
            << label(e, jobs, plan) << ": " << once << " allocations over "
            << n << " VUCs, " << more << " over " << kTimes * n;
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

}  // namespace
}  // namespace cati
