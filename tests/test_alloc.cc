// Heap allocations of the one predict path (DESIGN.md §7). A warm
// Engine::predictStream writes each evaluated stage's softmax straight into
// its VUC's inline StageProbs and runs every stage net on one scratch per
// worker, so a predict allocates per round and VUC range (index vectors,
// the result table), never per VUC and stage. The check: a stream k times
// longer may cost only a few more allocations, far fewer than k times its
// VUCs — at kAll and kRouted, jobs {1, 4}, on the shared-prefix branch
// (fp32) and the whole-net one (int8).
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
uint64_t allocations(Engine& e, const ChunkStream& st, par::ThreadPool* pool,
                     StagePlan plan) {
  gNews.store(0);
  gCounting.store(true);
  const std::vector<StageProbs> out = e.predictStream(st, pool, 0, plan);
  gCounting.store(false);
  EXPECT_EQ(out.size(), st.numVucs());
  return gNews.load();
}

TEST(PredictAllocations, DoNotGrowWithVucsTimesStages) {
  Engine micro = testsupport::cachedMicroEngine();
  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  DiagList diags;
  ChunkStream base;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    base.append(micro.streamFunction(fn.insns,
                                     dataflow::recoverVariables(fn.insns))
                    .stream);
  }
  constexpr int kTimes = 4;
  ChunkStream longer;
  for (int i = 0; i < kTimes; ++i) longer.append(base);
  const uint64_t n = base.numVucs();
  ASSERT_GT(n, 96U);
  // The bound leaves room for a few index vectors growing by doubling; one
  // allocation per (VUC, stage) evaluation would be 3 x n or more here.
  const uint64_t bound = (kTimes - 1) * n / 8;

  std::vector<Engine> engines;
  engines.push_back(testsupport::cachedMicroEngine());
  engines.push_back(micro.quantize());
  for (Engine& e : engines) {
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const StagePlan plan : {StagePlan::kAll, StagePlan::kRouted}) {
        const std::string what =
            std::string(e.quantized() ? "int8" : "fp32") + " jobs " +
            std::to_string(jobs) +
            (plan == StagePlan::kAll ? " kAll" : " kRouted");
        // Warm: the worker states and metric handles reach their high
        // water on the longer stream. Which worker runs which range is up
        // to the schedule, so a worker may still meet a larger range than
        // it has seen and grow its buffers once: the least of three counts
        // is the steady state.
        (void)e.predictStream(longer, &pool, 0, plan);
        (void)e.predictStream(base, &pool, 0, plan);
        const uint64_t once = allocations(e, base, &pool, plan);
        uint64_t more = allocations(e, longer, &pool, plan);
        for (int rep = 0; rep < 2; ++rep) {
          more = std::min(more, allocations(e, longer, &pool, plan));
        }
        EXPECT_LT(more, once + bound)
            << what << ": " << once << " allocations over " << n
            << " VUCs, " << more << " over " << kTimes * n;
      }
    }
  }
}

}  // namespace
}  // namespace cati
