// Differential suite for the deterministic-parallelism contract
// (DESIGN.md §7): for any fixed seed, jobs=1 and jobs=N produce
// bit-identical corpora, trained model files and predictions. The heavy
// end-to-end comparisons are consolidated into single TEST cases because
// gtest_discover_tests runs every TEST in its own process — splitting them
// would retrain the micro model once per case.
//
// Also run under -DCATI_SANITIZE=thread in CI, where these same tests double
// as the TSan workload for the thread pool and every pooled pipeline stage.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/obs.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "support/micro_model.h"

namespace cati {
namespace {

TEST(ResolveJobs, ExplicitRequestWins) {
  EXPECT_EQ(par::resolveJobs(3), 3);
  EXPECT_EQ(par::resolveJobs(1), 1);
}

TEST(ResolveJobs, EnvFallbackAndValidation) {
  ::setenv("CATI_JOBS", "5", 1);
  EXPECT_EQ(par::resolveJobs(), 5);
  EXPECT_EQ(par::resolveJobs(2), 2);  // explicit still wins
  ::setenv("CATI_JOBS", "not-a-number", 1);
  EXPECT_GE(par::resolveJobs(), 1);  // invalid env ignored, hw fallback
  ::setenv("CATI_JOBS", "-4", 1);
  EXPECT_GE(par::resolveJobs(), 1);
  ::unsetenv("CATI_JOBS");
  EXPECT_GE(par::resolveJobs(), 1);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  par::ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4);
  constexpr size_t kTasks = 1000;
  std::vector<int> hits(kTasks, 0);
  std::atomic<size_t> total{0};
  pool.run(kTasks, [&](size_t t, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, 4);
    ++hits[t];  // distinct tasks write distinct slots
    total.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(), kTasks);
  for (size_t t = 0; t < kTasks; ++t) EXPECT_EQ(hits[t], 1) << "task " << t;
}

TEST(ThreadPool, SingleJobRunsInlineInOrder) {
  par::ThreadPool pool(1);
  std::vector<size_t> order;
  pool.run(17, [&](size_t t, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(t);
  });
  std::vector<size_t> expect(17);
  std::iota(expect.begin(), expect.end(), size_t{0});
  EXPECT_EQ(order, expect);
}

TEST(ThreadPool, RethrowsLowestIndexedFailure) {
  par::ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    try {
      pool.run(64, [&](size_t t, int) {
        if (t == 10 || t == 50) {
          throw std::runtime_error("task " + std::to_string(t));
        }
      });
      FAIL() << "run() should have thrown";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 10") << "trial " << trial;
    }
    // The pool must remain usable after an exception.
    std::atomic<size_t> ran{0};
    pool.run(8, [&](size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8U);
  }
}

TEST(Chunking, BoundariesPartitionAndDependOnlyOnSize) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{32},
                         size_t{33}, size_t{1000}}) {
    for (const size_t grain : {size_t{1}, size_t{4}, size_t{7}}) {
      const size_t chunks = par::numChunks(n, grain);
      size_t covered = 0;
      size_t prevEnd = 0;
      for (size_t c = 0; c < chunks; ++c) {
        const par::ChunkRange r = par::chunkRange(n, grain, c);
        EXPECT_EQ(r.begin, prevEnd);
        EXPECT_GT(r.end, r.begin);
        EXPECT_LE(r.end, n);
        covered += r.end - r.begin;
        prevEnd = r.end;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " grain=" << grain;
      EXPECT_EQ(prevEnd, n);
    }
  }
}

TEST(ResolveBatch, ExplicitEnvAndFallback) {
  EXPECT_EQ(par::resolveBatch(4, 32), 4);  // explicit request wins
  ::setenv("CATI_BATCH", "12", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 12);
  EXPECT_EQ(par::resolveBatch(3, 32), 3);  // explicit still beats env
  ::setenv("CATI_BATCH", "not-a-number", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 32);  // invalid env ignored
  ::setenv("CATI_BATCH", "-2", 1);
  EXPECT_EQ(par::resolveBatch(0, 32), 32);
  ::unsetenv("CATI_BATCH");
  EXPECT_EQ(par::resolveBatch(0, 32), 32);
  EXPECT_EQ(par::resolveBatch(0, 0), 1);  // floor at one sample
}

TEST(SplitSeed, PureAndStreamDistinct) {
  EXPECT_EQ(splitSeed(42, 0), splitSeed(42, 0));
  std::vector<uint64_t> seen;
  for (uint64_t s = 0; s < 1000; ++s) seen.push_back(splitSeed(42, s));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "collision within 1000 streams of one base seed";
  EXPECT_NE(splitSeed(42, 7), splitSeed(43, 7));
}

// --- end-to-end byte-identity across job counts ---------------------------

std::string serializeDataset(const corpus::Dataset& ds) {
  std::ostringstream os;
  corpus::save(ds, os);
  return std::move(os).str();
}

TEST(JobsInvariance, CorpusBytesIdenticalAcrossJobs) {
  // synth (per-binary fan-out) + VUC extraction (per-binary fan-out): the
  // serialized dataset must be the same byte string at every job count,
  // including the machine's own default.
  par::ThreadPool serial(1);
  const std::string ref = serializeDataset(testsupport::microDataset(&serial));
  ASSERT_FALSE(ref.empty());
  for (const int jobs : {2, 7, par::resolveJobs()}) {
    par::ThreadPool pool(jobs);
    const std::string got =
        serializeDataset(testsupport::microDataset(&pool));
    ASSERT_EQ(got.size(), ref.size()) << "jobs=" << jobs;
    EXPECT_TRUE(got == ref) << "dataset bytes differ at jobs=" << jobs;
  }
}

TEST(JobsInvariance, ModelPredictionAndVoteBytesIdenticalAcrossJobs) {
  // The heavyweight differential: full training (word2vec rounds + six CNN
  // stages) at jobs 1/2/7 must serialize to the same CENG byte string, and
  // batched parallel inference must equal the serial predictVuc loop
  // bit-for-bit, which forces vote equality too.
  //
  // Metrics ride along on the same runs: with observability enabled, every
  // non-timing metric (counters, Count-unit histograms) in the global
  // snapshot must also be bit-identical across job counts (DESIGN.md §8).
  obs::setEnabled(true);
  const auto trainWithMetrics = [](int jobs) {
    obs::Registry::global().reset();
    std::string bytes = testsupport::trainMicroEngineBytes(jobs);
    return std::pair(std::move(bytes),
                     obs::Registry::global().snapshot().withoutTimings());
  };

  const auto [ref, metricsSerial] = trainWithMetrics(1);
  ASSERT_FALSE(ref.empty());
  EXPECT_FALSE(metricsSerial.counters.empty());
  testsupport::writeMicroCache(ref);  // shared with test_golden

  for (const int jobs : {2, 7}) {
    const auto [got, metrics] = trainWithMetrics(jobs);
    ASSERT_EQ(got.size(), ref.size()) << "jobs=" << jobs;
    EXPECT_TRUE(got == ref) << "model bytes differ at jobs=" << jobs;
    EXPECT_EQ(metrics, metricsSerial)
        << "non-timing metrics differ at jobs=" << jobs;
  }

  std::istringstream is(ref);
  Engine engine = Engine::load(is);
  const corpus::Dataset ds = testsupport::microDataset();

  std::vector<StageProbs> serialProbs;
  serialProbs.reserve(ds.vucs.size());
  for (const corpus::Vuc& v : ds.vucs) {
    serialProbs.push_back(engine.predictVuc(v));
  }
  par::ThreadPool pool(5);
  const std::vector<StageProbs> poolProbs = engine.predictVucs(ds.vucs, &pool);
  ASSERT_EQ(poolProbs.size(), serialProbs.size());
  for (size_t i = 0; i < serialProbs.size(); ++i) {
    for (int s = 0; s < kNumStages; ++s) {
      // Exact float equality on purpose: the contract is bit-identity.
      const auto st = static_cast<Stage>(s);
      EXPECT_TRUE(std::ranges::equal(serialProbs[i].stage(st),
                                     poolProbs[i].stage(st)))
          << "vuc " << i << " stage " << s;
    }
  }

  const auto byVar = ds.vucsByVar();
  for (size_t v = 0; v < byVar.size(); ++v) {
    if (byVar[v].empty()) continue;
    std::vector<StageProbs> a;
    std::vector<StageProbs> b;
    for (const uint32_t i : byVar[v]) {
      a.push_back(serialProbs[i]);
      b.push_back(poolProbs[i]);
    }
    const VariableDecision da = engine.voteVariable(a);
    const VariableDecision db = engine.voteVariable(b);
    EXPECT_EQ(da.finalType, db.finalType) << "var " << v;
    EXPECT_TRUE(da.stageClass == db.stageClass) << "var " << v;
  }

  // End-to-end analysis path (disassembly + recovery + extraction + chunked
  // predict + vote + render): the report bytes do not depend on the pool.
  const auto bins = testsupport::microBinaries();
  ASSERT_FALSE(bins.empty());
  loader::Image img = loader::buildImage(bins[0]);
  loader::strip(img);
  const serve::AnalyzeResult serial =
      serve::analyzeImage(engine, img, nullptr, 0);
  const serve::AnalyzeResult pooled = serve::analyzeImage(engine, img, &pool, 0);
  EXPECT_NE(serial.report.find("variables typed"), std::string::npos);
  EXPECT_EQ(serial.report, pooled.report);
  EXPECT_EQ(serial.diags.size(), pooled.diags.size());
}

TEST(JobsInvariance, TrainedModelBytesIdenticalAtEveryMinibatchSize) {
  // Each chunk of a minibatch accumulates its gradients straight into its
  // own Adam slab from whichever pool worker runs it; the slabs are merged
  // inside the Adam step. At minibatches of one chunk, of full chunks and
  // of a partial last chunk (20 = 8 + 8 + 4), jobs 4 must train the bytes
  // jobs 1 trains. Cheap enough for CI to repeat under TSan.
  const corpus::Dataset ds = testsupport::microDataset();
  for (const int batch : {8, 20, 32}) {
    const auto train = [&](int jobs) {
      EngineConfig cfg = testsupport::microConfig();
      cfg.batchSize = batch;
      par::ThreadPool pool(jobs);
      Engine e(cfg);
      e.train(ds, &pool);
      return testsupport::serializeEngine(e);
    };
    const std::string ref = train(1);
    ASSERT_FALSE(ref.empty());
    EXPECT_TRUE(train(4) == ref) << "model bytes differ at batch " << batch;
  }
}

TEST(BatchInvariance, PredictionsIdenticalAcrossBatchSizes) {
  // The batching half of the §7 contract at the engine level: predictVucs
  // over calls of any size (and at any job count) must reproduce the serial
  // per-sample predictVuc loop bit-for-bit. The call size only changes how
  // many windows share lane groups and VUC ranges, never the numbers.
  Engine engine = testsupport::cachedMicroEngine();
  const corpus::Dataset ds = testsupport::microDataset();
  ASSERT_FALSE(ds.vucs.empty());

  std::vector<StageProbs> ref;
  ref.reserve(ds.vucs.size());
  for (const corpus::Vuc& v : ds.vucs) ref.push_back(engine.predictVuc(v));

  const std::span<const corpus::Vuc> all(ds.vucs);
  for (const int jobs : {1, 5}) {
    par::ThreadPool pool(jobs);
    for (const size_t batch : {size_t{3}, size_t{8}, size_t{64}, all.size()}) {
      std::vector<StageProbs> got;
      for (size_t at = 0; at < all.size(); at += batch) {
        const auto part = engine.predictVucs(
            all.subspan(at, std::min(batch, all.size() - at)), &pool);
        got.insert(got.end(), part.begin(), part.end());
      }
      ASSERT_EQ(got.size(), ref.size());
      for (size_t i = 0; i < ref.size(); ++i) {
        for (int s = 0; s < kNumStages; ++s) {
          // Exact float equality on purpose: the contract is bit-identity.
          const auto st = static_cast<Stage>(s);
          EXPECT_TRUE(
              std::ranges::equal(ref[i].stage(st), got[i].stage(st)))
              << "vuc " << i << " stage " << s << " jobs " << jobs
              << " batch " << batch;
        }
      }
    }
  }

  // Non-timing inference metrics are jobs-invariant: they depend only on
  // the VUCs, never on scheduling.
  obs::setEnabled(true);
  const auto inferMetrics = [&](int jobs) {
    obs::Registry::global().reset();
    par::ThreadPool pool(jobs);
    engine.predictVucs(ds.vucs, &pool);
    return obs::Registry::global().snapshot().withoutTimings();
  };
  const auto serial = inferMetrics(1);
  EXPECT_EQ(inferMetrics(5), serial)
      << "inference metrics differ across job counts";
}

}  // namespace
}  // namespace cati
