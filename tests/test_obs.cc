// Tests for the observability layer (common/obs.h): counter / histogram /
// scoped-timer semantics, the fixed-point value domain, log2 bucketing
// edges, registry behaviour (stable handles, unit conflicts, reset), the
// determinism of snapshots merged under the thread pool, and a JSON golden
// file (regenerate with tests/golden/update.sh).
#include "common/obs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/parallel.h"

#ifndef CATI_GOLDEN_DIR
#define CATI_GOLDEN_DIR "tests/golden"
#endif

namespace cati {
namespace {

namespace fs = std::filesystem;

/// Fixture that force-enables metrics for the test body and restores the
/// prior state afterwards, so the process-global flag never leaks between
/// tests (each TEST runs in its own process under ctest, but keep it tidy
/// for direct ./test_obs runs too).
class MetricsOn : public ::testing::Test {
 protected:
  MetricsOn() : prev_(obs::enabled()) { obs::setEnabled(true); }
  ~MetricsOn() override { obs::setEnabled(prev_); }

 private:
  bool prev_;
};

class MetricsOff : public ::testing::Test {
 protected:
  MetricsOff() : prev_(obs::enabled()) { obs::setEnabled(false); }
  ~MetricsOff() override { obs::setEnabled(prev_); }

 private:
  bool prev_;
};

// --- counters ------------------------------------------------------------------

TEST_F(MetricsOn, CounterAddValueReset) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 6U);
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST_F(MetricsOff, CounterIsNoOpWhenDisabled) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("c");
  c.add(1000);
  EXPECT_EQ(c.value(), 0U);
}

// --- fixed-point domain --------------------------------------------------------

TEST(ObsFx, GridValuesRoundTripExactly) {
  // Anything on the 2^-20 grid survives toFx/fromFx bit-for-bit.
  for (const double v : {0.0, 0.5, 0.25, 1.0, -3.0, 1048576.0, 2.4e12}) {
    EXPECT_EQ(obs::fromFx(obs::toFx(v)), v) << v;
  }
  EXPECT_EQ(obs::toFx(1.0), obs::kFxOne);
}

TEST(ObsFx, ClampsAtTheRepresentableRange) {
  EXPECT_EQ(obs::toFx(1e19), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(obs::toFx(-1e19), std::numeric_limits<int64_t>::min());
}

TEST(ObsFx, TiesRoundAwayFromZero) {
  // Half a fixed-point step in either direction: llround's fixed rule.
  const double half = 1.5 / static_cast<double>(obs::kFxOne);
  EXPECT_EQ(obs::toFx(half), 2);
  EXPECT_EQ(obs::toFx(-half), -2);
}

// --- bucketing -----------------------------------------------------------------

TEST(ObsBuckets, NonPositiveAndNanLandInBucketZero) {
  EXPECT_EQ(obs::bucketIndex(0.0), 0);
  EXPECT_EQ(obs::bucketIndex(-1.0), 0);
  EXPECT_EQ(obs::bucketIndex(std::nan("")), 0);
  // Positive but below 2^-20: still bucket 0 ((-inf, 2^-20)).
  EXPECT_EQ(obs::bucketIndex(std::ldexp(1.0, -21)), 0);
  EXPECT_EQ(obs::bucketIndex(std::numeric_limits<double>::min()), 0);
}

TEST(ObsBuckets, LowerBoundsAreInclusive) {
  // Every bucket's lower bound maps back to that bucket, and the value
  // just below it maps to the previous one.
  for (int i = 1; i <= 62; ++i) {
    const double lo = obs::bucketLowerBound(i);
    EXPECT_EQ(obs::bucketIndex(lo), i) << i;
    EXPECT_EQ(obs::bucketIndex(lo * 0.75), i - 1) << i;
  }
  EXPECT_EQ(obs::bucketLowerBound(1), std::ldexp(1.0, -20));
  EXPECT_TRUE(std::isinf(obs::bucketLowerBound(0)));
}

TEST(ObsBuckets, TopBucketIsOpenEnded) {
  EXPECT_EQ(obs::bucketIndex(std::ldexp(1.0, 42)), obs::kNumBuckets - 1);
  EXPECT_EQ(obs::bucketIndex(1e300), obs::kNumBuckets - 1);
  EXPECT_EQ(obs::bucketIndex(std::numeric_limits<double>::infinity()),
            obs::kNumBuckets - 1);
}

// --- histograms ----------------------------------------------------------------

TEST_F(MetricsOn, HistogramStatsAndBuckets) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  h.observe(0.5);   // ilogb -1 -> bucket 20
  h.observe(2.0);   // bucket 22
  h.observe(-1.0);  // bucket 0, drags min negative
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.sum(), 1.5);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  EXPECT_EQ(h.bucketCount(20), 1U);
  EXPECT_EQ(h.bucketCount(22), 1U);
  EXPECT_EQ(h.bucketCount(0), 1U);
  EXPECT_EQ(h.bucketCount(21), 0U);

  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);  // empty => 0 by definition
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_EQ(h.bucketCount(20), 0U);
}

TEST_F(MetricsOn, HistogramSumIsExactOnTheGrid) {
  // 4096 observations of 1/4 sum to exactly 1024 in fixed point — no
  // float accumulation drift regardless of order.
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  for (int i = 0; i < 4096; ++i) h.observe(0.25);
  EXPECT_EQ(h.sumFx(), 1024 * obs::kFxOne);
  EXPECT_DOUBLE_EQ(h.sum(), 1024.0);
}

TEST_F(MetricsOff, HistogramIsNoOpWhenDisabled) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h");
  h.observe(1.0);
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sumFx(), 0);
}

// --- scoped timers -------------------------------------------------------------

TEST_F(MetricsOn, ScopedTimerObservesNonNegativeElapsed) {
  obs::Registry reg;
  obs::Histogram& ns = reg.histogram("t_ns", obs::Unit::Nanoseconds);
  { const obs::ScopedTimer t(ns); }
  EXPECT_EQ(ns.count(), 1U);
  EXPECT_GE(ns.min(), 0.0);
}

TEST_F(MetricsOff, ScopedTimerIsNoOpWhenDisabled) {
  obs::Registry reg;
  obs::Histogram& ns = reg.histogram("t_ns", obs::Unit::Nanoseconds);
  { const obs::ScopedTimer t(ns); }
  EXPECT_EQ(ns.count(), 0U);
}

// --- registry ------------------------------------------------------------------

TEST(ObsRegistry, HandlesAreStableAcrossRegistrations) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("a");
  obs::Histogram& h = reg.histogram("h");
  // Registering more names never invalidates earlier handles.
  for (int i = 0; i < 100; ++i) {
    reg.counter(std::string("c").append(std::to_string(i)));
    reg.histogram(std::string("g").append(std::to_string(i)));
  }
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(&h, &reg.histogram("h"));
}

TEST(ObsRegistry, UnitConflictThrows) {
  obs::Registry reg;
  reg.histogram("x", obs::Unit::Count);
  EXPECT_THROW(reg.histogram("x", obs::Unit::Nanoseconds), std::logic_error);
  // Same unit re-registration is fine and returns the same cell.
  EXPECT_EQ(&reg.histogram("x", obs::Unit::Count),
            &reg.histogram("x", obs::Unit::Count));
}

TEST_F(MetricsOn, SnapshotIsNameSortedAndComparable) {
  obs::Registry reg;
  reg.counter("zeta").add(2);
  reg.counter("alpha").add(1);
  reg.histogram("mid").observe(1.0);
  reg.histogram("late_ns", obs::Unit::Nanoseconds).observe(5.0);

  const obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2U);
  EXPECT_EQ(s.counters[0].name, "alpha");
  EXPECT_EQ(s.counters[1].name, "zeta");
  ASSERT_EQ(s.histograms.size(), 2U);
  EXPECT_EQ(s.histograms[0].name, "late_ns");
  EXPECT_EQ(s.histograms[1].name, "mid");

  EXPECT_EQ(s, reg.snapshot());  // stable registry => equal snapshots

  const obs::Snapshot nt = s.withoutTimings();
  EXPECT_EQ(nt.counters, s.counters);
  ASSERT_EQ(nt.histograms.size(), 1U);
  EXPECT_EQ(nt.histograms[0].name, "mid");

  // reset() zeroes values but keeps every registered name.
  reg.reset();
  const obs::Snapshot z = reg.snapshot();
  ASSERT_EQ(z.counters.size(), 2U);
  EXPECT_EQ(z.counters[0].value, 0U);
  ASSERT_EQ(z.histograms.size(), 2U);
  EXPECT_EQ(z.histograms[1].count, 0U);
  EXPECT_TRUE(z.histograms[1].buckets.empty());
}

// --- determinism under the thread pool -----------------------------------------

/// Runs a fixed workload over a private registry at the given job count:
/// every task contributes the same adds/observations regardless of which
/// worker claims it, so the non-timing snapshot must not depend on jobs.
obs::Snapshot poolSnapshot(int jobs) {
  obs::Registry reg;
  obs::Counter& items = reg.counter("items");
  obs::Counter& weight = reg.counter("weight");
  obs::Histogram& values = reg.histogram("values");
  obs::Histogram& ns = reg.histogram("task_ns", obs::Unit::Nanoseconds);
  par::ThreadPool pool(jobs);
  pool.run(96, [&](size_t task, int /*worker*/) {
    const obs::ScopedTimer t(ns);
    items.add();
    weight.add(task);
    // 1/64-grid values: fixed-point observation is exact, so the merged
    // sum is order-independent (same argument as DESIGN.md §7 reductions).
    values.observe(static_cast<double>(task % 64 + 1) / 64.0);
  });
  return reg.snapshot();
}

TEST_F(MetricsOn, PoolMergeIsDeterministicAcrossJobCounts) {
  const obs::Snapshot ref = poolSnapshot(1).withoutTimings();
  for (const int jobs : {2, 3, 7}) {
    EXPECT_EQ(poolSnapshot(jobs).withoutTimings(), ref) << "jobs=" << jobs;
  }
  // Timing histograms still record exactly one observation per task —
  // only their values are nondeterministic, never their counts.
  const obs::Snapshot full = poolSnapshot(4);
  bool sawTimer = false;
  for (const obs::HistogramSnapshot& h : full.histograms) {
    if (h.name == "task_ns") {
      EXPECT_EQ(h.unit, obs::Unit::Nanoseconds);
      EXPECT_EQ(h.count, 96U);
      sawTimer = true;
    }
  }
  EXPECT_TRUE(sawTimer);
}

// --- JSON rendering ------------------------------------------------------------

TEST(ObsJson, EmptySnapshotRendersEmptyObjects) {
  const obs::Snapshot s;
  EXPECT_EQ(s.toJson(),
            "{\n  \"counters\": {},\n  \"histograms\": {}\n}\n");
}

/// Same compare-or-rewrite helper as test_golden.cc: CATI_UPDATE_GOLDEN
/// rewrites the checked-in file (the tests/golden/update.sh path).
void compareOrUpdate(const std::string& name, const std::string& actual) {
  const fs::path p = fs::path(CATI_GOLDEN_DIR) / name;
  const char* update = std::getenv("CATI_UPDATE_GOLDEN");
  if (update != nullptr && std::string(update) != "0") {
    fs::create_directories(p.parent_path());
    std::ofstream os(p, std::ios::binary);
    os << actual;
    ASSERT_TRUE(os.good()) << "failed to write " << p;
    std::fprintf(stderr, "[golden] updated %s\n", p.string().c_str());
    return;
  }
  std::ifstream is(p, std::ios::binary);
  ASSERT_TRUE(is.good())
      << "missing golden file " << p
      << " — generate it with tests/golden/update.sh BUILD_DIR";
  std::ostringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), actual)
      << "golden mismatch for " << name
      << ". If the change is intentional, regenerate with "
         "tests/golden/update.sh and review the diff.";
}

TEST_F(MetricsOn, JsonSnapshotMatchesGolden) {
  // A hand-built registry covering every branch of the serializer: plain
  // counters, an escaped name, a populated Count histogram, a Nanoseconds
  // histogram (gets "unit": "ns"), and a registered-but-empty histogram
  // (no min/max keys, empty bucket list).
  obs::Registry reg;
  reg.counter("pipeline.bytes").add(uint64_t{1} << 30);
  reg.counter("pipeline.items").add(42);
  reg.counter("odd\"name\\").add(1);

  obs::Histogram& conf = reg.histogram("vote.confidence");
  for (int i = 1; i <= 8; ++i) {
    conf.observe(static_cast<double>(i) / 8.0);
  }
  obs::Histogram& lat = reg.histogram("stage_ns", obs::Unit::Nanoseconds);
  lat.observe(1536.0);
  lat.observe(262144.0);
  reg.histogram("touched.but.empty");

  compareOrUpdate("obs_snapshot.json", reg.snapshot().toJson());
}

}  // namespace
}  // namespace cati
