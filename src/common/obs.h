// Lightweight observability: named counters, log-bucketed histograms and
// RAII scoped timers behind a process-global enable flag (DESIGN.md §8).
//
// Design constraints, in priority order:
//
//   * Near-zero cost when disabled. Every record path starts with one
//     relaxed atomic-bool load and a predictable branch; handles are
//     resolved once (function-local statics) so hot loops never touch the
//     registry map.
//   * Determinism. The repo-wide contract (DESIGN.md §7) says jobs=1 and
//     jobs=N produce bit-identical artifacts; enabling metrics must not
//     weaken that, and the *metrics themselves* must obey it for everything
//     that is not a wall-clock measurement. Counters are integer atomics
//     (addition commutes exactly), histogram value sums are accumulated in
//     2^-20 fixed point (integer adds, no float reassociation), and
//     snapshots serialize in lexicographic name order — the same
//     order-independence argument as parallel.h's ordered reductions.
//     Timing metrics (Unit::Nanoseconds) are inherently nondeterministic;
//     Snapshot::withoutTimings() strips them for differential tests.
//   * Thread safety. Metric cells are lock-free atomics; the registry map
//     is mutex-guarded but only touched on handle creation and snapshot.
//
// Typical instrumentation:
//
//   static obs::Counter& vucs = obs::counter("corpus.vucs");
//   vucs.add(ds.vucs.size());
//
//   static obs::Histogram& t = obs::timer("engine.infer.batch_ns");
//   obs::ScopedTimer timer(t);   // observes elapsed ns at scope exit
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cati::obs {

/// Process-global metrics switch. Initialized from the CATI_METRICS
/// environment variable on first query (unset, "" or "0" mean off); the
/// tools' --metrics flag and the bench harness flip it explicitly.
bool enabled();
void setEnabled(bool on);

// --- fixed-point value domain -------------------------------------------------

/// Histogram sums/extrema use 2^-20 fixed point so parallel accumulation is
/// integer (exactly associative). ~1e-6 resolution; values are clamped to
/// the representable range (|v| <= ~8.7e12) which comfortably holds both
/// probabilities and nanosecond latencies up to hours.
inline constexpr int64_t kFxOne = 1 << 20;
int64_t toFx(double v);
double fromFx(int64_t fx);

inline constexpr int kNumBuckets = 64;
/// Log2 bucketing: bucket 0 is (-inf, 2^-20); bucket i in [1, 62] covers
/// [2^(i-21), 2^(i-20)); bucket 63 is [2^42, inf). One scheme spans
/// sub-probability values and multi-minute nanosecond latencies.
int bucketIndex(double v);
double bucketLowerBound(int i);

enum class Unit : uint8_t {
  Count,        ///< dimensionless values (sample counts, confidences)
  Nanoseconds,  ///< wall-clock durations; excluded by withoutTimings()
};

// --- metric cells -------------------------------------------------------------

/// Monotonic integer counter. add() is a relaxed fetch_add when enabled,
/// a single load+branch when disabled.
class Counter {
 public:
  void add(uint64_t delta = 1) {
    if (enabled()) v_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Log-bucketed histogram with count / fixed-point sum / min / max.
class Histogram {
 public:
  explicit Histogram(Unit unit = Unit::Count) : unit_(unit) {}

  void observe(double v);

  Unit unit() const { return unit_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return fromFx(sumFx()); }
  /// Minimum/maximum observed value; 0 when empty.
  double min() const;
  double max() const;
  /// Raw fixed-point accessors — exact, no double round-trip.
  int64_t sumFx() const { return sumFx_.load(std::memory_order_relaxed); }
  int64_t minFx() const { return minFx_.load(std::memory_order_relaxed); }
  int64_t maxFx() const { return maxFx_.load(std::memory_order_relaxed); }
  uint64_t bucketCount(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  Unit unit_;
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sumFx_{0};
  std::atomic<int64_t> minFx_{INT64_MAX};
  std::atomic<int64_t> maxFx_{INT64_MIN};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

// --- snapshots ----------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;

  bool operator==(const CounterSnapshot&) const = default;
};

struct HistogramSnapshot {
  std::string name;
  Unit unit = Unit::Count;
  uint64_t count = 0;
  int64_t sumFx = 0;
  int64_t minFx = 0;  ///< meaningful only when count > 0
  int64_t maxFx = 0;  ///< meaningful only when count > 0
  /// (bucketIndex, count) pairs, ascending index, empty buckets omitted.
  std::vector<std::pair<int, uint64_t>> buckets;

  double sum() const { return fromFx(sumFx); }
  double min() const { return count ? fromFx(minFx) : 0.0; }
  double max() const { return count ? fromFx(maxFx) : 0.0; }

  bool operator==(const HistogramSnapshot&) const = default;
};

/// A point-in-time copy of every registered metric, sorted by name.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// Copy with all Unit::Nanoseconds histograms removed — everything that
  /// remains is bit-for-bit identical across job counts (DESIGN.md §8).
  Snapshot withoutTimings() const;

  /// Deterministic JSON: keys in name order, counters as integers, sums
  /// and extrema as fixed-point-derived decimals, buckets as
  /// [index, count] pairs (bounds are 2^(index-21), see bucketLowerBound).
  std::string toJson() const;

  bool operator==(const Snapshot&) const = default;
};

// --- registry -----------------------------------------------------------------

/// Name -> metric map. Handles returned by counter()/histogram() stay valid
/// for the registry's lifetime (node-based map + unique_ptr cells).
/// Instrumentation uses the global() instance; tests may construct private
/// registries for isolation.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(std::string_view name);
  /// Throws std::logic_error if `name` is already registered with a
  /// different unit (two call sites disagreeing is a bug worth surfacing).
  Histogram& histogram(std::string_view name, Unit unit = Unit::Count);

  Snapshot snapshot() const;
  /// Zeroes every metric's values; registered names and handles survive.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Global-registry conveniences (what instrumentation sites use).
inline Counter& counter(std::string_view name) {
  return Registry::global().counter(name);
}
inline Histogram& histogram(std::string_view name, Unit unit = Unit::Count) {
  return Registry::global().histogram(name, unit);
}
/// A nanosecond-unit histogram — the target type for ScopedTimer. By
/// convention timing metrics are named with an `_ns` suffix.
inline Histogram& timer(std::string_view name) {
  return Registry::global().histogram(name, Unit::Nanoseconds);
}

/// RAII timer: observes the elapsed wall-clock nanoseconds into `h` at
/// scope exit. When metrics are disabled at construction the destructor is
/// a null check — no clock reads at all.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(enabled() ? &h : nullptr),
        start_(h_ ? std::chrono::steady_clock::now()
                  : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (h_ != nullptr) {
      h_->observe(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cati::obs
