// Deterministic parallel execution primitives. The repo-wide concurrency
// contract (DESIGN.md §7) is that for a fixed seed, jobs=1 and jobs=N
// produce bit-identical artifacts — corpora, embeddings, model files,
// predictions, votes. The primitives here make that contract structural:
//
//   * chunking is fixed-grain: chunk boundaries depend only on (n, grain),
//     never on the job count or on which worker runs a chunk;
//   * reductions are ordered: each chunk writes its own partial, indexed
//     by chunk (parallelChunks), and the partials are combined in
//     ascending chunk index (the trainer's per-chunk losses; Adam's
//     per-element sum of the chunk gradient slabs), so floating-point
//     summation order is scheduling-independent;
//   * randomness is stream-split: a chunk derives its private Rng seed from
//     (base seed, chunk index) via cati::splitSeed, not from a shared
//     engine whose draw order would depend on scheduling.
//
// A ThreadPool with jobs()==1 runs every task inline on the calling thread
// in task order — the serial path *is* the parallel algorithm at N=1, which
// is what the differential suite in tests/test_parallel.cc pins down.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace cati::par {

/// Job-count resolution: an explicit request > 0 wins; otherwise the
/// CATI_JOBS environment variable (when a positive integer); otherwise
/// std::thread::hardware_concurrency() (>= 1).
int resolveJobs(int requested = 0);

/// Batch-size resolution, mirroring resolveJobs: an explicit request > 0
/// wins; otherwise the CATI_BATCH environment variable (when a positive
/// integer <= 65536); otherwise `fallback`. Batch size never affects
/// results — only how many samples share one forward pass (DESIGN.md §7).
int resolveBatch(int requested, int fallback);

/// A fixed-size pool of worker threads. Worker 0 is the calling thread;
/// jobs-1 persistent threads are spawned for workers 1..jobs-1.
class ThreadPool {
 public:
  /// jobs <= 0 resolves via resolveJobs().
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  /// Runs fn(task, worker) for task in [0, numTasks), blocking until all
  /// complete. Task-to-worker assignment is scheduling-dependent; callers
  /// must keep task *results* independent of it (distinct workers never
  /// share a worker index concurrently, so per-worker scratch is safe).
  /// With jobs()==1 tasks run inline in ascending order. If tasks throw,
  /// the exception of the lowest-indexed failing task is rethrown after
  /// every claimed task has drained. Not reentrant: never call run() from
  /// inside a task of the same pool.
  void run(size_t numTasks, const std::function<void(size_t, int)>& fn);

  /// True while the calling thread runs a task of some pool's run() —
  /// worker 0 and the inline jobs()==1 path included. Lets tests check
  /// that a step meant to stay ordered never moved into a task.
  static bool inTask();

 private:
  struct State;
  int jobs_ = 1;
  std::unique_ptr<State> state_;
  std::vector<std::thread> workers_;
};

/// Fixed-grain chunk count for [0, n): depends only on n and grain.
inline size_t numChunks(size_t n, size_t grain) {
  return n == 0 ? 0 : (n + grain - 1) / grain;
}

struct ChunkRange {
  size_t begin = 0;
  size_t end = 0;
};

/// Half-open range of chunk c under fixed grain.
inline ChunkRange chunkRange(size_t n, size_t grain, size_t c) {
  const size_t b = c * grain;
  return {b, std::min(n, b + grain)};
}

/// Runs fn(begin, end, chunk, worker) over the fixed-grain chunks of [0, n).
template <typename Fn>
void parallelChunks(ThreadPool& pool, size_t n, size_t grain, Fn&& fn) {
  pool.run(numChunks(n, grain), [&](size_t c, int worker) {
    const ChunkRange r = chunkRange(n, grain, c);
    fn(r.begin, r.end, c, worker);
  });
}

/// out[i] = fn(i) for i in [0, n); chunks write disjoint index ranges, so
/// the result is trivially scheduling-independent. T must be default
/// constructible (and not bool: std::vector<bool> packs bits).
template <typename T, typename Fn>
std::vector<T> parallelMap(ThreadPool& pool, size_t n, size_t grain, Fn&& fn) {
  std::vector<T> out(n);
  parallelChunks(pool, n, grain, [&](size_t b, size_t e, size_t, int) {
    for (size_t i = b; i < e; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace cati::par
