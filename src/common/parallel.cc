#include "common/parallel.h"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>

namespace cati::par {

int resolveJobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CATI_JOBS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 1024) {
      return static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int resolveBatch(int requested, int fallback) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CATI_BATCH")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 65536) {
      return static_cast<int>(v);
    }
  }
  return fallback < 1 ? 1 : fallback;
}

namespace {

/// Nesting depth of run() tasks on this thread.
thread_local int tTaskDepth = 0;

/// Runs one task with tTaskDepth raised.
void runTask(const std::function<void(size_t, int)>& fn, size_t task,
             int worker) {
  ++tTaskDepth;
  struct Lower {
    ~Lower() { --tTaskDepth; }
  } lower;
  fn(task, worker);
}

}  // namespace

bool ThreadPool::inTask() { return tTaskDepth > 0; }

struct ThreadPool::State {
  std::mutex m;
  std::condition_variable workCv;  // workers wait here for a new generation
  std::condition_variable doneCv;  // run() waits here for completion
  const std::function<void(size_t, int)>* job = nullptr;
  size_t numTasks = 0;
  size_t nextTask = 0;
  size_t unfinished = 0;
  uint64_t generation = 0;
  bool stop = false;
  std::exception_ptr firstError;
  size_t firstErrorTask = 0;

  // Claims and executes tasks of the current generation until none remain.
  void work(int worker) {
    std::unique_lock lock(m);
    const auto* fn = job;
    for (;;) {
      if (nextTask >= numTasks) return;
      const size_t task = nextTask++;
      lock.unlock();
      std::exception_ptr err;
      try {
        runTask(*fn, task, worker);
      } catch (...) {
        err = std::current_exception();
      }
      lock.lock();
      if (err && (!firstError || task < firstErrorTask)) {
        firstError = err;
        firstErrorTask = task;
      }
      if (--unfinished == 0) doneCv.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int jobs)
    : jobs_(resolveJobs(jobs)), state_(new State) {
  workers_.reserve(static_cast<size_t>(jobs_ - 1));
  for (int w = 1; w < jobs_; ++w) {
    workers_.emplace_back([this, w] {
      State& s = *state_;
      uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock lock(s.m);
          s.workCv.wait(lock, [&] { return s.stop || s.generation != seen; });
          if (s.stop) return;
          seen = s.generation;
        }
        s.work(w);
      }
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(state_->m);
    state_->stop = true;
  }
  state_->workCv.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::run(size_t numTasks,
                     const std::function<void(size_t, int)>& fn) {
  if (numTasks == 0) return;
  if (jobs_ == 1) {
    for (size_t t = 0; t < numTasks; ++t) runTask(fn, t, 0);
    return;
  }
  State& s = *state_;
  {
    std::lock_guard lock(s.m);
    s.job = &fn;
    s.numTasks = numTasks;
    s.nextTask = 0;
    s.unfinished = numTasks;
    s.firstError = nullptr;
    ++s.generation;
  }
  s.workCv.notify_all();
  s.work(0);
  std::unique_lock lock(s.m);
  s.doneCv.wait(lock, [&] { return s.unfinished == 0; });
  const std::exception_ptr err = s.firstError;
  s.firstError = nullptr;
  s.job = nullptr;
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

}  // namespace cati::par
