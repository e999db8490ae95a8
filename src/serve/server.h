// The cati-serve daemon core (DESIGN.md §10): one Engine loaded once, many
// connections, one batch loop.
//
// Thread model:
//
//   accept thread           accepts connections, reaps finished ones
//   per-connection reader   parses frames; answers ping/metrics inline;
//                           enqueues analyze jobs (or typed overload /
//                           shutting-down errors when the queue rejects)
//   per-connection writer   drains a bounded outbound queue to the socket
//   batch loop (ONE thread) pops up to maxGroup queued jobs, serves cache
//                           hits, prepares misses, runs a single routed
//                           predictStream over every miss's chunk stream,
//                           concatenated (fan-out happens inside, on the
//                           server's pool), renders
//                           and caches replies, hands them to the writers
//
// The engine is const: inference never changes it, so it needs no lock and
// may serve other threads too. The result cache and all analysis state are
// touched by the batch loop only, which keeps cache accounting
// deterministic. Parallelism comes from the pool inside
// predictStream (exactly the offline tool's), so serving inherits the jobs=N
// determinism contract unchanged.
//
// Backpressure, in order of defence:
//   * bounded admission queue (maxQueue): a full queue is a typed kOverload
//     reply, not an unbounded buffer;
//   * bounded per-connection outbound queue (maxOutbound) with non-blocking
//     handoff: a client that stops reading gets dropped
//     (serve.conn.slow_dropped) — the batch loop NEVER blocks on a socket;
//   * clean shutdown: stop() closes admission (kShuttingDown replies),
//     drains every queued job through the batch loop, flushes writers, then
//     joins everything.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cati/engine.h"
#include "common/parallel.h"
#include "common/sock.h"
#include "loader/cache.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace cati::serve {

struct ServerConfig {
  sock::Address listen;
  int jobs = 0;   ///< pool size; 0 = CATI_JOBS / hardware concurrency
  /// Has no effect: the benchmark harness still sets it; it goes with
  /// that caller (ROADMAP item 2).
  int batch = 0;
  size_t maxQueue = 64;     ///< admission bound (queued analyze jobs)
  size_t maxGroup = 16;     ///< max requests coalesced per predict pass
  size_t maxOutbound = 64;  ///< per-connection reply bound before drop
  size_t cacheBytes = 0;    ///< result-cache budget; 0 disables
  std::filesystem::path cacheDir;  ///< empty: in-memory cache
  /// Decode+lowering cache budget shared across the batch loop's requests
  /// (repeat binaries skip decode + IR construction); 0 disables.
  size_t decodeCacheBytes = loader::DecodeCache::kDefaultBytes;
  long maxRequests = 0;  ///< >0: request stop after N analyze replies
  ResultCache::HashFn cacheHash = nullptr;  ///< test override
};

class Server {
 public:
  /// Binds the listen address (throws cati::IoError on failure) and opens
  /// the result cache; no threads yet.
  Server(const Engine& engine, ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound address — for tcp:0 it carries the real ephemeral port.
  const sock::Address& bound() const { return listener_.bound(); }

  /// Spawns the accept and batch threads and starts serving.
  void start();

  /// Blocks until requestStop() was called (by --max-requests or another
  /// thread), or until `timeout` elapses (zero: wait forever). Returns
  /// whether a stop was requested — the polling form exists so a tool can
  /// interleave checks of a signal-handler flag (a handler cannot safely
  /// touch the cv itself).
  bool waitUntilStopRequested(std::chrono::milliseconds timeout =
                                  std::chrono::milliseconds(0));

  /// Marks the server as stopping and wakes waitUntilStopRequested().
  /// Async-signal-unsafe parts (locks) are confined to stop(); this only
  /// flips an atomic and pokes a self-pipe-free cv via a dedicated mutex.
  void requestStop();

  /// Graceful shutdown: stop accepting, reject new work, drain queued jobs
  /// through the batch loop, flush writers, join every thread. Idempotent.
  void stop();

  // --- deterministic test seams ---
  /// While paused the batch loop pops nothing: queued jobs pile up, so a
  /// test can force M requests into one coalesced group, or overload the
  /// admission queue, without racing the loop. stop() clears the pause.
  void pauseBatchForTest(bool paused);
  /// While paused the connection writers drain nothing: replies pile up in
  /// the bounded outbound queues, so a test can exercise the slow-client
  /// drop deterministically. stop() clears the pause.
  void pauseWritersForTest(bool paused);

 private:
  struct Job {
    uint64_t connId = 0;
    std::string payload;  ///< raw analyze payload — the cache key
  };

  enum class PushResult : uint8_t { kOk, kFull, kStopping };

  struct Conn {
    uint64_t id = 0;
    sock::Fd fd;
    std::thread reader;
    std::thread writer;

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::string> outbound;  ///< encoded frames awaiting send
    bool closed = false;    ///< no more sends accepted
    bool flushing = false;  ///< writer exits once outbound is empty
    std::atomic<int> exited{0};  ///< reapable when both threads finished
  };

  void acceptLoop();
  void readerLoop(Conn& conn);
  void writerLoop(Conn& conn);
  void batchLoop();
  /// One coalesced pass over up to maxGroup jobs (cache hits answered from
  /// the cache, misses through one routed predictStream, each request's
  /// variables routed on their own VUCs).
  void processGroup(std::vector<Job>& group);

  /// Hands an encoded frame to `conn`'s writer without ever blocking: false
  /// (and a dropped connection) when the outbound queue is full or the
  /// connection already closed.
  bool trySend(uint64_t connId, std::string frame);
  void sendError(uint64_t connId, ErrorCode code, const std::string& msg);

  PushResult pushJob(Job job);
  /// Pops 1..maxGroup jobs; blocks while the queue is empty or the batch
  /// loop is paused. False when draining finished and the queue is empty —
  /// the batch loop's exit condition.
  bool popGroup(std::vector<Job>& out);

  /// Looks up a live connection by id (nullptr after it was reaped).
  std::shared_ptr<Conn> findConn(uint64_t id);
  void reapFinishedConns();
  /// Notes one analyze reply toward --max-requests.
  void noteAnalyzeReply();

  const Engine& engine_;
  ServerConfig cfg_;
  par::ThreadPool pool_;
  sock::Listener listener_;
  ResultCache cache_;
  /// Owned by the server, threaded through every ImageAnalysis of the
  /// batch loop; nullopt when decodeCacheBytes == 0.
  std::optional<loader::DecodeCache> decodeCache_;

  std::thread acceptThread_;
  std::thread batchThread_;

  std::mutex connsMu_;
  std::vector<std::shared_ptr<Conn>> conns_;
  uint64_t nextConnId_ = 1;

  std::mutex queueMu_;
  std::condition_variable queueCv_;
  std::deque<Job> queue_;
  bool draining_ = false;      ///< batch loop: finish the queue, then exit
  bool rejectNew_ = false;     ///< admission: reply kShuttingDown
  bool batchPaused_ = false;   ///< test seam
  std::atomic<bool> writersPaused_{false};  ///< test seam

  std::mutex stopMu_;
  std::condition_variable stopCv_;
  std::atomic<bool> stopRequested_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<long> analyzeReplies_{0};
  bool started_ = false;
};

}  // namespace cati::serve
