#include "serve/server.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/errors.h"
#include "common/obs.h"
#include "serve/analysis.h"

namespace cati::serve {

Server::Server(const Engine& engine, ServerConfig cfg)
    : engine_(engine),
      cfg_(std::move(cfg)),
      pool_(par::resolveJobs(cfg_.jobs)),
      listener_(sock::Listener::open(cfg_.listen)),
      cache_(cfg_.cacheBytes, cfg_.cacheDir, cfg_.cacheHash) {
  if (cfg_.maxGroup == 0) cfg_.maxGroup = 1;
  if (cfg_.maxOutbound == 0) cfg_.maxOutbound = 1;
  if (cfg_.decodeCacheBytes > 0) decodeCache_.emplace(cfg_.decodeCacheBytes);
}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  started_ = true;
  batchThread_ = std::thread([this] { batchLoop(); });
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

bool Server::waitUntilStopRequested(std::chrono::milliseconds timeout) {
  std::unique_lock lk(stopMu_);
  const auto pred = [this] { return stopRequested_.load(); };
  if (timeout.count() <= 0) {
    stopCv_.wait(lk, pred);
    return true;
  }
  return stopCv_.wait_for(lk, timeout, pred);
}

void Server::requestStop() {
  stopRequested_.store(true);
  std::lock_guard lk(stopMu_);
  stopCv_.notify_all();
}

void Server::pauseBatchForTest(bool paused) {
  std::lock_guard lk(queueMu_);
  batchPaused_ = paused;
  queueCv_.notify_all();
}

void Server::pauseWritersForTest(bool paused) {
  writersPaused_.store(paused);
  std::lock_guard lk(connsMu_);
  for (const auto& conn : conns_) {
    std::lock_guard cl(conn->mu);
    conn->cv.notify_all();
  }
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  requestStop();

  // 1. Close admission and clear the test pauses so nothing below can park.
  {
    std::lock_guard lk(queueMu_);
    rejectNew_ = true;
    batchPaused_ = false;
    queueCv_.notify_all();
  }
  pauseWritersForTest(false);

  // 2. Stop accepting.
  listener_.shutdownNow();
  if (acceptThread_.joinable()) acceptThread_.join();

  // 3. Drain: the batch loop processes every queued job, then exits — every
  //    admitted request gets its reply computed.
  {
    std::lock_guard lk(queueMu_);
    draining_ = true;
    queueCv_.notify_all();
  }
  if (batchThread_.joinable()) batchThread_.join();

  // 4. Flush writers (outbound queues now hold all remaining replies), then
  //    unblock and join the readers.
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard lk(connsMu_);
    conns = conns_;
  }
  for (const auto& conn : conns) {
    std::lock_guard cl(conn->mu);
    conn->flushing = true;
    conn->cv.notify_all();
  }
  for (const auto& conn : conns) {
    if (conn->writer.joinable()) conn->writer.join();
    conn->fd.shutdownNow();
    if (conn->reader.joinable()) conn->reader.join();
  }
  std::lock_guard lk(connsMu_);
  conns_.clear();
}

// --- connections ------------------------------------------------------------

void Server::acceptLoop() {
  static obs::Counter& accepted = obs::counter("serve.conns.accepted");
  for (;;) {
    sock::Fd fd = listener_.accept();
    if (!fd.valid()) break;  // shutdownNow (or a fatal accept error)
    reapFinishedConns();
    auto conn = std::make_shared<Conn>();
    conn->fd = std::move(fd);
    {
      std::lock_guard lk(connsMu_);
      conn->id = nextConnId_++;
      conns_.push_back(conn);
    }
    accepted.add();
    conn->reader = std::thread([this, conn] { readerLoop(*conn); });
    conn->writer = std::thread([this, conn] { writerLoop(*conn); });
  }
}

std::shared_ptr<Server::Conn> Server::findConn(uint64_t id) {
  std::lock_guard lk(connsMu_);
  for (const auto& conn : conns_) {
    if (conn->id == id) return conn;
  }
  return nullptr;
}

void Server::reapFinishedConns() {
  std::vector<std::shared_ptr<Conn>> dead;
  {
    std::lock_guard lk(connsMu_);
    auto alive = conns_.begin();
    for (auto& conn : conns_) {
      if (conn->exited.load() == 2) {
        dead.push_back(std::move(conn));
      } else {
        *alive++ = std::move(conn);
      }
    }
    conns_.erase(alive, conns_.end());
  }
  for (const auto& conn : dead) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
  }
}

void Server::readerLoop(Conn& conn) {
  static obs::Counter& received = obs::counter("serve.requests.received");
  static obs::Counter& overload = obs::counter("serve.requests.overload");
  static obs::Counter& stopping = obs::counter("serve.requests.stopping");
  static obs::Counter& badFrames = obs::counter("serve.conn.bad_frames");
  for (;;) {
    Frame f;
    const ReadStatus st = readFrame(conn.fd.get(), f);
    if (st == ReadStatus::kEof) break;
    if (st == ReadStatus::kBad) {
      // Malformed frame or mid-frame disconnect: the stream cannot be
      // resynchronized. Say why (when the peer still listens) and hang up.
      badFrames.add();
      sendError(conn.id, ErrorCode::kBadRequest, "malformed frame");
      break;
    }
    switch (f.type) {
      case MsgType::kPing:
        trySend(conn.id, encodeFrame(MsgType::kPong, ""));
        break;
      case MsgType::kMetrics:
        trySend(conn.id,
                encodeFrame(MsgType::kMetricsJson,
                            obs::Registry::global().snapshot().toJson()));
        break;
      case MsgType::kAnalyze: {
        received.add();
        Job job;
        job.connId = conn.id;
        job.payload = std::move(f.payload);
        switch (pushJob(std::move(job))) {
          case PushResult::kOk:
            break;
          case PushResult::kFull:
            overload.add();
            sendError(conn.id, ErrorCode::kOverload,
                      "admission queue full; retry later");
            break;
          case PushResult::kStopping:
            stopping.add();
            sendError(conn.id, ErrorCode::kShuttingDown,
                      "daemon is draining");
            break;
        }
        break;
      }
      default:
        // A well-framed message of a type we do not serve: typed error, but
        // the stream is still synchronized — keep the connection.
        sendError(conn.id, ErrorCode::kBadRequest, "unknown message type");
        break;
    }
  }
  // Reader is done: the writer drains whatever is queued, then exits.
  {
    std::lock_guard lk(conn.mu);
    conn.flushing = true;
    conn.cv.notify_all();
  }
  conn.exited.fetch_add(1);
}

void Server::writerLoop(Conn& conn) {
  static obs::Counter& closedConns = obs::counter("serve.conns.closed");
  for (;;) {
    std::string frame;
    {
      std::unique_lock lk(conn.mu);
      conn.cv.wait(lk, [&] {
        if (conn.closed) return true;
        if (conn.flushing && conn.outbound.empty()) return true;
        return !conn.outbound.empty() && !writersPaused_.load();
      });
      if (conn.closed) break;
      if (conn.outbound.empty()) break;  // flushing and drained
      if (writersPaused_.load()) continue;
      frame = std::move(conn.outbound.front());
      conn.outbound.pop_front();
    }
    if (!sock::sendAll(conn.fd.get(), frame.data(), frame.size())) {
      std::lock_guard lk(conn.mu);
      conn.closed = true;
      conn.cv.notify_all();
      break;
    }
  }
  {
    // No more sends will happen; unblock a reader stuck on a vanished peer
    // and make trySend fail fast from here on.
    std::lock_guard lk(conn.mu);
    conn.closed = true;
    conn.cv.notify_all();
  }
  closedConns.add();
  conn.fd.shutdownNow();
  conn.exited.fetch_add(1);
}

bool Server::trySend(uint64_t connId, std::string frame) {
  static obs::Counter& dropped = obs::counter("serve.conn.dropped_replies");
  static obs::Counter& slowDropped = obs::counter("serve.conn.slow_dropped");
  const std::shared_ptr<Conn> conn = findConn(connId);
  if (!conn) {
    dropped.add();
    return false;
  }
  std::lock_guard lk(conn->mu);
  if (conn->closed) {
    dropped.add();
    return false;
  }
  if (conn->outbound.size() >= cfg_.maxOutbound) {
    // Slow client: its replies are piling up faster than it reads them.
    // Drop the connection rather than block or buffer unboundedly — the
    // batch loop must never wait on one peer's socket.
    slowDropped.add();
    conn->closed = true;
    conn->fd.shutdownNow();
    conn->cv.notify_all();
    return false;
  }
  conn->outbound.push_back(std::move(frame));
  conn->cv.notify_all();
  return true;
}

void Server::sendError(uint64_t connId, ErrorCode code,
                       const std::string& msg) {
  trySend(connId, encodeFrame(MsgType::kError,
                              encodeErrorReply(ErrorReply{code, msg})));
}

// --- admission + batch loop -------------------------------------------------

Server::PushResult Server::pushJob(Job job) {
  static obs::Counter& queued = obs::counter("serve.requests.queued");
  std::lock_guard lk(queueMu_);
  if (rejectNew_) return PushResult::kStopping;
  if (queue_.size() >= cfg_.maxQueue) return PushResult::kFull;
  queue_.push_back(std::move(job));
  queued.add();
  queueCv_.notify_all();
  return PushResult::kOk;
}

bool Server::popGroup(std::vector<Job>& out) {
  std::unique_lock lk(queueMu_);
  for (;;) {
    queueCv_.wait(lk, [&] {
      if (draining_) return true;
      return !batchPaused_ && !queue_.empty();
    });
    if (queue_.empty()) {
      if (draining_) return false;
      continue;  // spurious
    }
    const size_t take = std::min(queue_.size(), cfg_.maxGroup);
    out.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return true;
  }
}

void Server::batchLoop() {
  std::vector<Job> group;
  while (popGroup(group)) {
    processGroup(group);
    group.clear();
  }
}

void Server::processGroup(std::vector<Job>& group) {
  static obs::Counter& groups = obs::counter("serve.groups");
  static obs::Counter& groupedReqs = obs::counter("serve.grouped_requests");
  static obs::Counter& coalescedVucs = obs::counter("serve.coalesced_vucs");
  static obs::Counter& badReqs = obs::counter("serve.requests.bad");
  static obs::Counter& cacheWriteFailed =
      obs::counter("serve.cache.write_failed");
  static obs::Histogram& groupSize = obs::histogram("serve.group_size");
  static obs::Histogram& batchNs = obs::timer("serve.batch_ns");
  const obs::ScopedTimer timing(batchNs);
  groups.add();
  groupedReqs.add(group.size());
  groupSize.observe(static_cast<double>(group.size()));

  const auto errorFrame = [](ErrorCode code, const std::string& msg) {
    return encodeFrame(MsgType::kError,
                       encodeErrorReply(ErrorReply{code, msg}));
  };

  // Phase 1 per job: cache lookup, decode, prepare the whole request as one
  // chunk. Misses record their slice of the coalesced chunk stream.
  std::vector<std::string> replies(group.size());
  std::vector<std::optional<loader::Image>> imgs(group.size());
  std::vector<std::optional<ImageAnalysis>> preps(group.size());
  std::vector<DiagList> imgDiags(group.size());
  std::vector<size_t> sliceBegin(group.size(), 0);
  ChunkStream all;
  for (size_t i = 0; i < group.size(); ++i) {
    const Job& job = group[i];
    if (auto hit = cache_.lookup(job.payload)) {
      // The cache stores encoded reply frames, so a hit is byte-identical
      // on the wire to the miss that populated it.
      replies[i] = std::move(*hit);
      continue;
    }
    AnalyzeRequest req;
    try {
      req = decodeAnalyzeRequest(job.payload);
    } catch (const CorruptError& e) {
      badReqs.add();
      replies[i] = errorFrame(ErrorCode::kBadRequest, e.what());
      continue;
    }
    std::istringstream is(req.image);
    imgs[i] = loader::tryRead(is, imgDiags[i]);
    if (!imgs[i]) {
      badReqs.add();
      std::ostringstream ds;
      print(imgDiags[i], ds);
      replies[i] =
          errorFrame(ErrorCode::kBadRequest, "image rejected:\n" + ds.str());
      continue;
    }
    try {
      preps[i].emplace(*imgs[i], &pool_, req.confMin,
                       decodeCache_ ? &*decodeCache_ : nullptr);
      preps[i]->prepareChunk(engine_);
      sliceBegin[i] = all.numVucs();
      all.append(preps[i]->stream());
    } catch (const std::exception& e) {
      preps[i].reset();
      replies[i] = errorFrame(ErrorCode::kInternal, e.what());
    }
  }

  // Phase 2: ONE routed predict over every miss's stream, concatenated —
  // queued work from different requests shares conv lanes and batches
  // here. Appending keeps every request's variable keys apart, so each
  // variable routes on its own VUCs; the kernels keep every output's op
  // sequence, so each request's slice is bit-identical to its offline
  // predict (DESIGN.md §7/§10).
  std::vector<StageProbs> probs;
  if (all.numVucs() > 0) {
    coalescedVucs.add(all.numVucs());
    probs = engine_.predictStream(all, &pool_, cfg_.batch, StagePlan::kRouted);
  }

  // Phase 3 per miss: vote, render, cache, reply.
  for (size_t i = 0; i < group.size(); ++i) {
    if (!preps[i]) continue;
    try {
      preps[i]->finishChunk(engine_,
                            std::span<const StageProbs>(probs).subspan(
                                sliceBegin[i], preps[i]->stream().numVucs()));
      const AnalyzeResult result = std::move(*preps[i]).result();
      // Validation diagnostics precede analysis diagnostics, exactly the
      // order the offline tool prints them in.
      std::ostringstream ds;
      print(imgDiags[i], ds);
      print(result.diags, ds);
      replies[i] = encodeFrame(
          MsgType::kReport,
          encodeReportReply(ReportReply{result.report, ds.str()}));
      try {
        cache_.insert(group[i].payload, replies[i]);
      } catch (const IoError&) {
        // A cache that cannot persist is a slower cache, not a failed
        // request.
        cacheWriteFailed.add();
      }
    } catch (const std::exception& e) {
      replies[i] = errorFrame(ErrorCode::kInternal, e.what());
    }
  }

  // Deliver in arrival order (per-connection analyze ordering guarantee).
  for (size_t i = 0; i < group.size(); ++i) {
    trySend(group[i].connId, std::move(replies[i]));
    noteAnalyzeReply();
  }
}

void Server::noteAnalyzeReply() {
  static obs::Counter& repliesTotal = obs::counter("serve.replies");
  repliesTotal.add();
  const long n = analyzeReplies_.fetch_add(1) + 1;
  if (cfg_.maxRequests > 0 && n >= cfg_.maxRequests) requestStop();
}

}  // namespace cati::serve
