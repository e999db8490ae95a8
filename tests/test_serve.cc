// The cati-serve test layer (DESIGN.md §10): protocol framing/codec
// round-trips and corruption handling, result-cache correctness (hit/miss/
// eviction accounting, corrupt-entry rejection, collision guard, restart
// recovery), the coalesced-predict invariance that underwrites cross-request
// batching, a golden serve report, and the in-process differential suite
// proving every daemon reply is byte-identical to offline inference —
// including under backpressure, slow clients, mid-request disconnects and
// graceful shutdown. Subprocess cases pin the cati-serve CLI contract and
// the binary-level serve-vs-infer equivalence.
//
// Shares the ./cati_test_cache/ micro model (RESOURCE_LOCK micro_model_cache).
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/errors.h"
#include "common/fault.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "dataflow/recovery.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/framed_model.h"
#include "support/golden.h"
#include "support/micro_model.h"

#ifndef CATI_TOOL_DIR
#define CATI_TOOL_DIR "tools"
#endif

namespace cati::serve {
namespace {

namespace stdfs = std::filesystem;

std::string toolPath(const std::string& tool) {
  return (stdfs::path(CATI_TOOL_DIR) / tool).string();
}

/// Serialized image container bytes for micro binary `idx`.
std::string microImageBytes(size_t idx, bool stripped) {
  const auto bins = testsupport::microBinaries();
  loader::Image img = loader::buildImage(bins.at(idx));
  if (stripped) loader::strip(img);
  std::ostringstream os;
  loader::write(img, os);
  return std::move(os).str();
}

/// What the offline tool would print for these image bytes: stdout report
/// plus the rendered stderr diagnostics — the differential reference.
struct Expected {
  std::string report;
  std::string diagsText;
};

Expected offlineExpected(Engine& engine, const std::string& imageBytes,
                         float confMin = 0.0F, int batch = 0, int jobs = 1) {
  DiagList imgDiags;
  std::istringstream is(imageBytes);
  const auto img = loader::tryRead(is, imgDiags);
  EXPECT_TRUE(img.has_value());
  par::ThreadPool pool(jobs);
  AnalyzeOptions opts;
  opts.confMin = confMin;
  const AnalyzeResult r = analyzeImage(engine, *img, &pool, batch, opts);
  Expected e;
  e.report = r.report;
  std::ostringstream ds;
  print(imgDiags, ds);
  print(r.diags, ds);
  e.diagsText = ds.str();
  return e;
}

bool waitFor(const std::function<bool()>& pred, int ms = 10000) {
  for (int i = 0; i < ms; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

uint64_t counterValue(const char* name) { return obs::counter(name).value(); }

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    dir_ = stdfs::temp_directory_path() /
           ("cati_serve_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override {
    fault::configureForTest("");
    stdfs::remove_all(dir_);
  }

  sock::Address unixAddr(const std::string& name = "s.sock") {
    return sock::Address::parse("unix:" + (dir_ / name).string());
  }

  stdfs::path dir_;
};

// --- sockets & framing ------------------------------------------------------

TEST_F(ServeTest, AddressParse) {
  const auto u = sock::Address::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, sock::Address::Kind::kUnix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.str(), "unix:/tmp/x.sock");

  const auto t = sock::Address::parse("tcp:8321");
  EXPECT_EQ(t.kind, sock::Address::Kind::kTcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 8321);

  const auto h = sock::Address::parse("tcp:10.0.0.1:80");
  EXPECT_EQ(h.host, "10.0.0.1");
  EXPECT_EQ(h.port, 80);

  EXPECT_THROW(sock::Address::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("tcp:"), std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("tcp:notaport"), std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("tcp:70000"), std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("tcp:name.example:80"),
               std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("http:80"), std::invalid_argument);
  EXPECT_THROW(sock::Address::parse("unix:" + std::string(200, 'x')),
               std::invalid_argument);
}

/// A connected AF_UNIX stream pair for driving readFrame directly.
struct Pair {
  sock::Fd a;
  sock::Fd b;
  Pair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = sock::Fd(fds[0]);
    b = sock::Fd(fds[1]);
  }
};

TEST_F(ServeTest, FrameRoundTrip) {
  Pair p;
  const std::string body = std::string("hello\0world", 11);
  const std::string wire = encodeFrame(MsgType::kAnalyze, body);
  ASSERT_TRUE(sock::sendAll(p.a.get(), wire.data(), wire.size()));
  Frame f;
  ASSERT_EQ(readFrame(p.b.get(), f), ReadStatus::kOk);
  EXPECT_EQ(f.type, MsgType::kAnalyze);
  EXPECT_EQ(f.payload, body);

  // Clean close between frames is kEof.
  p.a.reset();
  EXPECT_EQ(readFrame(p.b.get(), f), ReadStatus::kEof);
}

TEST_F(ServeTest, FrameCorruptionIsBad) {
  // Flip one payload byte: the CRC trailer catches it.
  {
    Pair p;
    std::string wire = encodeFrame(MsgType::kPing, "payload-bytes");
    wire[wire.size() - 8] ^= 0x40;  // inside the payload
    ASSERT_TRUE(sock::sendAll(p.a.get(), wire.data(), wire.size()));
    Frame f;
    EXPECT_EQ(readFrame(p.b.get(), f), ReadStatus::kBad);
  }
  // Bad magic.
  {
    Pair p;
    std::string wire = encodeFrame(MsgType::kPing, "x");
    wire[0] = 'Z';
    ASSERT_TRUE(sock::sendAll(p.a.get(), wire.data(), wire.size()));
    Frame f;
    EXPECT_EQ(readFrame(p.b.get(), f), ReadStatus::kBad);
  }
  // Hostile length field: rejected before any allocation.
  {
    Pair p;
    std::string wire = encodeFrame(MsgType::kPing, "x");
    const uint64_t huge = kMaxFramePayload + 1;
    std::memcpy(wire.data() + 8, &huge, sizeof(huge));
    ASSERT_TRUE(sock::sendAll(p.a.get(), wire.data(), wire.size()));
    Frame f;
    EXPECT_EQ(readFrame(p.b.get(), f), ReadStatus::kBad);
  }
  // Mid-frame close: kBad, not kEof.
  {
    Pair p;
    const std::string wire = encodeFrame(MsgType::kPing, "truncated");
    ASSERT_TRUE(sock::sendAll(p.a.get(), wire.data(), wire.size() / 2));
    p.a.reset();
    Frame f;
    EXPECT_EQ(readFrame(p.b.get(), f), ReadStatus::kBad);
  }
}

TEST_F(ServeTest, PayloadCodecsRoundTrip) {
  AnalyzeRequest req;
  req.confMin = 0.25F;
  req.image = std::string("\x00\x01IMG", 5);
  const AnalyzeRequest back = decodeAnalyzeRequest(encodeAnalyzeRequest(req));
  EXPECT_EQ(back.confMin, req.confMin);
  EXPECT_EQ(back.image, req.image);

  ReportReply rep{"report text\n", "warning[engine]: x\n"};
  const ReportReply rback = decodeReportReply(encodeReportReply(rep));
  EXPECT_EQ(rback.report, rep.report);
  EXPECT_EQ(rback.diagsText, rep.diagsText);

  ErrorReply err{ErrorCode::kOverload, "queue full"};
  const ErrorReply eback = decodeErrorReply(encodeErrorReply(err));
  EXPECT_EQ(eback.code, ErrorCode::kOverload);
  EXPECT_EQ(eback.message, "queue full");
  EXPECT_EQ(errorCodeName(eback.code), "overload");
}

TEST_F(ServeTest, PayloadCodecsRejectGarbage) {
  EXPECT_THROW(decodeAnalyzeRequest(""), CorruptError);
  EXPECT_THROW(decodeAnalyzeRequest("garbage-bytes"), CorruptError);
  // Wrong version.
  {
    AnalyzeRequest req;
    req.image = "i";
    std::string p = encodeAnalyzeRequest(req);
    p[0] = 9;
    EXPECT_THROW(decodeAnalyzeRequest(p), CorruptError);
  }
  // Trailing bytes after a well-formed payload.
  {
    AnalyzeRequest req;
    req.image = "i";
    const std::string p = encodeAnalyzeRequest(req) + "x";
    EXPECT_THROW(decodeAnalyzeRequest(p), CorruptError);
  }
  // Truncation inside the image string.
  {
    AnalyzeRequest req;
    req.image = "a-long-enough-image-string";
    std::string p = encodeAnalyzeRequest(req);
    p.resize(p.size() - 4);
    EXPECT_THROW(decodeAnalyzeRequest(p), CorruptError);
  }
  EXPECT_THROW(decodeReportReply("zz"), CorruptError);
}

// --- result cache -----------------------------------------------------------

TEST_F(ServeTest, CacheHitMissEvictionAccounting) {
  const uint64_t hits0 = counterValue("serve.cache.hits");
  const uint64_t misses0 = counterValue("serve.cache.misses");
  const uint64_t evict0 = counterValue("serve.cache.evictions");

  ResultCache cache(64);  // tiny: key+value sizes below are ~20 bytes each
  EXPECT_FALSE(cache.lookup("k1").has_value());
  cache.insert("k1", "value-one");
  EXPECT_EQ(cache.lookup("k1").value(), "value-one");
  EXPECT_EQ(cache.entries(), 1U);
  EXPECT_EQ(cache.bytes(), 2 + 9U);

  cache.insert("k2", "value-two");
  cache.insert("k3", "value-three");
  // 3 entries = 35 bytes; fits. Touch k1 so k2 becomes LRU.
  EXPECT_TRUE(cache.lookup("k1").has_value());
  // Push it over 64 bytes: k2 (least recently used) must go.
  cache.insert("k4", std::string(30, 'x'));
  EXPECT_FALSE(cache.lookup("k2").has_value());
  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_TRUE(cache.lookup("k4").has_value());

  EXPECT_EQ(counterValue("serve.cache.hits") - hits0, 4U);
  EXPECT_EQ(counterValue("serve.cache.misses") - misses0, 2U);
  EXPECT_EQ(counterValue("serve.cache.evictions") - evict0, 1U);

  // Re-inserting an existing key replaces, never duplicates.
  cache.insert("k1", "new");
  EXPECT_EQ(cache.lookup("k1").value(), "new");

  // Oversized values are refused outright.
  cache.insert("huge", std::string(1000, 'h'));
  EXPECT_FALSE(cache.lookup("huge").has_value());
}

TEST_F(ServeTest, CacheDisabledWhenZeroBytes) {
  ResultCache cache(0);
  cache.insert("k", "v");
  EXPECT_FALSE(cache.lookup("k").has_value());
  EXPECT_EQ(cache.entries(), 0U);
}

uint32_t collidingHash(const std::string&) { return 0x1234; }

TEST_F(ServeTest, CacheCollisionGuardComparesFullKeys) {
  // Every key lands in one bucket; full-key compare must still resolve them.
  ResultCache cache(1 << 16, {}, &collidingHash);
  cache.insert("alpha", "A");
  cache.insert("beta", "B");
  cache.insert("gamma", "C");
  EXPECT_EQ(cache.lookup("alpha").value(), "A");
  EXPECT_EQ(cache.lookup("beta").value(), "B");
  EXPECT_EQ(cache.lookup("gamma").value(), "C");
  EXPECT_FALSE(cache.lookup("delta").has_value());
  // Eviction in a colliding bucket keeps the survivors reachable.
  ResultCache tiny(20, {}, &collidingHash);
  tiny.insert("k1", "aaaaaa");
  tiny.insert("k2", "bbbbbb");
  tiny.insert("k3", "cccccc");
  EXPECT_FALSE(tiny.lookup("k1").has_value());
  EXPECT_EQ(tiny.lookup("k3").value(), "cccccc");
}

TEST_F(ServeTest, DiskCacheRoundTripAndRecovery) {
  const stdfs::path cdir = dir_ / "cache";
  {
    ResultCache cache(1 << 16, cdir);
    cache.insert("k1", "persistent-one");
    cache.insert("k2", "persistent-two");
    EXPECT_EQ(cache.lookup("k1").value(), "persistent-one");
  }
  // A fresh instance over the same directory re-indexes the entries.
  const uint64_t rec0 = counterValue("serve.cache.recovered");
  ResultCache cache(1 << 16, cdir);
  EXPECT_EQ(counterValue("serve.cache.recovered") - rec0, 2U);
  EXPECT_EQ(cache.entries(), 2U);
  EXPECT_EQ(cache.lookup("k1").value(), "persistent-one");
  EXPECT_EQ(cache.lookup("k2").value(), "persistent-two");
}

TEST_F(ServeTest, DiskCacheCorruptEntryRejectedAndRecomputed) {
  const stdfs::path cdir = dir_ / "cache";
  ResultCache cache(1 << 16, cdir);
  cache.insert("key", "the-correct-value");

  // Flip one byte inside the entry file: the CRC container must reject it.
  stdfs::path entry;
  for (const auto& de : stdfs::directory_iterator(cdir)) entry = de.path();
  ASSERT_FALSE(entry.empty());
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-6, std::ios::end);
    char c = 0;
    f.read(&c, 1);
    f.seekp(-6, std::ios::end);
    c = static_cast<char>(c ^ 0x20);
    f.write(&c, 1);
  }
  const uint64_t corrupt0 = counterValue("serve.cache.corrupt");
  EXPECT_FALSE(cache.lookup("key").has_value());  // rejected, not served
  EXPECT_EQ(counterValue("serve.cache.corrupt") - corrupt0, 1U);
  EXPECT_FALSE(stdfs::exists(entry));  // bad entry deleted

  // Recompute path: a fresh insert works and is served again.
  cache.insert("key", "the-correct-value");
  EXPECT_EQ(cache.lookup("key").value(), "the-correct-value");
}

TEST_F(ServeTest, DiskCacheRecoverySkipsCorruptAndStaleTemp) {
  const stdfs::path cdir = dir_ / "cache";
  {
    ResultCache cache(1 << 16, cdir);
    cache.insert("good", "good-value");
  }
  std::ofstream(cdir / "e00000000-99.cres") << "not a container";
  std::ofstream(cdir / "e00000000-7.cres.cati-tmp.12345") << "stale temp";
  ResultCache cache(1 << 16, cdir);
  EXPECT_EQ(cache.entries(), 1U);
  EXPECT_EQ(cache.lookup("good").value(), "good-value");
  EXPECT_FALSE(stdfs::exists(cdir / "e00000000-99.cres"));
  EXPECT_FALSE(stdfs::exists(cdir / "e00000000-7.cres.cati-tmp.12345"));
}

// --- the coalescing invariance ----------------------------------------------

TEST_F(ServeTest, CoalescedPredictMatchesIsolated) {
  // The theorem the daemon's cross-request batching rests on: predicting a
  // concatenation of many requests' VUCs yields bit-identical per-VUC
  // probabilities to predicting each request alone, at any batch size.
  Engine engine = testsupport::cachedMicroEngine();
  const corpus::Dataset ds = testsupport::microDataset();
  ASSERT_GE(ds.vucs.size(), 8U);
  const std::span<const corpus::Vuc> all(ds.vucs);
  const size_t cut = ds.vucs.size() / 3;

  par::ThreadPool pool(2);
  for (const int batch : {1, 8}) {
    const auto coalesced = engine.predictVucs(all, &pool, batch);
    const auto partA = engine.predictVucs(all.subspan(0, cut), &pool, batch);
    const auto partB = engine.predictVucs(all.subspan(cut), &pool, batch);
    ASSERT_EQ(coalesced.size(), partA.size() + partB.size());
    for (size_t i = 0; i < coalesced.size(); ++i) {
      const StageProbs& split = i < cut ? partA[i] : partB[i - cut];
      for (int s = 0; s < kNumStages; ++s) {
        const auto a = coalesced[i].stage(static_cast<Stage>(s));
        const auto b = split.stage(static_cast<Stage>(s));
        ASSERT_TRUE(std::ranges::equal(a, b))
            << "vuc " << i << " stage " << s << " batch " << batch;
      }
    }
  }
}

// --- golden serve report ----------------------------------------------------

TEST_F(ServeTest, GoldenServeReport) {
  Engine engine = testsupport::cachedMicroEngine();
  std::ostringstream os;
  for (const bool stripped : {true, false}) {
    const std::string bytes = microImageBytes(0, stripped);
    const Expected exp = offlineExpected(engine, bytes);
    os << "=== image0 " << (stripped ? "stripped" : "unstripped") << " ===\n";
    os << exp.report;
    os << "--- diags ---\n" << exp.diagsText;
  }
  testsupport::compareOrUpdate("serve_report.txt", os.str());
}

// --- in-process server: differential + robustness ---------------------------

/// Decoded analyze response, for comparing against offlineExpected.
Expected decodeReport(const Frame& f) {
  EXPECT_EQ(f.type, MsgType::kReport)
      << (f.type == MsgType::kError
              ? "error: " + decodeErrorReply(f.payload).message
              : "unexpected type");
  const ReportReply rep = decodeReportReply(f.payload);
  return Expected{rep.report, rep.diagsText};
}

TEST_F(ServeTest, ServerMatchesOfflineAndCachesByteIdentically) {
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();

  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.jobs = 2;
  cfg.batch = 8;
  cfg.cacheBytes = 1 << 20;
  Server server(engine, cfg);
  server.start();

  const std::string img0 = microImageBytes(0, /*stripped=*/true);
  const std::string img1 = microImageBytes(0, /*stripped=*/false);
  const Expected exp0 = offlineExpected(offline, img0);
  const Expected exp1 = offlineExpected(offline, img1);
  const Expected exp0conf = offlineExpected(offline, img0, /*confMin=*/0.5F);

  Client client(server.bound());
  EXPECT_TRUE(client.ping());

  AnalyzeRequest req;
  req.image = img0;
  const Frame first = client.analyze(req);
  const Expected got0 = decodeReport(first);
  EXPECT_EQ(got0.report, exp0.report);
  EXPECT_EQ(got0.diagsText, exp0.diagsText);

  req.image = img1;
  const Expected got1 = decodeReport(client.analyze(req));
  EXPECT_EQ(got1.report, exp1.report);
  EXPECT_EQ(got1.diagsText, exp1.diagsText);

  // Different options -> different cache key -> different (correct) answer.
  req.image = img0;
  req.confMin = 0.5F;
  const Expected gotConf = decodeReport(client.analyze(req));
  EXPECT_EQ(gotConf.report, exp0conf.report);

  // Cache hit: the reply frame payload is byte-identical to the miss.
  req.confMin = 0.0F;
  const uint64_t hits0 = counterValue("serve.cache.hits");
  const Frame second = client.analyze(req);
  EXPECT_EQ(counterValue("serve.cache.hits") - hits0, 1U);
  EXPECT_EQ(second.payload, first.payload);

  // The /metrics endpoint returns the obs registry as JSON.
  const std::string json = client.metricsJson();
  EXPECT_NE(json.find("serve.replies"), std::string::npos);
  EXPECT_NE(json.find("serve.cache.hits"), std::string::npos);

  server.stop();
}

TEST_F(ServeTest, TcpEphemeralPortWorks) {
  Engine engine = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = sock::Address::parse("tcp:0");
  Server server(engine, cfg);
  EXPECT_NE(server.bound().port, 0);
  server.start();
  Client client(server.bound());
  EXPECT_TRUE(client.ping());
  server.stop();
}

TEST_F(ServeTest, PipelinedRequestsCoalesceIntoOneGroup) {
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.maxGroup = 16;
  Server server(engine, cfg);
  server.start();
  server.pauseBatchForTest(true);

  const std::string img0 = microImageBytes(0, true);
  const std::string img1 = microImageBytes(0, false);
  const Expected exp0 = offlineExpected(offline, img0);
  const Expected exp1 = offlineExpected(offline, img1);

  const uint64_t queued0 = counterValue("serve.requests.queued");
  const uint64_t groups0 = counterValue("serve.groups");
  const uint64_t coalesced0 = counterValue("serve.coalesced_vucs");

  // Four clients, one request each, all parked in the admission queue.
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<Client>(server.bound()));
    AnalyzeRequest req;
    req.image = (i % 2 == 0) ? img0 : img1;
    clients.back()->send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
  }
  ASSERT_TRUE(waitFor(
      [&] { return counterValue("serve.requests.queued") - queued0 == 4; }));

  // Release the batch loop: all four must be served in ONE coalesced pass.
  server.pauseBatchForTest(false);
  for (int i = 0; i < 4; ++i) {
    Frame f;
    ASSERT_EQ(clients[static_cast<size_t>(i)]->recv(f), ReadStatus::kOk);
    const Expected got = decodeReport(f);
    const Expected& exp = (i % 2 == 0) ? exp0 : exp1;
    EXPECT_EQ(got.report, exp.report) << "client " << i;
    EXPECT_EQ(got.diagsText, exp.diagsText) << "client " << i;
  }
  EXPECT_EQ(counterValue("serve.groups") - groups0, 1U);
  // Cross-request coalescing really happened: the one predict pass covered
  // both distinct images' VUCs (img1 deduplicates in-group via the cache
  // only on hits from *previous* groups, so all 4 contribute).
  EXPECT_GT(counterValue("serve.coalesced_vucs") - coalesced0, 0U);
  server.stop();
}

TEST_F(ServeTest, OverloadGetsTypedErrorReply) {
  Engine engine = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.maxQueue = 1;
  Server server(engine, cfg);
  server.start();
  server.pauseBatchForTest(true);

  const std::string img = microImageBytes(0, true);
  AnalyzeRequest req;
  req.image = img;

  const uint64_t queued0 = counterValue("serve.requests.queued");
  Client first(server.bound());
  first.send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
  ASSERT_TRUE(waitFor([&] {
    return counterValue("serve.requests.queued") - queued0 >= 1;
  }));

  // Queue is full (size 1): the second client gets a typed overload reply
  // immediately, not a hang and not a dropped connection.
  Client second(server.bound());
  const Frame f = second.analyze(req);
  ASSERT_EQ(f.type, MsgType::kError);
  const ErrorReply err = decodeErrorReply(f.payload);
  EXPECT_EQ(err.code, ErrorCode::kOverload);

  // The parked request still completes once the loop resumes.
  server.pauseBatchForTest(false);
  Frame ok;
  ASSERT_EQ(first.recv(ok), ReadStatus::kOk);
  EXPECT_EQ(ok.type, MsgType::kReport);
  server.stop();
}

TEST_F(ServeTest, BadRequestsGetTypedErrors) {
  Engine engine = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  Server server(engine, cfg);
  server.start();

  // Well-framed analyze with a garbage payload.
  {
    Client c(server.bound());
    const Frame f = c.call(MsgType::kAnalyze, "not-a-valid-payload");
    ASSERT_EQ(f.type, MsgType::kError);
    EXPECT_EQ(decodeErrorReply(f.payload).code, ErrorCode::kBadRequest);
  }
  // Well-framed analyze whose image bytes are rejected by the loader.
  {
    Client c(server.bound());
    AnalyzeRequest req;
    req.image = "these are not CELF container bytes";
    const Frame f = c.analyze(req);
    ASSERT_EQ(f.type, MsgType::kError);
    const ErrorReply err = decodeErrorReply(f.payload);
    EXPECT_EQ(err.code, ErrorCode::kBadRequest);
    EXPECT_NE(err.message.find("image rejected"), std::string::npos);
  }
  // Unknown message type: typed error, connection survives.
  {
    Client c(server.bound());
    const Frame f = c.call(static_cast<MsgType>(999), "");
    ASSERT_EQ(f.type, MsgType::kError);
    EXPECT_TRUE(c.ping());
  }
  // Malformed frame: typed error, then the daemon hangs up.
  {
    Client c(server.bound());
    std::string wire = encodeFrame(MsgType::kPing, "zap");
    wire[0] = 'X';
    ASSERT_TRUE(sock::sendAll(c.fd(), wire.data(), wire.size()));
    Frame f;
    ASSERT_EQ(c.recv(f), ReadStatus::kOk);
    ASSERT_EQ(f.type, MsgType::kError);
    EXPECT_EQ(decodeErrorReply(f.payload).code, ErrorCode::kBadRequest);
    EXPECT_EQ(c.recv(f), ReadStatus::kEof);
  }
  server.stop();
}

TEST_F(ServeTest, DisconnectMidRequestDoesNotStallTheLoop) {
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  Server server(engine, cfg);
  server.start();
  server.pauseBatchForTest(true);

  const std::string img = microImageBytes(0, true);
  AnalyzeRequest req;
  req.image = img;

  const uint64_t queued0 = counterValue("serve.requests.queued");
  const uint64_t closed0 = counterValue("serve.conns.closed");
  {
    Client doomed(server.bound());
    doomed.send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
    ASSERT_TRUE(waitFor([&] {
      return counterValue("serve.requests.queued") - queued0 >= 1;
    }));
    doomed.close();  // vanish mid-request
  }
  // Only once the connection's writer has marked it closed is its reply
  // certain to be dropped rather than queued.
  ASSERT_TRUE(waitFor([&] {
    return counterValue("serve.conns.closed") - closed0 >= 1;
  }));
  const uint64_t dropped0 = counterValue("serve.conn.dropped_replies");
  server.pauseBatchForTest(false);
  // The loop processes the orphaned job, drops the reply, and keeps serving.
  ASSERT_TRUE(waitFor([&] {
    return counterValue("serve.conn.dropped_replies") - dropped0 >= 1;
  }));

  Client alive(server.bound());
  const Expected got = decodeReport(alive.analyze(req));
  EXPECT_EQ(got.report, offlineExpected(offline, img).report);
  server.stop();
}

TEST_F(ServeTest, SlowClientIsDroppedNotWaitedFor) {
  Engine engine = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.maxOutbound = 1;
  Server server(engine, cfg);
  server.start();
  server.pauseWritersForTest(true);

  Client slow(server.bound());
  // The first pong parks in the outbound queue (writers paused); the second
  // overflows the bound and must drop the connection — without any thread
  // ever blocking on the client's socket. The reader handles frames
  // sequentially, so two pipelined pings are enough and deterministic.
  const uint64_t dropped0 = counterValue("serve.conn.slow_dropped");
  slow.send(MsgType::kPing, "");
  slow.send(MsgType::kPing, "");
  ASSERT_TRUE(waitFor([&] {
    return counterValue("serve.conn.slow_dropped") - dropped0 >= 1;
  }));
  server.pauseWritersForTest(false);

  // A well-behaved client is unaffected.
  Client good(server.bound());
  EXPECT_TRUE(good.ping());
  server.stop();
}

TEST_F(ServeTest, CleanShutdownDrainsAdmittedWork) {
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  Server server(engine, cfg);
  server.start();
  server.pauseBatchForTest(true);

  const std::string img = microImageBytes(0, true);
  const Expected exp = offlineExpected(offline, img);
  AnalyzeRequest req;
  req.image = img;

  Client client(server.bound());
  const uint64_t queued0 = counterValue("serve.requests.queued");
  for (int i = 0; i < 3; ++i) {
    client.send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
  }
  ASSERT_TRUE(waitFor(
      [&] { return counterValue("serve.requests.queued") - queued0 == 3; }));

  // stop() must drain all three admitted requests before tearing down.
  std::thread stopper([&] { server.stop(); });
  for (int i = 0; i < 3; ++i) {
    Frame f;
    ASSERT_EQ(client.recv(f), ReadStatus::kOk) << "reply " << i;
    const Expected got = decodeReport(f);
    EXPECT_EQ(got.report, exp.report);
  }
  Frame eof;
  EXPECT_EQ(client.recv(eof), ReadStatus::kEof);
  stopper.join();
}

TEST_F(ServeTest, MaxRequestsTriggersGracefulStop) {
  Engine engine = testsupport::cachedMicroEngine();
  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.maxRequests = 1;
  Server server(engine, cfg);
  server.start();

  const std::string img = microImageBytes(0, true);
  AnalyzeRequest req;
  req.image = img;
  Client client(server.bound());
  const Frame f = client.analyze(req);
  EXPECT_EQ(f.type, MsgType::kReport);
  // --max-requests fired: the server has requested its own stop.
  EXPECT_TRUE(server.waitUntilStopRequested(std::chrono::milliseconds(5000)));
  server.stop();
}

// --- timeout and degradation contracts (DESIGN.md §9) ----------------------

/// A stripped image large enough to span several analysis chunks.
loader::Image chunkedImage() {
  loader::Image img = loader::buildImage(synth::generateBinary(
      synth::defaultProfile("tmo", 0x7e0, 48), synth::Dialect::Gcc, 1, 0x7e1));
  loader::strip(img);
  return img;
}

/// A report split into its function sections (header plus variable rows)
/// and its summary line.
struct ReportParts {
  std::vector<std::string> sections;
  std::string summary;
  size_t vucs = 0;  ///< sum of the rows' VUC counts
};

ReportParts splitReport(const std::string& report) {
  ReportParts p;
  std::istringstream is(report);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.starts_with("  ")) {
      if (!p.sections.empty()) p.sections.back() += line + "\n";
      const size_t open = line.rfind('(', line.find(" VUCs)"));
      if (open != std::string::npos) p.vucs += std::stoul(line.substr(open + 1));
    } else if (line.back() == ':') {
      p.sections.push_back(line + "\n");
    } else {
      p.summary = line;
    }
  }
  return p;
}

bool isPrefix(const std::vector<std::string>& part,
              const std::vector<std::string>& whole) {
  return part.size() <= whole.size() &&
         std::equal(part.begin(), part.end(), whole.begin());
}

/// The --timeout-ms contract, made deterministic by the engine.deadline
/// fault site: the rule expires the deadline at its Nth check. Sweeping N
/// over every check of a multi-chunk analysis covers expiry in prepare and
/// in predict of every chunk. Each cut renders whole functions only (a
/// prefix of the untimed report), closes with the TIMEOUT summary, warns,
/// and degrades nothing — on the calling thread alone (`pool` null) and
/// with prepare, predict and finish fanned out over `pool`.
void expectDeadlineCutsAtWholeFunctions(par::ThreadPool* pool) {
  Engine engine = testsupport::cachedMicroEngine();
  const loader::Image img = chunkedImage();
  DiagList scratch;
  const size_t fnsTotal = loader::disassemble(img, scratch).size();
  const AnalyzeResult full = analyzeImage(engine, img, pool, 32);
  const ReportParts fullParts = splitReport(full.report);
  const std::string cutSuffix =
      "/" + std::to_string(fnsTotal) + " functions analyzed";

  AnalyzeOptions opts;
  opts.timeoutMs = 600000;  // only the fault rule ever expires it
  size_t prepareCuts = 0;
  size_t predictCuts = 0;
  size_t partialCuts = 0;
  for (int n = 1;; ++n) {
    ASSERT_LT(n, 10000) << "the sweep never ran past the last check";
    fault::configureForTest("fail@engine.deadline:" + std::to_string(n));
    const uint64_t fired0 = counterValue("fault.injected");
    const uint64_t degraded0 = counterValue("engine.analyze.degraded");
    const uint64_t predicted0 = counterValue("engine.infer.vucs");
    const AnalyzeResult r = analyzeImage(engine, img, pool, 32, opts);
    EXPECT_EQ(counterValue("engine.analyze.degraded"), degraded0) << "n=" << n;
    for (const Diag& d : r.diags) {
      EXPECT_EQ(d.message.find("degraded"), std::string::npos)
          << "n=" << n << ": " << d.message;
    }
    if (counterValue("fault.injected") == fired0) {
      // N is past the last check: nothing expired.
      EXPECT_EQ(r.report, full.report);
      break;
    }
    const ReportParts parts = splitReport(r.report);
    EXPECT_TRUE(isPrefix(parts.sections, fullParts.sections)) << "n=" << n;
    EXPECT_NE(parts.summary.find("; TIMEOUT after 600000ms: "),
              std::string::npos)
        << "n=" << n << ": " << parts.summary;
    EXPECT_TRUE(parts.summary.ends_with(cutSuffix)) << "n=" << n;
    ASSERT_FALSE(r.diags.empty()) << "n=" << n;
    EXPECT_EQ(r.diags.back().severity, Severity::Warning);
    EXPECT_TRUE(r.diags.back().message.starts_with(
        "analysis deadline exceeded: partial results ("))
        << r.diags.back().message;
    // Expiry in prepare leaves its chunk unpredicted, so every VUC predicted
    // so far is in the report; expiry in predict has predicted more.
    if (counterValue("engine.infer.vucs") - predicted0 == parts.vucs) {
      ++prepareCuts;
    } else {
      ++predictCuts;
    }
    if (!parts.sections.empty() &&
        parts.sections.size() < fullParts.sections.size()) {
      ++partialCuts;
    }
  }
  // Every function's prepare check was swept, and at least two chunks ran.
  EXPECT_EQ(prepareCuts, fnsTotal);
  EXPECT_GT(predictCuts, 0U);
  EXPECT_GT(partialCuts, 0U);
}

TEST_F(ServeTest, DeadlineAtEveryCheckCutsAtAWholeFunction) {
  expectDeadlineCutsAtWholeFunctions(nullptr);
}

TEST_F(ServeTest, DeadlineAtEveryCheckCutsAtAWholeFunctionAtJobs4) {
  par::ThreadPool pool(4);
  expectDeadlineCutsAtWholeFunctions(&pool);
}

/// Counts the hits of one ordered fault site while alive, and how many of
/// them ran inside a pool task. ImageAnalysis takes engine.prepare
/// (admitFunction) and engine.vote (probeVotes) on the calling thread,
/// outside every task, so that an injected fault lands on the same
/// function and variable at any job count. The check is deterministic:
/// it does not depend on which worker, the caller included, ran a task.
class OrderedSiteProbe {
 public:
  explicit OrderedSiteProbe(std::string site) : site_(std::move(site)) {
    // The fault layer calls the observer under its lock: no race on the
    // counts.
    fault::observeHitsForTest([this](const char* site) {
      if (site != site_) return;
      ++hits_;
      if (par::ThreadPool::inTask()) ++inTask_;
    });
  }
  ~OrderedSiteProbe() { fault::observeHitsForTest({}); }
  OrderedSiteProbe(const OrderedSiteProbe&) = delete;
  OrderedSiteProbe& operator=(const OrderedSiteProbe&) = delete;

  size_t hits() const { return hits_; }
  size_t inTask() const { return inTask_; }

 private:
  std::string site_;
  size_t hits_ = 0;
  size_t inTask_ = 0;
};

/// The fault legs at jobs 4 poison these functions and variables of
/// chunkedImage() (1-based, in function order): the second, as the jobs-1
/// legs do on a smaller image, and ones further in, whose hits would race
/// on the pool were they taken there.
constexpr std::array<size_t, 3> kPoisonedFunctions = {2, 25, 48};
constexpr std::array<size_t, 3> kPoisonedVariables = {2, 180, 358};

/// fail@engine.prepare:N poisons the Nth function's prepare in the offline
/// analysis at `jobs`: exactly that function degrades, with the documented
/// diag and counter, and the rest of the image is still typed. Stores the
/// faulted output in `faulted`.
void expectPrepareFaultDegradesOneFunction(Engine& offline,
                                           const std::string& bytes, int jobs,
                                           size_t nth, Expected* faulted) {
  fault::configureForTest("");
  const Expected clean = offlineExpected(offline, bytes, 0.0F, 0, jobs);

  DiagList scratch;
  std::istringstream is(bytes);
  const auto img = loader::tryRead(is, scratch);
  ASSERT_TRUE(img.has_value());
  const std::vector<loader::LoadedFunction> fns =
      loader::disassemble(*img, scratch);
  ASSERT_GE(fns.size(), 3U);
  ASSERT_LE(nth, fns.size());
  const loader::LoadedFunction& poisoned = fns[nth - 1];

  fault::configureForTest("fail@engine.prepare:" + std::to_string(nth));
  const uint64_t degraded0 = counterValue("engine.analyze.degraded");
  {
    const OrderedSiteProbe probe("engine.prepare");
    *faulted = offlineExpected(offline, bytes, 0.0F, 0, jobs);
    EXPECT_EQ(probe.hits(), fns.size()) << "jobs " << jobs;
    EXPECT_EQ(probe.inTask(), 0U) << "jobs " << jobs;
  }
  EXPECT_EQ(counterValue("engine.analyze.degraded") - degraded0, 1U);

  const Diag expectedDiag{
      Severity::Warning, DiagStage::Engine, poisoned.addr,
      "function " + poisoned.name +
          " skipped (degraded): fault: injected ENOSPC at engine.prepare"};
  EXPECT_EQ(faulted->diagsText,
            clean.diagsText + toString(expectedDiag) + "\n");

  std::vector<std::string> expectedSections;
  for (const std::string& s : splitReport(clean.report).sections) {
    if (!s.starts_with(poisoned.name + ":")) expectedSections.push_back(s);
  }
  EXPECT_EQ(expectedSections.size() + 1, splitReport(clean.report).sections.size());
  EXPECT_EQ(splitReport(faulted->report).sections, expectedSections);
}

TEST_F(ServeTest, PrepareFaultDegradesOneFunctionOfflineAndServed) {
  // The daemon's reply under the same rule is byte-equal to the offline
  // report.
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  const std::string bytes = microImageBytes(0, /*stripped=*/true);
  Expected faulted;
  expectPrepareFaultDegradesOneFunction(offline, bytes, 1, 2, &faulted);

  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.jobs = 2;
  cfg.batch = 8;
  Server server(engine, cfg);
  server.start();
  fault::configureForTest("fail@engine.prepare:2");
  Client client(server.bound());
  AnalyzeRequest req;
  req.image = bytes;
  const Expected served = decodeReport(client.analyze(req));
  EXPECT_EQ(served.report, faulted.report);
  EXPECT_EQ(served.diagsText, faulted.diagsText);
  server.stop();
}

TEST_F(ServeTest, PrepareFaultDegradesOneFunctionOfflineAtJobs4) {
  Engine offline = testsupport::cachedMicroEngine();
  std::ostringstream image;
  loader::write(chunkedImage(), image);
  const std::string bytes = std::move(image).str();
  for (const size_t nth : kPoisonedFunctions) {
    Expected atJobs1;
    Expected atJobs4;
    expectPrepareFaultDegradesOneFunction(offline, bytes, 1, nth, &atJobs1);
    expectPrepareFaultDegradesOneFunction(offline, bytes, 4, nth, &atJobs4);
    EXPECT_EQ(atJobs4.report, atJobs1.report) << "function " << nth;
    EXPECT_EQ(atJobs4.diagsText, atJobs1.diagsText) << "function " << nth;
  }
}

/// fail@engine.vote:N poisons the Nth variable finishFunction votes in the
/// offline analysis at `jobs`: exactly that variable degrades — its row
/// leaves the report, one "variable skipped (degraded)" warning at its frame
/// offset, one engine.analyze.degraded — while the rest of its function and
/// the image are still typed. Stores the faulted output in `faulted`.
void expectVoteFaultDegradesOneVariable(Engine& offline,
                                        const std::string& bytes, int jobs,
                                        size_t nth, Expected* faulted) {
  fault::configureForTest("");
  const Expected clean = offlineExpected(offline, bytes, 0.0F, 0, jobs);

  // The Nth variable with VUCs, in function order.
  DiagList scratch;
  std::istringstream is(bytes);
  const auto img = loader::tryRead(is, scratch);
  ASSERT_TRUE(img.has_value());
  std::optional<dataflow::RecoveredVariable> poisoned;
  size_t voted = 0;
  size_t votedTotal = 0;
  for (const loader::LoadedFunction& fn : loader::disassemble(*img, scratch)) {
    const Engine::FunctionWork work = offline.prepareFunction(
        fn.insns, dataflow::recoverVariables(fn.insns));
    const auto byVar = work.ds.vucsByVar();
    for (size_t v = 0; v < byVar.size(); ++v) {
      if (byVar[v].empty()) continue;
      ++votedTotal;
      if (!poisoned && ++voted == nth) poisoned = work.rec.vars[v];
    }
  }
  ASSERT_TRUE(poisoned.has_value()) << "only " << voted << " voted variables";

  fault::configureForTest("fail@engine.vote:" + std::to_string(nth));
  const uint64_t degraded0 = counterValue("engine.analyze.degraded");
  {
    const OrderedSiteProbe probe("engine.vote");
    *faulted = offlineExpected(offline, bytes, 0.0F, 0, jobs);
    EXPECT_EQ(probe.hits(), votedTotal) << "jobs " << jobs;
    EXPECT_EQ(probe.inTask(), 0U) << "jobs " << jobs;
  }
  EXPECT_EQ(counterValue("engine.analyze.degraded") - degraded0, 1U);

  const Diag expectedDiag{
      Severity::Warning, DiagStage::Engine,
      static_cast<uint64_t>(poisoned->offset),
      "variable skipped (degraded): fault: injected ENOSPC at engine.vote"};
  EXPECT_EQ(faulted->diagsText,
            clean.diagsText + toString(expectedDiag) + "\n");

  // The clean report without its Nth variable row (and without that row's
  // function header, had it been the function's only row).
  std::vector<std::string> expectedSections;
  size_t rows = 0;
  for (const std::string& section : splitReport(clean.report).sections) {
    std::istringstream ls(section);
    std::string line;
    std::string kept;
    bool anyRow = false;
    while (std::getline(ls, line)) {
      if (line.starts_with("  ") && ++rows == nth) continue;
      anyRow |= line.starts_with("  ");
      kept += line + "\n";
    }
    if (anyRow) expectedSections.push_back(kept);
  }
  ASSERT_GE(rows, nth);
  const ReportParts faultedParts = splitReport(faulted->report);
  EXPECT_EQ(faultedParts.sections, expectedSections);
  EXPECT_EQ(faultedParts.summary,
            std::to_string(rows - 1) + " variables typed");
}

TEST_F(ServeTest, VoteFaultDegradesOneVariableOfflineAndServed) {
  // The daemon's reply under the same rule is byte-equal to the offline
  // report.
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  const std::string bytes = microImageBytes(0, /*stripped=*/true);
  Expected faulted;
  expectVoteFaultDegradesOneVariable(offline, bytes, 1, 2, &faulted);

  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.jobs = 2;
  cfg.batch = 8;
  Server server(engine, cfg);
  server.start();
  fault::configureForTest("fail@engine.vote:2");
  Client client(server.bound());
  AnalyzeRequest req;
  req.image = bytes;
  const Expected served = decodeReport(client.analyze(req));
  EXPECT_EQ(served.report, faulted.report);
  EXPECT_EQ(served.diagsText, faulted.diagsText);
  server.stop();
}

TEST_F(ServeTest, VoteFaultDegradesOneVariableOfflineAtJobs4) {
  Engine offline = testsupport::cachedMicroEngine();
  std::ostringstream image;
  loader::write(chunkedImage(), image);
  const std::string bytes = std::move(image).str();
  for (const size_t nth : kPoisonedVariables) {
    Expected atJobs1;
    Expected atJobs4;
    expectVoteFaultDegradesOneVariable(offline, bytes, 1, nth, &atJobs1);
    expectVoteFaultDegradesOneVariable(offline, bytes, 4, nth, &atJobs4);
    EXPECT_EQ(atJobs4.report, atJobs1.report) << "variable " << nth;
    EXPECT_EQ(atJobs4.diagsText, atJobs1.diagsText) << "variable " << nth;
  }
}

/// The report of a stripped image as analyzeImage renders it, from every
/// stage evaluated on every VUC and every variable voted by voteVariable
/// over all six — the reference for the routed path.
std::string sixStageReport(Engine& engine, const loader::Image& img) {
  DiagList diags;
  std::string out;
  size_t typed = 0;
  for (const loader::LoadedFunction& fn : loader::disassemble(img, diags)) {
    const Engine::FunctionWork work =
        engine.prepareFunction(fn.insns, dataflow::recoverVariables(*fn.graph));
    const std::vector<StageProbs> probs = engine.predictStream(work.stream);
    std::string rows;
    const auto byVar = work.ds.vucsByVar();
    for (size_t v = 0; v < byVar.size(); ++v) {
      if (byVar[v].empty()) continue;
      std::vector<StageProbs> varProbs;
      for (const uint32_t i : byVar[v]) varProbs.push_back(probs[i]);
      const TypeLabel type = engine.voteVariable(varProbs).finalType;
      const StagePath path = pathOf(type);
      const Stage leaf = path.stages[static_cast<size_t>(path.length - 1)];
      const auto cls = static_cast<size_t>(stageClassOf(leaf, type));
      float sum = 0.0F;
      for (const StageProbs& p : varProbs) {
        sum += p.stage(leaf)[cls];
      }
      const dataflow::RecoveredVariable& loc = work.rec.vars[v];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %s%+-6lld %-22s conf %.2f  (%zu VUCs)   \n",
                    loc.rbpFrame ? "rbp" : "rsp",
                    static_cast<long long>(loc.offset),
                    std::string(typeName(type)).c_str(),
                    sum / static_cast<float>(varProbs.size()), varProbs.size());
      rows += line;
      ++typed;
    }
    if (!rows.empty()) out += fn.name + ":\n" + rows;
  }
  return out + "\n" + std::to_string(typed) + " variables typed\n";
}

TEST_F(ServeTest, RoutedReportsMatchSixStageVoting) {
  // analyzeImage predicts by route — Stage 1 on every VUC, then per variable
  // only the stages its votes lead to — and must print exactly the report
  // of all six stages on every VUC voted by voteVariable, at jobs {1, 4} x
  // batch {1, 32}, on a one-chunk and a multi-chunk image.
  Engine engine = testsupport::cachedMicroEngine();
  loader::Image small = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(small);
  for (const loader::Image& img : {small, chunkedImage()}) {
    const std::string want = sixStageReport(engine, img);
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const int batch : {1, 32}) {
        EXPECT_EQ(analyzeImage(engine, img, &pool, batch).report, want)
            << "jobs " << jobs << " batch " << batch;
      }
    }
  }
}

/// Every evaluated stage of a and b, bit for bit.
bool sameProbs(std::span<const StageProbs> a, std::span<const StageProbs> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    for (int s = 0; s < kNumStages; ++s) {
      const std::span<const float> x = a[i].stage(static_cast<Stage>(s));
      const std::span<const float> y = b[i].stage(static_cast<Stage>(s));
      if (x.size() != y.size() ||
          std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

TEST_F(ServeTest, ConcurrentInferenceOnOneConstEngine) {
  // Inference never changes a trained Engine, so two threads may predict on
  // one engine at once, each with its own pool: here one at jobs 1 and one
  // at jobs 2 run analyzeImage and a routed predictStream over the whole
  // image, in opposite orders, on the same const engine, fp32 and int8.
  // Every result must be bit-identical to a serial run. CI repeats this
  // under TSan.
  const Engine fp32 = testsupport::cachedMicroEngine();
  const Engine int8 = fp32.quantize();
  const loader::Image img = chunkedImage();
  for (const Engine* engine : {&fp32, &int8}) {
    const char* what = engine->quantized() ? "int8" : "fp32";
    ImageAnalysis whole(img, nullptr, 0.0F);
    ASSERT_TRUE(whole.prepareChunk(*engine));
    const ChunkStream& stream = whole.stream();
    const std::string wantReport = analyzeImage(*engine, img, nullptr, 0).report;
    const std::vector<StageProbs> wantProbs =
        engine->predictStream(stream, nullptr, 0, StagePlan::kRouted);

    constexpr int kThreads = 2;
    constexpr int kReps = 2;
    std::array<std::array<std::string, kReps>, kThreads> reports;
    std::array<std::array<std::vector<StageProbs>, kReps>, kThreads> probs;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        par::ThreadPool pool(t + 1);
        for (int rep = 0; rep < kReps; ++rep) {
          const auto report = [&] {
            reports[t][rep] = analyzeImage(*engine, img, &pool, 0).report;
          };
          const auto predict = [&] {
            probs[t][rep] =
                engine->predictStream(stream, &pool, 0, StagePlan::kRouted);
          };
          if (t == 0) {
            report();
            predict();
          } else {
            predict();
            report();
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      for (int rep = 0; rep < kReps; ++rep) {
        EXPECT_EQ(reports[t][rep], wantReport)
            << what << " jobs " << t + 1 << " rep " << rep;
        EXPECT_TRUE(sameProbs(probs[t][rep], wantProbs))
            << what << " jobs " << t + 1 << " rep " << rep;
      }
    }
  }
}

TEST_F(ServeTest, CoalescedGroupRoutesEachRequestOnItsOwn) {
  // Four different images parked in the admission queue, then served in ONE
  // coalesced routed predict: appending keeps every request's variable keys
  // apart, so each request's variables are voted on their own VUCs and
  // every reply is byte-equal to its offline report.
  Engine engine = testsupport::cachedMicroEngine();
  Engine offline = testsupport::cachedMicroEngine();
  std::ostringstream big;
  loader::write(chunkedImage(), big);
  const std::vector<std::string> images = {
      microImageBytes(0, true), microImageBytes(1, true), std::move(big).str(),
      microImageBytes(1, false)};
  std::vector<Expected> expected;
  for (const std::string& img : images) {
    expected.push_back(offlineExpected(offline, img));
  }

  ServerConfig cfg;
  cfg.listen = unixAddr();
  cfg.maxGroup = 16;
  cfg.jobs = 4;
  Server server(engine, cfg);
  server.start();
  server.pauseBatchForTest(true);
  const uint64_t queued0 = counterValue("serve.requests.queued");
  const uint64_t groups0 = counterValue("serve.groups");
  std::vector<std::unique_ptr<Client>> clients;
  for (const std::string& img : images) {
    clients.push_back(std::make_unique<Client>(server.bound()));
    AnalyzeRequest req;
    req.image = img;
    clients.back()->send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
  }
  ASSERT_TRUE(waitFor([&] {
    return counterValue("serve.requests.queued") - queued0 == images.size();
  }));
  server.pauseBatchForTest(false);
  for (size_t i = 0; i < images.size(); ++i) {
    Frame f;
    ASSERT_EQ(clients[i]->recv(f), ReadStatus::kOk);
    const Expected got = decodeReport(f);
    EXPECT_EQ(got.report, expected[i].report) << "request " << i;
    EXPECT_EQ(got.diagsText, expected[i].diagsText) << "request " << i;
  }
  EXPECT_EQ(counterValue("serve.groups") - groups0, 1U);
  server.stop();
}

// --- chunked analysis (DESIGN.md §10) ---------------------------------------

/// One chunk of a hand-driven analysis.
struct ChunkShape {
  size_t rows = 0;  ///< stream rows: the chunk's instructions plus pads
  size_t vucs = 0;
};

/// Drives ImageAnalysis by hand in chunks of `maxInsns` instructions,
/// recording the shape of every chunk.
AnalyzeResult analyzeInChunks(Engine& engine, const loader::Image& img,
                              size_t maxInsns, par::ThreadPool* pool,
                              std::vector<ChunkShape>* chunks) {
  ImageAnalysis analysis(img, pool, /*confMin=*/0.0F);
  while (analysis.prepareChunk(engine, maxInsns)) {
    const ChunkStream& stream = analysis.stream();
    chunks->push_back({stream.rows().size(), stream.numVucs()});
    analysis.finishChunk(engine, stream.numVucs() == 0
                                     ? std::vector<StageProbs>{}
                                     : engine.predictStream(stream, pool, 8));
  }
  EXPECT_FALSE(analysis.prepareChunk(engine, maxInsns))
      << "an exhausted analysis prepared another chunk";
  return std::move(analysis).result();
}

/// The stream rows of every chunk prepareChunk's rule cuts from `fns`:
/// whole functions, at least one, until the chunk holds at least `maxInsns`
/// instructions; a chunk of window `w` has w + the sum of (insns + w) rows.
std::vector<size_t> ruleChunkRows(std::span<const loader::LoadedFunction> fns,
                                  size_t w, size_t maxInsns) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < fns.size();) {
    size_t insns = 0;
    size_t r = w;
    do {
      insns += fns[i].insns.size();
      r += fns[i].insns.size() + w;
      ++i;
    } while (i < fns.size() && insns < maxInsns);
    rows.push_back(r);
  }
  return rows;
}

TEST_F(ServeTest, PrepareChunkFillsToTheInstructionBudget) {
  // prepareChunk adds whole functions, at least one, until the chunk holds
  // at least maxInsns instructions: every chunk's stream is exactly the
  // functions that rule picks (w + the sum of insns + w rows), and the
  // chunks together hold exactly the VUCs of the whole image. At the
  // default bound the multi-chunk test image still spans several chunks.
  Engine engine = testsupport::cachedMicroEngine();
  const loader::Image img = chunkedImage();
  DiagList scratch;
  const std::vector<loader::LoadedFunction> fns =
      loader::disassemble(img, scratch);
  const auto w = static_cast<size_t>(engine.config().window);
  par::ThreadPool pool(2);
  std::vector<ChunkShape> whole;
  analyzeInChunks(engine, img, std::numeric_limits<size_t>::max(), &pool,
                  &whole);
  ASSERT_EQ(whole.size(), 1U);
  ASSERT_GT(whole[0].vucs, 64U);

  for (const size_t maxInsns :
       {size_t{0}, size_t{1}, size_t{64}, size_t{500}, kChunkInsns}) {
    const std::vector<size_t> wantRows = ruleChunkRows(fns, w, maxInsns);
    ASSERT_GT(wantRows.size(), 1U) << "maxInsns=" << maxInsns;
    std::vector<ChunkShape> chunks;
    analyzeInChunks(engine, img, maxInsns, &pool, &chunks);
    std::vector<size_t> gotRows;
    size_t vucs = 0;
    for (const ChunkShape& c : chunks) {
      gotRows.push_back(c.rows);
      vucs += c.vucs;
    }
    EXPECT_EQ(gotRows, wantRows) << "maxInsns=" << maxInsns;
    EXPECT_EQ(vucs, whole[0].vucs) << "maxInsns=" << maxInsns;
  }
}

TEST_F(ServeTest, PhaseTimersFireOncePerChunkWithinWall) {
  // analyzeImage observes engine.analyze.prepare_ns and finish_ns once per
  // chunk, and those phases with disassembly and predict, all exclusive,
  // sum to no more than its wall time. Structural: counts and one
  // inequality, no timing threshold.
  Engine engine = testsupport::cachedMicroEngine();
  const loader::Image img = chunkedImage();
  DiagList scratch;
  const size_t chunks =
      ruleChunkRows(loader::disassemble(img, scratch),
                    static_cast<size_t>(engine.config().window), kChunkInsns)
          .size();
  ASSERT_GT(chunks, 1U);
  const std::array<obs::Histogram*, 4> phases = {
      &obs::timer("loader.disassemble_ns"),
      &obs::timer("engine.analyze.prepare_ns"),
      &obs::timer("engine.infer.batch_ns"),
      &obs::timer("engine.analyze.finish_ns")};
  for (const int jobs : {1, 4}) {
    par::ThreadPool pool(jobs);
    std::array<uint64_t, 4> count0{};
    std::array<double, 4> sum0{};
    for (size_t i = 0; i < phases.size(); ++i) {
      count0[i] = phases[i]->count();
      sum0[i] = phases[i]->sum();
    }
    const auto start = std::chrono::steady_clock::now();
    (void)analyzeImage(engine, img, &pool, 32);
    const auto wallNs = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    EXPECT_EQ(phases[0]->count() - count0[0], 1U) << "jobs " << jobs;
    EXPECT_EQ(phases[1]->count() - count0[1], chunks) << "jobs " << jobs;
    EXPECT_EQ(phases[2]->count() - count0[2], chunks) << "jobs " << jobs;
    EXPECT_EQ(phases[3]->count() - count0[3], chunks) << "jobs " << jobs;
    double phaseNs = 0.0;
    for (size_t i = 0; i < phases.size(); ++i) {
      const double ns = phases[i]->sum() - sum0[i];
      EXPECT_GT(ns, 0.0) << "phase " << i << " jobs " << jobs;
      phaseNs += ns;
    }
    EXPECT_LE(phaseNs, wallNs) << "jobs " << jobs;
  }
}

TEST_F(ServeTest, ChunkBoundariesNeverChangeTheReport) {
  // Where a chunk starts changes no byte of output: the report and the
  // diagnostics of any chunk size equal cati-infer's (analyzeImage on the
  // calling thread alone), from one function per chunk up to the whole
  // image as one chunk, with prepare, predict and finish fanned out over 1
  // and 4 workers, on a stripped image and on one that keeps its ground
  // truth.
  Engine engine = testsupport::cachedMicroEngine();
  const loader::Image unstripped =
      loader::buildImage(testsupport::microBinaries().at(0));
  for (const loader::Image& img : {chunkedImage(), unstripped}) {
    const AnalyzeResult ref = analyzeImage(engine, img, nullptr, 8);
    ASSERT_FALSE(ref.report.empty());
    std::ostringstream want;
    print(ref.diags, want);
    for (const int jobs : {1, 4}) {
      par::ThreadPool pool(jobs);
      for (const size_t maxInsns :
           {size_t{1}, size_t{5}, size_t{512}, kChunkInsns,
            std::numeric_limits<size_t>::max()}) {
        std::vector<ChunkShape> chunks;
        const AnalyzeResult r =
            analyzeInChunks(engine, img, maxInsns, &pool, &chunks);
        EXPECT_EQ(r.report, ref.report)
            << "jobs=" << jobs << " maxInsns=" << maxInsns;
        std::ostringstream got;
        print(r.diags, got);
        EXPECT_EQ(got.str(), want.str())
            << "jobs=" << jobs << " maxInsns=" << maxInsns;
      }
    }
  }
}

// --- CLI contract (subprocess) ----------------------------------------------

int runTool(const std::string& cmd) {
  const int rc = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST_F(ServeTest, CliUsageErrors) {
  const std::string serve = toolPath("cati-serve");
  const std::string model = (dir_ / "model.bin").string();
  const std::string sockArg = " --listen unix:" + (dir_ / "u.sock").string();
  // No args at all.
  EXPECT_EQ(runTool(serve), 2);
  // Missing --listen.
  EXPECT_EQ(runTool(serve + " " + model), 2);
  // Bad address.
  EXPECT_EQ(runTool(serve + " " + model + " --listen ftp:99"), 2);
  // Duplicate flag.
  EXPECT_EQ(runTool(serve + " " + model + sockArg + sockArg), 2);
  // Malformed numbers and sizes.
  EXPECT_EQ(runTool(serve + " " + model + sockArg + " --max-queue nope"), 2);
  EXPECT_EQ(runTool(serve + " " + model + sockArg + " --max-queue 0"), 2);
  EXPECT_EQ(runTool(serve + " " + model + sockArg + " --cache-bytes 64X"), 2);
  EXPECT_EQ(runTool(serve + " " + model + sockArg + " --max-requests -3"), 2);
  // Unknown flag.
  EXPECT_EQ(runTool(serve + " " + model + sockArg + " --frobnicate"), 2);
  // Corrupt model: typed exit 4 (CorruptError), not a crash.
  std::ofstream(model, std::ios::binary) << "garbage model bytes";
  EXPECT_EQ(runTool(serve + " " + model + sockArg), 4);
  // Missing model: generic failure (exit 1), matching the other tools.
  EXPECT_EQ(runTool(serve + " " + (dir_ / "nope.bin").string() + sockArg), 1);
}

TEST_F(ServeTest, InferRejectsCraftedModelWithExit4) {
  // A model whose CRC is valid but whose first pool has kernel 0 — what an
  // attacker who recomputes the checksum can write. cati-infer must report
  // it as a corrupt model (exit 4), not die of a division by zero.
  const std::string good =
      testsupport::serializeEngine(testsupport::cachedMicroEngine());
  // magic u32 | version u32 | length u64 | payload | crc32 u32
  std::string payload = good.substr(16, good.size() - 20);
  const std::string pool = std::string("\x09\0\0\0\0\0\0\0", 8) + "maxpool1d";
  const size_t at = payload.find(pool);
  ASSERT_NE(at, std::string::npos);
  std::memset(payload.data() + at + pool.size(), 0, sizeof(int32_t));
  const std::string model = (dir_ / "crafted.bin").string();
  {
    std::ofstream os(model, std::ios::binary);
    io::writeChecksummed(os, 0x43454e47 /*"CENG"*/, 2,
                         [&](std::ostream& body) { body << payload; });
  }
  const std::string img = (dir_ / "img.img").string();
  std::ofstream(img, std::ios::binary) << microImageBytes(0, /*stripped=*/true);
  EXPECT_EQ(runTool(toolPath("cati-infer") + " " + model + " " + img), 4);
}

TEST_F(ServeTest, InferRejectsNonZeroBlankWithExit4) {
  // A CRC-valid model whose BLANK vector is -0 instead of +0: stream pads
  // would no longer encode as the per-window zero rows, so cati-infer must
  // refuse it as corrupt (exit 4).
  const std::string good =
      testsupport::serializeEngine(testsupport::cachedMicroEngine());
  std::string payload = good.substr(16, good.size() - 20);
  testsupport::flipBlankFloat(payload, 0x80);
  const std::string model = (dir_ / "blank.bin").string();
  {
    std::ofstream os(model, std::ios::binary);
    io::writeChecksummed(os, 0x43454e47 /*"CENG"*/, 2,
                         [&](std::ostream& body) { body << payload; });
  }
  const std::string img = (dir_ / "img.img").string();
  std::ofstream(img, std::ios::binary) << microImageBytes(0, /*stripped=*/true);
  EXPECT_EQ(runTool(toolPath("cati-infer") + " " + model + " " + img), 4);
}

TEST_F(ServeTest, ServeBinaryMatchesInferBinary) {
  // Full binary-level differential: the real cati-serve daemon vs the real
  // cati-infer tool on the same model and image.
  Engine engine = testsupport::cachedMicroEngine();
  const std::string model = (dir_ / "model.bin").string();
  engine.saveFile(model);
  const std::string imgBytes = microImageBytes(0, /*stripped=*/true);
  const std::string imgFile = (dir_ / "img.img").string();
  std::ofstream(imgFile, std::ios::binary) << imgBytes;

  // Offline stdout via the real tool.
  std::string offlineReport;
  {
    FILE* p = ::popen(
        (toolPath("cati-infer") + " " + model + " " + imgFile).c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[4096];
    size_t n = 0;
    while ((n = ::fread(buf, 1, sizeof(buf), p)) > 0) {
      offlineReport.append(buf, n);
    }
    ASSERT_EQ(::pclose(p), 0);
  }

  // Daemon: serve exactly one request, then exit 0 on its own.
  const std::string sockPath = (dir_ / "d.sock").string();
  FILE* daemon = ::popen((toolPath("cati-serve") + " " + model +
                          " --listen unix:" + sockPath +
                          " --max-requests 1 2>/dev/null")
                             .c_str(),
                         "r");
  ASSERT_NE(daemon, nullptr);

  std::string served;
  {
    // The daemon needs a moment to bind; retry the connect.
    std::unique_ptr<Client> client;
    ASSERT_TRUE(waitFor([&] {
      try {
        client = std::make_unique<Client>(
            sock::Address::parse("unix:" + sockPath));
        return true;
      } catch (const IoError&) {
        return false;
      }
    }));
    AnalyzeRequest req;
    req.image = imgBytes;
    const Frame f = client->analyze(req);
    EXPECT_EQ(f.type, MsgType::kReport);
    served = decodeReportReply(f.payload).report;
  }
  EXPECT_EQ(::pclose(daemon), 0);  // graceful drain, exit 0
  EXPECT_EQ(served, offlineReport);
}

struct ToolRun {
  int exitCode = -1;
  std::string out;
  std::string err;
};

/// Runs a shell command, capturing stdout, stderr (through `errFile`) and
/// the exit code.
ToolRun runCapture(const std::string& cmd, const stdfs::path& errFile) {
  ToolRun r;
  FILE* p = ::popen((cmd + " 2>" + errFile.string()).c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  size_t n = 0;
  while ((n = ::fread(buf, 1, sizeof(buf), p)) > 0) r.out.append(buf, n);
  const int rc = ::pclose(p);
  r.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream ef(errFile);
  r.err.assign(std::istreambuf_iterator<char>(ef), {});
  return r;
}

TEST_F(ServeTest, InferTimeoutKeepsWholeFunctionsAndExitsZero) {
  // --timeout-ms through the real cati-infer at --jobs 1, where the
  // engine.deadline rule expires the deadline at the Nth check: the report
  // is a whole-function prefix of the untimed one with the TIMEOUT summary,
  // stderr carries the warning, and the exit code is 0.
  Engine engine = testsupport::cachedMicroEngine();
  const std::string model = (dir_ / "model.bin").string();
  engine.saveFile(model);
  const std::string imgFile = (dir_ / "big.img").string();
  {
    std::ofstream os(imgFile, std::ios::binary);
    loader::write(chunkedImage(), os);
  }
  const std::string cmd = toolPath("cati-infer") + " " + model + " " +
                          imgFile + " --jobs 1 --batch 32";
  const ToolRun full = runCapture(cmd, dir_ / "full.err");
  ASSERT_EQ(full.exitCode, 0) << full.err;
  EXPECT_EQ(full.out.find("TIMEOUT"), std::string::npos);
  const ReportParts fullParts = splitReport(full.out);

  bool sawPartial = false;
  for (const int n : {1, 40, 70}) {
    const ToolRun cut = runCapture(
        "CATI_FAULT_SPEC=fail@engine.deadline:" + std::to_string(n) + " " +
            cmd + " --timeout-ms 600000",
        dir_ / "cut.err");
    EXPECT_EQ(cut.exitCode, 0) << "n=" << n << ": " << cut.err;
    const ReportParts parts = splitReport(cut.out);
    EXPECT_TRUE(isPrefix(parts.sections, fullParts.sections)) << "n=" << n;
    EXPECT_NE(parts.summary.find("; TIMEOUT after 600000ms: "),
              std::string::npos)
        << "n=" << n << ": " << parts.summary;
    EXPECT_NE(cut.err.find("warning[engine]: analysis deadline exceeded: "
                           "partial results ("),
              std::string::npos)
        << "n=" << n << ": " << cut.err;
    EXPECT_EQ(cut.err.find("degraded"), std::string::npos) << cut.err;
    sawPartial |= !parts.sections.empty() &&
                  parts.sections.size() < fullParts.sections.size();
  }
  EXPECT_TRUE(sawPartial);
}

}  // namespace
}  // namespace cati::serve
