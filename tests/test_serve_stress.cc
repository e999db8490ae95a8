// The differential stress layer for cati-serve (DESIGN.md §10): seeded
// multi-client sweeps across server configurations, proving every reply the
// daemon produces is byte-identical to offline inference — whatever the
// interleaving, the client count, --jobs, the coalesced group size, the
// cache state, injected cache faults, or a storm of mid-request disconnects.
//
// gtest assertions are not thread-safe, so client threads record mismatches
// into a mutex-guarded list that the main thread asserts on after joining.
//
// Shares the ./cati_test_cache/ micro model (RESOURCE_LOCK micro_model_cache).
// Per-client request counts scale with the CATI_FUZZ_ITERS budget
// (tests/support/env.h), same knob as the fuzz suite.
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "common/obs.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/env.h"
#include "support/micro_model.h"

namespace cati::serve {
namespace {

namespace stdfs = std::filesystem;

struct Variant {
  std::string image;  ///< serialized container bytes, the request payload
  std::string report;
  std::string diagsText;
};

/// The image variants every sweep draws from, with their offline-computed
/// expected outputs (the differential reference, computed once).
std::vector<Variant> makeVariants() {
  Engine engine = testsupport::cachedMicroEngine();
  const auto bins = testsupport::microBinaries();
  std::vector<Variant> out;
  for (const size_t idx : {size_t{0}, size_t{1}}) {
    for (const bool stripped : {true, false}) {
      Variant v;
      loader::Image img = loader::buildImage(bins.at(idx));
      if (stripped) loader::strip(img);
      std::ostringstream os;
      loader::write(img, os);
      v.image = std::move(os).str();

      DiagList imgDiags;
      std::istringstream is(v.image);
      const auto reread = loader::tryRead(is, imgDiags);
      EXPECT_TRUE(reread.has_value());
      par::ThreadPool pool(1);
      const AnalyzeResult r = analyzeImage(engine, *reread, &pool);
      v.report = r.report;
      std::ostringstream ds;
      print(imgDiags, ds);
      print(r.diags, ds);
      v.diagsText = ds.str();
      out.push_back(std::move(v));
    }
  }
  return out;
}

const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = makeVariants();
  return v;
}

/// Thread-safe mismatch sink; client threads must not touch gtest.
class Failures {
 public:
  void add(std::string msg) {
    const std::lock_guard<std::mutex> lock(mu_);
    msgs_.push_back(std::move(msg));
  }
  std::string summary() {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string s;
    for (const auto& m : msgs_) s += m + "\n";
    return s;
  }
  bool empty() {
    const std::lock_guard<std::mutex> lock(mu_);
    return msgs_.empty();
  }

 private:
  std::mutex mu_;
  std::vector<std::string> msgs_;
};

/// One client's life: connect, fire `requests` seeded analyze calls, compare
/// every reply byte-for-byte against the offline reference.
void runClient(const sock::Address& addr, uint32_t seed, int requests,
               Failures& failures) {
  try {
    Client client(addr);
    std::mt19937 rng(seed);
    for (int r = 0; r < requests; ++r) {
      const Variant& v =
          variants()[rng() % variants().size()];
      AnalyzeRequest req;
      req.image = v.image;
      const Frame f = client.analyze(req);
      if (f.type != MsgType::kReport) {
        failures.add("seed " + std::to_string(seed) + " req " +
                     std::to_string(r) + ": non-report reply type " +
                     std::to_string(static_cast<uint32_t>(f.type)));
        return;
      }
      const ReportReply rep = decodeReportReply(f.payload);
      if (rep.report != v.report || rep.diagsText != v.diagsText) {
        failures.add("seed " + std::to_string(seed) + " req " +
                     std::to_string(r) + ": reply differs from offline");
      }
    }
  } catch (const std::exception& e) {
    failures.add("seed " + std::to_string(seed) + ": " + e.what());
  }
}

class ServeStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::setEnabled(true);
    dir_ = stdfs::temp_directory_path() /
           ("cati_stress_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override {
    fault::configureForTest("");
    stdfs::remove_all(dir_);
  }

  sock::Address unixAddr(const std::string& name) {
    return sock::Address::parse("unix:" + (dir_ / name).string());
  }

  stdfs::path dir_;
};

// The headline sweep: client counts {1,4,16} x jobs {1,2} x batch-loop
// group size {1,16} (every request predicted alone, or coalesced),
// seeded request mixes, every reply compared byte-for-byte to the offline
// reference. Covers cache cold/warm (the first request per image is a miss,
// repeats are hits) in the same pass.
TEST_F(ServeStressTest, SweepClientsJobsBatch) {
  Engine engine = testsupport::cachedMicroEngine();
  (void)variants();  // compute the reference before any server holds engine

  int cfgIdx = 0;
  for (const int jobs : {1, 2}) {
    for (const int group : {1, 16}) {
      std::string sockName = "s";
      sockName += std::to_string(cfgIdx);
      sockName += ".sock";
      ServerConfig cfg;
      cfg.listen = unixAddr(sockName);
      cfg.jobs = jobs;
      cfg.maxGroup = static_cast<size_t>(group);
      cfg.maxQueue = 256;
      cfg.cacheBytes = 1 << 20;
      Server server(engine, cfg);
      server.start();

      for (const int clients : {1, 4, 16}) {
        Failures failures;
        std::vector<std::thread> threads;
        threads.reserve(static_cast<size_t>(clients));
        for (int c = 0; c < clients; ++c) {
          const uint32_t seed = static_cast<uint32_t>(
              0x5EED0000 + cfgIdx * 100 + clients * 10 + c);
          threads.emplace_back([&, seed] {
            runClient(server.bound(), seed,
                      testsupport::scaledIters(3), failures);
          });
        }
        for (auto& t : threads) t.join();
        EXPECT_TRUE(failures.empty())
            << "jobs=" << jobs << " group=" << group
            << " clients=" << clients << "\n"
            << failures.summary();
      }
      server.stop();
      ++cfgIdx;
    }
  }
}

// Injected cache faults while serving: a failing cache write must cost only
// the caching (serve.cache.write_failed), never the correctness of a reply;
// a corrupted on-disk entry must be recomputed, not served.
TEST_F(ServeStressTest, FaultsDuringServingNeverCorruptReplies) {
  Engine engine = testsupport::cachedMicroEngine();
  (void)variants();

  ServerConfig cfg;
  cfg.listen = unixAddr("f.sock");
  cfg.cacheBytes = 1 << 20;
  cfg.cacheDir = dir_ / "cache";
  Server server(engine, cfg);
  server.start();

  for (const char* spec :
       {"fail@serve.cache.write:1", "fail@fs.fsync:1", "fail@fs.rename:1",
        "truncate@fs.write:1", "fail@serve.cache.read:1", ""}) {
    fault::configureForTest(spec);
    Failures failures;
    runClient(server.bound(), /*seed=*/0xFA017, testsupport::scaledIters(4),
              failures);
    EXPECT_TRUE(failures.empty())
        << "under fault spec '" << spec << "'\n"
        << failures.summary();
  }
  fault::configureForTest("");

  // Clean sweep over every variant: any torn entry a truncate fault left
  // behind is detected on lookup, deleted and recomputed — while the reply
  // stays correct throughout.
  {
    Client client(server.bound());
    for (const Variant& v : variants()) {
      AnalyzeRequest req;
      req.image = v.image;
      const Frame f = client.analyze(req);
      ASSERT_EQ(f.type, MsgType::kReport);
      EXPECT_EQ(decodeReportReply(f.payload).report, v.report);
    }
  }

  // After all that abuse the cache directory holds only valid entries: a
  // fresh recovery scan must not find corruption.
  server.stop();
  const uint64_t corrupt0 = obs::counter("serve.cache.corrupt").value();
  ResultCache recovered(1 << 20, dir_ / "cache");
  EXPECT_GE(recovered.entries(), variants().size());
  EXPECT_EQ(obs::counter("serve.cache.corrupt").value(), corrupt0);
}

// A storm of clients that vanish mid-request must not stall the batch loop
// or poison the replies of the well-behaved.
TEST_F(ServeStressTest, DisconnectStormLeavesServerServing) {
  Engine engine = testsupport::cachedMicroEngine();
  (void)variants();

  ServerConfig cfg;
  cfg.listen = unixAddr("d.sock");
  cfg.maxQueue = 256;
  cfg.cacheBytes = 1 << 20;
  Server server(engine, cfg);
  server.start();

  Failures failures;
  std::vector<std::thread> threads;
  for (int c = 0; c < 12; ++c) {
    const uint32_t seed = static_cast<uint32_t>(0xD15C0 + c);
    if (c % 2 == 0) {
      // Rude: send an analyze request and hang up without reading.
      threads.emplace_back([&, seed] {
        try {
          Client client(server.bound());
          AnalyzeRequest req;
          req.image = variants()[seed % variants().size()].image;
          client.send(MsgType::kAnalyze, encodeAnalyzeRequest(req));
          client.close();
        } catch (const std::exception&) {
          // A send racing the server's own drop is fine.
        }
      });
    } else {
      threads.emplace_back([&, seed] {
        runClient(server.bound(), seed,
                      testsupport::scaledIters(3), failures);
      });
    }
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(failures.empty()) << failures.summary();

  // And the server is still healthy afterwards.
  Failures post;
  runClient(server.bound(), /*seed=*/0xAF7E2, testsupport::scaledIters(2),
            post);
  EXPECT_TRUE(post.empty()) << post.summary();
  server.stop();
}

}  // namespace
}  // namespace cati::serve
