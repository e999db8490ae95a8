// The metric catalogue (DESIGN.md §8): every counter and histogram that the
// program's entry points register must have a row in §8's table, so an
// operator reading `--metrics` or a kMetrics reply can look each name up.
//
// The run covers a micro train from a sharded corpus with checkpoints,
// analyzeImage with and without an injected fault, predictVucs,
// occlusionEpsilons and one cati-serve round trip; the document's path
// comes from CATI_DESIGN_MD (tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "cati/engine.h"
#include "common/fault.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/types.h"
#include "corpus/sharded.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/micro_model.h"

#ifndef CATI_DESIGN_MD
#define CATI_DESIGN_MD "DESIGN.md"
#endif

namespace cati {
namespace {

namespace stdfs = std::filesystem;

/// The backquoted names in the first cell of every table row in DESIGN.md
/// §8 (a row may name several metrics: `a` / `b`).
std::set<std::string> documentedMetrics() {
  std::ifstream is(CATI_DESIGN_MD);
  std::set<std::string> names;
  bool inSection = false;
  for (std::string line; std::getline(is, line);) {
    if (line.starts_with("## ")) inSection = line.starts_with("## 8.");
    if (!inSection || !line.starts_with("| `")) continue;
    const std::string cell = line.substr(1, line.find('|', 1) - 1);
    for (size_t open = cell.find('`'); open != std::string::npos;) {
      const size_t close = cell.find('`', open + 1);
      if (close == std::string::npos) break;
      names.insert(cell.substr(open + 1, close - open - 1));
      open = cell.find('`', close + 1);
    }
  }
  return names;
}

/// `name` as §8's table spells it: a classifier-stage suffix becomes
/// `<Stage>`, so the six per-stage metrics share one row.
std::string tableName(const std::string& name) {
  for (int s = 0; s < kNumStages; ++s) {
    std::string suffix(".");
    suffix.append(stageName(static_cast<Stage>(s)));
    if (name.ends_with(suffix)) {
      return name.substr(0, name.size() - suffix.size()).append(".<Stage>");
    }
  }
  return name;
}

TEST(MetricCatalogue, EveryRegisteredMetricIsDocumented) {
  obs::setEnabled(true);
  const stdfs::path dir = stdfs::temp_directory_path() /
                          ("cati_metrics_" + std::to_string(::getpid()));
  stdfs::remove_all(dir);
  stdfs::create_directories(dir);
  par::ThreadPool pool(2);
  const corpus::Dataset ds = testsupport::microDataset(&pool);
  {
    // One shard per binary, so the prefetch pipeline has a shard to read
    // ahead.
    corpus::ShardWriter w(dir / "corpus", ds.window, 1);
    for (const synth::Binary& bin : testsupport::microBinaries(&pool)) {
      w.append(corpus::extractGroundTruth(bin, ds.window));
    }
    w.finish();
  }
  const corpus::ShardedCorpus sc(dir / "corpus");
  ASSERT_GE(sc.numShards(), 2U);
  corpus::ShardedSource src(sc);
  Engine engine(testsupport::microConfig());
  const TrainCheckpointing ck{.dir = dir / "ckpt"};
  engine.train(src, &pool, &ck);

  loader::Image img = loader::buildImage(testsupport::microBinaries().at(0));
  loader::strip(img);
  (void)serve::analyzeImage(engine, img, &pool, 0);
  fault::configureForTest("fail@engine.prepare:1");
  (void)serve::analyzeImage(engine, img, &pool, 0);
  fault::configureForTest("");
  (void)engine.predictVucs(std::span(ds.vucs).first(8), &pool);
  (void)engine.occlusionEpsilons(ds.vucs.front(), Stage::S1);

  {
    serve::ServerConfig cfg;
    cfg.listen = sock::Address::parse("unix:" + (dir / "s.sock").string());
    cfg.cacheBytes = 1 << 20;
    serve::Server server(engine, cfg);
    server.start();
    std::ostringstream image;
    loader::write(img, image);
    serve::AnalyzeRequest req;
    req.image = std::move(image).str();
    serve::Client client(server.bound());
    EXPECT_EQ(client.analyze(req).type, serve::MsgType::kReport);
    server.stop();
  }
  stdfs::remove_all(dir);

  const std::set<std::string> documented = documentedMetrics();
  ASSERT_FALSE(documented.empty()) << "no §8 table in " << CATI_DESIGN_MD;
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  ASSERT_FALSE(snap.counters.empty());
  std::set<std::string> registered;
  for (const obs::CounterSnapshot& c : snap.counters) registered.insert(c.name);
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    registered.insert(h.name);
  }
  // The run reached the sharded, checkpointed and fault-injected paths.
  for (const char* name :
       {"corpus.shards.written", "corpus.shards.read", "train.shard_ns",
        "train.prefetch_stall_ns", "engine.train.checkpoints",
        "engine.train.checkpoint_ns", "fs.atomic_writes", "fault.injected"}) {
    EXPECT_TRUE(registered.contains(name)) << name << " was never registered";
  }
  for (const obs::CounterSnapshot& c : snap.counters) {
    EXPECT_TRUE(documented.contains(tableName(c.name)))
        << "counter " << c.name << " has no row in DESIGN.md §8";
  }
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    EXPECT_TRUE(documented.contains(tableName(h.name)))
        << "histogram " << h.name << " has no row in DESIGN.md §8";
  }
}

}  // namespace
}  // namespace cati
