// CSHD sharded corpus + streaming training (DESIGN.md §12).
//
// The contract under test, in three layers:
//
//   * container: a ShardWriter-built directory streams back exactly the
//     VUCs of the in-memory dataset built from the same binaries in the
//     same order, and every corruption (flipped shard byte, truncated or
//     missing manifest, deleted shard file, tampered counts/CRCs) is a
//     typed CorruptError naming the shard — never a wrong answer;
//   * determinism: Engine::train over a ShardedSource is bit-identical to
//     the in-memory path at any --jobs/--batch, including through a
//     checkpoint stop/resume, and checkpoints are interchangeable between
//     the two paths (the fingerprint is corpus counts, not the shard plan);
//   * durability: a writer killed at any fs.* seam leaves only complete
//     shards and no (or a complete) manifest, and a clean rerun into the
//     same directory recovers fully.
//
// Tool-level legs (exit codes, --progress, --max-resident, metrics names)
// drive the real cati-synth/cati-train binaries from CATI_TOOL_DIR.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cati/engine.h"
#include "common/errors.h"
#include "common/fault.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "corpus/corpus.h"
#include "corpus/sharded.h"
#include "corpus/source.h"
#include "embed/word2vec.h"
#include "synth/synth.h"

namespace cati {
namespace {

namespace stdfs = std::filesystem;

constexpr int kWindow = 4;
constexpr uint64_t kSeed = 0x5eed;
constexpr uint64_t kShardVucs = 120;

/// Per-binary datasets from the same deterministic plan cati-synth --shards
/// replays; generated once, copied per use (append consumes its argument).
const std::vector<corpus::Dataset>& microParts() {
  static const std::vector<corpus::Dataset>* parts = [] {
    auto* v = new std::vector<corpus::Dataset>;
    for (const auto& j : synth::corpusPlan(1, 4, kSeed)) {
      const synth::Binary bin =
          synth::generateBinary(j.profile, synth::Dialect::Gcc, j.opt, j.seed);
      v->push_back(corpus::extractGroundTruth(bin, kWindow));
    }
    return v;
  }();
  return *parts;
}

corpus::Dataset inMemoryDataset() {
  corpus::Dataset all;
  all.window = kWindow;
  for (corpus::Dataset p : microParts()) all.append(std::move(p));
  return all;
}

void writeShards(const stdfs::path& dir, uint64_t shardVucs = kShardVucs) {
  corpus::ShardWriter w(dir, kWindow, shardVucs);
  for (corpus::Dataset p : microParts()) w.append(std::move(p));
  w.finish();
}

EngineConfig shardCfg() {
  EngineConfig cfg;
  cfg.window = kWindow;
  cfg.w2v.dim = 8;
  cfg.w2v.epochs = 1;
  cfg.conv1 = 4;
  cfg.conv2 = 8;
  cfg.fcHidden = 12;
  cfg.epochs = 1;
  cfg.maxTrainPerStage = 150;
  cfg.seed = 7;
  cfg.verbose = false;
  return cfg;
}

std::string serialized(const Engine& e) {
  std::ostringstream os;
  e.save(os);
  return std::move(os).str();
}

void expectVucEq(const corpus::Vuc& a, const corpus::Vuc& b, size_t i) {
  EXPECT_EQ(a.window, b.window) << "vuc " << i;
  EXPECT_EQ(a.posLabel, b.posLabel) << "vuc " << i;
  EXPECT_EQ(a.label, b.label) << "vuc " << i;
  EXPECT_EQ(a.varId, b.varId) << "vuc " << i;
}

/// Flips one byte in the middle of `p` in place (no atomic publish — this
/// IS the corruption).
void flipByte(const stdfs::path& p) {
  std::string bytes;
  {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  std::ofstream os(p, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class ShardedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("cati_sharded_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override {
    fault::configureForTest("");
    stdfs::remove_all(dir_);
  }

  stdfs::path corpusDir() const { return dir_ / "corpus"; }

  std::string trainMem(int jobs, int batch,
                       const TrainCheckpointing* ck = nullptr) {
    par::ThreadPool pool(jobs);
    EngineConfig cfg = shardCfg();
    if (batch > 0) cfg.batchSize = batch;
    Engine e(cfg);
    e.train(inMemoryDataset(), &pool, ck);
    return serialized(e);
  }

  std::string trainStream(int jobs, int batch,
                          const TrainCheckpointing* ck = nullptr,
                          int epochs = 0) {
    par::ThreadPool pool(jobs);
    EngineConfig cfg = shardCfg();
    if (batch > 0) cfg.batchSize = batch;
    if (epochs > 0) cfg.epochs = epochs;
    Engine e(cfg);
    corpus::ShardedCorpus sc(corpusDir());
    corpus::ShardedSource src(sc);
    e.train(src, &pool, ck);
    return serialized(e);
  }

  stdfs::path dir_;
};

// --- container round-trip ----------------------------------------------------

TEST_F(ShardedTest, StreamsBackExactlyTheInMemoryVucs) {
  writeShards(corpusDir());
  const corpus::Dataset all = inMemoryDataset();
  corpus::ShardedCorpus sc(corpusDir());

  ASSERT_GE(sc.numShards(), 2U) << "micro corpus must span several shards "
                                   "or the suite tests nothing";
  EXPECT_EQ(sc.window(), kWindow);
  EXPECT_EQ(sc.numVucs(), all.vucs.size());
  EXPECT_EQ(sc.numVars(), all.vars.size());
  EXPECT_EQ(sc.manifest().targetVucs, kShardVucs);

  // Labels are resident from the manifest — no shard I/O involved.
  for (size_t i = 0; i < all.vucs.size(); ++i) {
    ASSERT_EQ(sc.labelOf(i), all.vucs[i].label) << "label " << i;
  }

  // The streamed VUC sequence is the dataset, in order, ids remapped to
  // the global ranges.
  corpus::ShardedSource src(sc);
  size_t i = 0;
  src.forEach([&](const corpus::Vuc& v) {
    ASSERT_LT(i, all.vucs.size());
    expectVucEq(v, all.vucs[i], i);
    ++i;
  });
  EXPECT_EQ(i, all.vucs.size());

  // Bases are exact prefix sums.
  uint64_t vucs = 0;
  for (size_t s = 0; s < sc.numShards(); ++s) {
    EXPECT_EQ(sc.vucBase(s), vucs);
    vucs += sc.manifest().shards[s].vucs;
  }
  EXPECT_EQ(vucs, sc.numVucs());
}

TEST_F(ShardedTest, ResidentEstimateCountsTwoShardsTheTokenIdsAndLabels) {
  writeShards(corpusDir());
  corpus::ShardedCorpus sc(corpusDir());
  uint64_t maxShard = 0;
  for (const corpus::ShardInfo& s : sc.manifest().shards) {
    maxShard = std::max(maxShard, s.residentBytes);
  }
  // The ids term is exactly what tokenization keeps resident for training.
  corpus::ShardedSource src(sc);
  const embed::TokenizedCorpus tokens = embed::tokenize(src);
  uint64_t ids = 0;
  for (const std::vector<int32_t>& sentence : tokens.sentences) {
    ids += sizeof(sentence) + sentence.capacity() * sizeof(int32_t);
  }
  EXPECT_EQ(sc.streamingResidentBytes(), 2 * maxShard + ids + sc.numVucs());
}

// --- determinism -------------------------------------------------------------

TEST_F(ShardedTest, TrainingIsBitIdenticalToInMemoryAcrossJobsAndBatch) {
  writeShards(corpusDir());
  for (const int batch : {1, 8}) {
    const std::string baseline = trainMem(1, batch);
    ASSERT_FALSE(baseline.empty());
    for (const int jobs : {1, 2}) {
      EXPECT_EQ(trainStream(jobs, batch), baseline)
          << "batch " << batch << ", jobs " << jobs
          << ": streaming model differs from in-memory";
    }
  }
}

TEST_F(ShardedTest, StreamingCheckpointStopResumeIsBitIdentical) {
  writeShards(corpusDir());
  const std::string baseline = trainMem(1, 0);
  // epochs=1 => boundaries: 1 post-word2vec + one per stage.
  constexpr int kBoundaries = 1 + kNumStages;
  for (int boundary = 1; boundary <= kBoundaries; ++boundary) {
    const stdfs::path d = dir_ / ("ck" + std::to_string(boundary));
    const TrainCheckpointing ck{d, 1, false};
    fault::configureForTest("stop@train.checkpoint:" +
                            std::to_string(boundary));
    bool stopped = false;
    try {
      trainStream(1, 0, &ck);
    } catch (const fault::Stop&) {
      stopped = true;
    }
    fault::configureForTest("");
    ASSERT_TRUE(stopped) << "boundary " << boundary << " never fired";
    const TrainCheckpointing rk{d, 1, true};
    // Resume at a different job count: the sweep must also hold across it.
    EXPECT_EQ(trainStream(boundary % 2 == 0 ? 2 : 1, 0, &rk), baseline)
        << "boundary " << boundary << ": streaming resume differs";
  }
}

TEST_F(ShardedTest, CheckpointsInterchangeableBetweenMemoryAndStreaming) {
  writeShards(corpusDir());
  const std::string baseline = trainMem(1, 0);

  // Checkpoint written by the in-memory path, resumed by streaming.
  const stdfs::path d1 = dir_ / "mem2stream";
  fault::configureForTest("stop@train.checkpoint:3");
  const TrainCheckpointing c1{d1, 1, false};
  EXPECT_THROW(trainMem(1, 0, &c1), fault::Stop);
  fault::configureForTest("");
  const TrainCheckpointing r1{d1, 1, true};
  EXPECT_EQ(trainStream(1, 0, &r1), baseline)
      << "streaming resume of an in-memory checkpoint differs";

  // And the reverse direction.
  const stdfs::path d2 = dir_ / "stream2mem";
  fault::configureForTest("stop@train.checkpoint:3");
  const TrainCheckpointing c2{d2, 1, false};
  EXPECT_THROW(trainStream(1, 0, &c2), fault::Stop);
  fault::configureForTest("");
  const TrainCheckpointing r2{d2, 1, true};
  EXPECT_EQ(trainMem(1, 0, &r2), baseline)
      << "in-memory resume of a streaming checkpoint differs";
}

TEST_F(ShardedTest, StreamingTrainReadsEveryShardOnce) {
  // DESIGN.md §12: a fresh run decodes each shard in its tokenization pass
  // and never again; a resumed run pays one pass to rebuild the token ids.
  writeShards(corpusDir());
  const bool wasOn = obs::enabled();
  obs::setEnabled(true);
  obs::Counter& reads = obs::counter("corpus.shards.read");
  const uint64_t shards = corpus::ShardedCorpus(corpusDir()).numShards();

  uint64_t before = reads.value();
  trainStream(2, 0);
  EXPECT_EQ(reads.value() - before, shards) << "fresh run";

  // epochs=2 puts boundary 4 mid-way through the second stage, so the
  // resume also restores Adam moments.
  const stdfs::path d = dir_ / "ck";
  const TrainCheckpointing ck{d, 1, false};
  fault::configureForTest("stop@train.checkpoint:4");
  before = reads.value();
  EXPECT_THROW(trainStream(1, 0, &ck, 2), fault::Stop);
  fault::configureForTest("");
  EXPECT_EQ(reads.value() - before, shards) << "run stopped mid-stage";
  const TrainCheckpointing rk{d, 1, true};
  before = reads.value();
  trainStream(1, 0, &rk, 2);
  EXPECT_EQ(reads.value() - before, shards) << "resumed run";
  obs::setEnabled(wasOn);
}

// --- window lengths at the input boundary -----------------------------------

TEST_F(ShardedTest, ShortWindowInAShardIsCorruptErrorNamingTheShard) {
  std::vector<corpus::Dataset> parts = microParts();
  ASSERT_GE(parts.size(), 2U);
  parts[1].vucs.front().window.pop_back();
  {
    corpus::ShardWriter w(corpusDir(), kWindow, kShardVucs);
    for (corpus::Dataset& p : parts) w.append(std::move(p));
    w.finish();
  }
  corpus::ShardedCorpus sc(corpusDir());
  // The damaged VUC lives in the shard holding the second binary.
  const uint64_t at = microParts()[0].vucs.size();
  size_t shard = 0;
  while (shard + 1 < sc.numShards() && sc.vucBase(shard + 1) <= at) ++shard;
  try {
    sc.readShard(shard);
    FAIL() << "decoded a shard holding a short VUC window";
  } catch (const CorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard " + std::to_string(shard)), std::string::npos)
        << what;
    EXPECT_NE(what.find("window length"), std::string::npos) << what;
  }
}

TEST_F(ShardedTest, ShortUnlabeledWindowIsRejectedBeforeTraining) {
  // An unlabeled VUC is never a stage sample, but it is tokenized and
  // trained on by word2vec, so its window must be checked all the same.
  corpus::Dataset ds = inMemoryDataset();
  corpus::Vuc& v = ds.vucs.back();
  v.label = TypeLabel::kCount;
  v.window.pop_back();
  v.posLabel.pop_back();
  Engine e(shardCfg());
  try {
    e.train(ds);
    FAIL() << "trained on a VUC whose window is one instruction short";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("window length"),
              std::string::npos)
        << err.what();
  }
}

// --- corruption matrix -------------------------------------------------------

TEST_F(ShardedTest, MissingManifestIsCorruptError) {
  stdfs::create_directories(corpusDir());
  try {
    corpus::ShardedCorpus sc(corpusDir());
    FAIL() << "opened a directory with no manifest";
  } catch (const CorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("missing manifest"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(ShardedTest, TruncatedManifestIsCorruptError) {
  writeShards(corpusDir());
  const stdfs::path mf = corpusDir() / corpus::kManifestName;
  const auto size = stdfs::file_size(mf);
  stdfs::resize_file(mf, size - 3);
  EXPECT_THROW(corpus::ShardedCorpus sc(corpusDir()), CorruptError);
}

TEST_F(ShardedTest, FlippedShardByteIsCorruptErrorNamingTheShard) {
  writeShards(corpusDir());
  flipByte(corpusDir() / corpus::shardFileName(1));
  corpus::ShardedCorpus sc(corpusDir());  // manifest untouched: opens fine
  EXPECT_NO_THROW(sc.readShard(0));
  try {
    sc.readShard(1);
    FAIL() << "decoded a shard whose bytes were flipped";
  } catch (const CorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find(corpus::shardFileName(1)), std::string::npos) << what;
  }
  // The streaming pass surfaces the same error (from the prefetch thread).
  corpus::ShardedSource src(sc);
  EXPECT_THROW(src.forEach([](const corpus::Vuc&) {}), CorruptError);
}

TEST_F(ShardedTest, DeletedShardFileIsCorruptErrorNamingTheShard) {
  writeShards(corpusDir());
  stdfs::remove(corpusDir() / corpus::shardFileName(1));
  corpus::ShardedCorpus sc(corpusDir());
  try {
    corpus::ShardedSource src(sc);
    src.forEach([](const corpus::Vuc&) {});
    FAIL() << "streamed a corpus with a deleted shard file";
  } catch (const CorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("shard 1"), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardedTest, TamperedManifestVucCountIsCorruptError) {
  writeShards(corpusDir());
  corpus::ShardManifest m = corpus::ShardedCorpus(corpusDir()).manifest();
  m.shards[0].vucs += 1;
  m.shards[0].labels.push_back(0);  // keep open-time validation satisfied
  corpus::writeManifest(corpusDir(), m);
  corpus::ShardedCorpus sc(corpusDir());
  try {
    sc.readShard(0);
    FAIL() << "accepted a shard whose manifest counts were tampered";
  } catch (const CorruptError& e) {
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
        << e.what();
  }
}

TEST_F(ShardedTest, TamperedManifestCrcIsCorruptError) {
  writeShards(corpusDir());
  corpus::ShardManifest m = corpus::ShardedCorpus(corpusDir()).manifest();
  m.shards[0].crc ^= 0x1;
  corpus::writeManifest(corpusDir(), m);
  corpus::ShardedCorpus sc(corpusDir());
  try {
    sc.readShard(0);
    FAIL() << "accepted a shard whose manifest CRC was tampered";
  } catch (const CorruptError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum"), std::string::npos) << what;
  }
}

// --- writer durability -------------------------------------------------------

TEST_F(ShardedTest, StaleTempDebrisIsSweptBeforeWriting) {
  stdfs::create_directories(corpusDir());
  const stdfs::path debris = corpusDir() / "corpus.cshd.cati-tmp.99999";
  std::ofstream(debris) << "leftover";
  ASSERT_TRUE(stdfs::exists(debris));
  writeShards(corpusDir());
  EXPECT_FALSE(stdfs::exists(debris))
      << "ShardWriter did not sweep a previous run's temp debris";
  EXPECT_NO_THROW(corpus::ShardedCorpus sc(corpusDir()));
}

TEST_F(ShardedTest, WriterStoppedAtEveryFsSeamLeavesOnlyCompleteState) {
  const corpus::Dataset all = inMemoryDataset();
  int fired = 0;
  for (int n = 1; n <= 500; ++n) {
    const stdfs::path d = dir_ / ("fi" + std::to_string(n));
    fault::configureForTest("stop@fs.*:" + std::to_string(n));
    bool stopped = false;
    try {
      writeShards(d);
    } catch (const fault::Stop&) {
      stopped = true;
    }
    fault::configureForTest("");
    if (!stopped) {
      // The whole run completed: the sweep covered every seam.
      ASSERT_GT(fired, 0) << "no fs seam ever fired — probes missing?";
      corpus::ShardedCorpus sc(d);
      EXPECT_EQ(sc.numVucs(), all.vucs.size());
      return;
    }
    ++fired;
    // Interrupted: either the manifest is absent (directory reads as "not
    // a corpus") or the directory is already fully valid.
    try {
      corpus::ShardedCorpus sc(d);
      corpus::ShardedSource src(sc);
      size_t seen = 0;
      src.forEach([&](const corpus::Vuc&) { ++seen; });
      EXPECT_EQ(seen, all.vucs.size())
          << "seam " << n << ": manifest published before all shards";
    } catch (const CorruptError& e) {
      EXPECT_NE(std::string(e.what()).find("missing manifest"),
                std::string::npos)
          << "seam " << n << ": interrupted writer left a torn corpus: "
          << e.what();
    }
    // A clean rerun into the same directory must recover fully.
    writeShards(d);
    corpus::ShardedCorpus sc(d);
    EXPECT_EQ(sc.numVucs(), all.vucs.size()) << "seam " << n;
  }
  FAIL() << "fs.* sweep never ran to completion within 500 seams";
}

TEST_F(ShardedTest, InjectedShortWriteFailsWithoutTornFiles) {
  fault::configureForTest("truncate@fs.write:2");
  EXPECT_THROW(writeShards(corpusDir()), IoError);
  fault::configureForTest("");
  // The truncated file was a temp; the directory must hold no manifest and
  // rebuild cleanly.
  EXPECT_FALSE(stdfs::exists(corpusDir() / corpus::kManifestName));
  writeShards(corpusDir());
  EXPECT_NO_THROW(corpus::ShardedCorpus sc(corpusDir()));
}

// --- tool-level legs ---------------------------------------------------------

int runCmd(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

std::string slurp(const stdfs::path& p) {
  std::ifstream is(p, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return std::move(buf).str();
}

std::string toolPath(const char* tool) {
  return (stdfs::path(CATI_TOOL_DIR) / tool).string();
}

constexpr const char* kToolTrainFlags =
    " --epochs 1 --cap 120 --hidden 12 --dim 8 --jobs 1 --quiet";

class ShardedToolTest : public ShardedTest {
 protected:
  int synthShards(const std::string& extra = "") {
    return runCmd(toolPath("cati-synth") + " --shards " +
                  corpusDir().string() +
                  " --apps 1 --funcs 4 --seed 5 --window 4 --shard-vucs 150" +
                  extra + " >/dev/null 2>" + (dir_ / "synth.err").string());
  }
  int trainDir(const std::string& model, const std::string& extra = "") {
    return runCmd(toolPath("cati-train") + " " + (dir_ / model).string() +
                  " --corpus-dir " + corpusDir().string() + kToolTrainFlags +
                  extra + " >/dev/null 2>&1");
  }
};

TEST_F(ShardedToolTest, ToolPipelineMatchesInMemoryTrainingByteForByte) {
  ASSERT_EQ(synthShards(" --progress"), 0);
  EXPECT_NE(slurp(dir_ / "synth.err").find("cati-synth:"), std::string::npos)
      << "--progress emitted nothing on stderr";

  ASSERT_EQ(runCmd(toolPath("cati-train") + " " + (dir_ / "mem.bin").string() +
                   " --apps 1 --funcs 4 --seed 5 --window 4" +
                   kToolTrainFlags + " >/dev/null 2>&1"),
            0);
  const stdfs::path metrics = dir_ / "metrics.json";
  ASSERT_EQ(trainDir("stream.bin", " --metrics=" + metrics.string()), 0);

  const std::string mem = slurp(dir_ / "mem.bin");
  ASSERT_FALSE(mem.empty());
  EXPECT_EQ(slurp(dir_ / "stream.bin"), mem)
      << "cati-train --corpus-dir model differs from the in-memory one";

  const std::string json = slurp(metrics);
  for (const char* key : {"corpus.shards.read", "train.shard_ns",
                          "train.prefetch_stall_ns"}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << key << " missing from --metrics output";
  }
}

TEST_F(ShardedToolTest, ToolProgressIsOffByDefault) {
  ASSERT_EQ(synthShards(), 0);
  EXPECT_EQ(slurp(dir_ / "synth.err").find("cati-synth:"), std::string::npos);
}

TEST_F(ShardedToolTest, ToolExitsCorruptCodeOnDamagedShard) {
  ASSERT_EQ(synthShards(), 0);
  flipByte(corpusDir() / corpus::shardFileName(0));
  EXPECT_EQ(trainDir("m.bin"), 4);
  EXPECT_FALSE(stdfs::exists(dir_ / "m.bin"));
}

TEST_F(ShardedToolTest, ToolUsageErrorsExitTwo) {
  ASSERT_EQ(synthShards(), 0);
  // Generated-corpus flags conflict with --corpus-dir.
  EXPECT_EQ(trainDir("m.bin", " --apps 2"), 2);
  // --max-resident without --corpus-dir.
  EXPECT_EQ(runCmd(toolPath("cati-train") + " " + (dir_ / "m.bin").string() +
                   " --max-resident 64M" + kToolTrainFlags +
                   " >/dev/null 2>&1"),
            2);
  // Explicit --window disagreeing with the manifest.
  EXPECT_EQ(trainDir("m.bin", " --window 6"), 2);
  // A budget the streaming working set cannot fit: refused up front.
  EXPECT_EQ(trainDir("m.bin", " --max-resident 1K"), 2);
  // And a generous budget is admitted.
  EXPECT_EQ(trainDir("ok.bin", " --max-resident 1G"), 0);
  // cati-synth: image-only flags with --shards.
  EXPECT_EQ(runCmd(toolPath("cati-synth") + " --shards " +
                   (dir_ / "c2").string() + " --strip >/dev/null 2>&1"),
            2);
  // cati-synth: shard-only flags without --shards.
  EXPECT_EQ(runCmd(toolPath("cati-synth") + " " + (dir_ / "o.img").string() +
                   " --shard-vucs 100 >/dev/null 2>&1"),
            2);
}

}  // namespace
}  // namespace cati
