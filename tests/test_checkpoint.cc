// Checkpoint/resume training (DESIGN.md §9): the crash-sweep contract.
//
// The core claim: for a fixed seed, a run killed at ANY checkpoint boundary
// and resumed produces a final model BIT-IDENTICAL to one that never
// stopped, at any job count. The sweep uses the `stop` fault action — the
// in-process, catchable stand-in for `kill` (the real _exit(137) sweep runs
// in test_crash.cc against the cati-train binary).
//
// Also covered: checkpointing changes no training numerics, resume rejects
// mismatched hyperparameters/datasets and corrupt files, and Adam optimizer
// state round-trips exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "cati/engine.h"
#include "common/errors.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/serialize.h"
#include "corpus/corpus.h"
#include "nn/nn.h"
#include "nn/qnn.h"
#include "support/framed_model.h"
#include "support/micro_model.h"

namespace cati {
namespace {

namespace stdfs = std::filesystem;

/// Micro config with two epochs per stage, so every stage has a mid-stage
/// boundary (epoch 1, Adam state carried) and a stage-end boundary.
EngineConfig ckptConfig() {
  EngineConfig cfg = testsupport::microConfig();
  cfg.epochs = 2;
  cfg.maxTrainPerStage = 150;
  return cfg;
}

/// Boundaries per run with everyEpochs=1: one post-word2vec, then one per
/// epoch per stage.
constexpr int kBoundaries = 1 + kNumStages * 2;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("cati_ckpt_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
    ds_ = testsupport::microDataset();
  }
  void TearDown() override {
    fault::configureForTest("");
    stdfs::remove_all(dir_);
  }

  std::string trainBytes(int jobs, const TrainCheckpointing* ck) {
    par::ThreadPool pool(jobs);
    Engine e(ckptConfig());
    e.train(ds_, &pool, ck);
    return testsupport::serializeEngine(e);
  }

  stdfs::path dir_;
  corpus::Dataset ds_;
};

TEST_F(CheckpointTest, CheckpointingDoesNotChangeTheModel) {
  const std::string plain = trainBytes(1, nullptr);
  const TrainCheckpointing ck{dir_, 1, false};
  EXPECT_EQ(trainBytes(1, &ck), plain);
  EXPECT_TRUE(stdfs::exists(dir_ / "train.ckpt"));
}

TEST_F(CheckpointTest, StopSweepEveryBoundaryResumesBitIdentical) {
  // The acceptance sweep: crash at boundary N for every N, resume, compare
  // final model bytes — at jobs 1 and 2 (jobs invariance must survive a
  // mid-stage resume, where the dropout-stream cursor is reconstructed).
  const std::string baseline = trainBytes(1, nullptr);
  ASSERT_EQ(trainBytes(2, nullptr), baseline)
      << "jobs invariance broken before the sweep even started";
  for (const int jobs : {1, 2}) {
    for (int boundary = 1; boundary <= kBoundaries; ++boundary) {
      const stdfs::path d =
          dir_ / std::string("j")
                     .append(std::to_string(jobs))
                     .append("_b")
                     .append(std::to_string(boundary));
      const TrainCheckpointing ck{d, 1, false};
      fault::configureForTest("stop@train.checkpoint:" +
                              std::to_string(boundary));
      bool stopped = false;
      try {
        trainBytes(jobs, &ck);
      } catch (const fault::Stop&) {
        stopped = true;
      }
      fault::configureForTest("");
      ASSERT_TRUE(stopped) << "jobs " << jobs << ": boundary " << boundary
                           << " never fired — sweep is not covering the run";
      const TrainCheckpointing rk{d, 1, true};
      EXPECT_EQ(trainBytes(jobs, &rk), baseline)
          << "jobs " << jobs << ", killed at boundary " << boundary
          << ": resumed model differs from the uninterrupted one";
    }
    // One past the last boundary: the stop must NOT fire (proves
    // kBoundaries really is every boundary, not a truncated sweep).
    const TrainCheckpointing ck{dir_ / "tail", 1, false};
    fault::configureForTest("stop@train.checkpoint:" +
                            std::to_string(kBoundaries + 1));
    EXPECT_EQ(trainBytes(jobs, &ck), baseline);
    fault::configureForTest("");
  }
}

TEST_F(CheckpointTest, ResumeWithoutCheckpointTrainsFromScratch) {
  const std::string baseline = trainBytes(1, nullptr);
  const TrainCheckpointing rk{dir_, 1, true};  // dir exists, no train.ckpt
  EXPECT_EQ(trainBytes(1, &rk), baseline);
}

TEST_F(CheckpointTest, ResumeRejectsChangedHyperparameters) {
  // Stop right after the first checkpoint so dir_ holds a valid one.
  const TrainCheckpointing ck{dir_, 1, false};
  fault::configureForTest("stop@train.checkpoint:1");
  EXPECT_THROW(trainBytes(1, &ck), fault::Stop);
  fault::configureForTest("");

  EngineConfig other = ckptConfig();
  other.lr *= 2.0F;
  par::ThreadPool pool(1);
  Engine e(other);
  const TrainCheckpointing rk{dir_, 1, true};
  try {
    e.train(ds_, &pool, &rk);
    FAIL() << "resume accepted a checkpoint written with different flags";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("configuration mismatch"),
              std::string::npos)
        << err.what();
  }
}

TEST_F(CheckpointTest, ResumeRejectsDifferentDataset) {
  const TrainCheckpointing ck{dir_, 1, false};
  fault::configureForTest("stop@train.checkpoint:1");
  EXPECT_THROW(trainBytes(1, &ck), fault::Stop);
  fault::configureForTest("");

  corpus::Dataset other = testsupport::microDataset();
  other.vucs.pop_back();  // same window, one VUC short
  par::ThreadPool pool(1);
  Engine e(ckptConfig());
  const TrainCheckpointing rk{dir_, 1, true};
  try {
    e.train(other, &pool, &rk);
    FAIL() << "resume accepted a checkpoint for a different training set";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find("training-set mismatch"),
              std::string::npos)
        << err.what();
  }
}

TEST_F(CheckpointTest, ResumeRejectsCorruptCheckpoint) {
  const TrainCheckpointing ck{dir_, 1, false};
  fault::configureForTest("stop@train.checkpoint:1");
  EXPECT_THROW(trainBytes(1, &ck), fault::Stop);
  fault::configureForTest("");

  // Flip one byte deep in the container: resume must fail with a
  // CorruptError (checksum), never train from poisoned state.
  const stdfs::path p = dir_ / "train.ckpt";
  std::string bytes;
  {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    bytes = std::move(buf).str();
  }
  ASSERT_GT(bytes.size(), 64U);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  par::ThreadPool pool(1);
  Engine e(ckptConfig());
  const TrainCheckpointing rk{dir_, 1, true};
  EXPECT_THROW(e.train(ds_, &pool, &rk), CorruptError);
}

TEST_F(CheckpointTest, ResumeRejectsStageNetsThatDoNotFitTheConfig) {
  // A CRC only proves the bytes arrived as written. The checkpoint's stage
  // nets are checked on their contents as a model's are (Engine::load), and
  // int8 layers have no place in a training checkpoint.
  const TrainCheckpointing ck{dir_, 1, false};
  par::ThreadPool pool(1);
  Engine stopped(ckptConfig());
  fault::configureForTest("stop@train.checkpoint:1");
  EXPECT_THROW(stopped.train(ds_, &pool, &ck), fault::Stop);
  fault::configureForTest("");

  const stdfs::path p = dir_ / "train.ckpt";
  std::string file;
  {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    file = std::move(buf).str();
  }
  // Magic, version and payload length, then the payload, then the CRC.
  ASSERT_GT(file.size(), 20U);
  const std::string payload = file.substr(16, file.size() - 20);
  std::ostringstream nets;
  for (int s = 0; s < kNumStages; ++s) {
    stopped.stageNet(static_cast<Stage>(s)).save(nets);
  }
  const size_t at = payload.find(nets.str());
  ASSERT_NE(at, std::string::npos);

  const EngineConfig cfg = ckptConfig();
  for (const bool quantized : {false, true}) {
    // Stage1 with 3 logits, or all six nets well-shaped but int8.
    const std::string why = quantized ? "int8" : "stage Stage1";
    SCOPED_TRACE(why);
    std::ostringstream bytes;
    for (const nn::Sequential& net :
         testsupport::stageNets(cfg, quantized ? -1 : 0)) {
      if (quantized) {
        nn::quantizeNet(net).save(bytes);
      } else {
        net.save(bytes);
      }
    }
    std::string body = payload;
    body.replace(at, nets.str().size(), bytes.str());
    {
      std::ofstream os(p, std::ios::binary | std::ios::trunc);
      io::writeChecksummed(os, 0x43434b50 /*"CCKP"*/, 1,
                           [&](std::ostream& b) { b << body; });
    }
    Engine e(cfg);
    const TrainCheckpointing rk{dir_, 1, true};
    try {
      e.train(ds_, &pool, &rk);
      ADD_FAILURE() << "resumed from a checkpoint with unfit stage nets";
    } catch (const CorruptError& err) {
      EXPECT_NE(std::string(err.what()).find(why), std::string::npos)
          << err.what();
    }
  }
}

TEST_F(CheckpointTest, ResumeRejectsAdamStepCountThatMissesTheEpoch) {
  // A CRC-valid mid-stage checkpoint whose Adam step count was doctored.
  // t = -1 would make the first resumed step's bias correction
  // 1 - beta1^0 = 0 and every weight NaN; any t other than the minibatches
  // of the finished epochs is a different optimizer. Resume must refuse and
  // name the stage.
  const std::string baseline = trainBytes(1, nullptr);
  const TrainCheckpointing ck{dir_, 1, false};
  fault::configureForTest("stop@train.checkpoint:2");  // stage 0, epoch 1
  EXPECT_THROW(trainBytes(1, &ck), fault::Stop);
  fault::configureForTest("");

  const stdfs::path p = dir_ / "train.ckpt";
  std::string file;
  {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    file = std::move(buf).str();
  }
  // Magic, version and payload length, then the payload, then the CRC.
  ASSERT_GT(file.size(), 20U);
  const std::string payload = file.substr(16, file.size() - 20);
  // The Adam blob starts with its magic and version; t follows.
  std::ostringstream header;
  {
    io::Writer w(header);
    io::writeHeader(w, 0x4144414d /*"ADAM"*/, 1);
  }
  const size_t at = payload.rfind(header.str());
  ASSERT_NE(at, std::string::npos);
  int64_t saved = 0;
  std::memcpy(&saved, payload.data() + at + 8, sizeof saved);
  ASSERT_GT(saved, 0);

  const auto resume = [&](int64_t t) {
    std::string body = payload;
    std::memcpy(body.data() + at + 8, &t, sizeof t);
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    io::writeChecksummed(os, 0x43434b50 /*"CCKP"*/, 1,
                         [&](std::ostream& b) { b << body; });
    os.close();
    const TrainCheckpointing rk{dir_, 1, true};
    return trainBytes(1, &rk);
  };
  for (const int64_t t : {int64_t{-1}, int64_t{0}, saved - 1, saved + 1}) {
    SCOPED_TRACE("t = " + std::to_string(t));
    try {
      resume(t);
      ADD_FAILURE() << "resumed with a doctored Adam step count";
    } catch (const CorruptError& err) {
      EXPECT_NE(std::string(err.what()).find("stage " +
                                             std::string(stageName(
                                                 static_cast<Stage>(0)))),
                std::string::npos)
          << err.what();
    }
  }
  // The rewrite itself is sound: the saved count resumes bit-identically.
  EXPECT_EQ(resume(saved), baseline);
}

TEST_F(CheckpointTest, EveryEpochsThrottlesMidStageCheckpoints) {
  // everyEpochs=2 with 2-epoch stages: only stage-end boundaries remain, so
  // the first mid-stage stop target (boundary index 2 = stage 0 epoch 1
  // under everyEpochs=1) is now stage 0's end instead — verify by resuming
  // from boundary 2 and still matching the baseline.
  const std::string baseline = trainBytes(1, nullptr);
  const TrainCheckpointing ck{dir_, 2, false};
  fault::configureForTest("stop@train.checkpoint:2");
  EXPECT_THROW(trainBytes(1, &ck), fault::Stop);
  fault::configureForTest("");
  const TrainCheckpointing rk{dir_, 2, true};
  EXPECT_EQ(trainBytes(1, &rk), baseline);
}

// --- Adam optimizer state (nn::Adam::save/load) -----------------------------

nn::Sequential tinyNet(uint64_t seed) {
  Rng rng(seed);
  return nn::makeCnn({2, 6}, 2, 3, 4, 3, 0.0F, rng);
}

/// One gradient slab for `net`, a deterministic sequence from `base`.
std::vector<float> gradSlab(const nn::Sequential& net, float base) {
  std::vector<float> slab(net.numParams());
  float x = base;
  for (float& g : slab) {
    g = x;
    x = -x * 0.75F + 0.01F;
  }
  return slab;
}

std::string paramBytes(nn::Sequential& net) {
  std::ostringstream os;
  for (const nn::Param* p : std::as_const(net).params()) {
    os.write(reinterpret_cast<const char*>(p->value.data()),
             static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  return std::move(os).str();
}

TEST(AdamState, RoundTripContinuesBitIdentically) {
  nn::Sequential a = tinyNet(11);
  std::stringstream clone;
  a.save(clone);
  nn::Sequential b = nn::Sequential::load(clone);

  par::ThreadPool pool(1);
  nn::Adam oa(a.params());
  for (int i = 0; i < 3; ++i) {
    oa.step(gradSlab(a, 0.1F * static_cast<float>(i + 1)), 1.0F, pool);
  }
  std::stringstream state;
  oa.save(state);

  // Fresh optimizer on the cloned net, moments restored: the next steps
  // must move both nets to bit-identical weights (this is exactly what a
  // mid-stage resume relies on — note a fresh Adam would NOT match, since
  // its bias correction restarts at t=0).
  // First sync b's weights to a's post-step values.
  std::stringstream trained;
  a.save(trained);
  b = nn::Sequential::load(trained);
  nn::Adam ob(b.params());
  ob.load(state);

  for (int i = 0; i < 2; ++i) {
    const std::vector<float> g =
        gradSlab(a, -0.05F * static_cast<float>(i + 1));
    oa.step(g, 0.5F, pool);
    ob.step(g, 0.5F, pool);
  }
  EXPECT_EQ(paramBytes(a), paramBytes(b));
}

TEST(AdamState, LoadRejectsShapeMismatch) {
  nn::Sequential a = tinyNet(11);
  par::ThreadPool pool(1);
  nn::Adam oa(a.params());
  oa.step(gradSlab(a, 0.2F), 1.0F, pool);
  std::stringstream state;
  oa.save(state);

  // An optimizer bound to a differently-shaped net must refuse the blob.
  Rng rng(11);
  nn::Sequential c = nn::makeCnn({2, 6}, 2, 3, 8, 3, 0.0F, rng);
  nn::Adam oc(c.params());
  EXPECT_THROW(oc.load(state), CorruptError);
}

}  // namespace
}  // namespace cati
