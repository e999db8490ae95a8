// Subprocess crash sweep against the real cati-train binary: the `kill`
// fault action _exits(137) with no unwinding — a faithful SIGKILL — so this
// suite proves the on-disk story end to end, where the in-process sweep in
// test_checkpoint.cc can only prove the training-math story:
//
//   * killed at every checkpoint boundary, `--resume` completes and the
//     final model file is byte-identical to an uninterrupted run;
//   * an injected I/O failure exits 3 and leaves no torn file behind;
//   * the CLI hardening (duplicate/unknown flags -> exit 2 + usage) holds
//     at the binary level.
//
// The cati-train path comes from CATI_TOOL_DIR (tests/CMakeLists.txt).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace stdfs = std::filesystem;

constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;
constexpr int kKillExit = 137;

/// Tiny but complete training run: 1 epoch x 6 stages = 7 checkpoint
/// boundaries (post-word2vec + one stage-end each). Mid-stage Adam resume
/// is swept in-process by test_checkpoint.cc; here every subprocess counts.
constexpr const char* kTrainFlags =
    " --apps 1 --funcs 4 --epochs 1 --cap 120 --hidden 12 --window 4 --dim 8"
    " --seed 5 --jobs 1 --quiet";
constexpr int kBoundaries = 1 + 6;

std::string trainBin() {
  return (stdfs::path(CATI_TOOL_DIR) / "cati-train").string();
}

/// Runs `cmd` through the shell; returns the exit code (-1 on signal/other).
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
  return buf.str();
}

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("cati_crash_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    stdfs::remove_all(dir_);
    stdfs::create_directories(dir_);
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  std::string train(const std::string& model, const std::string& extra,
                    int& exitCode, const std::string& env = "") {
    const std::string cmd = (env.empty() ? "" : "env " + env + " ") +
                            trainBin() + " " + (dir_ / model).string() +
                            kTrainFlags + extra + " >/dev/null 2>&1";
    exitCode = runCmd(cmd);
    return (dir_ / model).string();
  }

  stdfs::path dir_;
};

TEST_F(CrashSweepTest, KilledAtEveryBoundaryResumesToIdenticalModelFile) {
  int rc = -1;
  const std::string baselinePath = train("baseline.bin", "", rc);
  ASSERT_EQ(rc, 0);
  const std::string baseline = slurp(baselinePath);
  ASSERT_FALSE(baseline.empty());

  for (int boundary = 1; boundary <= kBoundaries; ++boundary) {
    const stdfs::path ck = dir_ / ("ck" + std::to_string(boundary));
    const std::string ckFlag = " --checkpoint " + ck.string();
    const std::string model =
        std::string("m").append(std::to_string(boundary)).append(".bin");

    train(model, ckFlag, rc,
          "CATI_FAULT_SPEC=kill@train.checkpoint:" + std::to_string(boundary));
    ASSERT_EQ(rc, kKillExit) << "boundary " << boundary
                             << ": injected kill did not fire";
    EXPECT_FALSE(stdfs::exists(dir_ / model))
        << "boundary " << boundary << ": model published before training done";
    ASSERT_TRUE(stdfs::exists(ck / "train.ckpt"))
        << "boundary " << boundary << ": no checkpoint to resume from";

    const std::string resumed = train(model, ckFlag + " --resume", rc);
    ASSERT_EQ(rc, 0) << "boundary " << boundary << ": resume failed";
    EXPECT_EQ(slurp(resumed), baseline)
        << "boundary " << boundary
        << ": resumed model file differs from the uninterrupted one";
  }

  // One past the last boundary: training finishes, kill never fires.
  train("tail.bin", " --checkpoint " + (dir_ / "cktail").string(), rc,
        "CATI_FAULT_SPEC=kill@train.checkpoint:" +
            std::to_string(kBoundaries + 1));
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(slurp((dir_ / "tail.bin").string()), baseline);
}

TEST_F(CrashSweepTest, InjectedWriteFailureExitsIoCodeAndLeavesNoTornFile) {
  int rc = -1;
  // Fail the model write itself (the last atomicWrite of the run).
  train("m.bin", "", rc, "CATI_FAULT_SPEC=fail@fs.write:1");
  EXPECT_EQ(rc, kExitIo);
  EXPECT_FALSE(stdfs::exists(dir_ / "m.bin"));
  for (const auto& e : stdfs::directory_iterator(dir_)) {
    ADD_FAILURE() << "debris left behind: " << e.path();
  }
}

TEST_F(CrashSweepTest, KillDuringCheckpointWriteLeavesOldOrNothingNeverTorn) {
  // SIGKILL in the middle of the checkpoint's write(2): the temp may remain
  // (that is the documented debris), but train.ckpt itself must be absent
  // or complete — here absent, since the first write never finished.
  int rc = -1;
  const stdfs::path ck = dir_ / "ck";
  train("m.bin", " --checkpoint " + ck.string(), rc,
        "CATI_FAULT_SPEC=kill@fs.write:1");
  EXPECT_EQ(rc, kKillExit);
  EXPECT_FALSE(stdfs::exists(ck / "train.ckpt"));
  // Recovery: a plain re-run sweeps the stale temp and completes.
  const std::string model = train("m.bin", " --checkpoint " + ck.string(), rc);
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(slurp(model).empty());
  for (const auto& e : stdfs::directory_iterator(ck)) {
    EXPECT_EQ(e.path().filename().string(), "train.ckpt")
        << "stale temp survived recovery";
  }
}

TEST_F(CrashSweepTest, CliHardeningAtTheBinaryLevel) {
  int rc = -1;
  train("m.bin", " --epochs 2", rc);  // duplicate: kTrainFlags has --epochs
  EXPECT_EQ(rc, kExitUsage);
  train("m.bin", " --no-such-flag", rc);
  EXPECT_EQ(rc, kExitUsage);
  train("m.bin", " --epochs banana", rc);
  EXPECT_EQ(rc, kExitUsage);
  train("m.bin", " --resume", rc);  // --resume without --checkpoint
  EXPECT_EQ(rc, kExitUsage);
  EXPECT_FALSE(stdfs::exists(dir_ / "m.bin"));
  // A flag where MODEL.bin belongs prints usage; it never trains a model
  // into a file named after the flag.
  for (const std::string flag : {"--help", "-h", "--apps"}) {
    EXPECT_EQ(runCmd("cd " + dir_.string() + " && " + trainBin() + " " +
                     flag + " >/dev/null 2>&1"),
              kExitUsage)
        << flag;
    EXPECT_FALSE(stdfs::exists(dir_ / flag)) << flag;
  }
}

}  // namespace
