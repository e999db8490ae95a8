// Synthetic binary generator — the corpus substrate of this reproduction.
//
// The paper trains on 2141 real GCC-compiled packages labeled via DWARF. That
// corpus (and the IDA licence used to process it) is not available offline,
// so this module is a miniature compiler: it emits x86-64 AT&T instruction
// streams function by function, using the codegen idioms GCC/Clang produce
// for each of the 19 CATI types, together with exact ground truth (which
// instruction operates which variable) and DWARF-like debug info.
//
// The generator is engineered to reproduce the statistical phenomena the
// paper's method depends on:
//   * type-characteristic idioms  — movss/xmm for float, movb/movzbl for
//     char, x87 fldt/fstpt for long double, scaled addressing for arrays;
//   * uncertain samples           — many generalized target instructions are
//     identical across types (movl $IMM,off(%rsp) is int/uint/enum/struct;
//     movq is long/pointer), so the *context* carries the signal;
//   * orphan variables            — spill-once temporaries with 1-2 target
//     instructions (~35% of variables, Table I);
//   * same-type clustering        — aggregate codelets (struct init, float
//     kernels) emit runs of same-typed accesses (Fig. 2, >53% rate);
//   * dialects                    — GCC-like vs Clang-like idiom choices
//     (zeroing, frame discipline, scratch-register order) for the §VIII
//     transfer experiment and the compiler-ID classifier;
//   * optimization levels         — O0 round-trips everything through the
//     frame (rbp-relative); O1-O3 keep values in registers, interleave
//     independent codelets and produce more orphan variables.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "asmx/instruction.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/types.h"
#include "debuginfo/debuginfo.h"

namespace cati::synth {

enum class Dialect : uint8_t { Gcc, Clang };

std::string_view dialectName(Dialect d);

/// A local variable with a stack slot. `frameOffset` is rbp-relative
/// (negative) at O0 and rsp-relative (positive) at O1+.
struct Variable {
  std::string name;
  TypeLabel label = TypeLabel::Int;
  int64_t frameOffset = 0;
  uint32_t byteSize = 0;
};

struct FunctionCode {
  std::string name;
  std::vector<asmx::Instruction> insns;
  /// Ground truth: for each instruction, the index into `vars` of the
  /// variable it operates, or -1. This is what IDA-Pro-plus-DWARF gives the
  /// paper's pipeline.
  std::vector<int32_t> varOfInsn;
  std::vector<Variable> vars;
  bool rbpFrame = false;  ///< true when slots are %rbp-relative (O0 style)
  int64_t frameSize = 0;
};

struct Binary {
  std::string name;
  Dialect dialect = Dialect::Gcc;
  int optLevel = 2;
  uint64_t seed = 0;
  std::vector<FunctionCode> funcs;
  /// DWARF-like companion (producer, per-function variable DIEs). Built so
  /// that debuginfo::classify(debug, var.typeIndex) == ground-truth label.
  debuginfo::Module debug;

  size_t totalInstructions() const;
};

/// Per-application generation profile. `typeWeights` biases the variable
/// type mix (e.g. an R-like profile is float/double heavy, a gzip-like
/// profile has zero float-family weight).
struct AppProfile {
  std::string name;
  int numFunctions = 40;
  std::array<double, kNumTypes> typeWeights{};
  uint64_t seed = 1;
};

/// The corpus-wide base type mix, shaped after the paper's Table V support
/// column (int and struct* dominate; float/short/long-long are rare).
std::array<double, kNumTypes> baseTypeWeights();

/// A generic profile using baseTypeWeights().
AppProfile defaultProfile(std::string name, uint64_t seed, int numFunctions);

/// The 12 test applications of Tables III/IV/VI, with per-app quirks from
/// the paper: `gzip`, `nano` and `sed` have no float-family variables
/// (Stage 3-2 is "-" for them); `R` is the largest and float-heavy;
/// `inetutils` is large and pointer-heavy.
std::vector<AppProfile> paperTestApps(int scale = 1);

/// Generates one binary. Deterministic in (profile, dialect, optLevel, seed):
/// an optional pool fans function generation out, but per-function seeds are
/// forked serially up front, so the output is byte-identical at any job
/// count.
Binary generateBinary(const AppProfile& profile, Dialect dialect, int optLevel,
                      uint64_t seed, par::ThreadPool* pool = nullptr);

/// One planned corpus binary: the profile, optimization level and seed that
/// generateCorpus builds at this plan index.
struct CorpusJob {
  AppProfile profile;
  int opt = 0;
  uint64_t seed = 0;
};

/// The deterministic corpus build plan: every profile and per-binary seed,
/// drawn serially in the exact order generateCorpus draws them. Streaming
/// corpus writers (cati-synth --shards) iterate this plan one binary at a
/// time, so their concatenated shard stream is byte-identical to the
/// in-memory corpus built by generateCorpus + extractAll.
std::vector<CorpusJob> corpusPlan(int numApps, int funcsPerApp, uint64_t seed);

/// Generates a training corpus: `numApps` profiles, each built at every
/// optimization level O0-O3 (the paper builds each project at -O0..-O3),
/// all with one compiler dialect. The optional pool parallelizes per binary;
/// output is jobs-invariant.
std::vector<Binary> generateCorpus(int numApps, int funcsPerApp,
                                   Dialect dialect, uint64_t seed,
                                   par::ThreadPool* pool = nullptr);

}  // namespace cati::synth
