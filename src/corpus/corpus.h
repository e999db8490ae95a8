// Dataset pipeline: operand generalization (paper Table II), VUC extraction
// (window of 10 instructions before/after the target, §II-A), ground-truth
// labeling via debug info, and the statistics behind Table I (orphan
// variables / uncertain samples), Fig. 2 (same-type clustering) and
// Table V columns 7-9 (cnt-same / cnt-all / c-rate).
#pragma once

#include <array>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "asmx/instruction.h"
#include "common/types.h"
#include "dataflow/recovery.h"
#include "synth/synth.h"

namespace cati::corpus {

/// Canonical token spellings used by generalization.
inline constexpr const char* kBlank = "BLANK";
inline constexpr const char* kImm = "$IMM";
inline constexpr const char* kAddr = "ADDR";
inline constexpr const char* kFunc = "FUNC";

/// A generalized instruction: one mnemonic token and exactly two operand
/// tokens (absent operands padded with BLANK, per §IV-B).
struct GenInstr {
  std::string mnem = kBlank;
  std::string op1 = kBlank;
  std::string op2 = kBlank;

  bool operator==(const GenInstr&) const = default;
  std::string text() const { return mnem + ' ' + op1 + ' ' + op2; }
};

/// Table II rules: immediates -> $IMM, memory displacements -> IMM (base,
/// index and scale preserved — scale encodes element width), branch/call
/// targets -> ADDR, function names -> FUNC, missing operands -> BLANK.
GenInstr generalize(const asmx::Instruction& ins);

/// generalize() over a whole function, in instruction order.
std::vector<GenInstr> generalizeAll(std::span<const asmx::Instruction> insns);

/// Generalization keyed on operands only; idempotent by construction.
std::string generalizeOperand(const asmx::Operand& op);

/// One Variable Usage Context: the generalized window around one target
/// instruction, its ground-truth label, and per-position ground-truth type
/// tags (for clustering statistics; -1 where no variable is operated).
struct Vuc {
  std::vector<GenInstr> window;  ///< length 2*w+1; centre at index w
  std::vector<int8_t> posLabel;  ///< same length; TypeLabel or -1
  TypeLabel label = TypeLabel::kCount;  ///< kCount = unlabeled
  uint32_t varId = 0;  ///< dataset-global variable id (voting key)

  int centre() const { return static_cast<int>(window.size()) / 2; }
  const GenInstr& target() const { return window[static_cast<size_t>(centre())]; }
};

struct VarInfo {
  TypeLabel label = TypeLabel::kCount;
  uint32_t appId = 0;
  uint32_t numVucs = 0;
};

struct Dataset {
  int window = 10;
  std::vector<std::string> appNames;
  std::vector<Vuc> vucs;
  std::vector<VarInfo> vars;

  /// Merges `other` into this dataset, remapping var and app ids.
  void append(Dataset other);

  /// Indices of `vucs` grouped per variable (ordered by varId).
  std::vector<std::vector<uint32_t>> vucsByVar() const;
};

/// Extracts labeled VUCs from a binary using the generator's ground-truth
/// variable map — the configuration the paper evaluates with ("we assume the
/// variable location of assembly code is given", §VII-B).
Dataset extractGroundTruth(const synth::Binary& bin, int window = 10);

/// Extracts VUCs using our own variable recovery (src/dataflow) instead of
/// ground-truth locations — the fully-stripped end-to-end path. Labels are
/// attached where the recovered slot matches a debug-info variable (for
/// scoring); kCount otherwise.
Dataset extractRecovered(const synth::Binary& bin, int window = 10);

/// Extracts from many binaries (each becomes one "application"). The
/// optional pool parallelizes per binary; output is jobs-invariant.
Dataset extractAll(const std::vector<synth::Binary>& bins, int window = 10,
                   bool groundTruth = true, par::ThreadPool* pool = nullptr);

/// Low-level building block: extracts the VUCs of one function, given as
/// its generalizeAll() rows, from an instruction->variable map and
/// per-variable labels (TypeLabel::kCount for unlabeled). Used by the
/// end-to-end engine on freshly recovered variables.
Dataset extractFromFunction(std::span<const GenInstr> gen,
                            std::span<const int32_t> varOfInsn,
                            std::span<const TypeLabel> labels, int window);

// --- statistics --------------------------------------------------------------

/// The numbers behind Table I and the clustering survey.
struct DatasetStats {
  size_t numVars = 0;
  size_t numVucs = 0;
  size_t varsWith1Vuc = 0;
  size_t varsWith2Vucs = 0;
  /// Variables with exactly 1 (resp. 2) VUCs whose generalized target
  /// instruction(s) also occur for a variable of a *different* type —
  /// the paper's "uncertain samples".
  size_t uncertain1 = 0;
  size_t uncertain2 = 0;
  /// Fig. 2 survey: average per-VUC counts of variable-operating context
  /// instructions (cnt-all) and of those sharing the target's type
  /// (cnt-same), plus the mean ratio.
  double cntSame = 0.0;
  double cntAll = 0.0;
  double clusterRate = 0.0;

  double orphanShare() const {
    return numVars ? static_cast<double>(varsWith1Vuc + varsWith2Vucs) /
                         static_cast<double>(numVars)
                   : 0.0;
  }
};

DatasetStats computeStats(const Dataset& ds);

/// Per-type clustering columns of Table V.
struct TypeClusterStats {
  double cntSame = 0.0;
  double cntAll = 0.0;
  double cRate = 0.0;  // mean of per-VUC cnt-same/cnt-all
  size_t support = 0;  // number of VUCs of this type
};
std::array<TypeClusterStats, kNumTypes> perTypeClustering(const Dataset& ds);

/// Finds pairs of uncertain samples — same generalized target instruction,
/// different ground-truth type (the paper's Fig. 1). Returns up to
/// `maxPairs` (vucIndexA, vucIndexB) pairs.
std::vector<std::pair<uint32_t, uint32_t>> findUncertainPairs(
    const Dataset& ds, size_t maxPairs);

// --- serialization -----------------------------------------------------------

void save(const Dataset& ds, std::ostream& os);
Dataset load(std::istream& is);

}  // namespace cati::corpus
