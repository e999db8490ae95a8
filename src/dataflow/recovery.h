// Variable recovery from bare instruction streams — the pipeline slot IDA
// Pro fills in the paper (§IV-A: "we assume that this task can be done
// accurately enough by existing work"; §VII-B reports ~90% recovery).
//
// Given one function's instructions and no debug info, the pass:
//   1. lowers the stream into the typed IR (src/ir) — basic blocks, explicit
//      defs/uses, frame-slot/memory effects;
//   2. collects every frame-slot access (including index-register array
//      accesses, attributed to the base slot) and every address-taken slot;
//   3. runs a worklist reaching-definitions analysis of frame-slot addresses
//      across block edges (must-facts, intersection at joins; calls kill
//      only caller-saved registers; barrier blocks kill everything) so
//      dereferences are attributed to the pointed-to local even across
//      branches and loops;
//   4. coalesces aggregate member accesses into their address-taken base
//      slot when the gap is small and no other base intervenes.
//
// The result is a set of recovered variables, each with the instruction
// indices that operate it — exactly the grouping the VUC voting stage needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "asmx/instruction.h"
#include "ir/ir.h"
#include "synth/synth.h"

namespace cati::dataflow {

struct RecoveredVariable {
  bool rbpFrame = false;
  int64_t offset = 0;          ///< frame-relative slot offset (base slot)
  bool addressTaken = false;   ///< a lea of this slot exists
  bool indexed = false;        ///< accessed with an index register (array)
  std::vector<uint32_t> targetInsns;  ///< instruction indices operating it
};

struct RecoveryResult {
  bool rbpFrame = false;
  std::vector<RecoveredVariable> vars;
};

/// Recovers variables from one function body (lowers to IR internally).
RecoveryResult recoverVariables(std::span<const asmx::Instruction> insns);

/// Recovers variables from an already-lowered graph — the path the loader's
/// decode cache feeds.
RecoveryResult recoverVariables(const ir::FunctionGraph& g);

/// Accuracy of a recovery against the generator's ground truth.
struct RecoveryScore {
  size_t trueVars = 0;       ///< ground-truth variables with >=1 target insn
  size_t recoveredVars = 0;  ///< variables the pass produced
  size_t matchedVars = 0;    ///< recovered vars whose slot is a true var slot
  size_t trueTargetInsns = 0;
  size_t matchedTargetInsns = 0;  ///< true target insns grouped correctly

  double varRecall() const {
    return trueVars ? static_cast<double>(matchedVars) / trueVars : 0.0;
  }
  double varPrecision() const {
    return recoveredVars ? static_cast<double>(matchedVars) / recoveredVars
                         : 0.0;
  }
  double insnRecall() const {
    return trueTargetInsns
               ? static_cast<double>(matchedTargetInsns) / trueTargetInsns
               : 0.0;
  }
};

RecoveryScore score(const synth::FunctionCode& fn, const RecoveryResult& rec);

/// Aggregates scores over a whole binary.
RecoveryScore scoreBinary(const synth::Binary& bin);

}  // namespace cati::dataflow
