// Internal codegen machinery for the synthetic compiler: codelet streams,
// scratch-register pools with dialect-specific preference order, frame slot
// operands and small idiom helpers shared by the per-type codelets.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "asmx/instruction.h"
#include "common/rng.h"
#include "synth/synth.h"

namespace cati::synth::detail {

/// One codelet's instructions plus ground-truth tags and the registers it
/// touches. Codelets whose register sets are disjoint may be interleaved by
/// the scheduler without breaking local data flow.
struct CodeletStream {
  std::vector<asmx::Instruction> insns;
  std::vector<int32_t> varOfInsn;
  std::set<asmx::Reg> regs;

  size_t size() const { return insns.size(); }
};

/// Natural access width of a type's scalar slot.
asmx::Width widthOf(TypeLabel label);

/// Width-suffixed mov/cmp/add mnemonics for immediate-to-memory forms
/// ("movl", "movb", "movw", "movq").
std::string suffixed(const char* stem, asmx::Width w);

class Emitter {
 public:
  Emitter(Dialect dialect, int optLevel, Rng& rng, FunctionCode& fn)
      : dialect_(dialect), opt_(optLevel), rng_(rng), fn_(fn) {}

  Dialect dialect() const { return dialect_; }
  int opt() const { return opt_; }
  Rng& rng() { return rng_; }
  FunctionCode& fn() { return fn_; }

  // --- codelet lifecycle ---
  void begin() { cur_ = CodeletStream{}; }
  CodeletStream take() { return std::move(cur_); }

  /// Appends an instruction to the current codelet; `var` is the ground-truth
  /// variable index operated by this instruction (-1 for none).
  void ins(asmx::Instruction i, int32_t var = -1);

  // --- operands ---
  /// Memory operand of a variable's frame slot (+ optional member offset).
  asmx::Operand slot(int32_t varId, int64_t memberOff = 0) const;

  /// A synthetic code address for branch targets.
  int64_t fakeAddr() { return 0x400000 + rng_.uniformInt(0x100, 0xfffff); }

  /// An immediate with a realistic magnitude distribution (mostly small).
  int64_t imm();

  // --- scratch registers ---
  /// Picks a scratch GP register following the dialect's preference order
  /// with some randomness, avoiding registers already used in this codelet.
  asmx::Reg gp();
  asmx::Reg xmm();
  /// The dialect's first-choice accumulator (rax for both; used where real
  /// compilers are deterministic).
  asmx::Reg acc() const { return asmx::Reg::Rax; }

  // --- idiom helpers ---
  void jcc(const char* cc) {
    ins({std::string("j") + cc, asmx::Operand::addr(fakeAddr())});
  }
  void call(const std::string& name) {
    ins({"callq", asmx::Operand::addr(fakeAddr()), asmx::Operand::func(name)});
  }
  /// Dialect-specific register zeroing: GCC emits `movl $0x0,%r`, Clang
  /// emits `xorl %r,%r`.
  void zero(asmx::Reg r, asmx::Width w = asmx::Width::B4);

  std::string pick(std::initializer_list<const char*> options) {
    const auto n = static_cast<int64_t>(options.size());
    return *(options.begin() + rng_.uniformInt(0, n - 1));
  }

 private:
  Dialect dialect_;
  int opt_;
  Rng& rng_;
  FunctionCode& fn_;
  CodeletStream cur_;
};

/// Emits one codelet operating variable `varId`. `useIdx` 0 selects an
/// initialization pattern; later uses select read/modify patterns.
/// `helperVar` optionally names another variable the codelet may reference
/// (e.g. the pointee of an arith* pointer), -1 when unavailable.
CodeletStream makeCodelet(Emitter& em, int32_t varId, int useIdx,
                          int32_t helperVar);

/// Emits a no-variable noise codelet (register arithmetic, calls, branches).
CodeletStream makeNoiseCodelet(Emitter& em);

}  // namespace cati::synth::detail
