// Typed IR over decoded instruction streams.
//
// The asmx::Instruction layer is a faithful AT&T-syntax rendering of the
// bytes; analyses want something stronger: per-op register def/use sets,
// frame-slot and memory effects as first-class data, and a basic-block CFG
// so facts can flow across branches instead of dying at every jump. This
// module lowers one function's instruction span into that shape:
//
//   Instruction[i]  --lower-->  Op[i]   (1:1, same index)
//   Op stream       --leaders-->  Block[] + edges  (FunctionGraph)
//
// Block invariants (relied on by dataflow and documented in DESIGN.md §13):
//   - blocks partition the op stream into contiguous, non-overlapping,
//     index-ordered runs; block 0 is the function entry;
//   - a block ends at (and includes) any jump/ret, at a barrier boundary,
//     or immediately before a jump target (leader); calls do NOT end blocks;
//   - quarantined `.byte` runs form opaque *barrier* blocks: all ops in a
//     barrier block are `.byte` quarantines and no analysis fact survives
//     through one;
//   - successor/predecessor lists are sorted, deduplicated block indices —
//     graph construction is deterministic for a given input span.
//
// Jump targets resolve only when the caller supplies per-instruction virtual
// addresses (the loader path). Targets outside the span — or inside it but
// not on an instruction boundary — are counted in `unresolvedTargets` and
// treated as leaving the function (no edge). Without addresses every target
// is unresolved, which degrades conservatively: a conditional jump still
// keeps its fallthrough edge, so facts survive the not-taken path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "asmx/instruction.h"

namespace cati::ir {

/// Bitmask over asmx::Reg (kCount = 41 fits a uint64_t).
using RegMask = uint64_t;

constexpr RegMask regBit(asmx::Reg r) {
  return RegMask{1} << static_cast<unsigned>(r);
}

constexpr bool maskHas(RegMask m, asmx::Reg r) { return (m & regBit(r)) != 0; }

/// Registers the System V ABI lets a callee clobber (plus all xmm). A call
/// kills exactly these; rbx/rbp/r12-r15 survive.
RegMask callerSavedMask();

/// How one op touches memory. At most one memory operand exists per
/// instruction in this ISA subset, so one effect per op suffices.
struct MemEffect {
  enum class Kind : uint8_t {
    kNone,       ///< no memory operand (or rip-relative global / absolute)
    kFrameSlot,  ///< frame-register based: slot is the frame-relative disp
    kIndirect,   ///< based on a non-frame GP register (pointer dereference)
  };
  Kind kind = Kind::kNone;
  int64_t slot = 0;            ///< kFrameSlot: frame-relative offset
  asmx::Reg base = asmx::Reg::None;  ///< kIndirect: the pointer register
  bool indexed = false;  ///< an index register participates (array-style)
  bool isLea = false;    ///< address computed only; memory not touched
  bool write = false;    ///< the memory operand is (also) written
};

/// Control-flow / special classification of one op.
enum class OpKind : uint8_t {
  kNormal,
  kCopy,      ///< 64-bit GP reg-to-reg mov (candidate for fact propagation)
  kCall,      ///< clobbers callerSavedMask(); does not end a block
  kJump,      ///< unconditional jump — ends its block, no fallthrough
  kCondJump,  ///< conditional jump — ends its block, keeps fallthrough
  kRet,       ///< ret/retq — ends its block, no successors
  kBarrier,   ///< quarantined `.byte`: opaque, kills every fact
};

/// One lowered instruction. Index in FunctionGraph::ops equals the index of
/// the source instruction in the lowered span.
struct Op {
  OpKind kind = OpKind::kNormal;
  RegMask defs = 0;  ///< registers written (push defines rsp, not its operand)
  RegMask uses = 0;  ///< registers read (includes mem base/index registers)
  asmx::Reg dst = asmx::Reg::None;  ///< primary defined GP register, if one
  asmx::Reg copySrc = asmx::Reg::None;  ///< kCopy: source register
  MemEffect mem;
  bool overwrite = false;  ///< dst is overwritten, not read-modified (mov...)
  bool hasImm = false;     ///< source operand is an immediate
  int64_t imm = 0;         ///< the immediate when hasImm
  uint8_t width = 0;       ///< access width in bytes (0 = unknown)
  /// kCall: index into FunctionGraph::calleeNames (-1 = unnamed), plus the
  /// raw target address when the call had one (0 = none).
  int32_t callee = -1;
  int64_t callTarget = 0;
  /// lea of a frame slot (or a copy the propagation pass resolved): after
  /// this op, `dst` holds the address of frame slot `trackedSlot`.
  bool tracksSlot = false;
  int64_t trackedSlot = 0;
  /// kJump/kCondJump: resolved target op index, or kUnresolved.
  static constexpr int32_t kUnresolved = -1;
  int32_t target = kUnresolved;
};

/// Half-open op-index range [begin, end) plus CFG edges.
struct Block {
  uint32_t begin = 0;
  uint32_t end = 0;
  bool barrier = false;  ///< all ops are quarantined `.byte` runs
  std::vector<uint32_t> succs;  ///< sorted, deduplicated block indices
  std::vector<uint32_t> preds;  ///< sorted, deduplicated block indices

  uint32_t size() const { return end - begin; }
};

struct FunctionGraph {
  bool rbpFrame = false;  ///< frame discipline detected from the prologue
  std::vector<Op> ops;    ///< 1:1 with the lowered instruction span
  std::vector<Block> blocks;  ///< index-ordered partition of ops
  /// Interned callee symbol names; Op::callee indexes this.
  std::vector<std::string> calleeNames;
  /// Jump targets that left the span or hit a mid-instruction address.
  uint32_t unresolvedTargets = 0;

  /// Block index containing op `i` (blocks are ordered; binary search).
  uint32_t blockOf(uint32_t opIdx) const;
};

/// Lowers one function body. `addrs`, when non-empty, must hold the virtual
/// address of each instruction (same length as `insns`, strictly ascending)
/// and enables jump-target resolution; empty means every target is external.
FunctionGraph lower(std::span<const asmx::Instruction> insns,
                    std::span<const uint64_t> addrs = {});

/// Lowers a single instruction in isolation (no CFG context). Exposed for
/// tests and for the Emitter; `rbpFrame` selects the frame register.
Op lowerOp(const asmx::Instruction& ins, bool rbpFrame);

/// Detects an rbp-based frame from the canonical prologue.
bool detectRbpFrame(std::span<const asmx::Instruction> insns);

}  // namespace cati::ir
