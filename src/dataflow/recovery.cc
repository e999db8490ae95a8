#include "dataflow/recovery.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <unordered_map>

#include "common/obs.h"

namespace cati::dataflow {

using asmx::Instruction;
using asmx::Reg;
using ir::FunctionGraph;
using ir::MemEffect;
using ir::Op;

namespace {

/// Must-hold register → frame-slot-address facts at a program point.
struct Facts {
  ir::RegMask valid = 0;
  std::array<int64_t, 64> slot{};

  void set(Reg r, int64_t s) {
    valid |= ir::regBit(r);
    slot[static_cast<unsigned>(r)] = s;
  }
  bool has(Reg r) const { return ir::maskHas(valid, r); }
  int64_t get(Reg r) const { return slot[static_cast<unsigned>(r)]; }

  bool operator==(const Facts& o) const {
    if (valid != o.valid) return false;
    for (unsigned r = 0; r < 64; ++r) {
      if (ir::maskHas(valid, static_cast<Reg>(r)) && slot[r] != o.slot[r]) {
        return false;
      }
    }
    return true;
  }
};

/// Meet for a must-analysis: keep a fact only where both sides agree.
Facts meet(const Facts& a, const Facts& b) {
  Facts m;
  ir::RegMask both = a.valid & b.valid;
  for (unsigned r = 0; r < 64; ++r) {
    const ir::RegMask bit = ir::RegMask{1} << r;
    if ((both & bit) && a.slot[r] == b.slot[r]) {
      m.valid |= bit;
      m.slot[r] = a.slot[r];
    }
  }
  return m;
}

/// Applies one op's effect on the fact set (no attribution).
void transferOp(const Op& op, Facts& f) {
  if (op.kind == ir::OpKind::kBarrier) {
    f.valid = 0;
    return;
  }
  // A copy's source fact must be read before the op's own kills (the copy
  // may overwrite its source register).
  bool copyGen = false;
  int64_t copySlot = 0;
  if (op.kind == ir::OpKind::kCopy && !op.tracksSlot && f.has(op.copySrc)) {
    copyGen = true;
    copySlot = f.get(op.copySrc);
  }
  // Kills: every defined register loses its fact. Calls carry the whole
  // caller-saved set in defs, so callee-saved tracking survives them.
  f.valid &= ~op.defs;
  if (op.tracksSlot && op.dst != Reg::None) {
    f.set(op.dst, op.trackedSlot);
  } else if (copyGen) {
    f.set(op.dst, copySlot);
  }
}

struct SlotInfo {
  bool addressTaken = false;
  bool indexed = false;
  std::vector<uint32_t> insnIdx;
};

/// True for the mem-transfer intrinsics whose third argument (rdx) is the
/// byte size of the object the first (and for memcpy the second) argument
/// points at — the one place the code spells out an aggregate's extent.
bool isMemTransfer(std::string_view callee) {
  // Loader-path graphs intern symbolized names (`memcpy@plt`); synth-path
  // graphs intern the bare callee.
  if (callee.ends_with("@plt")) callee.remove_suffix(4);
  return callee == "memcpy" || callee == "memset" || callee == "memmove";
}

/// The immediate loaded into rdx before the call at `callIdx`, if the last
/// in-block def of rdx is a plain `mov $N,%edx`-style overwrite.
std::optional<int64_t> rdxImmBefore(const FunctionGraph& g, uint32_t callIdx) {
  const ir::Block& b = g.blocks[g.blockOf(callIdx)];
  for (uint32_t i = callIdx; i-- > b.begin;) {
    const Op& op = g.ops[i];
    if (!ir::maskHas(op.defs, Reg::Rdx)) continue;
    if (op.dst == Reg::Rdx && op.overwrite && op.hasImm && op.imm > 0) {
      return op.imm;
    }
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

RecoveryResult recoverVariables(std::span<const Instruction> insns) {
  return recoverVariables(ir::lower(insns));
}

RecoveryResult recoverVariables(const FunctionGraph& g) {
  RecoveryResult result;
  result.rbpFrame = g.rbpFrame;
  if (g.blocks.empty()) return result;

  // Worklist reaching-definitions of frame-slot addresses: IN[entry] = ∅,
  // meet = intersection over predecessors, transfer as above. The worklist
  // is an ordered set of block indices, so iteration order — and therefore
  // the fixpoint trajectory — is deterministic for a given graph.
  std::vector<std::optional<Facts>> in(g.blocks.size());
  in[0] = Facts{};
  std::set<uint32_t> work{0};
  while (!work.empty()) {
    const uint32_t b = *work.begin();
    work.erase(work.begin());
    Facts out = *in[b];
    for (uint32_t i = g.blocks[b].begin; i < g.blocks[b].end; ++i) {
      transferOp(g.ops[i], out);
    }
    for (const uint32_t s : g.blocks[b].succs) {
      if (!in[s]) {
        in[s] = out;
        work.insert(s);
      } else {
        Facts m = meet(*in[s], out);
        if (!(m == *in[s])) {
          in[s] = m;
          work.insert(s);
        }
      }
    }
  }

  // Attribution walk: replay the transfer over every block (unreachable
  // blocks get empty facts) and record slot accesses.
  std::map<int64_t, SlotInfo> slots;
  // Observed aggregate extents: memcpy/memset/memmove of a tracked slot
  // address reveal the object's byte size, which bounds coalescing below.
  std::map<int64_t, int64_t> extents;
  uint64_t indexedAttributed = 0;
  uint64_t indexedSkipped = 0;
  for (size_t b = 0; b < g.blocks.size(); ++b) {
    Facts f = in[b].value_or(Facts{});
    for (uint32_t i = g.blocks[b].begin; i < g.blocks[b].end; ++i) {
      const Op& op = g.ops[i];
      if (op.kind == ir::OpKind::kCall && op.callee >= 0 &&
          isMemTransfer(g.calleeNames[static_cast<size_t>(op.callee)])) {
        if (const auto n = rdxImmBefore(g, i)) {
          for (const Reg ptr : {Reg::Rdi, Reg::Rsi}) {
            if (f.has(ptr)) {
              int64_t& e = extents[f.get(ptr)];
              e = std::max(e, *n);
            }
          }
        }
      }
      if (op.mem.kind == MemEffect::Kind::kFrameSlot) {
        // sub/add $N,%rsp style frame adjustment has no Mem operand, so any
        // frame-based access here is a genuine slot touch (incl. lea).
        auto& slot = slots[op.mem.slot];
        slot.insnIdx.push_back(i);
        if (op.mem.isLea) slot.addressTaken = true;
        if (op.mem.indexed) {
          slot.indexed = true;
          ++indexedAttributed;
        }
      } else if (op.mem.kind == MemEffect::Kind::kIndirect) {
        // Dereference through a register: attribute to the pointed slot if
        // a reaching lea (possibly across blocks) tells us where it points.
        if (f.has(op.mem.base)) {
          auto& slot = slots[f.get(op.mem.base)];
          slot.insnIdx.push_back(i);
          if (op.mem.indexed) {
            slot.indexed = true;
            ++indexedAttributed;
          }
        } else if (op.mem.indexed) {
          ++indexedSkipped;
        }
      }
      transferOp(op, f);
    }
  }
  if (obs::enabled()) {
    obs::counter("dataflow.indexed_attributed").add(indexedAttributed);
    obs::counter("dataflow.indexed_skipped").add(indexedSkipped);
    obs::counter("dataflow.functions_analyzed").add();
  }

  // Coalesce member slots into address-taken bases: an access at offset o
  // with no lea of its own joins a preceding address-taken base b when it
  // lies inside b's extent. The extent is exact where a memcpy/memset of
  // b's address spelled out the object size; otherwise an 80-byte cap with
  // an 8-aligned-gap requirement approximates member layout (compilers pad
  // aggregate members they address directly). Like the heuristics real
  // tools apply, the fallback is imperfect — an 8-aligned scalar right
  // above an extent-less aggregate still gets absorbed.
  std::vector<int64_t> bases;
  for (const auto& [off, info] : slots) {
    if (info.addressTaken) bases.push_back(off);
  }
  std::map<int64_t, RecoveredVariable> merged;
  for (auto& [off, info] : slots) {
    int64_t target = off;
    if (!info.addressTaken) {
      const auto it = std::upper_bound(bases.begin(), bases.end(), off);
      if (it != bases.begin()) {
        const int64_t base = *std::prev(it);
        const int64_t gap = off - base;
        const auto ext = extents.find(base);
        const int64_t cap = ext != extents.end() ? ext->second : 81;
        if (gap > 0 && gap < cap && gap % 8 == 0) target = base;
      }
    }
    auto& var = merged[target];
    var.rbpFrame = result.rbpFrame;
    var.offset = target;
    var.addressTaken |= slots[target].addressTaken;
    var.indexed |= info.indexed;
    var.targetInsns.insert(var.targetInsns.end(), info.insnIdx.begin(),
                           info.insnIdx.end());
  }
  for (auto& [off, var] : merged) {
    std::sort(var.targetInsns.begin(), var.targetInsns.end());
    var.targetInsns.erase(
        std::unique(var.targetInsns.begin(), var.targetInsns.end()),
        var.targetInsns.end());
    result.vars.push_back(std::move(var));
  }
  return result;
}

RecoveryScore score(const synth::FunctionCode& fn, const RecoveryResult& rec) {
  RecoveryScore s;

  // Ground truth: variable -> set of target instruction indices.
  std::unordered_map<int32_t, std::set<uint32_t>> trueInsns;
  for (size_t i = 0; i < fn.varOfInsn.size(); ++i) {
    if (fn.varOfInsn[i] >= 0) {
      trueInsns[fn.varOfInsn[i]].insert(static_cast<uint32_t>(i));
    }
  }
  s.trueVars = trueInsns.size();
  s.recoveredVars = rec.vars.size();
  for (const auto& [v, set] : trueInsns) s.trueTargetInsns += set.size();

  // Slot -> true var index.
  std::unordered_map<int64_t, int32_t> slotToVar;
  for (size_t v = 0; v < fn.vars.size(); ++v) {
    slotToVar[fn.vars[v].frameOffset] = static_cast<int32_t>(v);
  }

  for (const RecoveredVariable& rv : rec.vars) {
    const auto it = slotToVar.find(rv.offset);
    if (it == slotToVar.end()) continue;
    const auto t = trueInsns.find(it->second);
    if (t == trueInsns.end()) continue;
    ++s.matchedVars;
    for (const uint32_t idx : rv.targetInsns) {
      if (t->second.contains(idx)) ++s.matchedTargetInsns;
    }
  }
  return s;
}

RecoveryScore scoreBinary(const synth::Binary& bin) {
  RecoveryScore total;
  for (const auto& fn : bin.funcs) {
    const RecoveryScore s = score(fn, recoverVariables(fn.insns));
    total.trueVars += s.trueVars;
    total.recoveredVars += s.recoveredVars;
    total.matchedVars += s.matchedVars;
    total.trueTargetInsns += s.trueTargetInsns;
    total.matchedTargetInsns += s.matchedTargetInsns;
  }
  return total;
}

}  // namespace cati::dataflow
