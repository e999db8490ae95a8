#include "ir/ir.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string_view>

#include "ir/emitter.h"

namespace cati::ir {

using asmx::Instruction;
using asmx::Operand;
using asmx::Reg;

namespace {

constexpr std::array<Reg, 10> kCallerSavedGp = {
    Reg::Rax, Reg::Rcx, Reg::Rdx, Reg::Rsi, Reg::Rdi,
    Reg::R8,  Reg::R9,  Reg::R10, Reg::R11, Reg::Rip};

constexpr std::array<Reg, 6> kArgRegs = {Reg::Rdi, Reg::Rsi, Reg::Rdx,
                                         Reg::Rcx, Reg::R8,  Reg::R9};

RegMask buildCallerSavedMask() {
  RegMask m = 0;
  for (const Reg r : kCallerSavedGp) m |= regBit(r);
  for (auto r = static_cast<unsigned>(Reg::Xmm0);
       r <= static_cast<unsigned>(Reg::Xmm15); ++r) {
    m |= RegMask{1} << r;
  }
  for (auto r = static_cast<unsigned>(Reg::St0);
       r <= static_cast<unsigned>(Reg::St7); ++r) {
    m |= RegMask{1} << r;
  }
  return m;
}

/// True when the mnemonic's destination operand is overwritten without being
/// read: the mov family, lea, setcc, conversions. Everything else with a
/// written destination is treated as read-modify-write.
bool pureOverwrite(std::string_view mnem) {
  return mnem.starts_with("mov") || mnem.starts_with("lea") ||
         mnem.starts_with("set") || mnem.starts_with("cvt") ||
         mnem.starts_with("pop");
}

/// True when the instruction writes no operand at all (flags only).
bool flagsOnly(std::string_view mnem) {
  return mnem.starts_with("cmp") || mnem.starts_with("test") ||
         mnem.starts_with("ucomi") || mnem.starts_with("fucomi");
}

bool frameBase(const asmx::MemRef& m, bool rbpFrame) {
  return m.base.reg == (rbpFrame ? Reg::Rbp : Reg::Rsp);
}

void addRegUse(Op& op, Reg r) {
  if (r != Reg::None) op.uses |= regBit(r);
}

/// Classifies the (at most one) memory operand.
void lowerMem(const Instruction& ins, bool rbpFrame, Op& op) {
  for (int o = 0; o < 2; ++o) {
    const Operand& opr = ins.ops[o];
    if (opr.kind != Operand::Kind::Mem) continue;
    addRegUse(op, opr.mem.base.reg);
    addRegUse(op, opr.mem.index.reg);
    MemEffect& eff = op.mem;
    eff.indexed = opr.mem.index.reg != Reg::None;
    eff.isLea = asmx::isLea(ins);
    eff.write = o == 1 && !flagsOnly(ins.mnem) && !eff.isLea;
    if (frameBase(opr.mem, rbpFrame)) {
      eff.kind = MemEffect::Kind::kFrameSlot;
      eff.slot = opr.mem.disp;
    } else if (asmx::isGp(opr.mem.base.reg) && opr.mem.base.reg != Reg::Rip) {
      eff.kind = MemEffect::Kind::kIndirect;
      eff.base = opr.mem.base.reg;
    }
    return;  // one memory operand max in this ISA subset
  }
}

}  // namespace

RegMask callerSavedMask() {
  static const RegMask m = buildCallerSavedMask();
  return m;
}

bool detectRbpFrame(std::span<const Instruction> insns) {
  for (size_t i = 0; i + 1 < insns.size() && i < 4; ++i) {
    if (insns[i].mnem == "push" &&
        insns[i].ops[0].kind == Operand::Kind::Reg &&
        insns[i].ops[0].reg.reg == Reg::Rbp) {
      const auto& next = insns[i + 1];
      if (next.mnem == "mov" && next.ops[0].kind == Operand::Kind::Reg &&
          next.ops[0].reg.reg == Reg::Rsp &&
          next.ops[1].kind == Operand::Kind::Reg &&
          next.ops[1].reg.reg == Reg::Rbp) {
        return true;
      }
    }
  }
  return false;
}

Op lowerOp(const Instruction& ins, bool rbpFrame) {
  Op op;
  const std::string& m = ins.mnem;
  op.overwrite = pureOverwrite(m);
  if (const auto w = asmx::accessWidth(ins)) {
    op.width = static_cast<uint8_t>(*w);
  }
  if (ins.ops[0].kind == Operand::Kind::Imm) {
    op.hasImm = true;
    op.imm = ins.ops[0].imm;
  }

  if (asmx::isQuarantinedByte(ins)) {
    op.kind = OpKind::kBarrier;
    return op;
  }
  if (asmx::isCall(ins)) {
    // A call clobbers the caller-saved set and consumes whatever the ABI
    // argument registers hold (so live facts flowing into a call count as
    // used, which keeps dead-track elimination honest).
    op.kind = OpKind::kCall;
    op.defs = callerSavedMask();
    for (const Reg r : kArgRegs) op.uses |= regBit(r);
    op.uses |= regBit(Reg::Rax);  // varargs vector count
    for (const Operand& o : ins.ops) {
      if (o.kind == Operand::Kind::Addr) op.callTarget = o.imm;
    }
    return op;
  }
  if (asmx::isJump(ins)) {
    op.kind = m == "jmp" || m == "jmpq" ? OpKind::kJump : OpKind::kCondJump;
    return op;
  }
  if (m == "ret" || m == "retq") {
    op.kind = OpKind::kRet;
    op.uses = regBit(Reg::Rax);
    return op;
  }
  if (m == "leave") {
    op.defs = regBit(Reg::Rsp) | regBit(Reg::Rbp);
    op.uses = regBit(Reg::Rbp);
    return op;
  }
  if (m == "push" || m == "pushq") {
    // push reads its operand and adjusts rsp; it defines nothing else.
    op.defs = regBit(Reg::Rsp);
    op.uses = regBit(Reg::Rsp);
    if (ins.ops[0].kind == Operand::Kind::Reg) {
      addRegUse(op, ins.ops[0].reg.reg);
    }
    lowerMem(ins, rbpFrame, op);
    return op;
  }
  if (m == "pop" || m == "popq") {
    op.defs = regBit(Reg::Rsp);
    op.uses = regBit(Reg::Rsp);
    if (ins.ops[0].kind == Operand::Kind::Reg) {
      op.defs |= regBit(ins.ops[0].reg.reg);
      if (asmx::isGp(ins.ops[0].reg.reg)) op.dst = ins.ops[0].reg.reg;
    }
    lowerMem(ins, rbpFrame, op);
    return op;
  }

  lowerMem(ins, rbpFrame, op);

  // Zero idiom: xor %r,%r overwrites r without reading it.
  const bool zeroIdiom =
      m.starts_with("xor") && ins.ops[0].kind == Operand::Kind::Reg &&
      ins.ops[1].kind == Operand::Kind::Reg &&
      ins.ops[0].reg.reg == ins.ops[1].reg.reg;
  if (zeroIdiom) op.overwrite = true;

  // Destination: AT&T puts it last; single-operand ops modify in place.
  const int dstIdx = ins.ops[1].kind != Operand::Kind::None ? 1 : 0;
  const Operand& dst = ins.ops[dstIdx];
  const bool writes = !flagsOnly(m);

  // Source register reads.
  if (ins.ops[0].kind == Operand::Kind::Reg && (dstIdx == 1 || !writes) &&
      !zeroIdiom) {
    addRegUse(op, ins.ops[0].reg.reg);
  }

  if (writes && dst.kind == Operand::Kind::Reg) {
    op.defs |= regBit(dst.reg.reg);
    if (asmx::isGp(dst.reg.reg)) op.dst = dst.reg.reg;
    if (!pureOverwrite(m) && !zeroIdiom) addRegUse(op, dst.reg.reg);
  } else if (!writes && dst.kind == Operand::Kind::Reg) {
    addRegUse(op, dst.reg.reg);  // cmp/test read both operands
  }

  // lea of an unindexed frame slot: dst now holds that slot's address.
  if (asmx::isLea(ins) && op.dst != Reg::None &&
      op.mem.kind == MemEffect::Kind::kFrameSlot && !op.mem.indexed) {
    op.tracksSlot = true;
    op.trackedSlot = op.mem.slot;
  }

  // 64-bit GP reg-to-reg mov: a copy the propagation pass can see through.
  if ((m == "mov" || m == "movq") && ins.ops[0].kind == Operand::Kind::Reg &&
      ins.ops[1].kind == Operand::Kind::Reg &&
      asmx::isGp(ins.ops[0].reg.reg) && asmx::isGp(ins.ops[1].reg.reg) &&
      ins.ops[0].reg.width == asmx::Width::B8 &&
      ins.ops[1].reg.width == asmx::Width::B8) {
    op.kind = OpKind::kCopy;
    op.copySrc = ins.ops[0].reg.reg;
  }
  return op;
}

FunctionGraph Emitter::finish() {
  // Derive barrier flags: lowering routes `.byte` runs into their own
  // blocks, so the first op decides (asserted homogeneous in debug builds).
  for (Block& b : graph_.blocks) {
    if (b.size() == 0) continue;
    b.barrier = graph_.ops[b.begin].kind == OpKind::kBarrier;
#ifndef NDEBUG
    for (uint32_t i = b.begin; i < b.end; ++i) {
      assert((graph_.ops[i].kind == OpKind::kBarrier) == b.barrier);
    }
#endif
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
  for (const auto& [from, to] : edges_) {
    assert(from < graph_.blocks.size() && to < graph_.blocks.size());
    graph_.blocks[from].succs.push_back(to);
    graph_.blocks[to].preds.push_back(from);
  }
  for (Block& b : graph_.blocks) {
    std::sort(b.preds.begin(), b.preds.end());  // succs already sorted
  }
  FunctionGraph out = std::move(graph_);
  graph_ = FunctionGraph{};
  edges_.clear();
  return out;
}

uint32_t FunctionGraph::blockOf(uint32_t opIdx) const {
  assert(!blocks.empty() && opIdx < ops.size());
  auto it = std::upper_bound(
      blocks.begin(), blocks.end(), opIdx,
      [](uint32_t idx, const Block& b) { return idx < b.begin; });
  return static_cast<uint32_t>(std::distance(blocks.begin(), it) - 1);
}

FunctionGraph lower(std::span<const Instruction> insns,
                    std::span<const uint64_t> addrs) {
  assert(addrs.empty() || addrs.size() == insns.size());
  const size_t n = insns.size();
  const bool rbpFrame = detectRbpFrame(insns);
  Emitter em(rbpFrame);
  if (n == 0) return em.finish();

  // Pass 1: resolve jump targets to op indices (addrs are ascending — the
  // decode order), collect leaders.
  std::vector<bool> leader(n, false);
  std::vector<int32_t> target(n, Op::kUnresolved);
  leader[0] = true;
  for (size_t i = 0; i < n; ++i) {
    const Instruction& ins = insns[i];
    const bool quar = asmx::isQuarantinedByte(ins);
    if (i > 0 && quar != asmx::isQuarantinedByte(insns[i - 1])) {
      leader[i] = true;  // barrier runs start and end on block boundaries
    }
    if (!asmx::isJump(ins) && !(ins.mnem == "ret" || ins.mnem == "retq")) {
      continue;
    }
    if (i + 1 < n) leader[i + 1] = true;
    if (asmx::isJump(ins) && ins.ops[0].kind == Operand::Kind::Addr &&
        !addrs.empty()) {
      const auto a = static_cast<uint64_t>(ins.ops[0].imm);
      const auto it = std::lower_bound(addrs.begin(), addrs.end(), a);
      if (it != addrs.end() && *it == a) {
        const auto t = static_cast<size_t>(it - addrs.begin());
        target[i] = static_cast<int32_t>(t);
        leader[t] = true;
        continue;
      }
    }
    if (asmx::isJump(ins)) em.addUnresolvedTarget();
  }

  // Pass 2: emit ops block by block.
  for (size_t i = 0; i < n; ++i) {
    Op op = lowerOp(insns[i], rbpFrame);
    if (op.kind == OpKind::kCall) op.callee = em.internCallee(insns[i]);
    op.target = target[i];
    em.emit(std::move(op), leader[i]);
  }

  // Pass 3: edges. A graph under construction inside the emitter already has
  // final block boundaries, so map a target op index to its (leader) block
  // by counting leaders — recompute cheaply from the leader vector.
  std::vector<uint32_t> blockOfOp(n, 0);
  for (size_t i = 1, b = 0; i < n; ++i) {
    if (leader[i]) ++b;
    blockOfOp[i] = static_cast<uint32_t>(b);
  }
  const uint32_t nBlocks = em.blockCount();
  for (size_t last = 0; last < n; ++last) {
    if (last + 1 < n && !leader[last + 1]) continue;  // not a block tail
    const uint32_t b = blockOfOp[last];
    const Instruction& ins = insns[last];
    const bool uncond = asmx::isJump(ins) && ins.mnem.starts_with("jmp");
    const bool isRet = ins.mnem == "ret" || ins.mnem == "retq";
    if (asmx::isJump(ins) && target[last] != Op::kUnresolved) {
      em.edge(b, blockOfOp[static_cast<size_t>(target[last])]);
    }
    if (!uncond && !isRet && b + 1 < nBlocks) em.edge(b, b + 1);
  }
  return em.finish();
}

}  // namespace cati::ir
