// Tests for the typed IR: per-op def/use lowering (including the push/pop
// semantics the old dataflow got wrong), basic-block construction with
// jump-target resolution and barrier blocks for quarantined bytes.
#include "ir/ir.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "asmx/instruction.h"
#include "ir/emitter.h"
#include "synth/synth.h"

namespace cati::ir {
namespace {

using asmx::Instruction;
using asmx::Reg;

std::vector<Instruction> listing(const char* text) {
  return asmx::parseListing(text);
}

Op lowerOne(const char* text, bool rbpFrame = false) {
  const auto insns = listing(text);
  EXPECT_EQ(insns.size(), 1U);
  return lowerOp(insns[0], rbpFrame);
}

// --- lowering: defs/uses ---------------------------------------------------

TEST(Lower, PushDefinesOnlyRsp) {
  // Regression: the old dataflow treated `push %rax` as defining rax, which
  // killed lea tracking across spills. A push reads its operand and moves
  // rsp; only pop defines the operand register.
  const Op op = lowerOne("push %rax\n");
  EXPECT_TRUE(maskHas(op.defs, Reg::Rsp));
  EXPECT_FALSE(maskHas(op.defs, Reg::Rax));
  EXPECT_TRUE(maskHas(op.uses, Reg::Rax));
}

TEST(Lower, PopDefinesOperandAndRsp) {
  const Op op = lowerOne("pop %rbx\n");
  EXPECT_TRUE(maskHas(op.defs, Reg::Rbx));
  EXPECT_TRUE(maskHas(op.defs, Reg::Rsp));
  EXPECT_FALSE(maskHas(op.uses, Reg::Rbx));
}

TEST(Lower, CallClobbersCallerSavedAndUsesArgRegs) {
  const Op op = lowerOne("callq 1234 <foo>\n");
  EXPECT_EQ(op.kind, OpKind::kCall);
  EXPECT_TRUE(maskHas(op.defs, Reg::Rax));
  EXPECT_TRUE(maskHas(op.defs, Reg::R11));
  // Callee-saved registers survive.
  EXPECT_FALSE(maskHas(op.defs, Reg::Rbx));
  EXPECT_FALSE(maskHas(op.defs, Reg::R12));
  // Arg registers count as used so liveness keeps argument setup alive.
  EXPECT_TRUE(maskHas(op.uses, Reg::Rdi));
  EXPECT_TRUE(maskHas(op.uses, Reg::R9));
}

TEST(Lower, CmpDefinesNothing) {
  const Op op = lowerOne("cmp %eax,%ebx\n");
  EXPECT_EQ(op.defs, RegMask{0});
  EXPECT_TRUE(maskHas(op.uses, Reg::Rax));
  EXPECT_TRUE(maskHas(op.uses, Reg::Rbx));
}

TEST(Lower, XorZeroIdiomIsPureDef) {
  const Op op = lowerOne("xor %eax,%eax\n");
  EXPECT_TRUE(maskHas(op.defs, Reg::Rax));
  EXPECT_FALSE(maskHas(op.uses, Reg::Rax));
  EXPECT_TRUE(op.overwrite);
}

TEST(Lower, RegToRegMovIsCopy) {
  const Op op = lowerOne("mov %rax,%rbx\n");
  EXPECT_EQ(op.kind, OpKind::kCopy);
  EXPECT_EQ(op.copySrc, Reg::Rax);
  EXPECT_EQ(op.dst, Reg::Rbx);
}

TEST(Lower, LeaOfFrameSlotTracks) {
  const Op op = lowerOne("lea 0x8(%rsp),%rax\n");
  EXPECT_TRUE(op.tracksSlot);
  EXPECT_EQ(op.trackedSlot, 0x8);
  EXPECT_TRUE(op.mem.isLea);
  EXPECT_EQ(op.mem.kind, MemEffect::Kind::kFrameSlot);
}

TEST(Lower, IndexedFrameAccessKeepsBaseSlot) {
  // -0x8(%rbp,%rcx,4): an array walk over a frame aggregate. The IR keeps
  // the base slot and flags the access as indexed instead of dropping it.
  const Op op = lowerOne("mov -0x8(%rbp,%rcx,4),%eax\n", /*rbpFrame=*/true);
  EXPECT_EQ(op.mem.kind, MemEffect::Kind::kFrameSlot);
  EXPECT_EQ(op.mem.slot, -0x8);
  EXPECT_TRUE(op.mem.indexed);
  EXPECT_TRUE(maskHas(op.uses, Reg::Rcx));
}

TEST(Lower, StoreMarksWrite) {
  const Op op = lowerOne("mov %eax,0x10(%rsp)\n");
  EXPECT_EQ(op.mem.kind, MemEffect::Kind::kFrameSlot);
  EXPECT_TRUE(op.mem.write);
  EXPECT_EQ(op.width, 4);
}

// --- CFG construction ------------------------------------------------------

TEST(Cfg, EmptyFunction) {
  const FunctionGraph g = lower({});
  EXPECT_TRUE(g.ops.empty());
  EXPECT_TRUE(g.blocks.empty());
}

TEST(Cfg, StraightLineIsOneBlock) {
  const FunctionGraph g = lower(listing(
      "sub $0x10,%rsp\n"
      "movl $0x1,0x8(%rsp)\n"
      "add $0x10,%rsp\n"
      "ret\n"));
  ASSERT_EQ(g.blocks.size(), 1U);
  EXPECT_EQ(g.blocks[0].begin, 0U);
  EXPECT_EQ(g.blocks[0].end, 4U);
  EXPECT_TRUE(g.blocks[0].succs.empty());
}

TEST(Cfg, CondJumpSplitsWithFallthroughAndTarget) {
  // Addresses are synthetic (8 bytes per instruction) so the target of the
  // je resolves to instruction 3 (0x1018).
  const auto insns = listing(
      "cmp %eax,%ebx\n"      // 0x1000  block 0
      "je 1018\n"            // 0x1008  block 0 -> {1, 2}
      "mov $0x1,%ecx\n"      // 0x1010  block 1 -> {2}
      "ret\n");              // 0x1018  block 2
  const std::vector<uint64_t> addrs{0x1000, 0x1008, 0x1010, 0x1018};
  const FunctionGraph g = lower(insns, addrs);
  ASSERT_EQ(g.blocks.size(), 3U);
  EXPECT_EQ(g.unresolvedTargets, 0U);
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(g.blocks[1].succs, (std::vector<uint32_t>{2}));
  EXPECT_EQ(g.blocks[2].preds, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(g.ops[1].target, 3);
}

TEST(Cfg, BackEdgeLoop) {
  const auto insns = listing(
      "mov $0x0,%eax\n"      // 0x1000  block 0
      "add $0x1,%eax\n"      // 0x1008  block 1 (loop head)
      "cmp $0xa,%eax\n"      // 0x1010  block 1
      "jne 1008\n"           // 0x1018  block 1 -> {1, 2}
      "ret\n");              // 0x1020  block 2
  const std::vector<uint64_t> addrs{0x1000, 0x1008, 0x1010, 0x1018, 0x1020};
  const FunctionGraph g = lower(insns, addrs);
  ASSERT_EQ(g.blocks.size(), 3U);
  EXPECT_EQ(g.blocks[1].succs, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(g.blocks[1].preds, (std::vector<uint32_t>{0, 1}));
}

TEST(Cfg, JumpIntoMiddleOfInstructionIsUnresolved) {
  // 0x100c is inside instruction 1, not on a boundary: the target must be
  // counted unresolved and produce no edge (treated as leaving the span).
  const auto insns = listing(
      "jmp 100c\n"           // 0x1000
      "mov $0x1,%eax\n"      // 0x1008
      "ret\n");              // 0x1010
  const std::vector<uint64_t> addrs{0x1000, 0x1008, 0x1010};
  const FunctionGraph g = lower(insns, addrs);
  EXPECT_EQ(g.unresolvedTargets, 1U);
  EXPECT_TRUE(g.blocks[0].succs.empty());
  EXPECT_EQ(g.ops[0].target, Op::kUnresolved);
}

TEST(Cfg, UnconditionalJumpHasNoFallthrough) {
  const auto insns = listing(
      "jmp 1010\n"           // 0x1000  block 0 -> {2}
      "mov $0x1,%eax\n"      // 0x1008  block 1 (unreachable)
      "ret\n");              // 0x1010  block 2
  const std::vector<uint64_t> addrs{0x1000, 0x1008, 0x1010};
  const FunctionGraph g = lower(insns, addrs);
  ASSERT_EQ(g.blocks.size(), 3U);
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{2}));
  EXPECT_TRUE(g.blocks[1].preds.empty());
}

TEST(Cfg, QuarantinedBytesFormBarrierBlocks) {
  std::vector<Instruction> insns = listing(
      "mov $0x1,%eax\n"
      "mov $0x2,%ebx\n");
  insns.push_back({asmx::kByteMnem, asmx::Operand::i(0xCC)});
  insns.push_back({asmx::kByteMnem, asmx::Operand::i(0xFE)});
  const auto tail = listing("ret\n");
  insns.push_back(tail[0]);
  const FunctionGraph g = lower(insns);
  ASSERT_EQ(g.blocks.size(), 3U);
  EXPECT_FALSE(g.blocks[0].barrier);
  EXPECT_TRUE(g.blocks[1].barrier);
  EXPECT_FALSE(g.blocks[2].barrier);
  EXPECT_EQ(g.ops[2].kind, OpKind::kBarrier);
  // Decoding resumed after the quarantine: control conservatively flows
  // through the barrier, but no facts survive it (OpKind::kBarrier).
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{1}));
  EXPECT_EQ(g.blocks[1].succs, (std::vector<uint32_t>{2}));
}

TEST(Cfg, CallsDoNotEndBlocks) {
  const FunctionGraph g = lower(listing(
      "mov $0x1,%edi\n"
      "callq 1234 <foo>\n"
      "mov %eax,%ebx\n"
      "ret\n"));
  ASSERT_EQ(g.blocks.size(), 1U);
  ASSERT_EQ(g.calleeNames.size(), 1U);
  EXPECT_EQ(g.calleeNames[0], "foo");
  EXPECT_EQ(g.ops[1].callee, 0);
}

TEST(Cfg, BlockOfLocatesOps) {
  const auto insns = listing(
      "cmp %eax,%ebx\n"
      "je 1018\n"
      "mov $0x1,%ecx\n"
      "ret\n");
  const std::vector<uint64_t> addrs{0x1000, 0x1008, 0x1010, 0x1018};
  const FunctionGraph g = lower(insns, addrs);
  EXPECT_EQ(g.blockOf(0), 0U);
  EXPECT_EQ(g.blockOf(2), 1U);
  EXPECT_EQ(g.blockOf(3), 2U);
}

TEST(Cfg, EdgesAreSymmetricOnSynthBinaries) {
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("ir", 0x77, 12), synth::Dialect::Gcc, 2, 99);
  for (const synth::FunctionCode& fn : bin.funcs) {
    const FunctionGraph g = lower(fn.insns);
    uint32_t covered = 0;
    for (size_t b = 0; b < g.blocks.size(); ++b) {
      const Block& blk = g.blocks[b];
      EXPECT_EQ(blk.begin, covered);  // contiguous index-ordered partition
      covered = blk.end;
      for (const uint32_t s : blk.succs) {
        const auto& preds = g.blocks[s].preds;
        EXPECT_NE(std::find(preds.begin(), preds.end(), b), preds.end());
      }
      for (const uint32_t p : blk.preds) {
        const auto& succs = g.blocks[p].succs;
        EXPECT_NE(std::find(succs.begin(), succs.end(), b), succs.end());
      }
    }
    EXPECT_EQ(covered, g.ops.size());
  }
}

// --- emitter ---------------------------------------------------------------

TEST(Emitter, CursorAndManualEdges) {
  const auto insns = listing(
      "mov $0x1,%eax\n"
      "mov $0x2,%ebx\n"
      "ret\n");
  Emitter em(/*rbpFrame=*/false);
  em.lowerAndEmit(insns[0], /*leader=*/true);
  EXPECT_EQ(em.cursor(), 1U);
  em.lowerAndEmit(insns[1], /*leader=*/false);
  em.lowerAndEmit(insns[2], /*leader=*/true);
  EXPECT_EQ(em.blockCount(), 2U);
  em.edge(0, 1);
  em.edge(0, 1);  // duplicates are deduplicated by finish()
  const FunctionGraph g = em.finish();
  ASSERT_EQ(g.blocks.size(), 2U);
  EXPECT_EQ(g.blocks[0].succs, (std::vector<uint32_t>{1}));
  EXPECT_EQ(g.blocks[1].preds, (std::vector<uint32_t>{0}));
}

}  // namespace
}  // namespace cati::ir
