// Tests for variable recovery: hand-written listings with known answers,
// lea tracking, member coalescing, and aggregate accuracy on generated
// binaries (the paper's "~90% recovery" slot).
#include "dataflow/recovery.h"

#include <gtest/gtest.h>

#include "asmx/instruction.h"
#include "ir/ir.h"
#include "synth/synth.h"

namespace cati::dataflow {
namespace {

std::vector<asmx::Instruction> listing(const char* text) {
  return asmx::parseListing(text);
}

TEST(Recovery, FindsRspSlots) {
  const auto insns = listing(
      "sub $0x20,%rsp\n"
      "movl $0x5,0x8(%rsp)\n"
      "mov 0x8(%rsp),%eax\n"
      "movq $0x0,0x10(%rsp)\n"
      "add $0x20,%rsp\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  EXPECT_FALSE(r.rbpFrame);
  ASSERT_EQ(r.vars.size(), 2U);
  EXPECT_EQ(r.vars[0].offset, 0x8);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(r.vars[1].offset, 0x10);
}

TEST(Recovery, DetectsRbpFrame) {
  const auto insns = listing(
      "push %rbp\n"
      "mov %rsp,%rbp\n"
      "sub $0x20,%rsp\n"
      "movl $0x7,-0x14(%rbp)\n"
      "leave\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  EXPECT_TRUE(r.rbpFrame);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].offset, -0x14);
}

TEST(Recovery, LeaTrackingAttributesDerefs) {
  const auto insns = listing(
      "sub $0x20,%rsp\n"
      "lea 0x8(%rsp),%rax\n"   // rax = &slot8
      "mov (%rax),%edx\n"      // deref -> slot8
      "mov %edx,(%rax)\n"      // deref -> slot8
      "mov $0x1,%eax\n"        // kills tracking
      "mov (%rax),%ecx\n"      // no longer attributed
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_TRUE(r.vars[0].addressTaken);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(Recovery, CallsKillAddressTracking) {
  const auto insns = listing(
      "sub $0x20,%rsp\n"
      "lea 0x8(%rsp),%rax\n"
      "callq 1234 <foo>\n"
      "mov (%rax),%edx\n"  // rax clobbered by the call: not attributed
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1}));
}

TEST(Recovery, MemberAccessesCoalesceIntoLeaBase) {
  const auto insns = listing(
      "sub $0x40,%rsp\n"
      "lea 0x10(%rsp),%rdi\n"   // &struct base
      "movl $0x1,0x10(%rsp)\n"  // member 0
      "movl $0x2,0x18(%rsp)\n"  // member +8
      "movb $0x0,0x20(%rsp)\n"  // member +16
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].offset, 0x10);
  EXPECT_EQ(r.vars[0].targetInsns.size(), 4U);
}

TEST(Recovery, DistantSlotsNotCoalesced) {
  const auto insns = listing(
      "sub $0x200,%rsp\n"
      "lea 0x10(%rsp),%rdi\n"
      "movl $0x1,0x10(%rsp)\n"
      "movl $0x2,0x100(%rsp)\n"  // 240 bytes away: separate variable
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 2U);
}

TEST(Recovery, ScaledFrameAccessAttributedToBase) {
  // Indexed frame access (array walk over a frame aggregate) is attributed
  // to the base slot and flagged as indexed instead of being dropped.
  const auto insns = listing(
      "sub $0x40,%rsp\n"
      "mov 0x8(%rsp,%rcx,4),%eax\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].offset, 0x8);
  EXPECT_TRUE(r.vars[0].indexed);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1}));
}

TEST(Recovery, PushDoesNotKillLeaTracking) {
  // Regression: the old pass treated `push %rcx` as defining rcx — and,
  // symmetrically, a push of the tracked register as defining it — which
  // killed address tracking across spills. A push only reads its operand.
  const auto insns = listing(
      "push %rbp\n"
      "mov %rsp,%rbp\n"
      "sub $0x20,%rsp\n"
      "lea -0x8(%rbp),%rax\n"
      "push %rcx\n"        // spill: must not disturb the rax fact
      "mov (%rax),%edx\n"  // still attributed to -0x8
      "pop %rcx\n"
      "leave\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].offset, -0x8);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{3, 5}));
}

TEST(Recovery, FactsSurviveConditionalFallthrough) {
  // The lea fact crosses the block boundary the conditional jump creates:
  // the fallthrough edge carries it into the dereferencing block.
  const auto insns = listing(
      "sub $0x20,%rsp\n"
      "lea 0x8(%rsp),%rax\n"
      "je 9999\n"          // target outside the span: fallthrough only
      "mov (%rax),%edx\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1, 3}));
}

TEST(Recovery, CalleeSavedTrackingSurvivesCalls) {
  // rbx is callee-saved: a call clobbers only the caller-saved set, so the
  // address fact survives and the post-call dereference is attributed.
  const auto insns = listing(
      "sub $0x20,%rsp\n"
      "lea 0x8(%rsp),%rbx\n"
      "callq 1234 <foo>\n"
      "mov (%rbx),%edx\n"
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 1U);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1, 3}));
}

TEST(Recovery, MemcpyExtentBoundsCoalescing) {
  // memcpy of the aggregate's address with an immediate size spells out its
  // extent: slots inside it coalesce into the base, slots at or beyond it
  // stay separate (the 80-byte fallback would have absorbed both).
  const auto insns = listing(
      "sub $0x100,%rsp\n"
      "lea 0x10(%rsp),%rdi\n"
      "mov $0x10,%edx\n"
      "callq 4000 <memcpy>\n"
      "movl $0x1,0x18(%rsp)\n"  // +8: inside the 16-byte extent
      "movl $0x2,0x20(%rsp)\n"  // +16: at the extent boundary — separate
      "ret\n");
  const RecoveryResult r = recoverVariables(insns);
  ASSERT_EQ(r.vars.size(), 2U);
  EXPECT_EQ(r.vars[0].offset, 0x10);
  EXPECT_EQ(r.vars[0].targetInsns, (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(r.vars[1].offset, 0x20);
}

TEST(Recovery, EmptyFunction) {
  const RecoveryResult r = recoverVariables(listing("ret\n"));
  EXPECT_TRUE(r.vars.empty());
}

TEST(Recovery, DeterministicOutput) {
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("d", 0x21, 6), synth::Dialect::Gcc, 1, 17);
  for (const synth::FunctionCode& fn : bin.funcs) {
    const RecoveryResult a = recoverVariables(fn.insns);
    const RecoveryResult b = recoverVariables(fn.insns);
    ASSERT_EQ(a.vars.size(), b.vars.size());
    for (size_t i = 0; i < a.vars.size(); ++i) {
      EXPECT_EQ(a.vars[i].offset, b.vars[i].offset);
      EXPECT_EQ(a.vars[i].targetInsns, b.vars[i].targetInsns);
    }
  }
}

// Aggregate accuracy on generated binaries across dialects and opt levels —
// the substitute for the paper's "variable recovery achieves about 90%".
class RecoveryAccuracy
    : public ::testing::TestWithParam<std::tuple<synth::Dialect, int>> {};

TEST_P(RecoveryAccuracy, RecallAboveFloor) {
  const auto [dialect, opt] = GetParam();
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("acc", 0x33, 40), dialect, opt, 23);
  const RecoveryScore s = scoreBinary(bin);
  EXPECT_GT(s.trueVars, 100U);
  // Slot-level recall: the recovery finds the overwhelming majority of
  // ground-truth variables.
  EXPECT_GE(s.varRecall(), 0.80)
      << "dialect=" << static_cast<int>(dialect) << " O" << opt;
  EXPECT_GE(s.insnRecall(), 0.70);
}

INSTANTIATE_TEST_SUITE_P(
    DialectsAndOpts, RecoveryAccuracy,
    ::testing::Combine(::testing::Values(synth::Dialect::Gcc,
                                         synth::Dialect::Clang),
                       ::testing::Values(0, 1, 2, 3)));

}  // namespace
}  // namespace cati::dataflow
