// Instruction IR: one mnemonic plus at most two operands, in AT&T order
// (source first). This is the unit the whole pipeline works on — the paper's
// VUC is a window of 21 of these.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asmx/reg.h"

namespace cati::asmx {

/// Memory reference: disp(base, index, scale). ripRel marks %rip-relative
/// addressing of globals.
struct MemRef {
  RegRef base{};
  RegRef index{};
  uint8_t scale = 1;
  int64_t disp = 0;

  bool operator==(const MemRef&) const = default;
};

struct Operand {
  enum class Kind : uint8_t {
    None,  ///< absent (instruction has fewer than two operands)
    Reg,
    Imm,   ///< $imm
    Mem,   ///< disp(base,index,scale)
    Addr,  ///< branch/call target address (printed bare, e.g. `jmp 3bc59`)
    Func,  ///< symbolic callee annotation, printed as `<name>`
  };

  Kind kind = Kind::None;
  RegRef reg{};
  int64_t imm = 0;     // Imm and Addr payload
  MemRef mem{};
  std::string sym;     // Func payload

  bool operator==(const Operand&) const = default;

  static Operand none() { return {}; }
  static Operand r(Reg rr, Width w) {
    Operand o;
    o.kind = Kind::Reg;
    o.reg = {rr, w};
    return o;
  }
  static Operand r(RegRef rr) {
    Operand o;
    o.kind = Kind::Reg;
    o.reg = rr;
    return o;
  }
  static Operand i(int64_t v) {
    Operand o;
    o.kind = Kind::Imm;
    o.imm = v;
    return o;
  }
  static Operand m(MemRef mr) {
    Operand o;
    o.kind = Kind::Mem;
    o.mem = mr;
    return o;
  }
  /// Simple base+disp memory operand.
  static Operand m(Reg base, int64_t disp, Width baseW = Width::B8) {
    MemRef mr;
    mr.base = {base, baseW};
    mr.disp = disp;
    return m(mr);
  }
  static Operand addr(int64_t target) {
    Operand o;
    o.kind = Kind::Addr;
    o.imm = target;
    return o;
  }
  static Operand func(std::string name) {
    Operand o;
    o.kind = Kind::Func;
    o.sym = std::move(name);
    return o;
  }
};

struct Instruction {
  std::string mnem;
  std::array<Operand, 2> ops{};

  Instruction() = default;
  explicit Instruction(std::string m) : mnem(std::move(m)) {}
  Instruction(std::string m, Operand a) : mnem(std::move(m)), ops{a, {}} {}
  Instruction(std::string m, Operand a, Operand b)
      : mnem(std::move(m)), ops{a, b} {}

  bool operator==(const Instruction&) const = default;
};

/// AT&T-syntax rendering: `mov %rax,0xb0(%rsp)`, `movl $0x100,0xb8(%rsp)`,
/// `callq 3bc59 <bfd_zalloc>`. Negative displacements print as `-0x..`.
std::string toString(const Instruction& ins);
std::string toString(const Operand& op);

/// Parses one AT&T instruction line (whitespace-tolerant). Returns nullopt
/// on malformed input. Round-trips with toString for every operand kind.
std::optional<Instruction> parse(std::string_view line);

/// Parses a newline-separated listing, skipping blank lines and `#` comments;
/// throws std::runtime_error naming the offending line on failure.
std::vector<Instruction> parseListing(std::string_view text);

// --- Instruction properties used by variable recovery -----------------------

/// Pseudo-mnemonic the recovering decoder emits for a quarantined
/// undecodable byte; the single Imm operand holds the byte value. objdump
/// prints the same spelling for data-in-text it cannot decode.
inline constexpr const char* kByteMnem = ".byte";

/// True for the `.byte` quarantine pseudo-instruction.
bool isQuarantinedByte(const Instruction& ins);

/// True for call mnemonics (call/callq).
bool isCall(const Instruction& ins);
/// True for any jump, conditional or not.
bool isJump(const Instruction& ins);
/// True for `lea*`: computes an address without accessing memory.
bool isLea(const Instruction& ins);
/// Index of the memory operand accessed by this instruction (lea excluded),
/// or -1 when the instruction touches no memory.
int memOperandIndex(const Instruction& ins);
/// Access width implied by mnemonic suffix / register operands, if any.
std::optional<Width> accessWidth(const Instruction& ins);

}  // namespace cati::asmx
