#include "baseline/tie.h"

namespace cati::baseline {

TieEvidence TieBaseline::gather(std::span<const corpus::Vuc> vucs) {
  TieEvidence ev;
  for (const corpus::Vuc& vuc : vucs) {
    const corpus::GenInstr& t = vuc.target();
    const std::string& m = t.mnem;

    // Floating point.
    if (m.ends_with("ss") || m.ends_with("sd") || m.starts_with("ucomis")) {
      ev.sse = true;
      ev.width = std::max(ev.width, m.ends_with("sd") ? 8 : 4);
      continue;
    }
    if (m.starts_with("fld") || m.starts_with("fstp")) {
      ev.x87 = true;
      ev.width = std::max(ev.width, 10);
      continue;
    }

    // Widening loads: width + signedness in one token.
    if (m == "movsbl") {
      ev.width = std::max(ev.width, 1);
      ++ev.signedHits;
      continue;
    }
    if (m == "movzbl") {
      ev.width = std::max(ev.width, 1);
      ++ev.unsignedHits;
      continue;
    }
    if (m == "movswl") {
      ev.width = std::max(ev.width, 2);
      ++ev.signedHits;
      continue;
    }
    if (m == "movzwl") {
      ev.width = std::max(ev.width, 2);
      ++ev.unsignedHits;
      continue;
    }
    if (m == "movslq") {
      ev.width = std::max(ev.width, 4);
      ++ev.signedHits;
      continue;
    }

    // Address taken.
    if (m.starts_with("lea")) {
      ev.addressTaken = true;
      continue;
    }

    // Suffixed memory forms carry the width.
    const auto widthOfSuffix = [&]() -> int {
      switch (m.back()) {
        case 'b':
          return 1;
        case 'w':
          return 2;
        case 'l':
          return 4;
        case 'q':
          return 8;
        default:
          return 0;
      }
    };
    if (m == "movb" || m == "cmpb" || m == "xorb") {
      ev.width = std::max(ev.width, 1);
      if (m == "xorb") ev.boolish = true;
      ++ev.memberStores;
      continue;
    }
    if (m == "movw" || m == "cmpw") {
      ev.width = std::max(ev.width, 2);
      continue;
    }
    if (m == "movq" || m == "cmpq" || m == "addq" || m == "subq") {
      ev.width = std::max(ev.width, 8);
      if (m == "cmpq") ++ev.pointerHits;  // NULL checks dominate cmpq $0
      if (m == "addq") ++ev.pointerHits;  // typed stride advance
      continue;
    }
    if (widthOfSuffix() == 4) {
      ev.width = std::max(ev.width, 4);
      continue;
    }

    // Plain mov: width from the register operand spelling.
    if (m == "mov") {
      const auto regWidth = [](const std::string& op) -> int {
        if (op.size() < 2 || op[0] != '%') return 0;
        if (op.starts_with("%r") && !op.ends_with("d") && !op.ends_with("w") &&
            !op.ends_with("b")) {
          return 8;
        }
        if (op.starts_with("%e") || op.ends_with("d")) return 4;
        if (op == "%al" || op == "%dl" || op == "%cl" || op.ends_with("b") ||
            op.ends_with("il") || op == "%bpl" || op == "%spl") {
          return 1;
        }
        if (op == "%ax" || op == "%dx" || op == "%cx" || op.ends_with("w") ||
            op == "%si" || op == "%di") {
          return 2;
        }
        return 0;
      };
      ev.width = std::max({ev.width, regWidth(t.op1), regWidth(t.op2)});
      continue;
    }
    if (m.starts_with("set")) ev.boolish = true;
  }
  return ev;
}

TypeLabel TieBaseline::resolve(const TieEvidence& ev) {
  // Most-specific-first resolution, mirroring TIE's lattice meet.
  if (ev.x87) return TypeLabel::LongDouble;
  if (ev.sse) return ev.width >= 8 ? TypeLabel::Double : TypeLabel::Float;
  if (ev.addressTaken && ev.memberStores > 0) return TypeLabel::Struct;
  if (ev.addressTaken && ev.width == 0) return TypeLabel::Struct;
  if (ev.width >= 8) {
    // 8-byte: pointer vs long. Pointer idioms win; signedness splits longs.
    if (ev.pointerHits > 0) return TypeLabel::StructPtr;
    return ev.unsignedHits > ev.signedHits ? TypeLabel::ULongInt
                                           : TypeLabel::LongInt;
  }
  if (ev.width == 1) {
    if (ev.boolish) return TypeLabel::Bool;
    return ev.unsignedHits > ev.signedHits ? TypeLabel::UChar
                                           : TypeLabel::Char;
  }
  if (ev.width == 2) {
    return ev.unsignedHits > ev.signedHits ? TypeLabel::UShortInt
                                           : TypeLabel::ShortInt;
  }
  // 4-byte scalars (and unknowns): int family.
  return ev.unsignedHits > ev.signedHits ? TypeLabel::UInt : TypeLabel::Int;
}

}  // namespace cati::baseline
