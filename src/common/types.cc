#include "common/types.h"

#include <cassert>

namespace cati {

namespace {

constexpr std::string_view kTypeNames[kNumTypes] = {
    "bool",
    "struct",
    "char",
    "unsigned char",
    "float",
    "double",
    "long double",
    "enum",
    "int",
    "short int",
    "long int",
    "long long int",
    "unsigned int",
    "short unsigned int",
    "long unsigned int",
    "long long unsigned int",
    "void*",
    "struct*",
    "arith*",
};

constexpr std::string_view kStageNames[kNumStages] = {
    "Stage1", "Stage2-1", "Stage2-2", "Stage3-1", "Stage3-2", "Stage3-3",
};

}  // namespace

std::string_view typeName(TypeLabel t) {
  return kTypeNames[static_cast<int>(t)];
}

std::optional<TypeLabel> typeFromName(std::string_view name) {
  for (int i = 0; i < kNumTypes; ++i) {
    if (kTypeNames[i] == name) return static_cast<TypeLabel>(i);
  }
  return std::nullopt;
}

std::string_view stageName(Stage s) { return kStageNames[static_cast<int>(s)]; }

bool isPointer(TypeLabel t) {
  return t == TypeLabel::VoidPtr || t == TypeLabel::StructPtr ||
         t == TypeLabel::ArithPtr;
}

Family familyOf(TypeLabel t) {
  switch (t) {
    case TypeLabel::VoidPtr:
    case TypeLabel::StructPtr:
    case TypeLabel::ArithPtr:
      return Family::Pointer;
    case TypeLabel::Struct:
      return Family::Struct;
    case TypeLabel::Bool:
      return Family::Bool;
    case TypeLabel::Char:
    case TypeLabel::UChar:
      return Family::CharF;
    case TypeLabel::Float:
    case TypeLabel::Double:
    case TypeLabel::LongDouble:
      return Family::FloatF;
    default:
      return Family::IntF;
  }
}

int stageClassOf(Stage s, TypeLabel t) {
  const Family fam = familyOf(t);
  switch (s) {
    case Stage::S1:
      return fam == Family::Pointer ? 1 : 0;
    case Stage::S2_1:
      switch (t) {
        case TypeLabel::VoidPtr:
          return 0;
        case TypeLabel::StructPtr:
          return 1;
        case TypeLabel::ArithPtr:
          return 2;
        default:
          return -1;
      }
    case Stage::S2_2:
      switch (fam) {
        case Family::Struct:
          return 0;
        case Family::Bool:
          return 1;
        case Family::CharF:
          return 2;
        case Family::FloatF:
          return 3;
        case Family::IntF:
          return 4;
        default:
          return -1;
      }
    case Stage::S3_1:
      switch (t) {
        case TypeLabel::Char:
          return 0;
        case TypeLabel::UChar:
          return 1;
        default:
          return -1;
      }
    case Stage::S3_2:
      switch (t) {
        case TypeLabel::Float:
          return 0;
        case TypeLabel::Double:
          return 1;
        case TypeLabel::LongDouble:
          return 2;
        default:
          return -1;
      }
    case Stage::S3_3:
      switch (t) {
        case TypeLabel::Enum:
          return 0;
        case TypeLabel::Int:
          return 1;
        case TypeLabel::ShortInt:
          return 2;
        case TypeLabel::LongInt:
          return 3;
        case TypeLabel::LongLongInt:
          return 4;
        case TypeLabel::UInt:
          return 5;
        case TypeLabel::UShortInt:
          return 6;
        case TypeLabel::ULongInt:
          return 7;
        case TypeLabel::ULongLongInt:
          return 8;
        default:
          return -1;
      }
    default:
      return -1;
  }
}

std::optional<TypeLabel> leafOf(Stage s, int cls) {
  switch (s) {
    case Stage::S1:
      return std::nullopt;  // both branches continue
    case Stage::S2_1:
      switch (cls) {
        case 0:
          return TypeLabel::VoidPtr;
        case 1:
          return TypeLabel::StructPtr;
        case 2:
          return TypeLabel::ArithPtr;
        default:
          return std::nullopt;
      }
    case Stage::S2_2:
      switch (cls) {
        case 0:
          return TypeLabel::Struct;
        case 1:
          return TypeLabel::Bool;
        default:
          return std::nullopt;  // char/float/int families continue
      }
    case Stage::S3_1:
      return cls == 0 ? TypeLabel::Char : TypeLabel::UChar;
    case Stage::S3_2:
      switch (cls) {
        case 0:
          return TypeLabel::Float;
        case 1:
          return TypeLabel::Double;
        default:
          return TypeLabel::LongDouble;
      }
    case Stage::S3_3:
      switch (cls) {
        case 0:
          return TypeLabel::Enum;
        case 1:
          return TypeLabel::Int;
        case 2:
          return TypeLabel::ShortInt;
        case 3:
          return TypeLabel::LongInt;
        case 4:
          return TypeLabel::LongLongInt;
        case 5:
          return TypeLabel::UInt;
        case 6:
          return TypeLabel::UShortInt;
        case 7:
          return TypeLabel::ULongInt;
        case 8:
          return TypeLabel::ULongLongInt;
        default:
          return std::nullopt;
      }
    default:
      return std::nullopt;
  }
}

std::optional<Stage> nextStage(Stage s, int cls) {
  switch (s) {
    case Stage::S1:
      return cls == 1 ? Stage::S2_1 : Stage::S2_2;
    case Stage::S2_2:
      switch (cls) {
        case 2:
          return Stage::S3_1;
        case 3:
          return Stage::S3_2;
        case 4:
          return Stage::S3_3;
        default:
          return std::nullopt;
      }
    default:
      return std::nullopt;
  }
}

StagePath pathOf(TypeLabel t) {
  StagePath p;
  Stage s = Stage::S1;
  for (;;) {
    p.stages[p.length++] = s;
    const int cls = stageClassOf(s, t);
    assert(cls >= 0);
    const auto next = nextStage(s, cls);
    if (!next) break;
    s = *next;
  }
  return p;
}

std::array<TypeLabel, kNumTypes> allTypes() {
  std::array<TypeLabel, kNumTypes> out{};
  for (int i = 0; i < kNumTypes; ++i) out[i] = static_cast<TypeLabel>(i);
  return out;
}

}  // namespace cati
