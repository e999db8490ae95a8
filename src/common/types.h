// Core type taxonomy of CATI: the 19 inferred variable types and the
// six-stage tree-shaped classifier layout (paper Fig. 5).
//
// Leaf types (19):
//   non-pointer: bool, struct, char, unsigned char, float, double,
//                long double, enum, int, short int, long int, long long int,
//                unsigned int, short unsigned int, long unsigned int,
//                long long unsigned int
//   pointer:     void*, struct*, arith* (pointer to arithmetic)
//
// Stage tree:
//   Stage 1   : pointer vs non-pointer                       (2 classes)
//   Stage 2-1 : void* / struct* / arith*                     (3 classes)
//   Stage 2-2 : struct / bool / char-fam / float-fam / int-fam (5 classes)
//   Stage 3-1 : char / unsigned char                         (2 classes)
//   Stage 3-2 : float / double / long double                 (3 classes)
//   Stage 3-3 : enum / int / short / long / long long /
//               unsigned / ushort / ulong / ulonglong        (9 classes)
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace cati {

enum class TypeLabel : uint8_t {
  Bool,
  Struct,
  Char,
  UChar,
  Float,
  Double,
  LongDouble,
  Enum,
  Int,
  ShortInt,
  LongInt,
  LongLongInt,
  UInt,
  UShortInt,
  ULongInt,
  ULongLongInt,
  VoidPtr,
  StructPtr,
  ArithPtr,
  kCount,
};

inline constexpr int kNumTypes = static_cast<int>(TypeLabel::kCount);

// Classifier stages; values index per-stage arrays.
enum class Stage : uint8_t { S1, S2_1, S2_2, S3_1, S3_2, S3_3, kCount };

inline constexpr int kNumStages = static_cast<int>(Stage::kCount);

// Coarse families used by Stage 2-2.
enum class Family : uint8_t { Pointer, Struct, Bool, CharF, FloatF, IntF };

/// Human-readable name, matching the paper's Table V spelling.
std::string_view typeName(TypeLabel t);

/// Parses a name produced by typeName(); nullopt on unknown input.
std::optional<TypeLabel> typeFromName(std::string_view name);

/// Short display name of a stage ("Stage1", "Stage2-1", ...).
std::string_view stageName(Stage s);

bool isPointer(TypeLabel t);
Family familyOf(TypeLabel t);

/// Output classes of each stage's classifier, in Stage order.
inline constexpr std::array<int, kNumStages> kStageClasses = {2, 3, 5,
                                                              2, 3, 9};

/// Largest class count of any stage.
inline constexpr int kMaxClasses = std::ranges::max(kStageClasses);

/// Where stage s's classes start when the six stages' per-class values sit
/// back to back in Stage order; entry kNumStages is the total (24).
inline constexpr std::array<int, kNumStages + 1> kStageOffset = [] {
  std::array<int, kNumStages + 1> off{};
  for (int s = 0; s < kNumStages; ++s) {
    off[static_cast<size_t>(s) + 1] =
        off[static_cast<size_t>(s)] + kStageClasses[static_cast<size_t>(s)];
  }
  return off;
}();

/// Number of output classes of a stage's classifier (0 for kCount).
constexpr int numClasses(Stage s) {
  return s < Stage::kCount ? kStageClasses[static_cast<size_t>(s)] : 0;
}

/// Class index of `t` within stage `s`, or -1 when `t`'s root-to-leaf path
/// does not pass through `s` (e.g. a pointer type never reaches Stage 2-2).
int stageClassOf(Stage s, TypeLabel t);

/// The leaf type selected by choosing class `cls` at stage `s`, when that
/// choice is final (third-level stages, `struct`/`bool` at 2-2, all of 2-1).
/// nullopt when the choice leads to a further stage.
std::optional<TypeLabel> leafOf(Stage s, int cls);

/// The follow-up stage implied by choosing class `cls` at stage `s`
/// (e.g. Stage1/class 0 -> Stage 2-2), nullopt when `cls` is final there.
std::optional<Stage> nextStage(Stage s, int cls);

/// Root-to-leaf stage path of a type: always starts at S1; length 2 or 3.
struct StagePath {
  std::array<Stage, 3> stages{};
  int length = 0;
};
StagePath pathOf(TypeLabel t);

/// All 19 labels, in enum order.
std::array<TypeLabel, kNumTypes> allTypes();

}  // namespace cati
