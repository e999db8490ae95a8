// Per-function decode+lowering cache.
//
// Decoding a function body and lowering it to the IR is pure: the result
// depends only on (start address, symbol table, bytes). cati-infer
// re-analysing the same file and the cati-serve batch loop seeing the same
// binary across requests repeat that work verbatim — this cache shares it.
// An entry holds the symbolized instruction stream, the per-instruction
// addresses, the decode diagnostics (replayed into the caller's DiagList),
// and the lowered FunctionGraph shared by pointer.
//
// Keying: the key is (start address, symbol-table fingerprint, exact
// bytes). The same bytes at a different address decode differently (rel32
// branch targets resolve against the instruction address), and the same
// bytes under a different symbol table symbolize differently (stripped vs
// unstripped), so both participate. The hash is CRC32(bytes) mixed with
// address and fingerprint; collisions fall back to a full byte compare.
//
// Determinism contract (DESIGN.md §13): lookups during the loader's
// parallel fan-out never mutate LRU state; promotions and insertions are
// applied by the serial boundary-order merge. Cache evolution is therefore
// a pure function of the image sequence, and hit/miss/eviction counts are
// identical at any `--jobs`.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "asmx/instruction.h"
#include "common/diag.h"
#include "ir/ir.h"

namespace cati::loader {

class DecodeCache {
 public:
  static constexpr size_t kDefaultBytes = 32ull << 20;

  explicit DecodeCache(size_t maxBytes = kDefaultBytes)
      : maxBytes_(maxBytes) {}

  struct Entry {
    std::vector<asmx::Instruction> insns;  ///< symbolized for the keyed table
    std::vector<uint64_t> insnAddrs;
    DiagList decodeDiags;  ///< decoder diagnostics, replayed on every hit
    std::shared_ptr<const ir::FunctionGraph> graph;  ///< lowered once
  };

  /// Read-only lookup (safe from parallel workers; no LRU mutation).
  std::shared_ptr<const Entry> find(uint64_t addr, uint64_t salt,
                                    std::span<const uint8_t> bytes) const;

  /// Moves an existing entry to the LRU front. Serial-merge phase only.
  void promote(uint64_t addr, uint64_t salt,
               std::span<const uint8_t> bytes);

  /// Inserts (or replaces) an entry, evicting LRU tails past the byte
  /// budget. Serial-merge phase only. Returns evictions performed.
  size_t insert(uint64_t addr, uint64_t salt,
                std::span<const uint8_t> bytes,
                std::shared_ptr<const Entry> entry);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats stats() const;
  void clear();

 private:
  struct Rec {
    uint64_t hash = 0;
    uint64_t addr = 0;
    uint64_t salt = 0;
    std::vector<uint8_t> bytes;
    std::shared_ptr<const Entry> entry;
    size_t cost = 0;
  };
  using LruList = std::list<Rec>;

  static uint64_t hashKey(uint64_t addr, uint64_t salt,
                          std::span<const uint8_t> bytes);
  static size_t entryCost(std::span<const uint8_t> bytes, const Entry& e);
  LruList::iterator findRec(uint64_t addr, uint64_t salt,
                            std::span<const uint8_t> bytes);

  mutable std::mutex mu_;
  size_t maxBytes_;
  size_t bytes_ = 0;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  LruList lru_;  // front = most recent
  std::unordered_map<uint64_t, std::vector<LruList::iterator>> byHash_;
};

}  // namespace cati::loader
