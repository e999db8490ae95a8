// A simplified ELF64-flavoured binary image tying the whole substrate
// together: synthesized functions are *actually encoded to machine code*
// (src/asmx encode) into a .text section, with a symbol table, a PLT-style
// import stub region for library calls, a function-boundary table (the
// .eh_frame analog — real stripped binaries keep unwind data, which is how
// production tools recover boundaries without symbols), and an optional
// .debug section holding the DWARF-like module.
//
// strip() removes symbols and debug info exactly like `strip(1)`:
// disassembly of a stripped image yields bare instructions whose call
// targets can no longer be symbolized — the input CATI is built for.
#pragma once

#include <cstdint>
#include <filesystem>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "asmx/instruction.h"
#include "common/diag.h"
#include "debuginfo/debuginfo.h"
#include "ir/ir.h"
#include "loader/cache.h"
#include "synth/synth.h"

namespace cati::loader {

struct Symbol {
  std::string name;
  uint64_t value = 0;  ///< virtual address
  uint64_t size = 0;
  bool isImport = false;  ///< PLT stub for an external function
};

/// [start, end) virtual-address ranges of functions; survives stripping.
struct BoundaryEntry {
  uint64_t start = 0;
  uint64_t end = 0;
};

struct Image {
  uint64_t baseAddr = 0x401000;
  std::vector<uint8_t> text;
  std::vector<BoundaryEntry> boundaries;     // .eh_frame analog
  std::vector<Symbol> symbols;               // imports only after strip()
  std::optional<debuginfo::Module> debug;    // nullopt after strip()

  bool stripped() const;
};

/// Encodes a synthesized binary into an image: machine code, per-function
/// symbols, PLT stubs for every distinct callee (call targets are rewritten
/// to their stub), boundaries and debug info.
Image buildImage(const synth::Binary& bin);

/// Removes the static symbol table and debug info, like strip(1):
/// function symbols vanish, but *import* symbols survive (they live in
/// .dynsym, which stripping never touches — objdump on a stripped binary
/// still prints `call ... <memcpy@plt>`). Boundaries stay (.eh_frame).
/// Idempotent.
void strip(Image& img);

/// Container (de)serialization: magic + version + length-prefixed payload +
/// CRC32 trailer (io::writeChecksummed), so a corrupt file is a
/// deterministic error, never an Image full of nonsense.
void write(const Image& img, std::ostream& os);

/// Strict read: throws std::runtime_error on any malformed container
/// (bad magic, unsupported version, truncation, checksum mismatch).
Image read(std::istream& is);

/// Structural validation of a parsed image: boundaries must be non-empty,
/// ordered, non-overlapping and inside .text; symbols should lie inside
/// .text; baseAddr + text must not wrap the address space. Range/wrap
/// violations append Errors, overlap/order/symbol issues append Warnings.
/// Returns false when any Error was appended.
bool validate(const Image& img, DiagList& diags);

/// Total (never-throwing) read for hostile input: parses and validates,
/// returning nullopt with the reason in `diags` on malformed bytes. An
/// image that parses but fails validation is still returned (with Error
/// diags) so callers can salvage the well-formed functions.
std::optional<Image> tryRead(std::istream& is, DiagList& diags);

/// tryRead from a file; missing/unreadable files become diagnostics too.
std::optional<Image> readFile(const std::filesystem::path& p,
                              DiagList& diags);

/// One disassembled function. When the image still has symbols, `name` is
/// the function symbol and call instructions carry re-attached `<func>`
/// operands; in a stripped image names are synthesized (`fun_401020`).
/// Every function carries its per-instruction virtual addresses and the
/// lowered FunctionGraph — shared by pointer, so a
/// decode-cache hit costs no relowering.
struct LoadedFunction {
  std::string name;
  uint64_t addr = 0;
  std::vector<asmx::Instruction> insns;
  std::vector<uint64_t> insnAddrs;  ///< virtual address of each instruction
  /// The function lowered to the typed IR. Never null from disassemble:
  /// every overload lowers a decoded function, and a decode-cache hit
  /// shares the graph lowered on its miss.
  std::shared_ptr<const ir::FunctionGraph> graph;
};

/// Disassembles .text using the boundary table, symbolizing what the
/// symbol table still allows. Strict mode: throws std::runtime_error on a
/// boundary outside .text or undecodable bytes.
std::vector<LoadedFunction> disassemble(const Image& img);

/// Recovering disassembly for untrusted images — never throws. Boundaries
/// outside .text are skipped with an Error diagnostic; undecodable bytes
/// inside a function are quarantined as `.byte` pseudo-instructions with a
/// Warning diagnostic (see asmx::decodeAllRecover).
std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags);

/// Recovering disassembly with per-function fan-out over `pool`. Worker
/// threads collect diagnostics into per-boundary local lists that are merged
/// in boundary-table order, so the function list AND the diagnostic order
/// are bit-identical to the serial overloads at any job count.
std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags,
                                        par::ThreadPool& pool);

/// Recovering disassembly backed by a decode+lowering cache. Hits skip the
/// decode, symbolization and IR construction entirely (entries hold the
/// symbolized stream; the symbol-table fingerprint is part of the key);
/// output — functions, graphs, diagnostics — is byte-identical to the
/// uncached overloads at any job count and any cache state.
std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags,
                                        par::ThreadPool& pool,
                                        DecodeCache& cache);

}  // namespace cati::loader
