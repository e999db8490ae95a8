#include "loader/image.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "asmx/encode.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "common/serialize.h"

namespace cati::loader {

namespace {
constexpr uint32_t kMagic = 0x43454c46;  // "CELF"
constexpr uint32_t kVersion = 2;         // v2: CRC32-checksummed payload
constexpr size_t kPltStubSize = 16;
}  // namespace

Image buildImage(const synth::Binary& bin) {
  Image img;

  // First pass: collect distinct callees and lay out functions to learn
  // the total text size (instruction lengths are needed before call targets
  // can be fixed, so we encode twice: once with placeholder targets to get
  // lengths — our encodings have fixed length for a given instruction since
  // rel32 is always 4 bytes — then with final targets).
  std::vector<std::string> callees;
  std::unordered_map<std::string, size_t> calleeIdx;
  for (const synth::FunctionCode& fn : bin.funcs) {
    for (const asmx::Instruction& ins : fn.insns) {
      if (asmx::isCall(ins) &&
          ins.ops[1].kind == asmx::Operand::Kind::Func) {
        const auto [it, inserted] =
            calleeIdx.try_emplace(ins.ops[1].sym, callees.size());
        if (inserted) callees.push_back(ins.ops[1].sym);
      }
    }
  }

  // Layout pass with placeholder targets.
  std::vector<uint64_t> fnAddr(bin.funcs.size());
  uint64_t pc = img.baseAddr;
  for (size_t f = 0; f < bin.funcs.size(); ++f) {
    fnAddr[f] = pc;
    for (const asmx::Instruction& ins : bin.funcs[f].insns) {
      asmx::Instruction copy = ins;
      // Branch/call targets encode as rel32 regardless of value.
      pc += asmx::encode(copy, pc).size();
    }
  }
  const uint64_t pltBase = (pc + 15) / 16 * 16;

  // Import stubs.
  std::unordered_map<std::string, uint64_t> pltAddr;
  for (size_t i = 0; i < callees.size(); ++i) {
    pltAddr[callees[i]] = pltBase + i * kPltStubSize;
  }

  // Final pass: encode with call targets rewritten to PLT stubs.
  pc = img.baseAddr;
  for (size_t f = 0; f < bin.funcs.size(); ++f) {
    const synth::FunctionCode& fn = bin.funcs[f];
    const uint64_t start = pc;
    for (const asmx::Instruction& ins : fn.insns) {
      asmx::Instruction copy = ins;
      if (asmx::isCall(copy) &&
          copy.ops[1].kind == asmx::Operand::Kind::Func) {
        copy.ops[0] = asmx::Operand::addr(
            static_cast<int64_t>(pltAddr[copy.ops[1].sym]));
      }
      const auto bytes = asmx::encode(copy, pc);
      img.text.insert(img.text.end(), bytes.begin(), bytes.end());
      pc += bytes.size();
    }
    img.boundaries.push_back({start, pc});
    img.symbols.push_back({fn.name, start, pc - start, false});
  }
  // Pad to the PLT and emit stubs (jmp back to self — the bytes only need
  // to exist and decode; nothing executes them).
  while (img.baseAddr + img.text.size() < pltBase) img.text.push_back(0x90);
  for (const std::string& name : callees) {
    const uint64_t addr = pltAddr[name];
    const auto stub = asmx::encode(
        {"jmp", asmx::Operand::addr(static_cast<int64_t>(addr))}, addr);
    img.text.insert(img.text.end(), stub.begin(), stub.end());
    for (size_t i = stub.size(); i < kPltStubSize; ++i) {
      img.text.push_back(0x90);
    }
    img.symbols.push_back({name + "@plt", addr, kPltStubSize, true});
  }

  img.debug = bin.debug;
  return img;
}

bool Image::stripped() const {
  if (debug.has_value()) return false;
  for (const Symbol& s : symbols) {
    if (!s.isImport) return false;
  }
  return true;
}

void strip(Image& img) {
  std::erase_if(img.symbols, [](const Symbol& s) { return !s.isImport; });
  img.debug.reset();
}

void write(const Image& img, std::ostream& os) {
  io::writeChecksummed(os, kMagic, kVersion, [&](std::ostream& body) {
    io::Writer w(body);
    w.pod(img.baseAddr);
    w.vec(img.text);
    w.pod<uint64_t>(img.boundaries.size());
    for (const BoundaryEntry& b : img.boundaries) {
      w.pod(b.start);
      w.pod(b.end);
    }
    w.pod<uint64_t>(img.symbols.size());
    for (const Symbol& s : img.symbols) {
      w.str(s.name);
      w.pod(s.value);
      w.pod(s.size);
      w.pod(static_cast<uint8_t>(s.isImport ? 1 : 0));
    }
    w.pod(static_cast<uint8_t>(img.debug.has_value() ? 1 : 0));
    if (img.debug) debuginfo::encode(*img.debug, body);
  });
}

Image read(std::istream& is) {
  return io::readChecksummed(
      is, kMagic, kVersion, "image", [](std::istream& body) {
        io::Reader r(body);
        Image img;
        img.baseAddr = r.pod<uint64_t>();
        img.text = r.vec<uint8_t>();
        const auto nb = r.pod<uint64_t>();
        for (uint64_t i = 0; i < nb; ++i) {
          BoundaryEntry b;
          b.start = r.pod<uint64_t>();
          b.end = r.pod<uint64_t>();
          img.boundaries.push_back(b);
        }
        const auto ns = r.pod<uint64_t>();
        for (uint64_t i = 0; i < ns; ++i) {
          Symbol s;
          s.name = r.str();
          s.value = r.pod<uint64_t>();
          s.size = r.pod<uint64_t>();
          s.isImport = r.pod<uint8_t>() != 0;
          img.symbols.push_back(std::move(s));
        }
        if (r.pod<uint8_t>() != 0) img.debug = debuginfo::decode(body);
        return img;
      });
}

bool validate(const Image& img, DiagList& diags) {
  bool ok = true;
  const auto error = [&](uint64_t off, std::string msg) {
    addDiag(&diags, Severity::Error, DiagStage::Loader, off, std::move(msg));
    ok = false;
  };
  const auto warn = [&](uint64_t off, std::string msg) {
    addDiag(&diags, Severity::Warning, DiagStage::Loader, off,
            std::move(msg));
  };

  if (img.baseAddr + img.text.size() < img.baseAddr) {
    error(img.baseAddr, ".text wraps the address space");
    return false;  // every range check below would overflow the same way
  }
  const uint64_t textEnd = img.baseAddr + img.text.size();

  uint64_t prevEnd = 0;
  bool sorted = true;
  for (const BoundaryEntry& b : img.boundaries) {
    if (b.end < b.start) {
      error(b.start, "boundary with end before start");
      continue;
    }
    if (b.start < img.baseAddr || b.end > textEnd) {
      error(b.start, "boundary outside .text");
      continue;
    }
    if (b.start == b.end) warn(b.start, "empty function boundary");
    if (b.start < prevEnd) {
      if (sorted) warn(b.start, "boundaries overlap or are unsorted");
      sorted = false;
    }
    prevEnd = b.end;
  }
  for (const Symbol& s : img.symbols) {
    if (s.value < img.baseAddr || s.value > textEnd ||
        s.size > textEnd - s.value) {
      warn(s.value, "symbol '" + s.name + "' outside .text");
    }
  }
  return ok;
}

std::optional<Image> tryRead(std::istream& is, DiagList& diags) {
  // The strict reader concentrates all bounds/size/CRC checking; here any
  // of its failures (plus allocation failures from hostile length fields
  // that pass the coarse guards) become diagnostics instead of exceptions.
  try {
    Image img = read(is);
    validate(img, diags);
    return img;
  } catch (const std::exception& e) {
    addDiag(&diags, Severity::Error, DiagStage::Loader, 0, e.what());
    return std::nullopt;
  }
}

std::optional<Image> readFile(const std::filesystem::path& p,
                              DiagList& diags) {
  std::ifstream is(p, std::ios::binary);
  if (!is) {
    addDiag(&diags, Severity::Error, DiagStage::Loader, 0,
            "cannot open " + p.string());
    return std::nullopt;
  }
  return tryRead(is, diags);
}

namespace {

/// Shared disassembly walk. `diags == nullptr` selects strict mode (throw
/// on a bad boundary / undecodable bytes); otherwise errors are reported
/// and recovered from. Boundaries decode in parallel into per-boundary
/// slots and local DiagLists; the serial merge below walks boundaries in
/// table order, so both the function list and the diagnostic order are
/// exactly what the serial walk produced.
std::vector<LoadedFunction> disassembleImpl(const Image& img, DiagList* diags,
                                            par::ThreadPool* pool,
                                            DecodeCache* cache = nullptr) {
  static obs::Histogram& disasmNs = obs::timer("loader.disassemble_ns");
  const obs::ScopedTimer timing(disasmNs);
  // Address -> symbol for call re-attachment and function naming.
  std::map<uint64_t, const Symbol*> byAddr;
  for (const Symbol& s : img.symbols) byAddr[s.value] = &s;

  struct BoundaryOut {
    std::optional<LoadedFunction> fn;
    DiagList diags;
    bool cacheHit = false;
    std::shared_ptr<const DecodeCache::Entry> newEntry;  // miss: to insert
  };
  // The cache stores recovering-mode decode output only; strict mode
  // (diags == nullptr) has different failure semantics, so it bypasses the
  // cache entirely.
  DecodeCache* const useCache = diags != nullptr ? cache : nullptr;
  // Symbol-table fingerprint: cached streams are symbolized, so the key
  // must distinguish e.g. the stripped and unstripped forms of one binary.
  uint64_t symSalt = 0;
  if (useCache) {
    for (const Symbol& s : img.symbols) {
      symSalt = io::crc32(s.name.data(), s.name.size(),
                          static_cast<uint32_t>(symSalt));
      symSalt = io::crc32(&s.value, sizeof s.value,
                          static_cast<uint32_t>(symSalt));
    }
  }
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  std::vector<BoundaryOut> parts = par::parallelMap<BoundaryOut>(
      tp, img.boundaries.size(), 4, [&](size_t i) {
        const BoundaryEntry& b = img.boundaries[i];
        BoundaryOut part;
        if (b.start < img.baseAddr ||
            b.start > img.baseAddr + img.text.size() ||
            b.end > img.baseAddr + img.text.size() || b.end < b.start) {
          if (diags == nullptr) {
            throw std::runtime_error("disassemble: boundary outside .text");
          }
          addDiag(&part.diags, Severity::Error, DiagStage::Loader, b.start,
                  "skipping function with boundary outside .text");
          return part;
        }
        LoadedFunction fn;
        fn.addr = b.start;
        const auto it = byAddr.find(b.start);
        if (it != byAddr.end()) {
          fn.name = it->second->name;
        } else {
          std::ostringstream name;
          name << "fun_" << std::hex << b.start;
          fn.name = name.str();
        }
        const std::span<const uint8_t> body(
            img.text.data() + (b.start - img.baseAddr), b.end - b.start);
        std::shared_ptr<const DecodeCache::Entry> hit;
        if (useCache) hit = useCache->find(b.start, symSalt, body);
        if (hit) {
          // Replay: the key covers the symbol table, so the cached stream
          // is already symbolized for it — copy insns/addrs/decode diags
          // and share the graph; no decode, no relowering.
          part.cacheHit = true;
          fn.insns = hit->insns;
          fn.insnAddrs = hit->insnAddrs;
          fn.graph = hit->graph;
          part.diags = hit->decodeDiags;
        } else {
          fn.insns = diags == nullptr
                         ? asmx::decodeAll(body, b.start, &fn.insnAddrs)
                         : asmx::decodeAllRecover(body, b.start, &part.diags,
                                                  &fn.insnAddrs);
          // Symbolize call targets where the symbol table allows, *before*
          // lowering: the graph interns callee names for the dataflow layer.
          for (asmx::Instruction& ins : fn.insns) {
            if (!asmx::isCall(ins)) continue;
            const auto sym =
                byAddr.find(static_cast<uint64_t>(ins.ops[0].imm));
            if (sym != byAddr.end()) {
              ins.ops[1] = asmx::Operand::func(sym->second->name);
            }
          }
          fn.graph = std::make_shared<ir::FunctionGraph>(
              ir::lower(fn.insns, fn.insnAddrs));
          if (useCache) {
            auto entry = std::make_shared<DecodeCache::Entry>();
            entry->insns = fn.insns;
            entry->insnAddrs = fn.insnAddrs;
            entry->decodeDiags = part.diags;
            entry->graph = fn.graph;
            part.newEntry = std::move(entry);
          }
        }
        part.fn = std::move(fn);
        return part;
      });

  std::vector<LoadedFunction> out;
  out.reserve(parts.size());
  // Metrics are tallied in this serial boundary-order merge, never in the
  // parallel map above, so the counts are trivially jobs-invariant.
  uint64_t bytesDecoded = 0;
  uint64_t quarantined = 0;
  uint64_t skipped = 0;
  uint64_t cacheHits = 0;
  uint64_t cacheMisses = 0;
  uint64_t cacheEvictions = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    BoundaryOut& part = parts[i];
    // LRU mutations happen only here, in boundary-table order, so cache
    // evolution is identical at any job count (see cache.h contract).
    if (useCache && part.fn) {
      const BoundaryEntry& b = img.boundaries[i];
      const std::span<const uint8_t> body(
          img.text.data() + (b.start - img.baseAddr), b.end - b.start);
      if (part.cacheHit) {
        ++cacheHits;
        useCache->promote(b.start, symSalt, body);
      } else if (part.newEntry) {
        ++cacheMisses;
        cacheEvictions +=
            useCache->insert(b.start, symSalt, body, std::move(part.newEntry));
      }
    }
    if (obs::enabled()) {
      if (part.fn) {
        const BoundaryEntry& b = img.boundaries[i];
        bytesDecoded += b.end - b.start;
      }
      for (const Diag& d : part.diags) {
        // decodeAllRecover emits one Decoder-stage warning per maximal
        // quarantined `.byte` run; a Loader-stage error is a dropped boundary.
        if (d.stage == DiagStage::Decoder && d.severity == Severity::Warning) {
          ++quarantined;
        } else if (d.stage == DiagStage::Loader &&
                   d.severity == Severity::Error) {
          ++skipped;
        }
      }
    }
    if (diags != nullptr) {
      diags->insert(diags->end(),
                    std::make_move_iterator(part.diags.begin()),
                    std::make_move_iterator(part.diags.end()));
    }
    if (part.fn) out.push_back(std::move(*part.fn));
  }
  if (obs::enabled()) {
    obs::counter("loader.functions").add(out.size());
    obs::counter("loader.bytes_decoded").add(bytesDecoded);
    obs::counter("loader.quarantined_byte_runs").add(quarantined);
    obs::counter("loader.boundaries_skipped").add(skipped);
    if (useCache) {
      obs::counter("loader.cache.hits").add(cacheHits);
      obs::counter("loader.cache.misses").add(cacheMisses);
      obs::counter("loader.cache.evictions").add(cacheEvictions);
    }
  }
  return out;
}

}  // namespace

std::vector<LoadedFunction> disassemble(const Image& img) {
  return disassembleImpl(img, nullptr, nullptr);
}

std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags) {
  return disassembleImpl(img, &diags, nullptr);
}

std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags,
                                        par::ThreadPool& pool) {
  return disassembleImpl(img, &diags, &pool);
}

std::vector<LoadedFunction> disassemble(const Image& img, DiagList& diags,
                                        par::ThreadPool& pool,
                                        DecodeCache& cache) {
  return disassembleImpl(img, &diags, &pool, &cache);
}

}  // namespace cati::loader
