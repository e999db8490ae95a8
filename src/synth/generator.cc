// Function/binary assembly: variable creation, frame layout, codelet
// scheduling (with optimization-level-dependent interleaving of independent
// codelets), prologue/epilogue idioms and the DWARF-like companion module.
#include <algorithm>
#include <cassert>
#include <optional>

#include "common/parallel.h"
#include "synth/emitter.h"
#include "synth/synth.h"

namespace cati::synth {

using detail::CodeletStream;
using detail::Emitter;

std::string_view dialectName(Dialect d) {
  return d == Dialect::Gcc ? "gcc" : "clang";
}

size_t Binary::totalInstructions() const {
  size_t n = 0;
  for (const auto& f : funcs) n += f.insns.size();
  return n;
}

namespace {

uint32_t sizeOf(TypeLabel label, Rng& rng) {
  switch (label) {
    case TypeLabel::Struct:
      return static_cast<uint32_t>(8 * rng.uniformInt(2, 10));
    case TypeLabel::LongDouble:
      return 16;
    default:
      return static_cast<uint32_t>(detail::widthOf(label));
  }
}

/// How many codelets a variable receives. Tuned so that, with codelets
/// tagging 1-2 instructions each, ~35% of variables end up with 1-2 target
/// instructions (the paper's orphan-variable rate, Table I) and the rest
/// form a long tail. Higher optimization keeps more values in registers,
/// shrinking counts toward the orphan end.
int drawUseCount(Rng& rng, int optLevel) {
  const double r = rng.uniform();
  const double shift = 0.04 * optLevel;
  if (r < 0.08 + shift) return 1;
  if (r < 0.40 + shift) return 2;
  if (r < 0.72) return 3;
  if (r < 0.90) return 4;
  return static_cast<int>(rng.uniformInt(5, 7));
}

/// Riffle-merges two codelet streams uniformly at random, preserving the
/// internal order of each. Only called when the register sets are disjoint,
/// so local data flow inside each codelet is untouched.
CodeletStream riffle(Rng& rng, CodeletStream a, CodeletStream b) {
  CodeletStream out;
  out.regs = a.regs;
  out.regs.insert(b.regs.begin(), b.regs.end());
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool takeA =
        j >= b.size() ||
        (i < a.size() &&
         rng.uniform() < static_cast<double>(a.size() - i) /
                             static_cast<double>(a.size() - i + b.size() - j));
    if (takeA) {
      out.insns.push_back(std::move(a.insns[i]));
      out.varOfInsn.push_back(a.varOfInsn[i]);
      ++i;
    } else {
      out.insns.push_back(std::move(b.insns[j]));
      out.varOfInsn.push_back(b.varOfInsn[j]);
      ++j;
    }
  }
  return out;
}

bool regsDisjoint(const CodeletStream& a, const CodeletStream& b) {
  for (const auto r : a.regs) {
    if (b.regs.contains(r)) return false;
  }
  return true;
}

double interleaveProb(int optLevel) {
  switch (optLevel) {
    case 0:
      return 0.0;
    case 1:
      return 0.15;
    case 2:
      return 0.35;
    default:
      return 0.5;
  }
}

FunctionCode generateFunction(const std::string& name, Dialect dialect,
                              int optLevel,
                              std::span<const double> typeWeights, Rng& rng) {
  FunctionCode fn;
  fn.name = name;
  fn.rbpFrame = optLevel == 0 ||
                (dialect == Dialect::Clang && rng.chance(0.4));

  // --- create variables and lay out the frame ---
  const int nVars = static_cast<int>(rng.uniformInt(3, 12));
  int64_t offset = fn.rbpFrame ? 0 : 8;  // rsp frames leave slot 0 for spills
  for (int i = 0; i < nVars; ++i) {
    Variable v;
    v.label = static_cast<TypeLabel>(rng.weightedIndex(typeWeights));
    v.byteSize = sizeOf(v.label, rng);
    v.name = std::string("v").append(std::to_string(i));
    const int64_t align = std::min<int64_t>(8, v.byteSize);
    if (fn.rbpFrame) {
      offset += v.byteSize;
      offset = (offset + align - 1) / align * align;
      v.frameOffset = -offset;
    } else {
      offset = (offset + align - 1) / align * align;
      v.frameOffset = offset;
      offset += v.byteSize;
    }
    fn.vars.push_back(std::move(v));
  }
  fn.frameSize = (std::abs(offset) + 15) / 16 * 16 + 16;

  // --- schedule codelets ---
  struct Use {
    int32_t var;
    int useIdx;
  };
  std::vector<Use> uses;
  for (int32_t v = 0; v < nVars; ++v) {
    const int n = drawUseCount(rng, optLevel);
    for (int u = 0; u < n; ++u) uses.push_back({v, u});
  }
  // Shuffle, then restore per-variable use order (so init comes first) with
  // a stable re-numbering pass.
  rng.shuffle(uses);
  {
    std::vector<int> seen(static_cast<size_t>(nVars), 0);
    for (auto& u : uses) u.useIdx = seen[static_cast<size_t>(u.var)]++;
  }

  Emitter em(dialect, optLevel, rng, fn);
  std::vector<CodeletStream> streams;
  for (const Use& u : uses) {
    // Helper variable: another variable, biased toward the same family —
    // real code clusters same-typed work (struct memcpy partners, int-int
    // arithmetic), which is the phenomenon CATI exploits (paper §II-B).
    int32_t helper = -1;
    if (nVars > 1) {
      const Family want = familyOf(fn.vars[static_cast<size_t>(u.var)].label);
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto h = static_cast<int32_t>(rng.uniformInt(0, nVars - 1));
        if (h == u.var) continue;
        if (helper < 0) helper = h;
        if (familyOf(fn.vars[static_cast<size_t>(h)].label) == want) {
          helper = h;
          break;
        }
      }
    }
    streams.push_back(detail::makeCodelet(em, u.var, u.useIdx, helper));
    if (rng.chance(0.35)) streams.push_back(detail::makeNoiseCodelet(em));
  }

  // --- interleave neighbouring independent codelets (O1+) ---
  const double p = interleaveProb(optLevel);
  std::vector<CodeletStream> merged;
  for (auto& s : streams) {
    if (!merged.empty() && rng.chance(p) && regsDisjoint(merged.back(), s)) {
      merged.back() = riffle(rng, std::move(merged.back()), std::move(s));
    } else {
      merged.push_back(std::move(s));
    }
  }

  // --- prologue ---
  using asmx::Instruction;
  using asmx::Operand;
  using asmx::Reg;
  using asmx::Width;
  const auto emit = [&fn](Instruction i, int32_t var = -1) {
    fn.insns.push_back(std::move(i));
    fn.varOfInsn.push_back(var);
  };
  if (fn.rbpFrame) {
    emit({"push", Operand::r(Reg::Rbp, Width::B8)});
    emit({"mov", Operand::r(Reg::Rsp, Width::B8),
          Operand::r(Reg::Rbp, Width::B8)});
  }
  if (optLevel >= 1 && rng.chance(0.5)) {
    // Callee-saved spills.
    const int n = static_cast<int>(rng.uniformInt(1, 3));
    static constexpr Reg kCalleeSaved[] = {Reg::Rbx, Reg::R12, Reg::R13,
                                           Reg::R14, Reg::R15};
    for (int i = 0; i < n; ++i) {
      emit({"push", Operand::r(kCalleeSaved[i], Width::B8)});
    }
  }
  emit({"sub", Operand::i(fn.frameSize), Operand::r(Reg::Rsp, Width::B8)});

  // --- body ---
  for (auto& s : merged) {
    for (size_t i = 0; i < s.insns.size(); ++i) {
      emit(std::move(s.insns[i]), s.varOfInsn[i]);
    }
  }

  // --- epilogue: the return-value zeroing idiom identifies the dialect ---
  if (dialect == Dialect::Gcc) {
    emit({"mov", Operand::i(0), Operand::r(Reg::Rax, Width::B4)});
  } else {
    emit({"xor", Operand::r(Reg::Rax, Width::B4),
          Operand::r(Reg::Rax, Width::B4)});
  }
  if (fn.rbpFrame) {
    emit(Instruction("leave"));
  } else {
    emit({"add", Operand::i(fn.frameSize), Operand::r(Reg::Rsp, Width::B8)});
  }
  emit(Instruction(dialect == Dialect::Gcc ? "ret" : "retq"));

  assert(fn.insns.size() == fn.varOfInsn.size());
  return fn;
}

}  // namespace

std::array<double, kNumTypes> baseTypeWeights() {
  // Shaped after the supports in the paper's Table V (int and struct*
  // dominate; short/long-long/float are rare).
  std::array<double, kNumTypes> w{};
  w[static_cast<int>(TypeLabel::Bool)] = 14;
  w[static_cast<int>(TypeLabel::Struct)] = 69;
  w[static_cast<int>(TypeLabel::Char)] = 27;
  w[static_cast<int>(TypeLabel::UChar)] = 4;
  w[static_cast<int>(TypeLabel::Float)] = 0.5;
  w[static_cast<int>(TypeLabel::Double)] = 30;
  w[static_cast<int>(TypeLabel::LongDouble)] = 1.5;
  w[static_cast<int>(TypeLabel::Enum)] = 26;
  w[static_cast<int>(TypeLabel::Int)] = 386;
  w[static_cast<int>(TypeLabel::ShortInt)] = 0.5;
  w[static_cast<int>(TypeLabel::LongInt)] = 50;
  w[static_cast<int>(TypeLabel::LongLongInt)] = 0.3;
  w[static_cast<int>(TypeLabel::UInt)] = 18;
  w[static_cast<int>(TypeLabel::UShortInt)] = 0.7;
  w[static_cast<int>(TypeLabel::ULongInt)] = 62;
  w[static_cast<int>(TypeLabel::ULongLongInt)] = 0.3;
  w[static_cast<int>(TypeLabel::VoidPtr)] = 28;
  w[static_cast<int>(TypeLabel::StructPtr)] = 369;
  w[static_cast<int>(TypeLabel::ArithPtr)] = 60;
  return w;
}

AppProfile defaultProfile(std::string name, uint64_t seed, int numFunctions) {
  AppProfile p;
  p.name = std::move(name);
  p.seed = seed;
  p.numFunctions = numFunctions;
  p.typeWeights = baseTypeWeights();
  return p;
}

std::vector<AppProfile> paperTestApps(int scale) {
  const auto scaled = [scale](int n) { return std::max(4, n * scale); };
  std::vector<AppProfile> apps;
  const auto mul = [](AppProfile& p, TypeLabel t, double f) {
    p.typeWeights[static_cast<int>(t)] *= f;
  };
  const auto noFloats = [&mul](AppProfile& p) {
    mul(p, TypeLabel::Float, 0);
    mul(p, TypeLabel::Double, 0);
    mul(p, TypeLabel::LongDouble, 0);
  };

  // Sizes roughly track the paper's Table VI supports (R >> inetutils >
  // bash > gawk > wget > grep/nano/bison > sed > cflow > less > gzip).
  auto bash = defaultProfile("bash", 0xba54, scaled(42));
  mul(bash, TypeLabel::StructPtr, 1.3);
  mul(bash, TypeLabel::Char, 1.5);
  mul(bash, TypeLabel::Float, 0.05);  // paper: bash has 1 float variable

  auto bison = defaultProfile("bison", 0xb150, scaled(14));
  mul(bison, TypeLabel::Enum, 2.0);
  mul(bison, TypeLabel::Struct, 1.3);

  auto cflow = defaultProfile("cflow", 0xcf10, scaled(6));
  mul(cflow, TypeLabel::StructPtr, 1.4);

  auto gawk = defaultProfile("gawk", 0x9a3c, scaled(28));
  mul(gawk, TypeLabel::Double, 1.5);  // awk numbers are doubles
  mul(gawk, TypeLabel::Char, 1.3);

  auto grep = defaultProfile("grep", 0x93e4, scaled(12));
  mul(grep, TypeLabel::Char, 1.8);
  mul(grep, TypeLabel::ULongInt, 1.4);

  auto gzip = defaultProfile("gzip", 0x971b, scaled(4));
  noFloats(gzip);
  mul(gzip, TypeLabel::UInt, 2.2);
  mul(gzip, TypeLabel::UChar, 2.5);

  auto inet = defaultProfile("inetutils", 0x13e7, scaled(70));
  mul(inet, TypeLabel::StructPtr, 1.5);
  mul(inet, TypeLabel::Int, 1.3);
  mul(inet, TypeLabel::UShortInt, 3.0);  // ports

  auto less = defaultProfile("less", 0x1e55, scaled(6));
  mul(less, TypeLabel::Bool, 2.0);
  mul(less, TypeLabel::Int, 1.3);

  auto nano = defaultProfile("nano", 0x0a70, scaled(12));
  noFloats(nano);
  mul(nano, TypeLabel::Bool, 2.2);
  mul(nano, TypeLabel::StructPtr, 1.2);

  auto r = defaultProfile("R", 0xa452, scaled(160));
  mul(r, TypeLabel::Double, 4.0);
  mul(r, TypeLabel::Float, 12.0);
  mul(r, TypeLabel::StructPtr, 1.2);

  auto sed = defaultProfile("sed", 0x5ed0, scaled(5));
  noFloats(sed);
  mul(sed, TypeLabel::Char, 1.6);

  auto wget = defaultProfile("wget", 0x3137, scaled(22));
  mul(wget, TypeLabel::StructPtr, 1.2);
  mul(wget, TypeLabel::LongInt, 1.4);

  apps = {bash, bison, cflow, gawk, grep,  gzip,
          inet, less,  nano,  r,    sed,   wget};
  return apps;
}

Binary generateBinary(const AppProfile& profile, Dialect dialect, int optLevel,
                      uint64_t seed, par::ThreadPool* pool) {
  Rng rng(seed ^ profile.seed * 0x9e3779b97f4a7c15ULL);
  Binary bin;
  bin.name = profile.name;
  bin.dialect = dialect;
  bin.optLevel = optLevel;
  bin.seed = seed;
  bin.debug.producer = std::string("synthcc (") +
                       std::string(dialectName(dialect)) + ") -O" +
                       std::to_string(optLevel);

  // Per-function seeds are forked serially up front — the same fork()
  // sequence the serial loop drew — so the output bytes are identical at
  // any job count (and to the historical serial generator). Each function
  // then draws only from its private Rng; the Rng is carried into the
  // serial DIE pass below because typedef wrapping continues drawing from
  // it while mutating the shared debug module.
  std::vector<uint64_t> fnSeeds(static_cast<size_t>(profile.numFunctions));
  for (uint64_t& s : fnSeeds) s = rng.fork();

  struct FnOut {
    FunctionCode fn;
    std::optional<Rng> rng;
  };
  par::ThreadPool inlinePool(1);
  par::ThreadPool& p = pool ? *pool : inlinePool;
  std::vector<FnOut> outs = par::parallelMap<FnOut>(
      p, fnSeeds.size(), 1, [&](size_t f) {
        Rng fnRng(fnSeeds[f]);
        FnOut out;
        out.fn = generateFunction(profile.name + "_fn" + std::to_string(f),
                                  dialect, optLevel, profile.typeWeights,
                                  fnRng);
        out.rng = fnRng;
        return out;
      });

  uint64_t pc = 0;
  for (FnOut& out : outs) {
    FunctionCode fn = std::move(out.fn);
    Rng fnRng = *out.rng;

    debuginfo::FunctionDie die;
    die.name = fn.name;
    die.lowPc = pc;
    die.highPc = pc + fn.insns.size();
    for (const Variable& v : fn.vars) {
      debuginfo::VariableDie vd;
      vd.name = v.name;
      vd.frameOffset = v.frameOffset;
      // A fraction of labels arrive via typedef chains, exercising the
      // recursive resolution path of §IV-A.
      int32_t ty = debuginfo::makeTypeFor(bin.debug, v.label);
      if (fnRng.chance(0.15)) {
        debuginfo::TypeDie td;
        td.kind = debuginfo::TypeKind::Typedef;
        td.name = v.name + "_t";
        td.refType = ty;
        ty = bin.debug.addType(std::move(td));
      }
      vd.typeIndex = ty;
      die.variables.push_back(std::move(vd));
    }
    bin.debug.functions.push_back(std::move(die));
    pc += fn.insns.size();
    bin.funcs.push_back(std::move(fn));
  }
  return bin;
}

std::vector<CorpusJob> corpusPlan(int numApps, int funcsPerApp,
                                  uint64_t seed) {
  // Draw every profile and per-binary seed serially, in the exact order the
  // historical serial loop drew them; per-binary generation is a pure
  // function of one plan entry, so any consumer — the parallel fan-out
  // below or a one-binary-at-a-time shard writer — reproduces the same
  // corpus from the same plan.
  std::vector<CorpusJob> jobs;
  jobs.reserve(static_cast<size_t>(numApps) * 4);
  Rng rng(seed);
  for (int a = 0; a < numApps; ++a) {
    AppProfile p = defaultProfile("train_app" + std::to_string(a), rng.fork(),
                                  funcsPerApp);
    // Mild per-app type-mix perturbation so training apps differ the way
    // real projects do.
    for (double& w : p.typeWeights) w *= rng.uniform(0.5, 1.8);
    for (int opt = 0; opt <= 3; ++opt) {
      jobs.push_back({p, opt, rng.fork()});
    }
  }
  return jobs;
}

std::vector<Binary> generateCorpus(int numApps, int funcsPerApp,
                                   Dialect dialect, uint64_t seed,
                                   par::ThreadPool* pool) {
  const std::vector<CorpusJob> jobs = corpusPlan(numApps, funcsPerApp, seed);
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  // Binaries land at fixed indices, so corpus order — and hence every
  // downstream id remap in Dataset::append — is jobs-invariant.
  // Parallelism is per binary here; generateBinary must not re-enter the
  // pool (ThreadPool::run is not reentrant), so it gets no pool.
  return par::parallelMap<Binary>(tp, jobs.size(), 1, [&](size_t i) {
    const CorpusJob& j = jobs[i];
    return generateBinary(j.profile, dialect, j.opt, j.seed);
  });
}

}  // namespace cati::synth
