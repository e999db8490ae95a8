#include "corpus/corpus.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/obs.h"
#include "common/serialize.h"

namespace cati::corpus {

using asmx::Instruction;
using asmx::Operand;

std::string generalizeOperand(const Operand& op) {
  switch (op.kind) {
    case Operand::Kind::None:
      return kBlank;
    case Operand::Kind::Imm:
      return kImm;
    case Operand::Kind::Addr:
      return kAddr;
    case Operand::Kind::Func:
      return kFunc;
    case Operand::Kind::Reg:
      return '%' + asmx::regName(op.reg);
    case Operand::Kind::Mem: {
      // Displacement -> IMM; base/index/scale preserved (scale factors
      // relate to element width, §IV-B).
      std::string out;
      if (op.mem.disp != 0) out += "IMM";
      if (op.mem.base.reg != asmx::Reg::None ||
          op.mem.index.reg != asmx::Reg::None) {
        out += '(';
        if (op.mem.base.reg != asmx::Reg::None) {
          out += '%' + asmx::regName(op.mem.base);
        }
        if (op.mem.index.reg != asmx::Reg::None) {
          out += ",%" + asmx::regName(op.mem.index) + ',' +
                 std::to_string(op.mem.scale);
        }
        out += ')';
      }
      return out.empty() ? "IMM" : out;
    }
  }
  return kBlank;
}

GenInstr generalize(const Instruction& ins) {
  GenInstr g;
  g.mnem = ins.mnem;
  g.op1 = generalizeOperand(ins.ops[0]);
  g.op2 = generalizeOperand(ins.ops[1]);
  return g;
}

std::vector<GenInstr> generalizeAll(std::span<const Instruction> insns) {
  std::vector<GenInstr> gen(insns.size());
  for (size_t i = 0; i < insns.size(); ++i) gen[i] = generalize(insns[i]);
  return gen;
}

void Dataset::append(Dataset other) {
  if (other.window != window) {
    throw std::invalid_argument("Dataset::append: window mismatch");
  }
  const auto varBase = static_cast<uint32_t>(vars.size());
  const auto appBase = static_cast<uint32_t>(appNames.size());
  appNames.reserve(appNames.size() + other.appNames.size());
  vars.reserve(vars.size() + other.vars.size());
  appNames.insert(appNames.end(),
                  std::make_move_iterator(other.appNames.begin()),
                  std::make_move_iterator(other.appNames.end()));
  for (VarInfo& v : other.vars) {
    v.appId += appBase;
    vars.push_back(v);
  }
  vucs.reserve(vucs.size() + other.vucs.size());
  for (Vuc& v : other.vucs) {
    v.varId += varBase;
    vucs.push_back(std::move(v));
  }
}

std::vector<std::vector<uint32_t>> Dataset::vucsByVar() const {
  std::vector<std::vector<uint32_t>> out(vars.size());
  // numVucs is exact after countVucsPerVar; pre-sizing each bucket turns
  // the fill into append-only pushes with zero reallocation churn.
  for (size_t v = 0; v < vars.size(); ++v) out[v].reserve(vars[v].numVucs);
  for (uint32_t i = 0; i < vucs.size(); ++i) {
    out[vucs[i].varId].push_back(i);
  }
  return out;
}

namespace {

/// Builds the VUCs of one function from (instruction -> variable) tags.
/// `labels` gives each local variable's type (kCount allowed = unlabeled).
void extractFunction(std::span<const GenInstr> gen,
                     std::span<const int32_t> varOfInsn,
                     std::span<const TypeLabel> labels, uint32_t varBase,
                     int w, uint32_t appId, Dataset& out) {
  const auto n = static_cast<int>(gen.size());
  for (int i = 0; i < n; ++i) {
    const int32_t var = varOfInsn[static_cast<size_t>(i)];
    if (var < 0) continue;
    Vuc v;
    v.varId = varBase + static_cast<uint32_t>(var);
    v.label = labels[static_cast<size_t>(var)];
    v.window.resize(static_cast<size_t>(2 * w + 1));
    v.posLabel.assign(static_cast<size_t>(2 * w + 1), -1);
    for (int k = -w; k <= w; ++k) {
      const int j = i + k;
      const auto pos = static_cast<size_t>(k + w);
      if (j < 0 || j >= n) continue;  // function border: stays BLANK
      v.window[pos] = gen[static_cast<size_t>(j)];
      const int32_t pv = varOfInsn[static_cast<size_t>(j)];
      if (pv >= 0 && labels[static_cast<size_t>(pv)] != TypeLabel::kCount) {
        v.posLabel[pos] = static_cast<int8_t>(labels[static_cast<size_t>(pv)]);
      }
    }
    out.vucs.push_back(std::move(v));
  }
  for (size_t var = 0; var < labels.size(); ++var) {
    VarInfo info;
    info.label = labels[var];
    info.appId = appId;
    out.vars.push_back(info);
  }
}

void countVucsPerVar(Dataset& ds) {
  for (auto& v : ds.vars) v.numVucs = 0;
  for (const Vuc& v : ds.vucs) ++ds.vars[v.varId].numVucs;
  if (!obs::enabled()) return;
  // Every extract path funnels through here exactly once per variable
  // (extractAll appends parts without recounting), so these tallies are
  // dataset-wide and jobs-invariant. "Orphan" uses the paper's 1–2-VUC
  // definition (§III-B; the ~35% claim becomes an observable).
  static obs::Counter& vars = obs::counter("corpus.vars");
  static obs::Counter& vucs = obs::counter("corpus.vucs");
  static obs::Counter& orphans = obs::counter("corpus.orphan_vars");
  static obs::Histogram& perVar = obs::histogram("corpus.vucs_per_var");
  vars.add(ds.vars.size());
  vucs.add(ds.vucs.size());
  for (const VarInfo& v : ds.vars) {
    if (v.numVucs >= 1 && v.numVucs <= 2) orphans.add();
    perVar.observe(static_cast<double>(v.numVucs));
  }
}

}  // namespace

Dataset extractGroundTruth(const synth::Binary& bin, int window) {
  Dataset ds;
  ds.window = window;
  ds.appNames.push_back(bin.name);
  for (size_t f = 0; f < bin.funcs.size(); ++f) {
    const synth::FunctionCode& fn = bin.funcs[f];
    std::vector<TypeLabel> labels(fn.vars.size());
    // Labels come from the debug-info DIEs (typedefs resolved), exactly as
    // the paper pairs IDA's variables with DWARF types.
    const debuginfo::FunctionDie& die = bin.debug.functions[f];
    for (size_t v = 0; v < fn.vars.size(); ++v) {
      const auto cls = debuginfo::classify(bin.debug, die.variables[v].typeIndex);
      labels[v] = cls.value_or(TypeLabel::kCount);
    }
    extractFunction(generalizeAll(fn.insns), fn.varOfInsn,
                    labels, static_cast<uint32_t>(ds.vars.size()), window,
                    /*appId=*/0, ds);
  }
  countVucsPerVar(ds);
  return ds;
}

Dataset extractRecovered(const synth::Binary& bin, int window) {
  Dataset ds;
  ds.window = window;
  ds.appNames.push_back(bin.name);
  for (size_t f = 0; f < bin.funcs.size(); ++f) {
    const synth::FunctionCode& fn = bin.funcs[f];
    const dataflow::RecoveryResult rec = dataflow::recoverVariables(fn.insns);

    // Ground-truth slot -> label map for scoring (kCount if unknown slot).
    std::unordered_map<int64_t, TypeLabel> slotLabel;
    const debuginfo::FunctionDie& die = bin.debug.functions[f];
    for (size_t v = 0; v < fn.vars.size(); ++v) {
      const auto cls =
          debuginfo::classify(bin.debug, die.variables[v].typeIndex);
      slotLabel[fn.vars[v].frameOffset] = cls.value_or(TypeLabel::kCount);
    }

    // Synthesize a varOfInsn map from the recovery and extract as usual.
    std::vector<int32_t> varOfInsn(fn.insns.size(), -1);
    std::vector<TypeLabel> labels;
    for (const dataflow::RecoveredVariable& rv : rec.vars) {
      const auto id = static_cast<int32_t>(labels.size());
      const auto it = slotLabel.find(rv.offset);
      labels.push_back(it == slotLabel.end() ? TypeLabel::kCount : it->second);
      for (const uint32_t idx : rv.targetInsns) varOfInsn[idx] = id;
    }
    extractFunction(generalizeAll(fn.insns), varOfInsn, labels,
                    static_cast<uint32_t>(ds.vars.size()), window,
                    /*appId=*/0, ds);
  }
  countVucsPerVar(ds);
  return ds;
}

Dataset extractFromFunction(std::span<const GenInstr> gen,
                            std::span<const int32_t> varOfInsn,
                            std::span<const TypeLabel> labels, int window) {
  Dataset ds;
  ds.window = window;
  ds.appNames.emplace_back("function");
  extractFunction(gen, varOfInsn, labels, 0, window, 0, ds);
  countVucsPerVar(ds);
  return ds;
}

Dataset extractAll(const std::vector<synth::Binary>& bins, int window,
                   bool groundTruth, par::ThreadPool* pool) {
  static obs::Histogram& extractNs = obs::timer("corpus.extract_ns");
  const obs::ScopedTimer timing(extractNs);
  // Per-binary extraction is pure; datasets land at fixed indices and are
  // appended in binary order, so var/app id remapping is jobs-invariant.
  par::ThreadPool inlinePool(1);
  par::ThreadPool& tp = pool ? *pool : inlinePool;
  std::vector<Dataset> parts =
      par::parallelMap<Dataset>(tp, bins.size(), 1, [&](size_t i) {
        return groundTruth ? extractGroundTruth(bins[i], window)
                           : extractRecovered(bins[i], window);
      });
  Dataset all;
  all.window = window;
  for (Dataset& part : parts) all.append(std::move(part));
  return all;
}

namespace {

/// Key identifying a variable by the multiset of its generalized target
/// instructions (the paper compares variables by "the same instruction(s)").
std::string targetKey(const Dataset& ds,
                      const std::vector<uint32_t>& vucIdxs) {
  std::vector<std::string> texts;
  texts.reserve(vucIdxs.size());
  for (const uint32_t i : vucIdxs) texts.push_back(ds.vucs[i].target().text());
  std::sort(texts.begin(), texts.end());
  std::string key;
  for (auto& t : texts) {
    key += t;
    key += '\n';
  }
  return key;
}

}  // namespace

DatasetStats computeStats(const Dataset& ds) {
  DatasetStats st;
  st.numVars = ds.vars.size();
  st.numVucs = ds.vucs.size();

  const auto byVar = ds.vucsByVar();

  // Orphans + uncertainty, bucketed by VUC count (1 and 2).
  for (int bucket = 1; bucket <= 2; ++bucket) {
    // target-instruction key -> set of labels and member count
    std::unordered_map<std::string, std::pair<std::vector<TypeLabel>, size_t>>
        groups;
    for (size_t v = 0; v < byVar.size(); ++v) {
      if (static_cast<int>(byVar[v].size()) != bucket) continue;
      auto& g = groups[targetKey(ds, byVar[v])];
      g.first.push_back(ds.vars[v].label);
      ++g.second;
    }
    size_t total = 0;
    size_t uncertain = 0;
    for (const auto& [key, g] : groups) {
      total += g.second;
      const bool mixed =
          std::any_of(g.first.begin(), g.first.end(),
                      [&](TypeLabel l) { return l != g.first.front(); });
      if (mixed) uncertain += g.second;
    }
    if (bucket == 1) {
      st.varsWith1Vuc = total;
      st.uncertain1 = uncertain;
    } else {
      st.varsWith2Vucs = total;
      st.uncertain2 = uncertain;
    }
  }

  // Clustering survey.
  double sumSame = 0.0;
  double sumAll = 0.0;
  double sumRate = 0.0;
  size_t counted = 0;
  for (const Vuc& v : ds.vucs) {
    if (v.label == TypeLabel::kCount) continue;
    int same = 0;
    int all = 0;
    for (size_t k = 0; k < v.posLabel.size(); ++k) {
      if (static_cast<int>(k) == v.centre()) continue;
      if (v.posLabel[k] < 0) continue;
      ++all;
      if (v.posLabel[k] == static_cast<int8_t>(v.label)) ++same;
    }
    sumSame += same;
    sumAll += all;
    if (all > 0) {
      sumRate += static_cast<double>(same) / all;
      ++counted;
    }
  }
  if (!ds.vucs.empty()) {
    st.cntSame = sumSame / static_cast<double>(ds.vucs.size());
    st.cntAll = sumAll / static_cast<double>(ds.vucs.size());
  }
  if (counted > 0) st.clusterRate = sumRate / static_cast<double>(counted);
  return st;
}

std::array<TypeClusterStats, kNumTypes> perTypeClustering(const Dataset& ds) {
  std::array<TypeClusterStats, kNumTypes> out{};
  std::array<double, kNumTypes> sumRate{};
  std::array<size_t, kNumTypes> rateCount{};
  for (const Vuc& v : ds.vucs) {
    if (v.label == TypeLabel::kCount) continue;
    const auto t = static_cast<size_t>(v.label);
    int same = 0;
    int all = 0;
    for (size_t k = 0; k < v.posLabel.size(); ++k) {
      if (static_cast<int>(k) == v.centre()) continue;
      if (v.posLabel[k] < 0) continue;
      ++all;
      if (v.posLabel[k] == static_cast<int8_t>(v.label)) ++same;
    }
    out[t].cntSame += same;
    out[t].cntAll += all;
    ++out[t].support;
    if (all > 0) {
      sumRate[t] += static_cast<double>(same) / all;
      ++rateCount[t];
    }
  }
  for (size_t t = 0; t < kNumTypes; ++t) {
    if (out[t].support > 0) {
      out[t].cntSame /= static_cast<double>(out[t].support);
      out[t].cntAll /= static_cast<double>(out[t].support);
    }
    if (rateCount[t] > 0) {
      out[t].cRate = sumRate[t] / static_cast<double>(rateCount[t]);
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> findUncertainPairs(
    const Dataset& ds, size_t maxPairs) {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  // First labeled VUC seen per (target text, label); pair with a different
  // label on the same target text.
  std::unordered_map<std::string, std::vector<uint32_t>> byText;
  for (uint32_t i = 0; i < ds.vucs.size() && pairs.size() < maxPairs; ++i) {
    if (ds.vucs[i].label == TypeLabel::kCount) continue;
    auto& bucket = byText[ds.vucs[i].target().text()];
    for (const uint32_t j : bucket) {
      if (ds.vucs[j].label != ds.vucs[i].label) {
        pairs.emplace_back(j, i);
        break;
      }
    }
    if (bucket.size() < 8) bucket.push_back(i);
  }
  return pairs;
}

// v2: payload under a CRC32 trailer so a corrupt cache file is detected at
// load instead of training/evaluating on garbage VUCs.
void save(const Dataset& ds, std::ostream& os) {
  io::writeChecksummed(os, 0x43445354 /*"CDST"*/, 2, [&](std::ostream& body) {
    io::Writer w(body);
    w.pod<int32_t>(ds.window);
    w.pod<uint64_t>(ds.appNames.size());
    for (const auto& n : ds.appNames) w.str(n);
    w.pod<uint64_t>(ds.vars.size());
    for (const VarInfo& v : ds.vars) {
      w.pod(static_cast<uint8_t>(v.label));
      w.pod(v.appId);
      w.pod(v.numVucs);
    }
    w.pod<uint64_t>(ds.vucs.size());
    for (const Vuc& v : ds.vucs) {
      w.pod(static_cast<uint8_t>(v.label));
      w.pod(v.varId);
      w.vec(v.posLabel);
      w.pod<uint64_t>(v.window.size());
      for (const GenInstr& g : v.window) {
        w.str(g.mnem);
        w.str(g.op1);
        w.str(g.op2);
      }
    }
  });
}

namespace {
// A CRC-valid but hostile file can still claim absurd element counts;
// reject them before any allocation is sized from an untrusted field.
uint64_t checkedCount(uint64_t n, uint64_t max, const char* what) {
  if (n > max) {
    throw std::runtime_error(std::string("dataset: corrupt ") + what +
                             " count");
  }
  return n;
}
}  // namespace

Dataset load(std::istream& is) {
  return io::readChecksummed(
      is, 0x43445354, 2, "dataset", [](std::istream& body) {
        io::Reader r(body);
        Dataset ds;
        ds.window = r.pod<int32_t>();
        const auto nApps =
            checkedCount(r.pod<uint64_t>(), 1ULL << 24, "app");
        for (uint64_t i = 0; i < nApps; ++i) ds.appNames.push_back(r.str());
        const auto nVars =
            checkedCount(r.pod<uint64_t>(), 1ULL << 32, "variable");
        ds.vars.reserve(nVars);
        for (uint64_t i = 0; i < nVars; ++i) {
          VarInfo v;
          v.label = static_cast<TypeLabel>(r.pod<uint8_t>());
          v.appId = r.pod<uint32_t>();
          v.numVucs = r.pod<uint32_t>();
          ds.vars.push_back(v);
        }
        const auto nVucs =
            checkedCount(r.pod<uint64_t>(), 1ULL << 32, "VUC");
        ds.vucs.reserve(nVucs);
        for (uint64_t i = 0; i < nVucs; ++i) {
          Vuc v;
          v.label = static_cast<TypeLabel>(r.pod<uint8_t>());
          v.varId = r.pod<uint32_t>();
          v.posLabel = r.vec<int8_t>();
          const auto wlen =
              checkedCount(r.pod<uint64_t>(), 1ULL << 16, "window");
          v.window.resize(wlen);
          for (auto& g : v.window) {
            g.mnem = r.str();
            g.op1 = r.str();
            g.op2 = r.str();
          }
          ds.vucs.push_back(std::move(v));
        }
        return ds;
      });
}

}  // namespace cati::corpus
