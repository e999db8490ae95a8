// Reverse-engineering workbench example: take a stripped binary, run the
// full CATI pipeline, and print an annotated disassembly — every recovered
// variable's slot access is tagged with the inferred type, the way a
// decompiler plugin would present it (paper Fig. 2 / Fig. 3 views).
//
// Also demonstrates parsing external AT&T assembly text: the same
// annotation runs on a listing you paste in (here, an embedded objdump-style
// snippet), since the public API works on instruction streams, not on the
// generator's internal structures.
#include <cstdio>
#include <map>

#include "cati/engine.h"
#include "synth/synth.h"

namespace {

using namespace cati;

Engine trainSmallEngine() {
  const auto bins =
      synth::generateCorpus(/*numApps=*/6, /*funcsPerApp=*/14,
                            synth::Dialect::Gcc, /*seed=*/5);
  const corpus::Dataset train = corpus::extractAll(bins);
  EngineConfig cfg;
  cfg.epochs = 3;
  cfg.maxTrainPerStage = 6000;
  cfg.fcHidden = 64;
  std::printf("training engine on %zu VUCs "
              "(one-time, ~1 min on one core)...\n",
              train.vucs.size());
  Engine engine(cfg);
  engine.train(train);
  return engine;
}

std::string fmtConf(float v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

void annotate(Engine& engine, std::span<const asmx::Instruction> insns,
              const char* title) {
  const Engine::FunctionWork work =
      engine.prepareFunction(insns, dataflow::recoverVariables(insns));
  const auto vars =
      engine.finishFunction(work, engine.predictStream(work.stream));

  // instruction index -> annotation
  std::map<uint32_t, std::string> notes;
  for (const AnalyzedVariable& av : vars) {
    char loc[48];
    std::snprintf(loc, sizeof loc, "%s%+lld",
                  av.location.rbpFrame ? "rbp" : "rsp",
                  static_cast<long long>(av.location.offset));
    for (const uint32_t idx : av.location.targetInsns) {
      notes[idx] = std::string(typeName(av.type)) + "  [" + loc + ", " +
                   std::to_string(av.numVucs) + " VUCs, conf " +
                   fmtConf(av.confidence) + "]";
    }
  }

  std::printf("\n=== %s ===\n", title);
  for (size_t i = 0; i < insns.size(); ++i) {
    const auto it = notes.find(static_cast<uint32_t>(i));
    std::printf("  %-44s %s\n", asmx::toString(insns[i]).c_str(),
                it == notes.end() ? "" : ("; " + it->second).c_str());
  }
  std::printf("\n%zu variables inferred\n", vars.size());
}

}  // namespace

int main() {
  using namespace cati;
  Engine engine = trainSmallEngine();

  // 1. A generated stripped binary (we know nothing about it at analysis
  //    time; ground truth exists but is not consulted).
  const synth::Binary bin = synth::generateBinary(
      synth::defaultProfile("target", 0xf00d, 2), synth::Dialect::Gcc, 1,
      0xabcd);
  annotate(engine, bin.funcs[0].insns, "generated stripped function");

  // 2. A hand-written objdump-style listing, parsed from text.
  const auto listing = asmx::parseListing(R"(
      sub $0x40,%rsp
      movl $0x100,0x8(%rsp)
      mov 0x8(%rsp),%eax
      addl $0x1,0x8(%rsp)
      cmpl $0x200,0x8(%rsp)
      jle 401040
      movss 0x2f60(%rip),%xmm0
      movss %xmm0,0x10(%rsp)
      movss 0x10(%rsp),%xmm1
      mulss %xmm0,%xmm1
      movss %xmm1,0x10(%rsp)
      lea 0x20(%rsp),%rdi
      movl $0x0,0x20(%rsp)
      movq $0x0,0x28(%rsp)
      callq 401100 <init>
      add $0x40,%rsp
      ret
  )");
  annotate(engine, listing, "hand-written listing (parsed from text)");
  return 0;
}
