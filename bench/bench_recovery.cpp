// Variable-recovery accuracy (§IV-A / §VII-B): the paper delegates variable
// location to IDA Pro and cites ~90% recovery from prior work (DEBIN,
// DIVINE). Our src/dataflow pass fills that slot; this bench scores it
// against the generator's ground truth across dialects and optimization
// levels — no training involved.
//
// Expected shape: slot-level recall in the mid-to-high nineties (the IR
// path resolves indirect and indexed accesses and bounds coalescing with
// observed aggregate extents), declining slightly with optimization level
// (register promotion thins the stack traffic).
//
// --json FILE additionally writes the rows as JSON — the CI recovery gate
// (.github/check_recovery.py) diffs them against a checked-in baseline.
#include <cstdio>
#include <cstring>
#include <string>

#include "dataflow/recovery.h"
#include "eval/metrics.h"
#include "synth/synth.h"

int main(int argc, char** argv) {
  using namespace cati;
  const char* jsonPath = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_recovery [--json FILE]\n");
      return 2;
    }
  }

  std::printf("Variable recovery accuracy vs ground truth "
              "(paper cites ~90%% for this pipeline stage)\n\n");
  eval::Table t({"dialect", "opt", "true vars", "recovered", "var recall",
                 "var precision", "target-insn recall"});
  std::string json = "{\"rows\":[";
  bool first = true;
  for (const synth::Dialect d : {synth::Dialect::Gcc, synth::Dialect::Clang}) {
    for (int opt = 0; opt <= 3; ++opt) {
      const synth::Binary bin = synth::generateBinary(
          synth::defaultProfile("rec", 0x4242, 80), d, opt, 1000 + opt);
      const dataflow::RecoveryScore s = dataflow::scoreBinary(bin);
      t.addRow({std::string(synth::dialectName(d)),
                std::string("O").append(std::to_string(opt)),
                std::to_string(s.trueVars), std::to_string(s.recoveredVars),
                eval::fmt2(s.varRecall()), eval::fmt2(s.varPrecision()),
                eval::fmt2(s.insnRecall())});
      char row[256];
      std::snprintf(row, sizeof(row),
                    "%s{\"dialect\":\"%s\",\"opt\":%d,\"varRecall\":%.4f,"
                    "\"varPrecision\":%.4f,\"insnRecall\":%.4f}",
                    first ? "" : ",", std::string(synth::dialectName(d)).c_str(),
                    opt, s.varRecall(), s.varPrecision(), s.insnRecall());
      json += row;
      first = false;
    }
  }
  json += "]}\n";
  std::printf("%s", t.str().c_str());
  if (jsonPath != nullptr) {
    std::FILE* f = std::fopen(jsonPath, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_recovery: cannot write %s\n", jsonPath);
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return 0;
}
