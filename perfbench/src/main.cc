// perfbench entry point; see bench.h and README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--smoke]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::fputs("usage: perfbench --workload infer-fp32-cold|serve-int8-mixed|"
             "train-fp32-micro --seed N --seconds S --trace 0|1 "
             "[--work-dir DIR] [--smoke]\n",
             stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      opt.workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--work-dir") {
      opt.workDir = v;
    } else {
      return usage();
    }
  }
  if (opt.seconds <= 0) return usage();
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  opt.jobs = static_cast<int>(std::min(4U, hw));

  std::printf("# stamp {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"kernel_tier\": \"%s\", \"nproc\": %u, "
              "\"jobs\": %d, \"batch\": %d, \"build_type\": \"%s\"}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              std::string(cati::cpu::isaName(cati::cpu::active())).c_str(), hw,
              opt.jobs, opt.batch, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Results r;
  try {
    if (opt.workload == "infer-fp32-cold") {
      runInfer(opt, r);
    } else if (opt.workload == "serve-int8-mixed") {
      runServe(opt, r);
    } else if (opt.workload == "train-fp32-micro") {
      runTrain(opt, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return r.print(opt) ? 0 : 1;
}
