// Shared command-line plumbing for the six cati tools: the flags every
// tool accepts (--verbose, --metrics[=FILE], --kernel), severity-filtered
// diagnostic printing, metrics emission, duplicate/unknown-flag rejection,
// strict value parsers (parseInt, parseSize for the daemon's byte-sized
// flags), and the one-line stderr error wrapper that backs the robustness
// contract (README "Error handling").
//
// Tools call cli::toolMain from main(); their run() receives argv with the
// common flags already stripped, so per-tool option loops stay untouched.
//
// Exit codes (README "Error handling"):
//   0  success
//   1  generic failure (diagnostics already printed)
//   2  usage error: unknown/duplicate/malformed flag, with a usage hint
//   3  I/O failure (cati::IoError): disk full, fsync/rename failed — the
//      environment broke; retrying can help
//   4  corrupt input (cati::CorruptError): bad magic, truncation, checksum
//      mismatch — the bytes are wrong; retrying cannot help
// 137  an injected kill fired (cati::fault, mirrors 128+SIGKILL)
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <string_view>

#include "common/cpu.h"
#include "common/diag.h"
#include "common/errors.h"
#include "common/fs.h"
#include "common/obs.h"

namespace cati::cli {

inline constexpr int kExitUsage = 2;
inline constexpr int kExitIo = 3;
inline constexpr int kExitCorrupt = 4;

/// A bad command line: unknown flag, duplicate flag, malformed value.
/// toolMain prints the message plus the tool's usage line and exits 2.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

/// Duplicate-flag guard: tools note() each flag as they parse it; a repeat
/// is a hard usage error instead of the silent last-wins it used to be
/// (`--seed 1 --seed 2` almost always means a mangled invocation).
class SeenFlags {
 public:
  void note(std::string_view flag) {
    if (!seen_.emplace(flag).second) {
      throw UsageError("duplicate flag: " + std::string(flag));
    }
  }

 private:
  std::set<std::string, std::less<>> seen_;
};

/// Rejects `arg` as an unknown flag/argument for `tool`.
[[noreturn]] inline void unknownArg(std::string_view arg) {
  throw UsageError("unknown argument: " + std::string(arg));
}

/// Strict integer flag value: the whole token must parse (atoi's silent
/// "0 for garbage" turned typos into surprising defaults).
inline long parseInt(std::string_view flag, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    throw UsageError(std::string(flag) + ": not a number: " + value);
  }
  return v;
}

/// Strict byte-size flag value: a non-negative integer with an optional
/// K/M/G suffix (binary multiples), e.g. `--cache-bytes 64M`. Same
/// whole-token discipline as parseInt, plus overflow rejection: strtoll's
/// ERANGE clamp and a wrapping suffix multiply both read as "some huge
/// budget" and must not silently become a smaller number.
inline unsigned long long parseSize(std::string_view flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || v < 0) {
    throw UsageError(std::string(flag) + ": not a size: " + value);
  }
  if (errno == ERANGE) {
    throw UsageError(std::string(flag) + ": size overflows: " + value);
  }
  unsigned long long mult = 1;
  if (*end == 'K' || *end == 'k') {
    mult = 1ULL << 10;
    ++end;
  } else if (*end == 'M' || *end == 'm') {
    mult = 1ULL << 20;
    ++end;
  } else if (*end == 'G' || *end == 'g') {
    mult = 1ULL << 30;
    ++end;
  }
  if (*end != '\0') {
    throw UsageError(std::string(flag) + ": not a size: " + value);
  }
  const auto uv = static_cast<unsigned long long>(v);
  if (uv > ~0ULL / mult) {
    throw UsageError(std::string(flag) + ": size overflows: " + value);
  }
  return uv * mult;
}

struct Common {
  bool verbose = false;       ///< --verbose: include Note-severity diagnostics
  bool metrics = false;       ///< --metrics[=FILE]: emit a JSON snapshot
  std::string metricsPath;    ///< empty means stderr
};

/// Applies `--kernel ISA` (scalar | avx2 | avx512): forces the NN kernel
/// tier before any inference runs. Unknown names are usage errors; an ISA
/// this CPU lacks is a hard error from cpu::force (exit 1), never a silent
/// downgrade. fp32 results are bit-identical across tiers (DESIGN.md §11).
inline void applyKernelFlag(const std::string& value) {
  const auto isa = cpu::parseIsa(value);
  if (!isa) {
    throw UsageError("--kernel: unknown ISA: " + value +
                     " (want scalar, avx2 or avx512)");
  }
  cpu::force(*isa);
}

/// Strips the common flags out of (argc, argv) in place and returns their
/// parsed values. Enabling --metrics flips the process-global obs switch
/// before the tool's pipeline runs. Duplicates and malformed values are
/// usage errors.
inline Common extractCommon(int& argc, char** argv) {
  Common c;
  SeenFlags seen;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--verbose") {
      seen.note(arg);
      c.verbose = true;
    } else if (arg == "--metrics" || arg.starts_with("--metrics=")) {
      seen.note("--metrics");
      c.metrics = true;
      if (arg.starts_with("--metrics=")) {
        c.metricsPath =
            std::string(arg.substr(std::string_view("--metrics=").size()));
      }
    } else if (arg == "--kernel") {
      seen.note(arg);
      if (i + 1 >= argc) throw UsageError("--kernel: missing value");
      applyKernelFlag(argv[++i]);
    } else if (arg.starts_with("--kernel=")) {
      seen.note("--kernel");
      applyKernelFlag(
          std::string(arg.substr(std::string_view("--kernel=").size())));
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  if (c.metrics) obs::setEnabled(true);
  // Resolve the kernel selection eagerly (any --kernel was applied in the
  // loop above): a bad CATI_KERNEL must be a hard process error here, not
  // a per-function degradation deep inside analysis.
  const cpu::Isa isa = cpu::active();
  if (c.verbose) std::cerr << "nn kernel: " << cpu::isaName(isa) << "\n";
  return c;
}

/// Usage-string suffix so every tool advertises the shared flags.
inline constexpr const char* kCommonUsage =
    " [--verbose] [--metrics[=FILE]] [--kernel ISA]";

/// Diagnostics to stderr: warnings and errors always, notes only with
/// --verbose (the passthrough cati-objdump/cati-strip previously lacked).
inline void printDiags(const DiagList& diags, const Common& c) {
  if (c.verbose) {
    print(diags, std::cerr);
    return;
  }
  DiagList filtered;
  for (const Diag& d : diags) {
    if (d.severity != Severity::Note) filtered.push_back(d);
  }
  print(filtered, std::cerr);
}

/// Writes the global registry snapshot as JSON to the --metrics target
/// (stderr by default). No-op when --metrics was not given.
inline void emitMetrics(const Common& c, const char* tool) {
  if (!c.metrics) return;
  const std::string json = obs::Registry::global().snapshot().toJson();
  if (c.metricsPath.empty()) {
    std::cerr << json;
    return;
  }
  try {
    fs::atomicWrite(c.metricsPath, [&](std::ostream& os) { os << json; });
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: cannot write metrics file: %s\n", tool,
                 e.what());
  }
}

/// The shared main(): parse common flags, run the tool, emit metrics, and
/// turn any escaped exception into a one-line diagnostic + a typed exit
/// code. `usage` (when given) is printed under usage errors.
template <typename Fn>
int toolMain(const char* tool, int argc, char** argv, Fn&& run,
             const char* usage = nullptr) {
  try {
    const Common c = extractCommon(argc, argv);
    const int rc = run(argc, argv, c);
    emitMetrics(c, tool);
    return rc;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    if (usage != nullptr) std::fprintf(stderr, "%s", usage);
    return kExitUsage;
  } catch (const CorruptError& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return kExitCorrupt;
  } catch (const IoError& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return kExitIo;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", tool, e.what());
    return 1;
  }
}

}  // namespace cati::cli
