// cati-serve — long-lived inference daemon (DESIGN.md §10): loads the model
// once, serves concurrent analyze requests over a unix-domain or TCP socket
// with cross-request dynamic batching, a bounded LRU result cache, admission
// control, and a /metrics endpoint (the kMetrics frame).
//
// The serving contract: every kReport reply is byte-identical to what
// `cati-infer MODEL IMAGE` prints for the same image and options, whatever
// the interleaving of clients, the --jobs setting, or the cache
// state — proven by the differential suite in tests/test_serve*.cc.
//
// SIGINT/SIGTERM (or --max-requests N) trigger a graceful drain: queued
// requests are answered, in-flight replies flushed, then the daemon exits 0.
//
// Usage: cati-serve MODEL.bin --listen ADDR [--jobs N] [--max-queue N]
//                   [--max-group N] [--cache-bytes SIZE] [--cache-dir DIR]
//                   [--decode-cache SIZE] [--max-requests N]
#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "cati/engine.h"
#include "cli.h"
#include "common/obs.h"
#include "serve/server.h"

namespace {

constexpr const char* kUsagePrefix =
    "usage: cati-serve MODEL.bin --listen ADDR [--jobs N] [--max-queue N] "
    "[--max-group N] [--cache-bytes SIZE] [--cache-dir DIR] "
    "[--decode-cache SIZE] [--max-requests N] [--quant]";

std::string usageLine() {
  return std::string(kUsagePrefix) + cati::cli::kCommonUsage +
         "\n  ADDR is unix:PATH or tcp:[HOST:]PORT (tcp:0 picks an ephemeral "
         "port);\n  SIZE takes an optional K/M/G suffix\n";
}

volatile std::sig_atomic_t gSignal = 0;
void onSignal(int) { gSignal = 1; }

int run(int argc, char** argv, const cati::cli::Common& /*common*/) {
  using namespace cati;
  if (argc < 2) {
    std::fputs(usageLine().c_str(), stderr);
    return 2;
  }
  serve::ServerConfig cfg;
  bool haveListen = false;
  bool quant = false;
  cli::SeenFlags seen;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) throw cli::UsageError(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--listen") {
      seen.note(arg);
      try {
        cfg.listen = sock::Address::parse(next());
      } catch (const std::invalid_argument& e) {
        throw cli::UsageError(std::string("--listen: ") + e.what());
      }
      haveListen = true;
    } else if (arg == "--jobs") {
      seen.note(arg);
      cfg.jobs = static_cast<int>(cli::parseInt(arg, next()));
    } else if (arg == "--max-queue") {
      seen.note(arg);
      const long v = cli::parseInt(arg, next());
      if (v <= 0) throw cli::UsageError("--max-queue: must be positive");
      cfg.maxQueue = static_cast<size_t>(v);
    } else if (arg == "--max-group") {
      seen.note(arg);
      const long v = cli::parseInt(arg, next());
      if (v <= 0) throw cli::UsageError("--max-group: must be positive");
      cfg.maxGroup = static_cast<size_t>(v);
    } else if (arg == "--cache-bytes") {
      seen.note(arg);
      cfg.cacheBytes = static_cast<size_t>(cli::parseSize(arg, next()));
    } else if (arg == "--cache-dir") {
      seen.note(arg);
      cfg.cacheDir = next();
    } else if (arg == "--decode-cache") {
      // Decode+lowering cache budget (0 disables); repeat binaries across
      // requests skip decode and IR construction.
      seen.note(arg);
      cfg.decodeCacheBytes = static_cast<size_t>(cli::parseSize(arg, next()));
    } else if (arg == "--max-requests") {
      seen.note(arg);
      const long v = cli::parseInt(arg, next());
      if (v <= 0) throw cli::UsageError("--max-requests: must be positive");
      cfg.maxRequests = v;
    } else if (arg == "--quant") {
      seen.note(arg);
      quant = true;
    } else {
      cli::unknownArg(arg);
    }
  }
  if (!haveListen) throw cli::UsageError("--listen is required");

  // The daemon always keeps metrics on: the /metrics endpoint is part of
  // the protocol, not an opt-in debugging aid.
  obs::setEnabled(true);

  Engine engine = Engine::loadFile(argv[1]);
  if (quant && !engine.quantized()) engine = engine.quantize();
  serve::Server server(engine, cfg);
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  server.start();
  std::fprintf(stderr, "cati-serve: listening on %s\n",
               server.bound().str().c_str());
  std::fflush(stderr);
  // A signal handler cannot touch the server's cv, so poll the flag
  // alongside the server's own stop request (--max-requests).
  while (gSignal == 0 &&
         !server.waitUntilStopRequested(std::chrono::milliseconds(50))) {
  }
  server.stop();
  std::fprintf(stderr, "cati-serve: drained, exiting\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cati::cli::toolMain("cati-serve", argc, argv, run,
                             usageLine().c_str());
}
