// perfbench — one benchmark for the three user-facing entry points:
//
//   infer-fp32-cold   serve::analyzeImage (the cati-infer path)
//   serve-int8-mixed  serve::Server + serve::Client over a unix socket
//                     (the cati-serve path)
//   train-fp32-micro  Engine::train (the cati-train path)
//
// Every workload generates its inputs and its model from --seed during
// set-up, measures the entry point from outside through public functions,
// checks every operation's output outside the timed region, and prints one
// "metric NAME VALUE UNIT" line per metric followed by a final JSON line (see
// README.md). The benchmark never calls Engine::analyzeFunction,
// ir::runBlockPasses or dataflow::propagateCallFacts itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cati/engine.h"
#include "common/obs.h"
#include "common/parallel.h"
#include "loader/image.h"
#include "serve/analysis.h"
#include "synth/synth.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Minimum-size inputs and a single set-up (the smoke test).
  bool smoke = false;
  /// Scratch directory for models, the socket and the span dump; relative
  /// to the working directory so the socket path stays short.
  std::string workDir = ".";
  int jobs = 1;    ///< min(4, nproc): load-generation and analysis pool
  int batch = 32;  ///< NN batch lanes (the tools' default)
  /// Set-ups per run; setup_s is their median.
  int setups() const { return smoke || trace ? 1 : 3; }
};

/// A benchmark-private seed stream (splitmix64), independent of the
/// program's own Rng so input generation cannot drift with it.
uint64_t deriveSeed(uint64_t seed, uint64_t stream);

// --- results ---------------------------------------------------------------

/// Collects metrics and operation outcomes, then prints them: one text line
/// per metric and, last, the JSON object whose metric set is fixed by the
/// mode (end-to-end untraced, per-layer traced).
class Results {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = {});
  /// Counts one checked operation; a failure prints its reason to stderr.
  void check(bool ok, const std::string& what);
  /// Prints every metric and the final JSON line. Returns false (and prints
  /// no JSON) when a metric the mode promises is missing.
  bool print(const Options& opt) const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> metrics_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

double median(std::vector<double> v);

/// Reports latency_p50_ms and latency_tail_ms over `ms`, the tail being the
/// highest percentile with at least ten samples beyond it (the maximum when
/// there are fewer than eleven samples).
void addLatency(Results& r, std::vector<double> ms, const std::string& what);

/// Median of the set-up wall times, plus peak RSS of the whole run.
void addSetupAndRss(Results& r, std::vector<double> setupMs);

// --- tracing ---------------------------------------------------------------

/// In-memory span recorder. A span has a name, start, end, the span that
/// caused it and the identifier of the operation (image, request, training
/// run) it belongs to. Self time is a span's duration minus the part its
/// child spans cover. Thread-safe; spans nest per thread. A tracer that is
/// off records nothing, so untraced runs pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Span {
   public:
    Span(Tracer& t, const char* name, uint64_t traceId);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;  ///< nullptr when the tracer is off
    size_t idx_ = 0;
  };

  /// Self time per span name, in ms.
  std::map<std::string, double> selfMs() const;
  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  bool on_;
  struct Record {
    const char* name;
    uint64_t traceId;
    int64_t parent;  ///< index of the enclosing span, -1 for a root
    Clock::time_point start;
    Clock::time_point end;
  };
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// Deltas of the program's obs counters and histograms over a window.
class ObsWindow {
 public:
  ObsWindow() : before_(cati::obs::Registry::global().snapshot()) {}
  void close() { after_ = cati::obs::Registry::global().snapshot(); }
  uint64_t counter(std::string_view name) const;
  /// Histogram sum (nanoseconds for timers) and observation count.
  double sum(std::string_view name) const;
  uint64_t count(std::string_view name) const;

 private:
  const cati::obs::HistogramSnapshot* hist(const cati::obs::Snapshot& s,
                                          std::string_view name) const;
  cati::obs::Snapshot before_;
  cati::obs::Snapshot after_;
};

// --- inputs and ground truth ---------------------------------------------------

/// Ground truth kept from the generator, before stripping: function address
/// -> (rbp-framed, frame offset) -> type.
using Truth =
    std::map<uint64_t, std::map<std::pair<bool, int64_t>, cati::TypeLabel>>;

struct TestImage {
  std::string name;
  cati::loader::Image img;  ///< stripped, read back from its container bytes
  std::string bytes;        ///< the stripped container (a request payload)
  Truth truth;
};

TestImage makeImage(const cati::synth::AppProfile& profile,
                    cati::synth::Dialect dialect, int opt, uint64_t seed);

/// One report row: "  rbp-8     int   conf 0.93  (4 VUCs)   ".
struct Row {
  uint64_t fnAddr = 0;
  bool rbp = false;
  int64_t offset = 0;
  std::string type;
  size_t vucs = 0;
};

/// Parses a cati-infer report of a stripped image; nullopt when it does not
/// have the documented shape (function headers, rows, a summary whose count
/// equals the number of rows).
std::optional<std::vector<Row>> parseReport(std::string_view report);

struct Score {
  size_t typed = 0;    ///< report rows
  size_t correct = 0;  ///< rows whose type equals the generator's
  size_t vucs = 0;     ///< VUCs behind the rows
  void add(const Score& o) {
    typed += o.typed;
    correct += o.correct;
    vucs += o.vucs;
  }
};

Score score(const std::vector<Row>& rows, const Truth& truth);
void addAccuracy(Results& r, const Score& s);

// --- models ----------------------------------------------------------------

/// Trains the model the inference workloads serve: `cati-train --apps 4
/// --funcs 8` with the tool's defaults, corpus and engine seeds drawn from
/// `seed`. Four apps rather than two halve the seed-to-seed spread of
/// var_accuracy.
cati::Engine trainModel(uint64_t seed, cati::par::ThreadPool& pool);

// --- layers (layers.cc) ------------------------------------------------------

/// serve::analyzeImage (the cati-infer path) with a fresh decode cache.
cati::serve::AnalyzeResult analyzeFresh(cati::Engine& engine,
                                        const cati::loader::Image& img,
                                        cati::par::ThreadPool* pool,
                                        int batch);

/// What the traced layer pass measured, summed over its replays.
struct LayerPass {
  double untracedMs = 0;  ///< analyzeImage, obs off
  double twinMs = 0;      ///< analyzeImage, obs on, inside a root span
  size_t replays = 0;
  size_t vucs = 0;
};

/// The traced layer pass over `images`: per image, two rounds of untraced
/// analyzeImage, its traced twin, and a replay of the same pipeline through
/// each layer's public entry point with one span per call. Both traced
/// reports must equal the untraced one. Leaves obs enabled.
LayerPass traceLayers(cati::Engine& engine,
                      const std::vector<const TestImage*>& images,
                      cati::par::ThreadPool& pool, int batch, Tracer& tracer,
                      uint64_t traceBase, Results& r);

/// Reports the layer self times of the replay and the tracing overhead.
void addLayerMetrics(const Tracer& tracer, const LayerPass& pass, Results& r);

/// Reports the program's own counters over `w` (predict batching, vote
/// clipping, decode cache, serve batch loop; `wallMs` is the window's wall).
void addObsMetrics(const ObsWindow& w, double wallMs, Results& r);

/// Training metrics from obs over one or more Engine::train calls.
void addTrainMetrics(const ObsWindow& w, std::vector<double> trainMs,
                     Results& r);

/// nn probes: MACs per VUC from the layer shapes, per-layer forward and
/// backward GMAC/s on a makeCnn net of the engine's shapes at batch 32, and
/// predictVucs rates at batch 1 and 32 with one job for fp32 and int8.
void probeNn(cati::Engine& fp32, cati::Engine& int8,
             const std::vector<const TestImage*>& images, uint64_t seed,
             Results& r);

// --- workloads -----------------------------------------------------------------

void runInfer(const Options& opt, Results& r);
void runServe(const Options& opt, Results& r);
void runTrain(const Options& opt, Results& r);

}  // namespace perfbench
