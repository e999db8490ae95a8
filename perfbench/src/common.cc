#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "corpus/corpus.h"

namespace perfbench {

using namespace cati;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

uint64_t deriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- results -------------------------------------------------------------------

namespace {

/// Shortest round-trip decimal form: every digit as measured.
std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Metric names of the final JSON line, in BENCHMARK.json order.
const std::vector<std::string>& endToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s",        "vucs_per_s",      "requests_per_s", "latency_p50_ms",
      "latency_tail_ms", "var_accuracy",   "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& perLayerNames() {
  static const std::vector<std::string> names = {
      "loader.disassemble_ms",
      "loader.cache_hit_ratio",
      "dataflow.recover_ms",
      "corpus.extract_ms",
      "corpus.vucs_per_op",
      "cati.predict_ms",
      "cati.vucs_per_predict_call",
      "cati.finish_ms",
      "cati.vote_clipped_ratio",
      "cati.model_load_ms",
      "cati.train_s",
      "embed.w2v_s",
      "cati.train_batch_ms",
      "nn.macs_per_vuc",
      "nn.fp32.conv1_gmacs",
      "nn.fp32.conv2_gmacs",
      "nn.fp32.fc1_gmacs",
      "nn.fp32.fc2_gmacs",
      "nn.fp32.backward_gmacs",
      "nn.fp32.batch1_vucs_per_s",
      "nn.fp32.batch32_vucs_per_s",
      "nn.int8.batch1_vucs_per_s",
      "nn.int8.batch32_vucs_per_s",
      "serve.result_cache_hit_ratio",
      "serve.group_size_mean",
      "serve.coalesced_vucs_per_group",
      "serve.batch_busy_ratio",
      "trace.coverage_ratio",
      "trace.overhead_ratio"};
  return names;
}

}  // namespace

void Results::add(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  metrics_[name] = Metric{value, unit, note};
}

void Results::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

bool Results::print(const Options& opt) const {
  for (const auto& [name, m] : metrics_) {
    std::printf("metric %s %s %s%s%s\n", name.c_str(), num(m.value).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  const double errorRate =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                 : 1.0;
  std::printf("metric error_rate %s ratio  # %zu failed of %zu attempted\n",
              num(errorRate).c_str(), failed_, attempted_);

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const std::string& name :
       opt.trace ? perLayerNames() : endToEndNames()) {
    const auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return false;
    }
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num(it->second.value) +
            ", \"unit\": \"" + it->second.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void addLatency(Results& r, std::vector<double> ms, const std::string& what) {
  std::sort(ms.begin(), ms.end());
  const size_t n = ms.size();
  r.add("latency_p50_ms", median(ms), "ms",
        "median of " + std::to_string(n) + " " + what);
  if (n == 0) return;
  // The highest order statistic with ten samples beyond it.
  const bool enough = n >= 11;
  const double value = enough ? ms[n - 11] : ms.back();
  const double pct = enough ? 100.0 * static_cast<double>(n - 10) /
                                  static_cast<double>(n)
                            : 100.0;
  char note[160];
  std::snprintf(note, sizeof(note), "p%.1f of %zu %s%s", pct, n, what.c_str(),
                enough ? "" : " (fewer than 11: the maximum)");
  r.add("latency_tail_ms", value, "ms", note);
}

void addSetupAndRss(Results& r, std::vector<double> setupMs) {
  r.add("setup_s", median(setupMs) / 1000.0, "s",
        "median of " + std::to_string(setupMs.size()) + " set-ups");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
        "whole run");
}

// --- tracing ---------------------------------------------------------------

namespace {
thread_local const Tracer* tlsTracer = nullptr;
thread_local int64_t tlsCurrent = -1;
}  // namespace

Tracer::Span::Span(Tracer& t, const char* name, uint64_t traceId)
    : t_(t.on_ ? &t : nullptr) {
  if (t_ == nullptr) return;
  const int64_t parent = tlsTracer == t_ ? tlsCurrent : -1;
  {
    const std::lock_guard<std::mutex> lock(t_->mu_);
    idx_ = t_->spans_.size();
    t_->spans_.push_back({name, traceId, parent, Clock::now(), {}});
  }
  tlsTracer = t_;
  tlsCurrent = static_cast<int64_t>(idx_);
}

Tracer::Span::~Span() {
  if (t_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  const std::lock_guard<std::mutex> lock(t_->mu_);
  Record& rec = t_->spans_[idx_];
  rec.end = end;
  tlsCurrent = rec.parent;
}

std::map<std::string, double> Tracer::selfMs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto durMs = [](const Record& s) {
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  };
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const Record& s : spans_) {
    if (s.parent >= 0) childMs[static_cast<size_t>(s.parent)] += durMs(s);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += durMs(spans_[i]) - childMs[i];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path, std::ios::trunc);
  if (spans_.empty()) return;
  const Clock::time_point base = spans_.front().start;
  const auto us = [base](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - base).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    os << "{\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"trace\": " << s.traceId << ", \"name\": \"" << s.name
       << "\", \"start_us\": " << num(us(s.start))
       << ", \"end_us\": " << num(us(s.end)) << "}\n";
  }
}

// --- obs windows -------------------------------------------------------------

uint64_t ObsWindow::counter(std::string_view name) const {
  const auto find = [name](const obs::Snapshot& s) -> uint64_t {
    for (const obs::CounterSnapshot& c : s.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  };
  return find(after_) - find(before_);
}

const obs::HistogramSnapshot* ObsWindow::hist(const obs::Snapshot& s,
                                              std::string_view name) const {
  for (const obs::HistogramSnapshot& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double ObsWindow::sum(std::string_view name) const {
  const auto* a = hist(after_, name);
  const auto* b = hist(before_, name);
  return obs::fromFx((a ? a->sumFx : 0) - (b ? b->sumFx : 0));
}

uint64_t ObsWindow::count(std::string_view name) const {
  const auto* a = hist(after_, name);
  const auto* b = hist(before_, name);
  return (a ? a->count : 0) - (b ? b->count : 0);
}

// --- inputs and ground truth ---------------------------------------------------

TestImage makeImage(const synth::AppProfile& profile, synth::Dialect dialect,
                    int opt, uint64_t seed) {
  const synth::Binary bin =
      synth::generateBinary(profile, dialect, opt, seed);
  loader::Image img = loader::buildImage(bin);

  TestImage out;
  out.name = profile.name + "-" + std::string(synth::dialectName(dialect)) +
             "-O" + std::to_string(opt);
  std::map<std::string, uint64_t> addrOf;
  for (const loader::Symbol& s : img.symbols) {
    if (!s.isImport) addrOf[s.name] = s.value;
  }
  for (const synth::FunctionCode& fn : bin.funcs) {
    const auto it = addrOf.find(fn.name);
    if (it == addrOf.end()) {
      throw std::runtime_error("makeImage: no symbol for " + fn.name);
    }
    auto& vars = out.truth[it->second];
    for (const synth::Variable& v : fn.vars) {
      vars[{fn.rbpFrame, v.frameOffset}] = v.label;
    }
  }

  loader::strip(img);
  std::ostringstream os;
  loader::write(img, os);
  out.bytes = std::move(os).str();
  // Read back through the tools' hostile-input reader, as cati-infer does.
  std::istringstream is(out.bytes);
  DiagList diags;
  std::optional<loader::Image> back = loader::tryRead(is, diags);
  if (!back || hasErrors(diags)) {
    throw std::runtime_error("makeImage: " + out.name + " does not read back");
  }
  out.img = std::move(*back);
  return out;
}

std::optional<std::vector<Row>> parseReport(std::string_view report) {
  std::vector<Row> rows;
  uint64_t fnAddr = 0;
  std::optional<size_t> summary;
  size_t pos = 0;
  while (pos < report.size()) {
    size_t eol = report.find('\n', pos);
    if (eol == std::string_view::npos) eol = report.size();
    const std::string line(report.substr(pos, eol - pos));
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.starts_with("fun_") && line.back() == ':') {
      fnAddr = std::strtoull(line.c_str() + 4, nullptr, 16);
      continue;
    }
    if (line[0] >= '0' && line[0] <= '9') {
      if (line.find(" variables typed") == std::string::npos) return {};
      summary = std::strtoull(line.c_str(), nullptr, 10);
      continue;
    }
    if (!line.starts_with("  rbp") && !line.starts_with("  rsp")) return {};
    if (fnAddr == 0) return {};
    Row row;
    row.fnAddr = fnAddr;
    row.rbp = line[3] == 'b';
    char* end = nullptr;
    row.offset = std::strtoll(line.c_str() + 5, &end, 10);
    const size_t typeAt = static_cast<size_t>(end - line.c_str());
    const size_t conf = line.find(" conf ", typeAt);
    const size_t open = line.find("  (", conf);
    if (conf == std::string::npos || open == std::string::npos) return {};
    row.type = line.substr(typeAt, conf - typeAt);
    row.type.erase(0, row.type.find_first_not_of(' '));
    row.type.erase(row.type.find_last_not_of(' ') + 1);
    row.vucs = std::strtoull(line.c_str() + open + 3, nullptr, 10);
    rows.push_back(std::move(row));
  }
  if (!summary || *summary != rows.size()) return {};
  return rows;
}

Score score(const std::vector<Row>& rows, const Truth& truth) {
  Score s;
  for (const Row& row : rows) {
    ++s.typed;
    s.vucs += row.vucs;
    const auto fn = truth.find(row.fnAddr);
    if (fn == truth.end()) continue;
    const auto var = fn->second.find({row.rbp, row.offset});
    if (var != fn->second.end() && typeName(var->second) == row.type) {
      ++s.correct;
    }
  }
  return s;
}

void addAccuracy(Results& r, const Score& s) {
  r.check(s.typed > 0, "no variable was typed");
  r.add("var_accuracy",
        s.typed ? static_cast<double>(s.correct) / static_cast<double>(s.typed)
                : 0.0,
        "ratio",
        std::to_string(s.correct) + "/" + std::to_string(s.typed) +
            " typed variables equal the generator's type");
}

// --- models ------------------------------------------------------------------

namespace {

/// The cati-train defaults (architecture and schedule).
EngineConfig toolTrainConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.epochs = 4;
  cfg.maxTrainPerStage = 10000;
  cfg.fcHidden = 96;
  cfg.verbose = false;
  cfg.seed = deriveSeed(seed, 0xE9);
  return cfg;
}

}  // namespace

Engine trainModel(uint64_t seed, par::ThreadPool& pool) {
  const EngineConfig cfg = toolTrainConfig(seed);
  const std::vector<synth::Binary> bins = synth::generateCorpus(
      4, 8, synth::Dialect::Gcc, deriveSeed(seed, 0xC0), &pool);
  const corpus::Dataset ds = corpus::extractAll(bins, cfg.window, true, &pool);
  Engine engine(cfg);
  engine.train(ds, &pool);
  return engine;
}

}  // namespace perfbench
