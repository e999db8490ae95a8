#include "common/obs.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace cati::obs {

namespace {

bool envEnabled() {
  const char* v = std::getenv("CATI_METRICS");
  return v != nullptr && *v != '\0' && std::string_view(v) != "0";
}

std::atomic<bool>& enabledFlag() {
  // Initialized from the environment exactly once, on first query.
  static std::atomic<bool> flag{envEnabled()};
  return flag;
}

}  // namespace

bool enabled() { return enabledFlag().load(std::memory_order_relaxed); }

void setEnabled(bool on) {
  enabledFlag().store(on, std::memory_order_relaxed);
}

int64_t toFx(double v) {
  // Clamp instead of overflowing: |v| beyond ~8.7e12 (about 2.4 wall-clock
  // hours in nanoseconds) saturates. llround ties away from zero — a fixed,
  // platform-independent rule.
  const double scaled = v * static_cast<double>(kFxOne);
  constexpr double kLim = 9.2e18;
  if (scaled >= kLim) return std::numeric_limits<int64_t>::max();
  if (scaled <= -kLim) return std::numeric_limits<int64_t>::min();
  return std::llround(scaled);
}

double fromFx(int64_t fx) {
  return static_cast<double>(fx) / static_cast<double>(kFxOne);
}

int bucketIndex(double v) {
  if (!(v > 0.0)) return 0;  // negatives, zero and NaN land in bucket 0
  // ilogb(+inf) is INT_MAX, which would overflow the +21 below.
  if (std::isinf(v)) return kNumBuckets - 1;
  const int e = std::ilogb(v);  // floor(log2(v)) for finite positive v
  const int idx = e + 21;
  if (idx < 0) return 0;
  if (idx > kNumBuckets - 1) return kNumBuckets - 1;
  return idx;
}

double bucketLowerBound(int i) {
  if (i <= 0) return -std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, i - 21);  // 2^(i-21)
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  const int64_t fx = toFx(v);
  count_.fetch_add(1, std::memory_order_relaxed);
  sumFx_.fetch_add(fx, std::memory_order_relaxed);
  int64_t cur = minFx_.load(std::memory_order_relaxed);
  while (fx < cur &&
         !minFx_.compare_exchange_weak(cur, fx, std::memory_order_relaxed)) {
  }
  cur = maxFx_.load(std::memory_order_relaxed);
  while (fx > cur &&
         !maxFx_.compare_exchange_weak(cur, fx, std::memory_order_relaxed)) {
  }
  buckets_[static_cast<size_t>(bucketIndex(v))].fetch_add(
      1, std::memory_order_relaxed);
}

double Histogram::min() const { return count() ? fromFx(minFx()) : 0.0; }

double Histogram::max() const { return count() ? fromFx(maxFx()) : 0.0; }

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sumFx_.store(0, std::memory_order_relaxed);
  minFx_.store(INT64_MAX, std::memory_order_relaxed);
  maxFx_.store(INT64_MIN, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

Registry& Registry::global() {
  static Registry reg;
  return reg;
}

Counter& Registry::counter(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name, Unit unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    if (it->second->unit() != unit) {
      throw std::logic_error("obs: histogram '" + std::string(name) +
                             "' registered with conflicting units");
    }
    return *it->second;
  }
  return *histograms_
              .emplace(std::string(name), std::make_unique<Histogram>(unit))
              .first->second;
}

Snapshot Registry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.unit = h->unit();
    hs.count = h->count();
    // Raw fixed-point fields so snapshot comparisons are exact.
    hs.sumFx = h->sumFx();
    hs.minFx = hs.count ? h->minFx() : 0;
    hs.maxFx = hs.count ? h->maxFx() : 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      const uint64_t n = h->bucketCount(i);
      if (n != 0) hs.buckets.emplace_back(i, n);
    }
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

Snapshot Snapshot::withoutTimings() const {
  Snapshot out;
  out.counters = counters;
  for (const HistogramSnapshot& h : histograms) {
    if (h.unit != Unit::Nanoseconds) out.histograms.push_back(h);
  }
  return out;
}

namespace {

void appendEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

/// Fixed-point value as a decimal string: exact for the integer part, six
/// fractional digits (the 2^-20 resolution), trailing zeros trimmed. The
/// double is an exact binary fraction < 2^53, so the rendering is
/// deterministic across runs and job counts.
std::string fxToString(int64_t fx) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", fromFx(fx));
  std::string s(buf);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

std::string Snapshot::toJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const CounterSnapshot& c : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    appendEscaped(out, c.name);
    out += "\": " + std::to_string(c.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& h : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    appendEscaped(out, h.name);
    out += "\": {";
    if (h.unit == Unit::Nanoseconds) out += "\"unit\": \"ns\", ";
    out += "\"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + fxToString(h.sumFx);
    if (h.count > 0) {
      out += ", \"min\": " + fxToString(h.minFx);
      out += ", \"max\": " + fxToString(h.maxFx);
    }
    out += ", \"buckets\": [";
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out.append("[")
          .append(std::to_string(h.buckets[i].first))
          .append(", ")
          .append(std::to_string(h.buckets[i].second))
          .append("]");
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace cati::obs
