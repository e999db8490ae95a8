#include "common/fault.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "common/errors.h"
#include "common/obs.h"
#include "common/rng.h"

namespace cati::fault {

namespace {

struct Rule {
  Action action = Action::kNone;
  std::string site;        // exact name, or prefix when wildcard
  bool wildcard = false;   // site ended with '*'
  uint64_t nth = 0;        // fire on the nth matching hit (1-based); 0 = off
  double prob = -1.0;      // fire with probability prob; < 0 = off
  uint64_t hits = 0;       // matching hits so far (under State::mu)
  bool fired = false;      // nth rules fire once
};

struct State {
  std::mutex mu;
  std::vector<Rule> rules;
  uint64_t seed = 1;
  uint64_t draws = 0;  // probabilistic-draw counter: replayable schedule
  std::function<void(const char*)> observer;  // observeHitsForTest
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};

/// "fail@fs.write:3" / "truncate@fs.*:p=0.25" -> Rule. Malformed rules are
/// ignored (the injector must never take down a production run by itself).
bool parseRule(const std::string& text, Rule& out) {
  const size_t at = text.find('@');
  const size_t colon = text.rfind(':');
  if (at == std::string::npos || colon == std::string::npos || colon < at) {
    return false;
  }
  const std::string action = text.substr(0, at);
  if (action == "fail") {
    out.action = Action::kFail;
  } else if (action == "truncate") {
    out.action = Action::kTruncate;
  } else if (action == "kill") {
    out.action = Action::kKill;
  } else if (action == "stop") {
    out.action = Action::kStop;
  } else {
    return false;
  }
  out.site = text.substr(at + 1, colon - at - 1);
  if (out.site.empty()) return false;
  if (out.site.back() == '*') {
    out.wildcard = true;
    out.site.pop_back();
  }
  const std::string when = text.substr(colon + 1);
  if (when.starts_with("p=")) {
    char* end = nullptr;
    out.prob = std::strtod(when.c_str() + 2, &end);
    return end != when.c_str() + 2 && *end == '\0' && out.prob >= 0.0 &&
           out.prob <= 1.0;
  }
  char* end = nullptr;
  out.nth = std::strtoull(when.c_str(), &end, 10);
  return end != when.c_str() && *end == '\0' && out.nth > 0;
}

void configure(const char* spec, uint64_t seed) {
  State& s = state();
  s.rules.clear();
  s.seed = seed;
  s.draws = 0;
  if (spec != nullptr) {
    std::string text(spec);
    size_t pos = 0;
    while (pos <= text.size()) {
      const size_t comma = text.find(',', pos);
      const std::string one =
          text.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
      Rule r;
      if (!one.empty() && parseRule(one, r)) s.rules.push_back(std::move(r));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  g_enabled.store(!s.rules.empty(), std::memory_order_relaxed);
}

std::once_flag g_envOnce;

void configureFromEnvOnce() {
  std::call_once(g_envOnce, [] {
    const char* spec = std::getenv("CATI_FAULT_SPEC");
    if (spec == nullptr || *spec == '\0') return;
    uint64_t seed = 1;
    if (const char* se = std::getenv("CATI_FAULT_SEED")) {
      char* end = nullptr;
      const uint64_t v = std::strtoull(se, &end, 0);
      if (end != se && *end == '\0') seed = v;
    }
    configure(spec, seed);
  });
}

bool matches(const Rule& r, const char* site) {
  const std::string_view s(site);
  return r.wildcard ? s.starts_with(r.site) : s == r.site;
}

}  // namespace

bool enabled() {
  configureFromEnvOnce();
  return g_enabled.load(std::memory_order_relaxed);
}

Action hit(const char* site) {
  if (!enabled()) return Action::kNone;
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  if (s.observer) s.observer(site);
  for (Rule& r : s.rules) {
    if (!matches(r, site)) continue;
    ++r.hits;
    if (r.nth > 0) {
      if (!r.fired && r.hits == r.nth) {
        r.fired = true;
        obs::counter("fault.injected").add();
        return r.action;
      }
    } else if (r.prob >= 0.0) {
      // Each draw gets its own splitSeed stream, so the schedule depends
      // only on (seed, draw index) — replayable across thread schedules.
      Rng rng(splitSeed(s.seed, s.draws++));
      if (rng.chance(r.prob)) {
        obs::counter("fault.injected").add();
        return r.action;
      }
    }
  }
  return Action::kNone;
}

bool failPoint(const char* site) {
  switch (hit(site)) {
    case Action::kNone:
      return false;
    case Action::kTruncate:
      return true;
    case Action::kFail:
      throw IoError(std::string("fault: injected ENOSPC at ") + site);
    case Action::kStop:
      throw Stop(site);
    case Action::kKill:
      _exit(kKillExit);
  }
  return false;
}

void killPoint(const char* site) {
  switch (hit(site)) {
    case Action::kNone:
      return;
    case Action::kKill:
      _exit(kKillExit);
    default:
      // fail/truncate/stop at a kill seam all degrade to the catchable
      // crash: there is no write here to fail or shorten.
      throw Stop(site);
  }
}

void configureForTest(const std::string& spec, uint64_t seed) {
  // Ensure the env read happens first so it never clobbers the test config.
  configureFromEnvOnce();
  configure(spec.empty() ? nullptr : spec.c_str(), seed);
}

void observeHitsForTest(std::function<void(const char* site)> observer) {
  State& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  s.observer = std::move(observer);
}

}  // namespace cati::fault
