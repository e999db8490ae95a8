// Deterministic fault injection for the durability layer (DESIGN.md §9).
//
// Production code plants named probes at its I/O and allocation seams:
//
//   fault::failPoint("fs.write");        // may throw an injected IoError
//   fault::killPoint("train.checkpoint") // may _exit(kKillExit) on the spot
//
// With no configuration every probe is a single relaxed atomic load — the
// layer costs nothing in normal operation. Faults are armed through the
// environment (read once, at first probe):
//
//   CATI_FAULT_SPEC  comma-separated rules   ACTION@SITE:WHEN
//   CATI_FAULT_SEED  seed for probabilistic rules (default 1)
//
// ACTION is one of
//   fail      the probe throws cati::IoError ("injected ENOSPC")
//   truncate  the probe reports a short write: the caller must persist only
//             a prefix, then fail (fs::atomicWrite honours this)
//   kill      the probe calls _exit(fault::kKillExit) — a crash, not an
//             exception: no destructors, no flushes, like SIGKILL mid-write
//   stop      the probe throws fault::Stop — an in-process stand-in for
//             kill that test code can catch (ASan-friendly crash sweeps)
//
// SITE matches the probe name exactly, or a prefix when it ends with '*'
// ("fs.*" arms every fs seam). WHEN is either
//   N      fire on the N-th hit of that rule (1-based), once
//   p=X    fire independently with probability X per hit, drawn from a
//          splitSeed stream of CATI_FAULT_SEED — the same seed replays the
//          same fault schedule exactly, which is what makes a failing
//          CI sweep reproducible locally.
//
// Examples:
//   CATI_FAULT_SPEC=fail@fs.write:3           third low-level write fails
//   CATI_FAULT_SPEC=kill@train.checkpoint:2   die right after 2nd checkpoint
//   CATI_FAULT_SPEC=truncate@fs.*:1,fail@fs.fsync:p=0.5
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace cati::fault {

/// Exit code of an injected kill; 137 = 128+SIGKILL, what a real OOM-kill
/// or `kill -9` reports, so wrappers treat injected and real kills alike.
inline constexpr int kKillExit = 137;

/// Thrown by `stop` rules: a catchable crash for in-process sweeps.
class Stop : public std::runtime_error {
 public:
  explicit Stop(const std::string& site)
      : std::runtime_error("fault: injected stop at " + site) {}
};

/// What a probe should do, as armed by the active spec.
enum class Action : uint8_t { kNone, kFail, kTruncate, kKill, kStop };

/// True when a fault spec is armed (cheap: one relaxed atomic load).
bool enabled();

/// Consumes one hit of `site` and returns the armed action (kNone almost
/// always). Does not act on it — use failPoint/killPoint unless the caller
/// needs custom handling (e.g. fs::atomicWrite implementing truncation).
Action hit(const char* site);

/// I/O seam probe. Throws cati::IoError on an armed `fail`, fault::Stop on
/// an armed `stop`, _exits on `kill`. Returns true when the caller should
/// simulate a short write (`truncate`) — persist a prefix, then fail.
bool failPoint(const char* site);

/// Crash seam probe, placed right after a recovery boundary (a checkpoint
/// write, a rename). `kill` _exits immediately; `stop` throws; `fail` and
/// `truncate` are treated as `stop` (a kill probe has no write to shorten).
void killPoint(const char* site);

/// Re-arms the layer from an explicit spec/seed instead of the environment
/// (empty spec disarms). Test-only: not thread-safe against in-flight
/// probes in other threads.
void configureForTest(const std::string& spec, uint64_t seed = 1);

/// Test-only: `observer(site)` sees every probe hit while a spec is armed,
/// on the thread that hits it, before any rule acts (an empty function
/// removes it). It runs under the layer's lock, so it sees the hits in the
/// order the rules count them, and it must not probe.
void observeHitsForTest(std::function<void(const char* site)> observer);

}  // namespace cati::fault
