// Durable atomic file writes (DESIGN.md §9 "Durability & recovery").
//
// Every artifact CATI persists — model files, images, dataset caches,
// training checkpoints — goes through fs::atomicWrite, which implements the
// classic crash-safe protocol:
//
//   1. serialize into  <target>.cati-tmp.<pid>  in the target's directory
//   2. fsync the temp file         (bytes durable before they are visible)
//   3. rename(temp, target)        (POSIX rename is atomic: readers see the
//                                   old file or the new one, never a mix)
//   4. fsync the directory         (the rename itself durable)
//
// A crash (SIGKILL, power loss, injected fault) at ANY step leaves either
// the previous target intact or the new one complete — never a torn file.
// The only debris possible is a stale temp, which the next atomicWrite to
// the same target sweeps (and cleanupStaleTemps sweeps per-directory).
//
// Failures throw cati::IoError (tools exit 3 — retryable environment
// problem), distinct from cati::CorruptError (exit 4 — bad bytes on disk).
// Fault-injection probes ("fs.open", "fs.write", "fs.fsync", "fs.rename",
// "fs.dirsync") are planted at each seam; see common/fault.h.
#pragma once

#include <filesystem>
#include <functional>
#include <ostream>

#include "common/errors.h"

namespace cati::fs {

/// Serializes `body(os)` and publishes it at `target` with the write-temp /
/// fsync / rename / fsync-dir protocol above. Throws cati::IoError when the
/// environment fails (open, short write, fsync, rename); whatever `body`
/// throws propagates unchanged. In both cases the temp file is removed
/// (best effort) and `target` is untouched.
void atomicWrite(const std::filesystem::path& target,
                 const std::function<void(std::ostream&)>& body);

/// Removes stale `*.cati-tmp.*` files under `dir` (non-recursive) left by
/// crashed writers. Returns how many were removed. Safe against concurrent
/// atomicWrite calls from THIS process only — run it at tool startup,
/// before writers spin up (cati-train does this for its checkpoint dir).
int cleanupStaleTemps(const std::filesystem::path& dir);

/// True if `name` is an atomicWrite temp ("<anything>.cati-tmp.<pid>").
bool isTempName(const std::filesystem::path& name);

}  // namespace cati::fs
