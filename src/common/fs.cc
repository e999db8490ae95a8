#include "common/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <system_error>

#include "common/fault.h"
#include "common/obs.h"

namespace cati::fs {

namespace {

constexpr const char* kTempInfix = ".cati-tmp.";

[[noreturn]] void throwErrno(const std::string& op,
                             const std::filesystem::path& p) {
  throw IoError("fs: " + op + " failed for " + p.string() + ": " +
                std::strerror(errno));
}

/// write(2) the whole buffer, honouring injected truncation: a `truncate`
/// fault persists only half the remaining bytes, then reports ENOSPC — the
/// worst-case torn write a real disk-full produces.
void writeAll(int fd, const char* data, size_t n,
              const std::filesystem::path& p) {
  size_t off = 0;
  while (off < n) {
    size_t want = n - off;
    const bool shortWrite = fault::failPoint("fs.write");
    if (shortWrite) want = want / 2;
    const ssize_t wrote = ::write(fd, data + off, want);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      throwErrno("write", p);
    }
    off += static_cast<size_t>(wrote);
    if (shortWrite) {
      errno = ENOSPC;
      throwErrno("write (short)", p);
    }
  }
}

}  // namespace

bool isTempName(const std::filesystem::path& name) {
  const std::string s = name.filename().string();
  const size_t pos = s.find(kTempInfix);
  if (pos == std::string::npos) return false;
  // Suffix after the infix must be a plain number (a writer pid).
  const std::string suffix = s.substr(pos + std::strlen(kTempInfix));
  if (suffix.empty()) return false;
  return suffix.find_first_not_of("0123456789") == std::string::npos;
}

void atomicWrite(const std::filesystem::path& target,
                 const std::function<void(std::ostream&)>& body) {
  static obs::Counter& writes = obs::counter("fs.atomic_writes");
  static obs::Counter& bytes = obs::counter("fs.bytes_written");

  // Serialize fully up front: if `body` throws (or an injected fault fires
  // inside it), nothing has touched the filesystem yet.
  std::ostringstream buf;
  body(buf);
  const std::string payload = std::move(buf).str();

  const std::filesystem::path dir =
      target.has_parent_path() ? target.parent_path() : ".";
  const std::filesystem::path tmp =
      dir / (target.filename().string() + kTempInfix +
             std::to_string(static_cast<long long>(::getpid())));

  // Sweep debris from a previously crashed writer of this same target.
  {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.starts_with(target.filename().string() + kTempInfix) &&
          isTempName(entry.path()) && entry.path() != tmp) {
        std::error_code rmEc;
        if (std::filesystem::remove(entry.path(), rmEc)) {
          obs::counter("fs.stale_temps_removed").add();
        }
      }
    }
  }

  // A `truncate` fault at a seam with no write to shorten (open, rename)
  // degrades to a plain failure — ENOSPC while creating the file.
  if (fault::failPoint("fs.open")) {
    errno = ENOSPC;
    throwErrno("open", tmp);
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throwErrno("open", tmp);

  try {
    writeAll(fd, payload.data(), payload.size(), tmp);
    if (fault::failPoint("fs.fsync") || ::fsync(fd) != 0) {
      if (errno == 0) errno = EIO;
      throwErrno("fsync", tmp);
    }
  } catch (...) {
    ::close(fd);
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
  if (::close(fd) != 0) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throwErrno("close", tmp);
  }

  try {
    if (fault::failPoint("fs.rename")) {
      errno = ENOSPC;
      throwErrno("rename", target);
    }
    if (::rename(tmp.c_str(), target.c_str()) != 0) throwErrno("rename", target);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }

  // Make the rename itself durable. Failure here is reported, but the
  // rename already happened — the target is valid either way.
  fault::failPoint("fs.dirsync");
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) throwErrno("open (dir)", dir);
  const int rc = ::fsync(dfd);
  ::close(dfd);
  if (rc != 0) throwErrno("fsync (dir)", dir);

  writes.add();
  bytes.add(payload.size());
}

int cleanupStaleTemps(const std::filesystem::path& dir) {
  int removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (!isTempName(entry.path())) continue;
    std::error_code rmEc;
    if (std::filesystem::remove(entry.path(), rmEc)) {
      ++removed;
      obs::counter("fs.stale_temps_removed").add();
    }
  }
  return removed;
}

}  // namespace cati::fs
