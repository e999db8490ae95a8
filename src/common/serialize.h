// Minimal binary (de)serialization over iostreams. Used for model files,
// cached datasets and the DWARF-like debug-info encoding.
//
// Format: little-endian PODs, length-prefixed strings/vectors. Readers throw
// cati::CorruptError on truncated or corrupt input; writers throw
// cati::IoError on I/O failure, so callers never silently persist half a
// model (both derive std::runtime_error; the tools map them to distinct
// exit codes — see common/errors.h).
//
// Top-level containers (image, engine model, dataset cache) use the
// checksummed framing below: magic + version + length-prefixed payload +
// CRC32 trailer. A flipped bit anywhere in the payload is a deterministic
// "checksum mismatch" error instead of a model deserialized into nonsense.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/errors.h"

namespace cati::io {

/// Bound on every dimension a model file declares — layer sizes, kernel
/// widths, embedding sizes, each shape axis and a net's per-sample
/// activations. Reader::dim rejects anything outside [1, kMaxDim] with
/// CorruptError (DESIGN.md §6), so no product of two dimensions overflows.
inline constexpr int kMaxDim = 1 << 20;

// --- CRC32 (reflected, poly 0xEDB88320 — the zlib/IEEE one) -----------------

namespace detail {
constexpr std::array<uint32_t, 256> makeCrcTable() {
  std::array<uint32_t, 256> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[i] = c;
  }
  return t;
}
inline constexpr std::array<uint32_t, 256> kCrcTable = makeCrcTable();
}  // namespace detail

/// Incremental CRC32; pass the previous return value as `crc` to continue.
inline uint32_t crc32(const void* data, size_t n, uint32_t crc = 0) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = detail::kCrcTable[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

/// An istream over caller-owned bytes, without copying them — used to parse
/// a shard body already read into memory. The buffer must outlive the
/// stream. Read-only.
class ImemStream : private std::streambuf, public std::istream {
 public:
  ImemStream(const char* data, size_t n) : std::istream(this) {
    auto* p = const_cast<char*>(data);
    setg(p, p, p + n);
  }
};

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void pod(const T& value) {
    os_.write(reinterpret_cast<const char*>(&value), sizeof(T));
    check();
  }

  void str(const std::string& s) {
    pod<uint64_t>(s.size());
    os_.write(s.data(), static_cast<std::streamsize>(s.size()));
    check();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void vec(const std::vector<T>& v) {
    pod<uint64_t>(v.size());
    os_.write(reinterpret_cast<const char*>(v.data()),
              static_cast<std::streamsize>(v.size() * sizeof(T)));
    check();
  }

 private:
  void check() {
    if (!os_) throw IoError("serialize: write failed");
  }
  std::ostream& os_;
};

class Reader {
 public:
  explicit Reader(std::istream& is) : is_(is) {}

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T pod() {
    T value{};
    is_.read(reinterpret_cast<char*>(&value), sizeof(T));
    check();
    return value;
  }

  std::string str() {
    const auto n = pod<uint64_t>();
    guardSize(n);
    std::string s;
    readChunked(s, n);
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> vec() {
    const auto n = pod<uint64_t>();
    guardSize(n);  // element count first: n * sizeof(T) must not overflow
    guardSize(n * sizeof(T));
    std::vector<T> v;
    readChunked(v, n);
    return v;
  }

  /// A dimension field: an int in [1, kMaxDim], else CorruptError naming
  /// `what`.
  int dim(const std::string& what) {
    const auto v = pod<int>();
    if (v < 1 || v > kMaxDim) {
      throw CorruptError(what + ": dimension " + std::to_string(v) +
                         " out of range");
    }
    return v;
  }

  /// A length-prefixed vector that must hold exactly `n` elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> vec(size_t n, const std::string& what) {
    std::vector<T> v = vec<T>();
    if (v.size() != n) {
      throw CorruptError(what + ": " + std::to_string(v.size()) +
                         " values where the dimensions need " +
                         std::to_string(n));
    }
    return v;
  }

 private:
  void check() {
    if (!is_) throw CorruptError("serialize: truncated input");
  }
  /// Reads `n` elements into `out`, growing it one chunk at a time: a
  /// hostile length prefix costs at most one chunk of memory beyond the
  /// bytes actually in the stream, not the gigabytes it claims.
  template <typename C>
  void readChunked(C& out, uint64_t n) {
    using T = typename C::value_type;
    constexpr uint64_t kChunk = (uint64_t{1} << 20) / sizeof(T);
    while (out.size() < n) {
      const size_t old = out.size();
      out.resize(old + static_cast<size_t>(std::min(kChunk, n - old)));
      is_.read(reinterpret_cast<char*>(out.data() + old),
               static_cast<std::streamsize>((out.size() - old) * sizeof(T)));
      check();
    }
  }
  // Rejects absurd length prefixes before allocating, so a corrupt file
  // fails with a clear error instead of bad_alloc.
  static void guardSize(uint64_t bytes) {
    constexpr uint64_t kMax = 1ULL << 34;  // 16 GiB
    if (bytes > kMax) throw CorruptError("serialize: corrupt length");
  }
  std::istream& is_;
};

/// Writes a 4-byte magic + version header; readers verify both.
inline void writeHeader(Writer& w, uint32_t magic, uint32_t version) {
  w.pod(magic);
  w.pod(version);
}

inline void expectHeader(Reader& r, uint32_t magic, uint32_t version,
                         const char* what) {
  if (r.pod<uint32_t>() != magic)
    throw CorruptError(std::string(what) + ": bad magic");
  if (r.pod<uint32_t>() != version)
    throw CorruptError(std::string(what) + ": unsupported version");
}

// --- checksummed container framing ------------------------------------------
//
// Layout: magic u32 | version u32 | payloadSize u64 | payload | crc32 u32.
// The payload is produced/consumed by a callable so existing section writers
// compose unchanged; the buffer also makes the CRC cover nested sections
// (debug info inside an image, per-stage networks inside a model) that use
// their own Writer instances.

template <typename Fn>
void writeChecksummed(std::ostream& os, uint32_t magic, uint32_t version,
                      Fn&& body) {
  std::ostringstream buf;
  body(static_cast<std::ostream&>(buf));
  const std::string payload = std::move(buf).str();
  Writer w(os);
  writeHeader(w, magic, version);
  w.pod<uint64_t>(payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  // pod() below also verifies the payload write via its stream check.
  w.pod<uint32_t>(crc32(payload.data(), payload.size()));
}

/// Returns whatever `body(payloadStream)` returns. Throws cati::CorruptError
/// naming `what` on bad magic, unsupported version, truncation, or CRC
/// mismatch — before `body` ever sees a corrupt byte.
template <typename Fn>
auto readChecksummed(std::istream& is, uint32_t magic, uint32_t version,
                     const char* what, Fn&& body) {
  Reader r(is);
  expectHeader(r, magic, version, what);
  const auto n = r.pod<uint64_t>();
  if (n > (1ULL << 34)) {
    throw CorruptError(std::string(what) + ": corrupt payload length");
  }
  // Chunked read: a hostile length field only ever costs one chunk of
  // allocation beyond the bytes actually present in the stream.
  std::string payload;
  for (uint64_t remaining = n; remaining > 0;) {
    const auto take = static_cast<size_t>(
        remaining < (1ULL << 20) ? remaining : (1ULL << 20));
    const size_t old = payload.size();
    payload.resize(old + take);
    is.read(payload.data() + old, static_cast<std::streamsize>(take));
    const auto got = static_cast<uint64_t>(is.gcount());
    if (!is || got != take) {
      throw CorruptError(std::string(what) + ": truncated input (payload cut " +
                         std::to_string(n - remaining + got) + "/" +
                         std::to_string(n) + " bytes in)");
    }
    remaining -= take;
  }
  // The CRC trailer is read explicitly: a file truncated exactly at the end
  // of the payload (a chunk boundary — the likeliest kill point for a
  // non-atomic writer) must name the container and the missing trailer, not
  // die with a generic short-read error deep in Reader::pod.
  uint32_t stored = 0;
  is.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  if (!is || is.gcount() != static_cast<std::streamsize>(sizeof(stored))) {
    throw CorruptError(std::string(what) +
                       ": truncated input (missing checksum trailer)");
  }
  if (crc32(payload.data(), payload.size()) != stored) {
    throw CorruptError(std::string(what) +
                       ": checksum mismatch (corrupt file)");
  }
  std::istringstream ps(std::move(payload));
  return body(static_cast<std::istream&>(ps));
}

}  // namespace cati::io
