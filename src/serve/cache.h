// Bounded LRU result cache for cati-serve (DESIGN.md §10).
//
// Keyed by the raw analyze-request payload (options + image bytes), so two
// requests hit the same entry exactly when the daemon would compute the same
// reply; the value is the complete encoded reply frame, so a cache hit sends
// byte-identical wire bytes to a miss. Keys are bucketed by CRC32 and
// resolved by full-key compare inside the bucket — a hash collision can cost
// a probe, never a wrong answer.
//
// Two modes:
//   * memory (dir empty): entries live in RAM; bytes() counts key+value.
//   * disk: each entry is one CRES container (checksummed framing from
//     serialize.h) published with fs::atomicWrite, so an injected kill at
//     any I/O seam leaves whole entries or no entry — never a torn file.
//     Entries are validated on every read; a corrupt entry is deleted,
//     counted (serve.cache.corrupt) and reported as a miss, so the daemon
//     recomputes instead of serving garbage. Construction sweeps stale
//     atomicWrite temps and re-indexes surviving entries.
//
// Deliberately single-threaded: only the batch loop touches the cache, which
// is what keeps hit/miss accounting and LRU order deterministic for the
// tests. The hash function is injectable for the same reason — collision
// tests force two keys into one bucket without 2^32 probing.
#pragma once

#include <cstdint>
#include <filesystem>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cati::serve {

class ResultCache {
 public:
  using HashFn = uint32_t (*)(const std::string& key);

  /// `maxBytes` bounds the sum of key+value sizes (0: cache disabled —
  /// every lookup misses, inserts are dropped). `dir` switches to disk mode
  /// (created if missing). `hash` overrides CRC32 (tests only).
  explicit ResultCache(size_t maxBytes, std::filesystem::path dir = {},
                       HashFn hash = nullptr);

  /// The cached value for `key`, refreshing its LRU position; nullopt on a
  /// miss. Disk mode re-reads and re-validates the entry file: corrupt or
  /// vanished entries are evicted and reported as misses (never throws on
  /// bad bytes — recompute is always the answer).
  std::optional<std::string> lookup(const std::string& key);

  /// Inserts or refreshes key -> value, then evicts least-recently-used
  /// entries until within maxBytes. Disk mode publishes the entry with
  /// fs::atomicWrite and lets cati::IoError propagate — the caller treats a
  /// cache write failure as a skipped insert, never a failed request.
  void insert(const std::string& key, const std::string& value);

  size_t entries() const { return lru_.size(); }
  size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::string key;
    std::string value;           // memory mode only
    std::filesystem::path file;  // disk mode only
    size_t bytes = 0;
    uint32_t hash = 0;
  };
  using Lru = std::list<Entry>;  // front = most recently used

  uint32_t hashKey(const std::string& key) const;
  /// The bucket iterator for `key`, or nullopt. O(bucket size) full-key
  /// compare — the collision guard.
  std::optional<Lru::iterator> find(const std::string& key);
  void erase(Lru::iterator it, bool removeFile);
  void evictToFit();
  /// Re-indexes surviving *.cres entries after a restart (disk mode).
  void recover();

  size_t maxBytes_;
  std::filesystem::path dir_;
  HashFn hash_;
  Lru lru_;
  std::unordered_map<uint32_t, std::vector<Lru::iterator>> buckets_;
  size_t bytes_ = 0;
  uint64_t seq_ = 0;  // entry-file name uniquifier
};

}  // namespace cati::serve
