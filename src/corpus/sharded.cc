#include "corpus/sharded.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/errors.h"
#include "common/fs.h"
#include "common/obs.h"
#include "common/serialize.h"

namespace cati::corpus {

namespace {

constexpr uint32_t kShardMagic = 0x43534844;  // "CSHD"
constexpr uint32_t kShardVersion = 1;

/// Hostile-count ceilings for the manifest (same discipline as CDST load:
/// no allocation is ever sized from an unchecked field).
constexpr uint64_t kMaxShards = 1ULL << 20;
constexpr uint64_t kMaxWindow = 1ULL << 14;

[[noreturn]] void corruptShard(size_t idx, const std::string& file,
                               const std::string& why) {
  throw CorruptError("sharded corpus: shard " + std::to_string(idx) + " (" +
                     file + "): " + why);
}

/// libstdc++/libc++ keep short strings inline; only longer ones own heap.
uint64_t stringHeapBytes(const std::string& s) {
  return s.size() <= 15 ? 0 : s.size() + 1;
}

}  // namespace

std::string shardFileName(size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%05zu.cdst", i);
  return buf;
}

uint64_t estimateResidentBytes(const Dataset& ds) {
  uint64_t b = sizeof(Dataset);
  for (const std::string& n : ds.appNames) {
    b += sizeof(std::string) + stringHeapBytes(n);
  }
  b += ds.vars.size() * sizeof(VarInfo);
  for (const Vuc& v : ds.vucs) {
    b += sizeof(Vuc) + v.posLabel.size() + v.window.size() * sizeof(GenInstr);
    for (const GenInstr& g : v.window) {
      b += stringHeapBytes(g.mnem) + stringHeapBytes(g.op1) +
           stringHeapBytes(g.op2);
    }
  }
  return b;
}

void writeManifest(const std::filesystem::path& dir, const ShardManifest& m) {
  fs::atomicWrite(dir / kManifestName, [&](std::ostream& os) {
    io::writeChecksummed(os, kShardMagic, kShardVersion,
                         [&](std::ostream& body) {
      io::Writer w(body);
      w.pod<int32_t>(m.window);
      w.pod<uint64_t>(m.targetVucs);
      w.pod<uint64_t>(m.shards.size());
      for (const ShardInfo& s : m.shards) {
        w.str(s.file);
        w.pod<uint64_t>(s.vucs);
        w.pod<uint64_t>(s.vars);
        w.pod<uint64_t>(s.apps);
        w.pod<uint64_t>(s.fileBytes);
        w.pod<uint64_t>(s.residentBytes);
        w.pod<uint32_t>(s.crc);
        w.vec(s.labels);
      }
    });
  });
}

// --- ShardWriter -------------------------------------------------------------

ShardWriter::ShardWriter(std::filesystem::path dir, int window,
                         uint64_t targetVucs)
    : dir_(std::move(dir)) {
  if (targetVucs == 0) {
    throw std::invalid_argument("ShardWriter: targetVucs must be >= 1");
  }
  manifest_.window = window;
  manifest_.targetVucs = targetVucs;
  cur_.window = window;
  std::filesystem::create_directories(dir_);
  // A killed previous writer can only leave complete shards plus temp
  // debris; sweep the debris before this run starts publishing.
  fs::cleanupStaleTemps(dir_);
}

void ShardWriter::append(Dataset part) {
  if (finished_) throw std::logic_error("ShardWriter: append after finish");
  vucsWritten_ += part.vucs.size();
  varsWritten_ += part.vars.size();
  cur_.append(std::move(part));
  if (cur_.vucs.size() >= manifest_.targetVucs) flush();
}

void ShardWriter::flush() {
  if (cur_.vucs.empty() && cur_.vars.empty()) return;
  static obs::Counter& written = obs::counter("corpus.shards.written");
  static obs::Counter& bytesOut = obs::counter("corpus.shards.bytes_written");
  std::ostringstream body;
  save(cur_, body);
  const std::string bytes = std::move(body).str();

  ShardInfo info;
  info.file = shardFileName(manifest_.shards.size());
  info.vucs = cur_.vucs.size();
  info.vars = cur_.vars.size();
  info.apps = cur_.appNames.size();
  info.fileBytes = bytes.size();
  info.residentBytes = estimateResidentBytes(cur_);
  info.crc = io::crc32(bytes.data(), bytes.size());
  info.labels.reserve(cur_.vucs.size());
  for (const Vuc& v : cur_.vucs) {
    info.labels.push_back(static_cast<int8_t>(v.label));
  }
  fs::atomicWrite(dir_ / info.file, [&](std::ostream& os) {
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  written.add();
  bytesOut.add(bytes.size());
  manifest_.shards.push_back(std::move(info));

  cur_ = Dataset{};
  cur_.window = manifest_.window;
}

void ShardWriter::finish() {
  if (finished_) throw std::logic_error("ShardWriter: finish called twice");
  flush();
  // The manifest lands last: a corpus directory without one is by
  // definition an interrupted build, whatever shards it holds.
  writeManifest(dir_, manifest_);
  finished_ = true;
}

// --- ShardedCorpus -----------------------------------------------------------

ShardedCorpus::ShardedCorpus(const std::filesystem::path& dir) : dir_(dir) {
  const std::filesystem::path path = dir_ / kManifestName;
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CorruptError("sharded corpus: missing manifest " + path.string() +
                       " (not a corpus directory, or an interrupted "
                       "cati-synth --shards run)");
  }
  manifest_ = io::readChecksummed(
      is, kShardMagic, kShardVersion, "sharded corpus manifest",
      [](std::istream& body) {
        io::Reader r(body);
        ShardManifest m;
        m.window = r.pod<int32_t>();
        if (m.window < 1 || static_cast<uint64_t>(m.window) > kMaxWindow) {
          throw CorruptError("sharded corpus manifest: window out of range");
        }
        m.targetVucs = r.pod<uint64_t>();
        const auto n = r.pod<uint64_t>();
        if (n > kMaxShards) {
          throw CorruptError("sharded corpus manifest: corrupt shard count");
        }
        m.shards.reserve(n);
        for (uint64_t i = 0; i < n; ++i) {
          ShardInfo s;
          s.file = r.str();
          s.vucs = r.pod<uint64_t>();
          s.vars = r.pod<uint64_t>();
          s.apps = r.pod<uint64_t>();
          s.fileBytes = r.pod<uint64_t>();
          s.residentBytes = r.pod<uint64_t>();
          s.crc = r.pod<uint32_t>();
          s.labels = r.vec<int8_t>();
          if (s.file.empty() ||
              s.file.find('/') != std::string::npos ||
              s.file.find('\\') != std::string::npos) {
            corruptShard(i, s.file, "invalid shard file name");
          }
          if (s.labels.size() != s.vucs) {
            corruptShard(i, s.file, "label array does not match VUC count");
          }
          for (const int8_t l : s.labels) {
            if (l < 0 || l > static_cast<int8_t>(TypeLabel::kCount)) {
              corruptShard(i, s.file, "label value out of range");
            }
          }
          m.shards.push_back(std::move(s));
        }
        return m;
      });

  vucBase_.reserve(manifest_.shards.size());
  varBase_.reserve(manifest_.shards.size());
  appBase_.reserve(manifest_.shards.size());
  uint64_t apps = 0;
  for (const ShardInfo& s : manifest_.shards) {
    vucBase_.push_back(totalVucs_);
    varBase_.push_back(totalVars_);
    appBase_.push_back(apps);
    totalVucs_ += s.vucs;
    totalVars_ += s.vars;
    apps += s.apps;
  }
  // Global ids are uint32 (Vuc::varId, VarInfo::appId); a manifest whose
  // totals overflow them cannot have been written by ShardWriter.
  if (totalVucs_ > UINT32_MAX || totalVars_ > UINT32_MAX ||
      apps > UINT32_MAX) {
    throw CorruptError("sharded corpus manifest: corrupt totals (vuc/var/app "
                       "counts overflow 32-bit ids)");
  }
  labels_.reserve(totalVucs_);
  for (const ShardInfo& s : manifest_.shards) {
    labels_.insert(labels_.end(), s.labels.begin(), s.labels.end());
  }
}

Dataset ShardedCorpus::readShard(size_t idx) const {
  static obs::Counter& reads = obs::counter("corpus.shards.read");
  static obs::Counter& bytesIn = obs::counter("corpus.shards.bytes_read");
  static obs::Histogram& decodeNs = obs::timer("corpus.shards.decode_ns");
  const obs::ScopedTimer timing(decodeNs);
  const ShardInfo& s = manifest_.shards[idx];
  const std::filesystem::path path = dir_ / s.file;

  std::ifstream is(path, std::ios::binary);
  if (!is) {
    corruptShard(idx, s.file,
                 "cannot open shard file (deleted or unreadable; the "
                 "manifest requires it)");
  }
  std::string bytes(static_cast<size_t>(s.fileBytes), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (static_cast<uint64_t>(is.gcount()) != s.fileBytes ||
      (is.peek(), !is.eof())) {
    corruptShard(idx, s.file, "size mismatch vs manifest");
  }
  if (io::crc32(bytes.data(), bytes.size()) != s.crc) {
    corruptShard(idx, s.file, "checksum mismatch vs manifest");
  }
  reads.add();
  bytesIn.add(bytes.size());

  io::ImemStream body(bytes.data(), bytes.size());
  Dataset d;
  try {
    d = load(body);
  } catch (const std::exception& e) {
    corruptShard(idx, s.file, e.what());
  }
  if (d.window != manifest_.window || d.vucs.size() != s.vucs ||
      d.vars.size() != s.vars || d.appNames.size() != s.apps) {
    corruptShard(idx, s.file, "decoded counts disagree with manifest");
  }
  // Globalize ids exactly as Dataset::append would when concatenating the
  // shards in order — bound-checked first so labelOf/vucsByVar-style
  // indexing downstream can trust them. Every window must hold the
  // manifest's 2w+1 instructions: the engine lays each out as one sample.
  const auto vb = static_cast<uint32_t>(varBase_[idx]);
  const auto ab = static_cast<uint32_t>(appBase_[idx]);
  const size_t rows = 2 * static_cast<size_t>(manifest_.window) + 1;
  for (Vuc& v : d.vucs) {
    if (v.window.size() != rows) {
      corruptShard(idx, s.file,
                   "VUC window length does not match the manifest window");
    }
    if (v.varId >= d.vars.size()) {
      corruptShard(idx, s.file, "VUC variable id out of range");
    }
    v.varId += vb;
  }
  for (VarInfo& v : d.vars) {
    if (v.appId >= d.appNames.size()) {
      corruptShard(idx, s.file, "variable app id out of range");
    }
    v.appId += ab;
  }
  return d;
}

void ShardedCorpus::forEachShard(
    const std::function<void(const Dataset&)>& fn) const {
  static obs::Histogram& stallNs = obs::timer("train.prefetch_stall_ns");
  static obs::Histogram& shardNs = obs::timer("train.shard_ns");
  const size_t n = manifest_.shards.size();
  if (n == 0) return;

  // Double-buffered prefetch: the reader thread decodes at most one shard
  // ahead and waits for the slot to empty BEFORE decoding the next, so the
  // peak is two decoded shards (the one being consumed + the slot / the one
  // in decode). Consumption order is fixed (ascending shard index); the
  // thread only moves wall-clock I/O off the training path, so results are
  // identical with or without it (DESIGN.md §12 threading rules).
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Dataset> slot;
  bool stop = false;
  std::exception_ptr readerErr;
  std::thread reader([&] {
    try {
      for (size_t k = 0; k < n; ++k) {
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return !slot.has_value() || stop; });
          if (stop) return;
        }
        Dataset d = readShard(k);  // decoded outside the lock
        {
          std::lock_guard<std::mutex> lk(mu);
          if (stop) return;
          slot.emplace(std::move(d));
        }
        cv.notify_all();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(mu);
        readerErr = std::current_exception();
      }
      cv.notify_all();
    }
  });

  try {
    for (size_t k = 0; k < n; ++k) {
      Dataset d;
      bool failed = false;
      {
        const auto t0 = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return slot.has_value() || readerErr != nullptr; });
        if (readerErr != nullptr) {
          failed = true;
        } else {
          d = std::move(*slot);
          slot.reset();
          if (obs::enabled()) {
            stallNs.observe(static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count()));
          }
        }
      }
      if (failed) break;
      cv.notify_all();
      const obs::ScopedTimer consuming(shardNs);
      fn(d);
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(mu);
      stop = true;
    }
    cv.notify_all();
    reader.join();
    throw;
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
  }
  cv.notify_all();
  reader.join();
  if (readerErr != nullptr) std::rethrow_exception(readerErr);
}

uint64_t ShardedCorpus::streamingResidentBytes() const {
  uint64_t maxShard = 0;
  for (const ShardInfo& s : manifest_.shards) {
    maxShard = std::max(maxShard, s.residentBytes);
  }
  const uint64_t idsPerVuc =
      3 * (2 * static_cast<uint64_t>(manifest_.window) + 1);
  const uint64_t ids =
      totalVucs_ * (sizeof(std::vector<int32_t>) + idsPerVuc * sizeof(int32_t));
  return 2 * maxShard + ids + labels_.size();
}

// --- ShardedSource -----------------------------------------------------------

void ShardedSource::forEach(const std::function<void(const Vuc&)>& fn) {
  sc_.forEachShard([&](const Dataset& d) {
    for (const Vuc& v : d.vucs) fn(v);
  });
}

}  // namespace cati::corpus
