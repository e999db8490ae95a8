// CSHD v1 — the sharded on-disk corpus (DESIGN.md §12).
//
// A corpus directory holds one checksummed manifest (`corpus.cshd`) plus N
// independently-checksummed shard files (`shard-00000.cdst`, ...), each a
// self-contained CDST v2 Dataset with shard-local variable/app ids. The
// manifest records the window, per-shard counts, file CRCs, decoded-size
// estimates and the per-VUC ground-truth labels, so id bases and per-stage
// class grouping need zero shard decodes. Every file is published with
// fs::atomicWrite: a killed `cati-synth --shards` run leaves only complete
// shards and either no manifest or a complete one — never a torn file.
//
// Reading is strict: any mismatch between the manifest and a shard file
// (missing file, size or CRC mismatch, count/window disagreement, a VUC
// window of the wrong length, id out of range) throws cati::CorruptError
// naming the shard, which tools surface as exit code 4.
//
// A training run reads every shard once: ShardedSource::forEach feeds the
// engine's tokenization pass, and from then on the engine holds token ids,
// never VUCs.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/source.h"

namespace cati::corpus {

/// The manifest file name inside a corpus directory.
inline constexpr const char* kManifestName = "corpus.cshd";

/// `shard-NNNNN.cdst` for shard index `i`.
std::string shardFileName(size_t i);

/// Deterministic estimate of a decoded shard's resident heap bytes (strings
/// counted by length, small strings assumed inline). Feeds the
/// --max-resident admission check; computed once at write time.
uint64_t estimateResidentBytes(const Dataset& ds);

struct ShardInfo {
  std::string file;             ///< file name inside the corpus directory
  uint64_t vucs = 0;            ///< VUC count in this shard
  uint64_t vars = 0;            ///< variable count (shard-local ids)
  uint64_t apps = 0;            ///< application count
  uint64_t fileBytes = 0;       ///< serialized size on disk
  uint64_t residentBytes = 0;   ///< decoded in-memory estimate
  uint32_t crc = 0;             ///< CRC32 of the whole shard file
  std::vector<int8_t> labels;   ///< per-VUC ground-truth TypeLabel
};

struct ShardManifest {
  int window = 10;
  uint64_t targetVucs = 0;  ///< the --shard-vucs the writer was given
  std::vector<ShardInfo> shards;
};

/// Writes `m` to dir/corpus.cshd (checksummed CSHD v1, atomic publish).
/// ShardWriter::finish uses this; tests use it to craft hostile manifests.
void writeManifest(const std::filesystem::path& dir, const ShardManifest& m);

/// Incremental shard writer: append per-binary datasets; whenever the
/// accumulated shard reaches `targetVucs` VUCs it is flushed to disk as one
/// atomically-published CDST file (shards close at whole-binary boundaries,
/// so every shard is independently decodable). finish() flushes the tail
/// shard and publishes the manifest last — a corpus directory is complete
/// exactly when its manifest exists.
class ShardWriter {
 public:
  /// Sweeps stale `*.cati-tmp.*` debris from `dir` (a previous killed
  /// writer) before the first shard is written. `targetVucs` must be >= 1.
  ShardWriter(std::filesystem::path dir, int window, uint64_t targetVucs);

  /// Appends one binary's dataset (same id remapping as Dataset::append, so
  /// the concatenated shard stream is byte-identical to corpus::extractAll
  /// over the same binaries in the same order).
  void append(Dataset part);

  /// Flushes the tail shard and atomically publishes the manifest.
  void finish();

  size_t shardsWritten() const { return manifest_.shards.size(); }
  uint64_t vucsWritten() const { return vucsWritten_; }
  uint64_t varsWritten() const { return varsWritten_; }
  const ShardManifest& manifest() const { return manifest_; }

 private:
  void flush();

  std::filesystem::path dir_;
  ShardManifest manifest_;
  Dataset cur_;
  uint64_t vucsWritten_ = 0;
  uint64_t varsWritten_ = 0;
  bool finished_ = false;
};

/// Open-for-reading sharded corpus: validates the manifest, precomputes the
/// global vuc/var/app id bases and keeps the flat per-VUC label array
/// resident (1 byte per VUC) — no shard is decoded until readShard /
/// forEachShard.
class ShardedCorpus {
 public:
  /// Throws cati::CorruptError when the manifest is missing, truncated,
  /// checksum-damaged or self-inconsistent.
  explicit ShardedCorpus(const std::filesystem::path& dir);

  const std::filesystem::path& dir() const { return dir_; }
  const ShardManifest& manifest() const { return manifest_; }
  int window() const { return manifest_.window; }
  size_t numShards() const { return manifest_.shards.size(); }
  uint64_t numVucs() const { return totalVucs_; }
  uint64_t numVars() const { return totalVars_; }

  /// Global index of shard `s`'s first VUC / variable / app.
  uint64_t vucBase(size_t s) const { return vucBase_[s]; }
  uint64_t varBase(size_t s) const { return varBase_[s]; }
  uint64_t appBase(size_t s) const { return appBase_[s]; }

  /// Ground-truth label of global VUC `i`, from the manifest (no I/O).
  TypeLabel labelOf(uint64_t i) const {
    return static_cast<TypeLabel>(labels_[i]);
  }

  /// Decodes shard `s`: reads the file, verifies its size and CRC against
  /// the manifest, parses the CDST payload, cross-checks counts, window,
  /// every VUC's window length and id bounds, and remaps var/app ids to
  /// their global ranges. Throws cati::CorruptError naming the shard on any
  /// mismatch.
  Dataset readShard(size_t s) const;

  /// Streams shards in index order through `fn(dataset)` with a
  /// double-buffered background prefetch thread: shard k+1 is read+decoded
  /// while `fn` consumes shard k, and at most two decoded shards are
  /// resident at any instant. The dataset is discarded when `fn` returns.
  /// Consumption order is always ascending shard index, so downstream
  /// results never depend on prefetch timing. Observes
  /// train.prefetch_stall_ns (consumer waited on I/O) and train.shard_ns
  /// (consumer time per shard).
  void forEachShard(const std::function<void(const Dataset&)>& fn) const;

  /// The streaming path's peak-resident estimate: two decoded shards (the
  /// prefetch pipeline's bound) plus the per-VUC token ids the engine keeps
  /// for stage training (3 ids per window row, one vector per VUC) plus the
  /// flat label array. Feeds the cati-train --max-resident admission check.
  uint64_t streamingResidentBytes() const;

 private:
  std::filesystem::path dir_;
  ShardManifest manifest_;
  std::vector<uint64_t> vucBase_;
  std::vector<uint64_t> varBase_;
  std::vector<uint64_t> appBase_;
  std::vector<int8_t> labels_;  ///< flattened manifest labels, global order
  uint64_t totalVucs_ = 0;
  uint64_t totalVars_ = 0;
};

/// A ShardedCorpus as a VucSource: labels from the manifest, forEach as a
/// prefetch-pipelined streaming pass.
class ShardedSource final : public VucSource {
 public:
  explicit ShardedSource(const ShardedCorpus& sc) : sc_(sc) {}

  int window() const override { return sc_.window(); }
  uint64_t numVars() const override { return sc_.numVars(); }
  uint64_t numVucs() const override { return sc_.numVucs(); }
  TypeLabel labelOf(uint32_t i) const override { return sc_.labelOf(i); }
  void forEach(const std::function<void(const Vuc&)>& fn) override;

 private:
  const ShardedCorpus& sc_;
};

}  // namespace cati::corpus
