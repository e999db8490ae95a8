// VucSource: the training-side abstraction over "where the VUCs live".
//
// Engine::train historically walked a fully materialized corpus::Dataset;
// the streaming path (DESIGN.md §12) trains from an on-disk sharded corpus
// without ever materializing it. Both are expressed through this interface:
//
//   * labelOf(i)  — O(1) ground-truth label of any VUC, resident for the
//                   whole corpus (1 byte per VUC; the sharded reader keeps
//                   it from the manifest, no shard decode needed). This is
//                   what per-stage class grouping and balancedSubsample
//                   consume, so subsampling never touches shard bytes.
//   * forEach     — one streaming pass over every VUC in dataset order.
//                   The engine makes exactly one: it tokenizes every VUC
//                   into vocabulary ids, and those ids — not the VUCs — are
//                   what word2vec and every stage net train on.
//
// The split is what makes streaming bit-identical to in-memory training:
// every RNG-consuming decision (subsample, shuffles, dropout streams) is a
// function of indices and labels only, and the ids at a global index come
// from the same VUC the in-memory dataset holds there.
#pragma once

#include <cstdint>
#include <functional>

#include "corpus/corpus.h"

namespace cati::corpus {

class VucSource {
 public:
  virtual ~VucSource() = default;

  virtual int window() const = 0;
  virtual uint64_t numVars() const = 0;
  virtual uint64_t numVucs() const = 0;

  /// Ground-truth label of VUC `i` (TypeLabel::kCount = unlabeled).
  virtual TypeLabel labelOf(uint32_t i) const = 0;

  /// Streams every VUC in dataset order. The reference is only valid for
  /// the duration of the callback.
  virtual void forEach(const std::function<void(const Vuc&)>& fn) = 0;
};

/// The in-memory corpus::Dataset as a VucSource (the historical train path).
class DatasetSource final : public VucSource {
 public:
  explicit DatasetSource(const Dataset& ds) : ds_(ds) {}

  int window() const override { return ds_.window; }
  uint64_t numVars() const override { return ds_.vars.size(); }
  uint64_t numVucs() const override { return ds_.vucs.size(); }
  TypeLabel labelOf(uint32_t i) const override { return ds_.vucs[i].label; }
  void forEach(const std::function<void(const Vuc&)>& fn) override {
    for (const Vuc& v : ds_.vucs) fn(v);
  }

 private:
  const Dataset& ds_;
};

}  // namespace cati::corpus
