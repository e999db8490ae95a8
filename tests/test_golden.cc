// Golden-file regression tests: seeded pipeline outputs (corpus statistics
// and vote tallies) rendered to text and compared against checked-in files
// under tests/golden/. Any silent numeric drift — a generator tweak, an
// embedding/training change, a voting-formula edit — fails tier-1 here with
// a readable diff instead of slipping through as a small accuracy shift.
//
// To bless intentional changes, regenerate with tests/golden/update.sh
// (which runs this binary with CATI_UPDATE_GOLDEN=1) and review the diff.
//
// Shares the ./cati_test_cache/ micro model with test_parallel; both suites
// hold RESOURCE_LOCK micro_model_cache so the cache never races.
#include <array>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "corpus/source.h"
#include "embed/word2vec.h"
#include "support/golden.h"
#include "support/micro_model.h"

namespace cati {
namespace {

using testsupport::compareOrUpdate;
using testsupport::fnv1a;

TEST(Golden, CorpusStats) {
  const auto bins = testsupport::microBinaries();
  const corpus::Dataset ds = testsupport::microDataset();
  const corpus::DatasetStats st = corpus::computeStats(ds);

  std::ostringstream os;
  os << "micro_rev " << testsupport::kMicroRev << "\n";
  os << "seed " << testsupport::kMicroSeed << "\n";
  os << "binaries " << bins.size() << "\n";
  size_t funcs = 0;
  size_t insns = 0;
  for (const synth::Binary& b : bins) {
    funcs += b.funcs.size();
    insns += b.totalInstructions();
  }
  os << "functions " << funcs << "\n";
  os << "instructions " << insns << "\n";
  os << "apps " << ds.appNames.size() << "\n";
  os << "vars " << ds.vars.size() << "\n";
  os << "vucs " << ds.vucs.size() << "\n";
  os << "window " << ds.window << "\n";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    fnv1a([&] {
                      std::ostringstream b;
                      corpus::save(ds, b);
                      return std::move(b).str();
                    }())));
  os << "dataset_fnv1a " << hex << "\n";
  for (const TypeLabel t : allTypes()) {
    size_t n = 0;
    for (const corpus::VarInfo& v : ds.vars) n += v.label == t ? 1 : 0;
    os << "label " << typeName(t) << " " << n << "\n";
  }
  os << "vars_with_1_vuc " << st.varsWith1Vuc << "\n";
  os << "vars_with_2_vucs " << st.varsWith2Vucs << "\n";
  os << "uncertain1 " << st.uncertain1 << "\n";
  os << "uncertain2 " << st.uncertain2 << "\n";

  compareOrUpdate("corpus_stats.txt", os.str());
}

TEST(Golden, VoteTallies) {
  Engine engine = testsupport::cachedMicroEngine();
  const corpus::Dataset ds = testsupport::microDataset();

  par::ThreadPool pool(par::resolveJobs());
  const std::vector<StageProbs> probs = engine.predictVucs(ds.vucs, &pool);

  std::array<size_t, kNumTypes> routeTally{};
  for (const StageProbs& p : probs) {
    ++routeTally[static_cast<size_t>(engine.routeVuc(p))];
  }

  std::array<size_t, kNumTypes> finalTally{};
  std::array<std::array<size_t, 16>, kNumStages> stageTally{};
  size_t voted = 0;
  const auto byVar = ds.vucsByVar();
  for (size_t v = 0; v < byVar.size(); ++v) {
    if (byVar[v].empty()) continue;
    std::vector<StageProbs> vp;
    vp.reserve(byVar[v].size());
    for (const uint32_t i : byVar[v]) vp.push_back(probs[i]);
    const VariableDecision d = engine.voteVariable(vp);
    ++voted;
    ++finalTally[static_cast<size_t>(d.finalType)];
    for (int s = 0; s < kNumStages; ++s) {
      ++stageTally[static_cast<size_t>(s)]
                  [static_cast<size_t>(d.stageClass[static_cast<size_t>(s)])];
    }
  }

  std::ostringstream os;
  os << "micro_rev " << testsupport::kMicroRev << "\n";
  os << "vucs " << probs.size() << "\n";
  os << "vars_voted " << voted << "\n";
  for (const TypeLabel t : allTypes()) {
    os << "route " << typeName(t) << " "
       << routeTally[static_cast<size_t>(t)] << "\n";
  }
  for (const TypeLabel t : allTypes()) {
    os << "final " << typeName(t) << " "
       << finalTally[static_cast<size_t>(t)] << "\n";
  }
  for (int s = 0; s < kNumStages; ++s) {
    os << "stage " << stageName(static_cast<Stage>(s));
    for (int c = 0; c < numClasses(static_cast<Stage>(s)); ++c) {
      os << " " << stageTally[static_cast<size_t>(s)][static_cast<size_t>(c)];
    }
    os << "\n";
  }

  compareOrUpdate("vote_tallies.txt", os.str());
}

TEST(Golden, MicroModelBytes) {
  // Trained fresh, not read from the shared cache: every multiply-add that
  // shapes a model is pinned (He init in Rng::normal, word2vec.cc, the
  // kernels including Adam's), so these bytes are the same in every build
  // type and on every kernel tier (CATI_KERNEL).
  const std::string bytes =
      testsupport::trainMicroEngineBytes(par::resolveJobs());
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fnv1a(bytes)));
  std::ostringstream os;
  os << "micro_rev " << testsupport::kMicroRev << "\n";
  os << "model_bytes " << bytes.size() << "\n";
  os << "model_fnv1a " << hex << "\n";
  compareOrUpdate("micro_model.txt", os.str());
}

TEST(Golden, Word2VecBytesAtOddDims) {
  // word2vec's dot products reduce the first dim - dim%4 products rounded,
  // then fuse the last dim%4 terms. The micro model's dim (8) has no tail,
  // so these dims cover both the 4-wide step and the 1-, 3- and 0-term
  // tails; the bytes are the same in every build type.
  const corpus::Dataset ds = testsupport::microDataset();
  corpus::DatasetSource src(ds);
  const embed::TokenizedCorpus tc = embed::tokenize(src);
  par::ThreadPool pool(par::resolveJobs());
  std::ostringstream os;
  os << "micro_rev " << testsupport::kMicroRev << "\n";
  for (const int dim : {12, 13, 15}) {
    embed::W2VConfig cfg;
    cfg.dim = dim;
    cfg.epochs = 2;
    cfg.seed = testsupport::kMicroSeed;
    embed::Word2Vec w2v;
    w2v.train(tc, cfg, &pool);
    std::ostringstream b;
    w2v.save(b);
    const std::string bytes = std::move(b).str();
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(fnv1a(bytes)));
    os << "dim " << dim << " bytes " << bytes.size() << " fnv1a " << hex
       << "\n";
  }
  compareOrUpdate("word2vec_odd_dims.txt", os.str());
}

}  // namespace
}  // namespace cati
