// Assembles CENG model bytes from parts — config echo, encoder, stage
// nets — exactly as Engine::save lays them out, under a valid CRC.
// test_engine perturbs one part to check that Engine::load rejects it on its
// contents; test_stream loads untrained nets of any shape to check the
// predict path without training one.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cati/engine.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "nn/nn.h"

namespace cati::testsupport {

/// Frames a CENG v2 payload; `tail` is appended after the stage nets.
inline std::string frameModel(const EngineConfig& cfg,
                              const embed::VucEncoder& enc,
                              const std::vector<nn::Sequential>& stages,
                              const std::string& tail = "") {
  std::ostringstream os;
  io::writeChecksummed(os, 0x43454e47 /*"CENG"*/, 2, [&](std::ostream& body) {
    io::Writer w(body);
    w.pod(cfg.window);
    w.pod(cfg.w2v.dim);
    w.pod(cfg.conv1);
    w.pod(cfg.conv2);
    w.pod(cfg.fcHidden);
    w.pod(cfg.voteClip);
    w.pod(static_cast<uint8_t>(cfg.clipEnabled ? 1 : 0));
    enc.save(body);
    for (const auto& net : stages) net.save(body);
    body << tail;
  });
  return std::move(os).str();
}

/// Six freshly initialized makeCnn stage nets for `cfg`; stage `wrongStage`
/// gets one class too many when set.
inline std::vector<nn::Sequential> stageNets(const EngineConfig& cfg,
                                             int wrongStage = -1,
                                             uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<nn::Sequential> nets;
  for (int s = 0; s < kNumStages; ++s) {
    const int classes =
        numClasses(static_cast<Stage>(s)) + (s == wrongStage ? 1 : 0);
    nets.push_back(nn::makeCnn({3 * cfg.w2v.dim, 2 * cfg.window + 1},
                               cfg.conv1, cfg.conv2, cfg.fcHidden, classes,
                               cfg.dropout, rng));
  }
  return nets;
}

/// XORs `mask` into the top byte of BLANK's first embedding float in
/// `bytes` (serialized word2vec, or a model payload holding one): 0x80 turns
/// the pinned +0 into -0, 0x3f into 0.5.
inline void flipBlankFloat(std::string& bytes, uint8_t mask) {
  // "CW2V" version 1, then the dim (int32) and the vector count (uint64);
  // BLANK's vector comes first.
  const std::string header("\x56\x32\x57\x43\x01\0\0\0", 8);
  const size_t at = bytes.find(header);
  if (at == std::string::npos) {
    throw std::logic_error("flipBlankFloat: no word2vec header");
  }
  const size_t topByte = at + header.size() + 4 + 8 + 3;
  bytes[topByte] = static_cast<char>(bytes[topByte] ^ mask);
}

}  // namespace cati::testsupport
