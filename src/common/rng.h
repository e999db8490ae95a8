// Deterministic random helpers used across the synthetic corpus generator
// and the learning code. All experiment randomness flows through Rng with an
// explicit seed so every table in EXPERIMENTS.md is exactly reproducible.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace cati {

class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  uint64_t next() { return engine_(); }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t uniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal draw by the Marsaglia polar method: the draw libstdc++'s
  /// std::normal_distribution<float> makes on a fresh distribution (the
  /// pair's second value is dropped), with the multiply-adds GCC 12 fuses at
  /// -O3 -march=x86-64-v3 written as std::fma, so every build type draws
  /// the same bits (He init of every trained net starts here).
  float normal(float mean = 0.0F, float stddev = 1.0F) {
    float x = 0.0F;
    float y = 0.0F;
    float r2 = 0.0F;
    do {
      x = std::fma(2.0F, canonical(), -1.0F);
      y = std::fma(2.0F, canonical(), -1.0F);
      r2 = std::fma(x, x, y * y);
    } while (r2 > 1.0F || r2 == 0.0F);
    const float mult = std::sqrt(-2.0F * std::log(r2) / r2);
    return std::fma(y * mult, stddev, mean);
  }

  bool chance(double p) { return uniform() < p; }

  /// Index drawn proportionally to non-negative weights; requires a
  /// positive total weight.
  size_t weightedIndex(std::span<const double> weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    assert(total > 0.0);
    double x = uniform(0.0, total);
    for (size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0.0) return i;
    }
    return weights.size() - 1;
  }

  template <typename T>
  const T& choice(std::span<const T> items) {
    assert(!items.empty());
    return items[static_cast<size_t>(
        uniformInt(0, static_cast<int64_t>(items.size()) - 1))];
  }

  template <typename T>
  const T& choice(const std::vector<T>& items) {
    return choice(std::span<const T>(items));
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    std::shuffle(items.begin(), items.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }

  /// Derives an independent stream; used to give each generated function /
  /// binary its own seed without correlated draws.
  uint64_t fork() { return engine_() ^ 0x9e3779b97f4a7c15ULL; }

 private:
  /// Uniform float in [0, 1) from one engine draw: the draw rounded to
  /// float, times 2^-64 — no multiply-add for a compiler to fuse.
  float canonical() {
    return std::generate_canonical<float, std::numeric_limits<float>::digits>(
        engine_);
  }

  std::mt19937_64 engine_;
};

/// splitmix64 finalizer mixing (seed, stream) into an independent seed for a
/// parallel chunk's private Rng. Pure, unlike fork(): no engine state is
/// advanced, so chunk seeds depend only on the base seed and the chunk's
/// index — never on which thread runs the chunk or in what order. This is
/// the RNG-stream-splitting rule behind the jobs-invariance contract
/// (DESIGN.md §7).
inline uint64_t splitSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace cati
