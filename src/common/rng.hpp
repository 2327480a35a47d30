// Deterministic pseudo-random fills.
//
// All experiments must be bit-reproducible across runs and independent of
// std library implementation details, so we use an explicit SplitMix64.
#pragma once

#include <cstdint>
#include <vector>

#include "common/grid.hpp"

namespace ssam {

/// SplitMix64: tiny, high-quality, reproducible generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1).
  double next_unit() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double next_in(double lo, double hi) { return lo + (hi - lo) * next_unit(); }

  /// Uniform integer in [0, n).
  std::uint64_t next_below(std::uint64_t n) { return next_u64() % n; }

 private:
  std::uint64_t state_;
};

template <typename T>
void fill_random(Grid2D<T>& g, std::uint64_t seed, double lo = -1.0, double hi = 1.0) {
  SplitMix64 rng(seed);
  T* p = g.data();
  for (Index i = 0; i < g.size(); ++i) p[i] = static_cast<T>(rng.next_in(lo, hi));
}

template <typename T>
void fill_random(Grid3D<T>& g, std::uint64_t seed, double lo = -1.0, double hi = 1.0) {
  SplitMix64 rng(seed);
  T* p = g.data();
  for (Index i = 0; i < g.size(); ++i) p[i] = static_cast<T>(rng.next_in(lo, hi));
}

template <typename T>
void fill_random(std::vector<T>& v, std::uint64_t seed, double lo = -1.0, double hi = 1.0) {
  SplitMix64 rng(seed);
  for (auto& x : v) x = static_cast<T>(rng.next_in(lo, hi));
}

}  // namespace ssam
