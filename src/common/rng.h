// Deterministic RNG (xoshiro256**) so simulations, workloads and
// property-based tests are reproducible from a seed.
#pragma once

#include <cstdint>

namespace obiswap {

/// splitmix64 finalizer: a stateless avalanche mixer, cheap and stable
/// across platforms. Rng seeds from it; the store client's backoff jitter
/// and the placement directory's rendezvous hash use it where a value must
/// depend only on its inputs, not on shared random state.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic pseudo-random generator. Same seed → same sequence on every
/// platform (no reliance on std::mt19937 distribution details).
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) { Seed(seed); }

  /// Re-seed (splitmix64 expansion of the single seed word).
  void Seed(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform value in [0, bound) — bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool NextBool(double p);

 private:
  uint64_t state_[4];
};

}  // namespace obiswap
