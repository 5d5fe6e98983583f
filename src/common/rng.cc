#include "common/rng.h"

namespace obiswap {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

void Rng::Seed(uint64_t seed) {
  // splitmix64 expansion: word i is Mix64(seed + i * golden ratio).
  for (auto& word : state_) {
    word = Mix64(seed);
    seed += 0x9E3779B97F4A7C15ull;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  if (lo >= hi) return lo;
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

}  // namespace obiswap
