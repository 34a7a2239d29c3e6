#include "src/common/rng.h"

namespace prism {
namespace {

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::NextBelowSlow(uint64_t bound, __uint128_t m) {
  const uint64_t threshold = -bound % bound;
  while (static_cast<uint64_t>(m) < threshold) {
    m = static_cast<__uint128_t>(NextU64()) * bound;
  }
  return static_cast<uint64_t>(m >> 64);
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace prism
