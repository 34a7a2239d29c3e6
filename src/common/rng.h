// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic component (workload generators, backoff jitter, property
// tests) takes an explicit Rng so that simulations replay bit-identically
// from a seed.
//
// The per-draw paths (NextU64, NextDouble and NextBelow's accept-first-draw
// case) live here so the hot loops that call them, such as the open-loop
// pool's slot fill and arrival driver, inline them and keep the state in
// registers. Seeding, forking, jumping ahead and NextBelow's rejection loop
// (entered by a bound / 2^64 share of draws) stay out of line in rng.cc.
#ifndef PRISM_SRC_COMMON_RNG_H_
#define PRISM_SRC_COMMON_RNG_H_

#include <array>
#include <cstdint>

namespace prism {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  // SplitMix64 expansion of the seed, per the xoshiro authors' guidance.
  void Seed(uint64_t seed);

  uint64_t NextU64() {
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

  // Uniform in [0, bound) without modulo bias (Lemire's nearly-divisionless
  // method): the first draw is accepted unless its low product word falls
  // below `bound`, and only then may the rejection loop redraw.
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) return 0;
    const __uint128_t m = static_cast<__uint128_t>(NextU64()) * bound;
    if (static_cast<uint64_t>(m) < bound) [[unlikely]] {
      return NextBelowSlow(bound, m);
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t NextInRange(uint64_t lo, uint64_t hi) {
    return lo + NextBelow(hi - lo + 1);
  }

  // Uniform in [0, 1): the 53 high bits of one draw.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  bool NextBool(double p_true = 0.5) { return NextDouble() < p_true; }

  // Forks an independent stream (e.g. one per simulated client).
  Rng Fork();

  // Moves the stream forward by exactly k NextU64 draws: afterwards it
  // yields what it would have yielded after k NextU64 calls. It costs k & 255
  // steps plus one 256-step Jump per set bit of k above bit 7 (rng.cc).
  void Advance(uint64_t k);

  // One xoshiro step is a linear map T on the 256 state bits over GF(2).
  // Jump replaces the state s with q(T)·s for the polynomial q whose x^i
  // coefficient is bit i % 64 of poly[i / 64] (the bit order of the xoshiro
  // authors' jump() constants, which this applies as written).
  using Poly = std::array<uint64_t, 4>;
  void Jump(const Poly& poly);

  // The raw state, for kernels that step several streams in lockstep (the
  // open-loop slot fill); set_state(state()) leaves the stream unchanged.
  Poly state() const { return {state_[0], state_[1], state_[2], state_[3]}; }
  void set_state(const Poly& s) {
    for (int i = 0; i < 4; ++i) state_[i] = s[i];
  }

  // The characteristic polynomial P of T, which has degree 256: its x^256
  // term is implied and the rest is in Jump's bit order. P(T) = 0, so
  // T^k = (x^k mod P)(T), which is what Advance applies.
  static const Poly& CharPoly();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // NextBelow's rejection loop, entered with the first draw's product `m`.
  uint64_t NextBelowSlow(uint64_t bound, __uint128_t m);

  uint64_t state_[4];
};

}  // namespace prism

#endif  // PRISM_SRC_COMMON_RNG_H_
