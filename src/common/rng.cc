#include "src/common/rng.h"

#include <bitset>

#include "src/common/logging.h"

namespace prism {
namespace {

using Poly = Rng::Poly;

inline uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The characteristic polynomial of xoshiro256's state map T. Bit 0 of state
// word 0, read after each step, is a linear recurring sequence whose minimal
// polynomial divides P; P is primitive (the period is 2^256 - 1), so for a
// nonzero state that minimal polynomial is P itself, and Berlekamp–Massey
// finds it from 2 · 256 terms.
Poly ComputeCharPoly() {
  constexpr int kTerms = 512;
  Rng rng(1);
  std::bitset<kTerms> s;
  for (int n = 0; n < kTerms; ++n) {
    s[n] = rng.state()[0] & 1;
    rng.NextU64();
  }
  // Connection polynomial C(x) = 1 + c_1 x + ... + c_L x^L, with
  // s[n] = c_1 s[n-1] + ... + c_L s[n-L]; `window` holds s[n-i] at bit i.
  using Bits = std::bitset<kTerms + 64>;
  Bits c, b, window;
  c[0] = b[0] = 1;
  int len = 0;
  int m = 1;
  for (int n = 0; n < kTerms; ++n) {
    window <<= 1;
    window[0] = s[n];
    const bool discrepancy = ((c & window).count() & 1) != 0;
    if (!discrepancy) {
      ++m;
    } else if (2 * len <= n) {
      const Bits t = c;
      c ^= b << m;
      len = n + 1 - len;
      b = t;
      m = 1;
    } else {
      c ^= b << m;
      ++m;
    }
  }
  PRISM_CHECK_EQ(len, 256) << "xoshiro256's state map has degree 256";
  // P is C reversed: the x^i coefficient of P is c_{L-i}, and c_0 = 1 is the
  // implied x^256.
  Poly p{};
  for (int i = 0; i < len; ++i) {
    if (c[len - i]) p[i / 64] |= uint64_t{1} << (i % 64);
  }
  return p;
}

// a^2 mod P. Squaring over GF(2) spreads bit i to bit 2i; the high half is
// folded down one bit at a time with x^256 = p (mod P).
Poly SquareMod(const Poly& a, const Poly& p) {
  uint64_t r[8] = {};
  for (int w = 0; w < 4; ++w) {
    for (int half = 0; half < 2; ++half) {
      uint64_t v = static_cast<uint32_t>(a[w] >> (32 * half));
      v = (v | v << 16) & 0x0000ffff0000ffffull;
      v = (v | v << 8) & 0x00ff00ff00ff00ffull;
      v = (v | v << 4) & 0x0f0f0f0f0f0f0f0full;
      v = (v | v << 2) & 0x3333333333333333ull;
      v = (v | v << 1) & 0x5555555555555555ull;
      r[2 * w + half] = v;
    }
  }
  for (int bit = 511; bit >= 256; --bit) {
    if (((r[bit / 64] >> (bit % 64)) & 1) == 0) continue;
    r[bit / 64] ^= uint64_t{1} << (bit % 64);
    // XOR in p · x^(bit - 256), whose degree is below `bit`.
    const int shift = bit - 256;
    const int words = shift / 64;
    const int bits = shift % 64;
    for (int w = 0; w < 4; ++w) {
      r[w + words] ^= p[w] << bits;
      if (bits != 0 && w + words + 1 < 8) {
        r[w + words + 1] ^= p[w] >> (64 - bits);
      }
    }
  }
  return {r[0], r[1], r[2], r[3]};
}

// x^(2^j) mod P for j < 64: Advance's jump for bit j of k. Built once per
// process, on first use (a function-local static, so thread-safe).
struct JumpTable {
  Poly p = ComputeCharPoly();
  Poly pow2[64];

  JumpTable() {
    pow2[0] = {2, 0, 0, 0};  // x
    for (int j = 1; j < 64; ++j) pow2[j] = SquareMod(pow2[j - 1], p);
  }
};

const JumpTable& Table() {
  static const JumpTable table;
  return table;
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

const Rng::Poly& Rng::CharPoly() { return Table().p; }

void Rng::Jump(const Poly& poly) {
  // NextU64's state update on scalars: with the state in an array, the
  // compiler pairs the accumulator words into vector registers through the
  // stack, which stalls every step on store forwarding.
  uint64_t s0 = state_[0], s1 = state_[1], s2 = state_[2], s3 = state_[3];
  uint64_t a0 = 0, a1 = 0, a2 = 0, a3 = 0;
  for (uint64_t bits : poly) {
    for (int b = 0; b < 64; ++b, bits >>= 1) {
      const uint64_t take = -(bits & 1);
      a0 ^= s0 & take;
      a1 ^= s1 & take;
      a2 ^= s2 & take;
      a3 ^= s3 & take;
      const uint64_t t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = Rotl(s3, 45);
    }
  }
  state_[0] = a0;
  state_[1] = a1;
  state_[2] = a2;
  state_[3] = a3;
}

void Rng::Advance(uint64_t k) {
  // x^(2^j) for j < 8 is a monomial of degree below 256, so its jump would
  // still take 256 steps: stepping is cheaper for the low byte.
  for (uint64_t i = k & 0xff; i > 0; --i) NextU64();
  const JumpTable& table = Table();
  for (uint64_t high = k >> 8; high != 0; high &= high - 1) {
    Jump(table.pow2[8 + __builtin_ctzll(high)]);
  }
}

}  // namespace prism
