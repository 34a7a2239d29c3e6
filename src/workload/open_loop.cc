#include "src/workload/open_loop.h"

#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace prism::workload::internal {
namespace {

// The AVX2 kernel stores a fresh slot as two little-endian words: the
// cursor, then issued = outstanding = 0 with tag and hist in the top two
// bytes. These offsets make that the slot's layout.
static_assert(offsetof(ClientSlot, issued) == 8 &&
              offsetof(ClientSlot, outstanding) == 12 &&
              offsetof(ClientSlot, tag) == 14 &&
              offsetof(ClientSlot, hist) == 15);

// The reference fill: one stream, two draws per slot (the key-space cursor,
// then the class pick). The pick is the cumulative subtraction of the
// weights in AddClass order: the first `pick < 0` wins, and class 0 wins
// when rounding leaves none. It is computed without a branch, which a 50/50
// mix would mispredict on about every other client.
void FillScalar(ClientSlot* slots, uint64_t n, std::span<const double> weights,
                double total_w, Rng* rng_io) {
  Rng rng = *rng_io;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t cursor = rng.NextU64();
    double pick = rng.NextDouble() * total_w;
    uint32_t tag = 0;
    bool found = false;
    for (size_t c = 0; c < weights.size(); ++c) {
      pick -= weights[c];
      const bool hit = (pick < 0) & !found;
      tag += static_cast<uint32_t>(hit) * static_cast<uint32_t>(c);
      found |= hit;
    }
    slots[i] = ClientSlot{cursor, 0, 0, static_cast<uint8_t>(tag),
                          static_cast<uint8_t>(tag)};
  }
  *rng_io = rng;
}

#if defined(__x86_64__)

// Read once, before main, as Crc32 reads PCLMUL support; zero-initialized
// (false: the scalar loop, same slots) for a fill made by an earlier static
// initializer.
const bool kHasAvx2 = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}();

[[gnu::target("avx2")]] inline __m256i Rotl(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// Four xoshiro256** streams stepped in lockstep, stream l in 64-bit lane l
// of each state word. AVX2 has no 64-bit multiply, so ×5 and ×9 are a shift
// and an add, which wrap mod 2^64 exactly as the scalar multiplies do.
struct Streams4 {
  __m256i s0, s1, s2, s3;

  [[gnu::target("avx2")]] __m256i Next() {
    const __m256i x5 = _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
    const __m256i r = Rotl(x5, 7);
    const __m256i result = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = Rotl(s3, 45);
    return result;
  }
};

// Fills slots [l·q, (l+1)·q) from stream l for l = 0..3 and leaves each
// stream's end state in `lanes`. Every double is the scalar loop's double:
// the 53-bit draw v converts exactly (below), v · 2^-53 is exact, and the
// product with total_w and each subtraction round once, in the same order
// and without FMA (this target does not enable it), as the scalar code does.
[[gnu::target("avx2")]] void FillAvx2(ClientSlot* slots, uint64_t q,
                                     std::span<const double> weights,
                                     double total_w, Rng lanes[4]) {
  Rng::Poly st[4];
  for (int l = 0; l < 4; ++l) st[l] = lanes[l].state();
  __m256i w[4];
  for (int k = 0; k < 4; ++k) {
    w[k] = _mm256_setr_epi64x(static_cast<long long>(st[0][k]),
                              static_cast<long long>(st[1][k]),
                              static_cast<long long>(st[2][k]),
                              static_cast<long long>(st[3][k]));
  }
  Streams4 rng{w[0], w[1], w[2], w[3]};

  // v < 2^53 as hi · 2^32 + lo. ORing hi into the mantissa of 2^84 gives
  // 2^84 + hi · 2^32, and lo into that of 2^52 gives 2^52 + lo. Taking
  // 2^84 + 2^52 from the first is exact (hi · 2^32 - 2^52 is a multiple of
  // 2^32 below 2^53 in magnitude), and adding the second then yields v,
  // exactly, because v is representable.
  const __m256i low32 = _mm256_set1_epi64x(0xffffffffll);
  const __m256i exp52 = _mm256_set1_epi64x(0x4330000000000000ll);
  const __m256i exp84 = _mm256_set1_epi64x(0x4530000000000000ll);
  const __m256d bias = _mm256_set1_pd(0x1.0p84 + 0x1.0p52);
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256d total = _mm256_set1_pd(total_w);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i n_classes =
      _mm256_set1_epi64x(static_cast<long long>(weights.size()));

  ClientSlot* out[4] = {slots, slots + q, slots + 2 * q, slots + 3 * q};
  for (uint64_t i = 0; i < q; ++i) {
    const __m256i cursor = rng.Next();
    const __m256i v = _mm256_srli_epi64(rng.Next(), 11);
    const __m256d hi = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(v, 32), exp84)),
        bias);
    const __m256d lo =
        _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(v, low32), exp52));
    __m256d pick = _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(hi, lo), scale),
                                 total);
    // The weights are positive, so the running pick never rises and the
    // first class that takes it below zero is the number of classes that
    // leave it at or above zero; a count of every class means none won,
    // and class 0 takes the slot, as in the scalar scan.
    __m256i above = _mm256_setzero_si256();
    for (double w : weights) {
      pick = _mm256_sub_pd(pick, _mm256_set1_pd(w));
      above = _mm256_sub_epi64(
          above, _mm256_castpd_si256(_mm256_cmp_pd(pick, zero, _CMP_GE_OQ)));
    }
    const __m256i tag =
        _mm256_andnot_si256(_mm256_cmpeq_epi64(above, n_classes), above);
    const __m256i meta = _mm256_or_si256(_mm256_slli_epi64(tag, 48),
                                         _mm256_slli_epi64(tag, 56));
    // {cursor, meta} per lane: lanes 0 and 2 from the low interleave, 1 and
    // 3 from the high one.
    const __m256i even = _mm256_unpacklo_epi64(cursor, meta);
    const __m256i odd = _mm256_unpackhi_epi64(cursor, meta);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[0] + i),
                     _mm256_castsi256_si128(even));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[1] + i),
                     _mm256_castsi256_si128(odd));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[2] + i),
                     _mm256_extracti128_si256(even, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[3] + i),
                     _mm256_extracti128_si256(odd, 1));
  }

  alignas(32) uint64_t words[4][4] = {};
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[0]), rng.s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[1]), rng.s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[2]), rng.s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[3]), rng.s3);
  for (int l = 0; l < 4; ++l) {
    lanes[l].set_state({words[0][l], words[1][l], words[2][l], words[3][l]});
  }
}

#endif  // __x86_64__

}  // namespace

bool HasAvx2Fill() {
#if defined(__x86_64__)
  return kHasAvx2;
#else
  return false;
#endif
}

void FillSlots(ClientSlot* slots, uint64_t n, std::span<const double> weights,
               Rng* rng, FillPath path) {
  double total_w = 0;
  for (double w : weights) total_w += w;
#if defined(__x86_64__)
  if (path == FillPath::kLanes && kHasAvx2) {
    // Four contiguous lanes of q slots; lane l starts 2·l·q draws on.
    const uint64_t q = n / 4;
    Rng lanes[4] = {*rng, *rng, *rng, *rng};
    for (int l = 1; l < 4; ++l) {
      lanes[l] = lanes[l - 1];
      lanes[l].Advance(2 * q);
    }
    FillAvx2(slots, q, weights, total_w, lanes);
    // Lane 3 ended 2·4q draws on, where the n mod 4 tail slots begin.
    *rng = lanes[3];
    FillScalar(slots + 4 * q, n - 4 * q, weights, total_w, rng);
    return;
  }
#endif
  FillScalar(slots, n, weights, total_w, rng);
}

}  // namespace prism::workload::internal
