#include "src/common/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace prism {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// Slicing-by-8 tables: kCrc[0] is the classic byte-at-a-time table, and
// kCrc[k][b] is the CRC of byte b followed by k zero bytes, so eight table
// lookups advance the CRC by eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xff] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kCrc = BuildCrcTables();

}  // namespace

uint64_t Fnv1a64(ByteView data) {
  uint64_t h = kFnvOffset;
  for (uint8_t byte : data) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64(ByteView(reinterpret_cast<const uint8_t*>(data.data()),
                          data.size()));
}

#if defined(__x86_64__)
namespace {

// Read once, before main; zero-initialized (false, so the table alone runs)
// for any Crc32 call made by an earlier static initializer.
const bool kHasClmul = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

// Folds the first len bytes (len >= 64, a multiple of 16) into the running
// CRC state c (the pre-inverted register, as the table loop keeps it) by
// carry-less multiplication, following Intel's "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ" with its reflected-domain constants
// for the IEEE polynomial (zlib-chromium's crc32_simd.c uses the same ones).
// A fold multiplies each 64-bit half of a lane by x^n mod P for that half,
// where n is how far the fold moves the data (k1/k2: 64 bytes, k3/k4: 16
// bytes). The product is congruent modulo P to the lane moved n bits on, so
// XORing in the data found there keeps the remainder of the whole stream.
// What it returns is the state the table loop would reach after the same
// bytes.
[[gnu::target("pclmul,sse4.1")]] uint32_t FoldCrc32(const uint8_t* data,
                                                     size_t len,
                                                     uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);  // mu, P'
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  const auto* block = reinterpret_cast<const __m128i*>(data);
  const __m128i* const end = block + len / 16;

  // Four lanes, each folded 64 bytes forward per step. The lane loops are
  // unrolled so the lanes live in registers.
  __m128i lane[4];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) lane[i] = _mm_loadu_si128(block + i);
  lane[0] = _mm_xor_si128(lane[0], _mm_cvtsi32_si128(static_cast<int>(c)));
  for (block += 4; end - block >= 4; block += 4) {
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
      lane[i] = _mm_xor_si128(
          _mm_xor_si128(_mm_clmulepi64_si128(lane[i], k1k2, 0x00),
                        _mm_clmulepi64_si128(lane[i], k1k2, 0x11)),
          _mm_loadu_si128(block + i));
    }
  }
  // The lanes into one, then each remaining block, 16 bytes per fold.
  __m128i x = lane[0];
#pragma GCC unroll 3
  for (int i = 1; i < 4; ++i) {
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x00),
                                    _mm_clmulepi64_si128(x, k3k4, 0x11)),
                      lane[i]);
  }
  for (; block < end; ++block) {
    x = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x00),
                                    _mm_clmulepi64_si128(x, k3k4, 0x11)),
                      _mm_loadu_si128(block));
  }

  // 128 -> 96 bits with k4, then 96 -> 64 with k5.
  x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits: mu estimates the quotient, P' multiplies
  // it back out, and the remainder lands in bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, q), 1));
}

}  // namespace
#endif

uint32_t Crc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xffffffffu;
#if defined(__x86_64__)
  if (len >= 64 && kHasClmul) {
    const size_t folded = len & ~size_t{15};
    c = FoldCrc32(data, folded, c);
    data += folded;
    len -= folded;
  }
#endif
  // Slicing-by-8 over whatever the fold left: all of a short input, or the
  // last 0-15 bytes of a long one.
  for (; len >= 8; data += 8, len -= 8) {
    // Two little-endian 32-bit loads; memcpy keeps unaligned input safe.
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, data, 4);
    std::memcpy(&hi, data + 4, 4);
    lo ^= c;
    c = kCrc[7][lo & 0xff] ^ kCrc[6][(lo >> 8) & 0xff] ^
        kCrc[5][(lo >> 16) & 0xff] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xff] ^ kCrc[2][(hi >> 8) & 0xff] ^
        kCrc[1][(hi >> 16) & 0xff] ^ kCrc[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    c = kCrc[0][(c ^ *data) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

uint32_t Crc32(ByteView data) { return Crc32(data.data(), data.size()); }

}  // namespace prism
