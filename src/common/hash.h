// Hash functions used by the storage systems.
//
// - Fnv1a64: the key hash for PRISM-KV / Pilaf / PRISM-TX hash tables.
// - Crc32: Pilaf's self-verifying extents need an application-level checksum
//   to detect reads torn by concurrent server-CPU writes (§6 of the paper;
//   PRISM-KV's out-of-place updates make this unnecessary, which is part of
//   its bandwidth win in Figure 3).
// - MixU64: cheap integer finalizer for collision-free bucket placement in
//   benches that model the paper's "collisionless hash function".
#ifndef PRISM_SRC_COMMON_HASH_H_
#define PRISM_SRC_COMMON_HASH_H_

#include <cstdint>

#include "src/common/bytes.h"

namespace prism {

uint64_t Fnv1a64(ByteView data);
uint64_t Fnv1a64(std::string_view data);

// CRC-32 (IEEE 802.3 polynomial, reflected). On x86-64 CPUs with PCLMULQDQ,
// inputs of 64 B or more are folded by carry-less multiplication up to
// their last 16-byte boundary; a slicing-by-8 table does the rest (and all
// of shorter inputs). Both give the same value for every input.
uint32_t Crc32(ByteView data);
uint32_t Crc32(const uint8_t* data, size_t len);

// Stafford variant 13 of the splitmix64 finalizer: a bijective mixer.
inline uint64_t MixU64(uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace prism

#endif  // PRISM_SRC_COMMON_HASH_H_
