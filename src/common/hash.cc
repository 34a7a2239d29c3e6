#include "src/common/hash.h"

#include <array>
#include <cstring>

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

uint32_t Crc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xffffffffu;
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
