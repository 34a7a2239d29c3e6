#include "src/common/bytes.h"

#include <bit>

namespace prism {

static_assert(std::endian::native == std::endian::little,
              "PRISM's simulated memory layouts assume a little-endian host");

SmallBytes FieldMask(size_t width, size_t offset, size_t bytes) {
  PRISM_CHECK_LE(offset + bytes, width);
  SmallBytes mask(width, 0x00);
  std::memset(mask.mutable_data() + offset, 0xff, bytes);
  return mask;
}

std::string HexDump(ByteView b) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t byte : b) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace prism
