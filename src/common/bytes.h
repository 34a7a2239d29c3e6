// Byte-buffer utilities: the wire and memory representation used everywhere.
//
// Bytes is an owned, contiguous byte string; ByteView a non-owning view.
// SmallBytes is the operand and result type of PRISM ops and RDMA atomics:
// contents of up to 32 B live inside the object, longer contents in one
// shared immutable block (DESIGN.md §5.15).
// Little-endian load/store helpers are used for every structure laid out in
// simulated host memory (hash-table slots, ⟨tag,addr⟩ metadata, OCC words),
// so layouts are byte-accurate and independent of host struct padding.
#ifndef PRISM_SRC_COMMON_BYTES_H_
#define PRISM_SRC_COMMON_BYTES_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace prism {

using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;
using MutableByteView = std::span<uint8_t>;

// ---- little-endian scalar accessors on raw pointers ----

inline uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // all supported hosts are little-endian; asserted in bytes.cc
}

inline uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreU64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }
inline void StoreU32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

// ---- view-checked accessors ----

inline uint64_t LoadU64(ByteView view, size_t offset = 0) {
  PRISM_CHECK_LE(offset + sizeof(uint64_t), view.size());
  return LoadU64(view.data() + offset);
}

inline uint32_t LoadU32(ByteView view, size_t offset = 0) {
  PRISM_CHECK_LE(offset + sizeof(uint32_t), view.size());
  return LoadU32(view.data() + offset);
}

inline void StoreU64(MutableByteView view, size_t offset, uint64_t v) {
  PRISM_CHECK_LE(offset + sizeof(uint64_t), view.size());
  StoreU64(view.data() + offset, v);
}

// ---- SmallBytes ----

// An immutable-once-shared byte string sized for PRISM operands. Up to
// kInline bytes, the §3.3 maximum CAS width, are stored in the object, so
// CAS operands and masks, 8-byte pointers and tags, and CAS old values never
// touch the heap. Longer contents live in one refcounted block made by a
// single allocation; a copy shares the block, so one ALLOCATE payload fanned
// out to every replica is built once. A moved-from SmallBytes is empty.
class SmallBytes {
 public:
  static constexpr size_t kInline = 32;

  using value_type = uint8_t;
  using iterator = const uint8_t*;
  using const_iterator = const uint8_t*;

  SmallBytes() noexcept = default;
  // `n` bytes of `fill`, writable through mutable_data() until first copied.
  explicit SmallBytes(size_t n, uint8_t fill = 0) : size_(n) {
    std::memset(Allocate(), fill, n);
  }
  // Copies `bytes`. Implicit, so a Bytes or a view passes as an operand.
  SmallBytes(ByteView bytes) : size_(bytes.size()) {
    uint8_t* p = Allocate();
    if (size_ != 0) std::memcpy(p, bytes.data(), size_);
  }
  SmallBytes(const Bytes& bytes) : SmallBytes(ByteView(bytes)) {}

  SmallBytes(const SmallBytes& other) noexcept { CopyFrom(other); }
  SmallBytes(SmallBytes&& other) noexcept { TakeFrom(other); }
  SmallBytes& operator=(const SmallBytes& other) noexcept {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  SmallBytes& operator=(SmallBytes&& other) noexcept {
    if (this != &other) {
      Release();
      TakeFrom(other);
    }
    return *this;
  }
  ~SmallBytes() { Release(); }

  // One little-endian word, and two words `first` then `second` in memory
  // order (16-byte CAS operands: PRISM-RS's ⟨tag,addr⟩, PRISM-TX's PR|PW).
  static SmallBytes OfU64(uint64_t v) {
    SmallBytes b(sizeof(v));
    StoreU64(b.inline_, v);
    return b;
  }
  static SmallBytes OfU64Pair(uint64_t first, uint64_t second) {
    SmallBytes b(16);
    StoreU64(b.inline_, first);
    StoreU64(b.inline_ + 8, second);
    return b;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool is_inline() const { return size_ <= kInline; }
  const uint8_t* data() const {
    return is_inline() ? inline_ : BlockBytes(block_);
  }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  ByteView view() const { return {data(), size_}; }
  Bytes ToBytes() const { return Bytes(begin(), end()); }

  // The bytes, for filling in contents no copy shares yet.
  uint8_t* mutable_data() {
    if (is_inline()) return inline_;
    PRISM_CHECK_EQ(block_->refs.load(std::memory_order_relaxed), 1u)
        << "SmallBytes contents are immutable once shared";
    return BlockBytes(block_);
  }

  friend bool operator==(const SmallBytes& a, const SmallBytes& b) {
    return std::ranges::equal(a, b);
  }
  friend bool operator==(const SmallBytes& a, const Bytes& b) {
    return std::ranges::equal(a, b);
  }

 private:
  // The refcount is atomic because the sweep harness runs simulations on
  // several threads; each copy is one uncontended increment.
  struct Block {
    std::atomic<uint32_t> refs;
  };
  static uint8_t* BlockBytes(Block* b) {
    return reinterpret_cast<uint8_t*>(b + 1);
  }

  // Storage for size_ fresh bytes: in place, or a new block of one owner.
  uint8_t* Allocate() {
    if (size_ <= kInline) return inline_;
    block_ = ::new (::operator new(sizeof(Block) + size_)) Block{1};
    return BlockBytes(block_);
  }

  void CopyFrom(const SmallBytes& other) {
    size_ = other.size_;
    std::memcpy(inline_, other.inline_, kInline);  // or the block pointer
    if (!is_inline()) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void TakeFrom(SmallBytes& other) {
    size_ = other.size_;
    std::memcpy(inline_, other.inline_, kInline);
    other.size_ = 0;
  }
  void Release() {
    if (!is_inline() &&
        block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~Block();
      ::operator delete(block_);
    }
  }

  size_t size_ = 0;
  union {
    uint8_t inline_[kInline] = {};
    Block* block_;
  };
};

// ---- Bytes construction helpers ----

inline Bytes BytesOfU64(uint64_t v) {
  Bytes b(sizeof(v));
  StoreU64(b.data(), v);
  return b;
}

inline Bytes BytesOfString(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string StringOfBytes(ByteView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

// A bitmask of `bytes` 0xff bytes starting at byte `offset` within a width-
// `width` operand; used to build enhanced-CAS compare/swap masks that select
// individual fields of a packed structure.
SmallBytes FieldMask(size_t width, size_t offset, size_t bytes);

// Hex dump for diagnostics ("deadbeef..." lowercase, no separators).
std::string HexDump(ByteView b);

}  // namespace prism

#endif  // PRISM_SRC_COMMON_BYTES_H_
