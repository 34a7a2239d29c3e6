#include "src/rdma/memory.h"

#include <sys/mman.h>

#include <sanitizer/asan_interface.h>

namespace prism::rdma {

namespace {
constexpr uint64_t kPage = uint64_t{4} << 10;
constexpr uint64_t kHugePage = uint64_t{2} << 20;
}  // namespace

// Pages read as zero and become resident only when first written, so a
// space costs nothing for the parts nobody touches. Spaces of 2 MiB and up
// are rounded to whole huge pages and hinted MADV_HUGEPAGE, so a store
// build faults in 2 MiB at a time instead of 4 KiB. The mapping always
// keeps at least one byte past capacity_, poisoned, so ASan reports a
// raw-pointer overrun.
AddressSpace::AddressSpace(uint64_t capacity) : capacity_(capacity) {
  PRISM_CHECK_GT(capacity, 64u);
  const uint64_t unit = capacity >= kHugePage ? kHugePage : kPage;
  mapped_ = (capacity + unit) & ~(unit - 1);
  void* p = mmap(nullptr, mapped_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  PRISM_CHECK(p != MAP_FAILED) << "mmap of " << mapped_ << " bytes failed";
  data_ = static_cast<uint8_t*>(p);
  // Only a hint: without THP the space still works, in 4 KiB faults.
  if (unit == kHugePage) madvise(p, mapped_, MADV_HUGEPAGE);
  ASAN_POISON_MEMORY_REGION(data_ + capacity_, mapped_ - capacity_);
}

AddressSpace::~AddressSpace() {
  ASAN_UNPOISON_MEMORY_REGION(data_ + capacity_, mapped_ - capacity_);
  munmap(data_, mapped_);
}

Result<Addr> AddressSpace::Carve(uint64_t bytes, uint64_t align) {
  PRISM_CHECK_GT(align, 0u);
  PRISM_CHECK_EQ((align & (align - 1)), 0u);
  uint64_t base = (next_free_ + align - 1) & ~(align - 1);
  if (bytes > capacity_ || base > capacity_ - bytes) {
    return ResourceExhausted("address space exhausted");
  }
  next_free_ = base + bytes;
  return base;
}

Result<MemoryRegion> AddressSpace::Register(Addr base, uint64_t length,
                                            uint32_t access, uint32_t attrs) {
  if (length == 0 || base >= capacity_ || length > capacity_ - base) {
    return OutOfRange("registration outside address space");
  }
  MemoryRegion region{.base = base,
                      .length = length,
                      .rkey = next_rkey_++,
                      .access = access,
                      .attrs = attrs};
  regions_.push_back(region);
  return region;
}

Result<MemoryRegion> AddressSpace::CarveAndRegister(uint64_t bytes,
                                                    uint32_t access,
                                                    uint32_t attrs) {
  PRISM_ASSIGN_OR_RETURN(Addr base, Carve(bytes));
  return Register(base, bytes, access, attrs);
}

Status AddressSpace::Deregister(RKey rkey) {
  for (size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i].rkey == rkey) {
      regions_.erase(regions_.begin() + static_cast<ptrdiff_t>(i));
      return OkStatus();
    }
  }
  return NotFound("rkey not registered");
}

Status AddressSpace::Validate(RKey rkey, Addr addr, uint64_t len,
                              uint32_t need) const {
  const MemoryRegion* region = FindRegion(rkey);
  if (region == nullptr) {
    return PermissionDenied("unknown rkey");
  }
  if (!region->Contains(addr, len)) {
    return OutOfRange("access outside registered region");
  }
  if ((region->access & need) != need) {
    return PermissionDenied("region lacks required access rights");
  }
  return OkStatus();
}

const MemoryRegion* AddressSpace::FindRegion(RKey rkey) const {
  for (const MemoryRegion& r : regions_) {
    if (r.rkey == rkey) return &r;
  }
  return nullptr;
}

bool AddressSpace::IsOnNic(Addr addr, uint64_t len) const {
  for (const MemoryRegion& r : regions_) {
    if ((r.attrs & kOnNic) != 0 && r.Contains(addr, len)) return true;
  }
  return false;
}

uint8_t* AddressSpace::RawAt(Addr addr, uint64_t len) {
  PRISM_CHECK(addr < capacity_ && len <= capacity_ - addr)
      << "raw access out of bounds: addr=" << addr << " len=" << len;
  return data_ + addr;
}

const uint8_t* AddressSpace::RawAt(Addr addr, uint64_t len) const {
  PRISM_CHECK(addr < capacity_ && len <= capacity_ - addr);
  return data_ + addr;
}

uint64_t AddressSpace::LoadWord(Addr addr) const {
  return LoadU64(RawAt(addr, 8));
}

void AddressSpace::StoreWord(Addr addr, uint64_t value) {
  StoreU64(RawAt(addr, 8), value);
}

Bytes AddressSpace::Load(Addr addr, uint64_t len) const {
  const uint8_t* p = RawAt(addr, len);
  return Bytes(p, p + len);
}

void AddressSpace::Store(Addr addr, ByteView data) {
  uint8_t* dst = RawAt(addr, data.size());
  // An empty view may carry a null pointer, and memmove from null is
  // undefined even for zero bytes: bounds-check, then skip the copy. The
  // view may alias this space (a PRISM indirect operand or a redirected
  // READ), so the copy must allow overlap.
  if (!data.empty()) std::memmove(dst, data.data(), data.size());
}

}  // namespace prism::rdma
