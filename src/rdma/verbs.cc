#include "src/rdma/verbs.h"

namespace prism::rdma {
namespace {

constexpr uint64_t kMaxAtomicWidth = 32;

Status ValidateAtomicArgs(ByteView data, ByteView cmp_mask,
                          ByteView swap_mask) {
  const size_t width = data.size();
  if (width != 8 && width != 16 && width != 24 && width != 32) {
    return InvalidArgument("masked CAS width must be 8/16/24/32 bytes");
  }
  if (cmp_mask.size() != width || swap_mask.size() != width) {
    return InvalidArgument("mask width must match operand width");
  }
  static_assert(kMaxAtomicWidth == 32);
  return OkStatus();
}

}  // namespace

Result<Bytes> Verbs::Read(const AddressSpace& mem, RKey rkey, Addr addr,
                          uint64_t len) {
  PRISM_RETURN_IF_ERROR(mem.Validate(rkey, addr, len, kRemoteRead));
  return mem.Load(addr, len);
}

Status Verbs::Write(AddressSpace& mem, RKey rkey, Addr addr, ByteView data) {
  PRISM_RETURN_IF_ERROR(mem.Validate(rkey, addr, data.size(), kRemoteWrite));
  mem.Store(addr, data);
  return OkStatus();
}

Result<uint64_t> Verbs::CompareSwap(AddressSpace& mem, RKey rkey, Addr addr,
                                    uint64_t compare, uint64_t swap) {
  PRISM_RETURN_IF_ERROR(mem.Validate(rkey, addr, 8, kRemoteAtomic));
  if (addr % 8 != 0) {
    return InvalidArgument("atomic target must be 8-byte aligned");
  }
  uint64_t old = mem.LoadWord(addr);
  if (old == compare) {
    mem.StoreWord(addr, swap);
  }
  return old;
}

Result<uint64_t> Verbs::FetchAdd(AddressSpace& mem, RKey rkey, Addr addr,
                                 uint64_t delta) {
  PRISM_RETURN_IF_ERROR(mem.Validate(rkey, addr, 8, kRemoteAtomic));
  if (addr % 8 != 0) {
    return InvalidArgument("atomic target must be 8-byte aligned");
  }
  uint64_t old = mem.LoadWord(addr);
  mem.StoreWord(addr, old + delta);
  return old;
}

bool Verbs::MaskedCompare(ByteView request, ByteView memory, ByteView mask,
                          CasCompare mode) {
  PRISM_CHECK_EQ(request.size(), memory.size());
  PRISM_CHECK_EQ(request.size(), mask.size());
  switch (mode) {
    case CasCompare::kEqual:
      for (size_t i = 0; i < request.size(); ++i) {
        if ((request[i] & mask[i]) != (memory[i] & mask[i])) return false;
      }
      return true;
    case CasCompare::kGreater:
    case CasCompare::kLess: {
      // Little-endian unsigned comparison: scan from the most significant
      // (highest offset) byte down.
      for (size_t i = request.size(); i-- > 0;) {
        const uint8_t a = request[i] & mask[i];
        const uint8_t b = memory[i] & mask[i];
        if (a != b) {
          return mode == CasCompare::kGreater ? a > b : a < b;
        }
      }
      return false;  // equal: strict comparison fails
    }
  }
  return false;
}

Result<CasOutcome> Verbs::MaskedCompareSwap(AddressSpace& mem, RKey rkey,
                                            Addr addr, ByteView compare,
                                            ByteView swap,
                                            ByteView cmp_mask,
                                            ByteView swap_mask,
                                            CasCompare mode) {
  PRISM_RETURN_IF_ERROR(ValidateAtomicArgs(compare, cmp_mask, swap_mask));
  if (swap.size() != compare.size()) {
    return InvalidArgument("compare and swap operand widths differ");
  }
  PRISM_RETURN_IF_ERROR(
      mem.Validate(rkey, addr, compare.size(), kRemoteAtomic));
  if (addr % 8 != 0) {
    return InvalidArgument("atomic target must be 8-byte aligned");
  }
  // The operands may view this very memory (an indirect PRISM operand): the
  // old value and the update are both taken before the one store.
  const size_t width = compare.size();
  uint8_t* target = mem.RawAt(addr, width);
  CasOutcome outcome;
  outcome.old_value = ByteView(target, width);
  outcome.swapped = MaskedCompare(compare, outcome.old_value, cmp_mask, mode);
  if (outcome.swapped) {
    const uint8_t* old = outcome.old_value.data();
    uint8_t updated[kMaxAtomicWidth];
    for (size_t i = 0; i < width; ++i) {
      updated[i] = static_cast<uint8_t>((old[i] & ~swap_mask[i]) |
                                        (swap[i] & swap_mask[i]));
    }
    std::memcpy(target, updated, width);
  }
  return outcome;
}

}  // namespace prism::rdma
