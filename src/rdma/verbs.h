// Semantic executor for standard RDMA one-sided verbs.
//
// Pure synchronous functions over an AddressSpace: they perform the rkey /
// range / rights validation a NIC would and then the memory effect. No
// timing — the fabric services (rdma/service.h) wrap these with the latency
// and queueing model. Keeping semantics separate makes them directly
// unit-testable and lets the PRISM executor reuse them.
//
// Supported verbs:
//   Read / Write                — arbitrary length
//   CompareSwap / FetchAdd      — standard 8-byte RDMA atomics
//   MaskedCompareSwap           — Mellanox "extended atomics" style masked
//                                 CAS on 8..32-byte operands; the basis of
//                                 PRISM's enhanced CAS (§3.3)
#ifndef PRISM_SRC_RDMA_VERBS_H_
#define PRISM_SRC_RDMA_VERBS_H_

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/rdma/memory.h"

namespace prism::rdma {

// Comparison operators for the masked CAS. Standard RDMA offers only kEqual;
// PRISM adds the arithmetic comparisons (§3.3), computed by the same adder
// that implements FETCH_AND_ADD (§4.2).
enum class CasCompare : uint8_t {
  kEqual,
  kGreater,  // (data & cmp_mask) >  (*target & cmp_mask), unsigned
  kLess,     // (data & cmp_mask) <  (*target & cmp_mask), unsigned
};

struct CasOutcome {
  bool swapped = false;
  SmallBytes old_value;  // previous *target (width bytes), always returned
};

class Verbs {
 public:
  static Result<Bytes> Read(const AddressSpace& mem, RKey rkey, Addr addr,
                            uint64_t len);

  static Status Write(AddressSpace& mem, RKey rkey, Addr addr, ByteView data);

  // Standard 8-byte atomic compare-and-swap; returns the previous value.
  static Result<uint64_t> CompareSwap(AddressSpace& mem, RKey rkey, Addr addr,
                                      uint64_t compare, uint64_t swap);

  // Standard 8-byte atomic fetch-and-add; returns the previous value.
  static Result<uint64_t> FetchAdd(AddressSpace& mem, RKey rkey, Addr addr,
                                   uint64_t delta);

  // Masked CAS with separate compare and swap operands (the full Mellanox
  // extended-atomics form), width ∈ {8,16,24,32}:
  //   if Compare(mode, *t & cmp_mask, compare & cmp_mask):
  //     *t = (*t & ~swap_mask) | (swap & swap_mask)
  // Arithmetic comparisons treat the masked operand as one little-endian
  // unsigned integer of the full width (so a field at a higher offset is
  // more significant — layouts in kv/rs/tx rely on this).
  static Result<CasOutcome> MaskedCompareSwap(AddressSpace& mem, RKey rkey,
                                              Addr addr, ByteView compare,
                                              ByteView swap,
                                              ByteView cmp_mask,
                                              ByteView swap_mask,
                                              CasCompare mode);

  // Single-operand form (Table 1's compressed signature): compare and swap
  // share one operand, selected by the two masks.
  static Result<CasOutcome> MaskedCompareSwap(AddressSpace& mem, RKey rkey,
                                              Addr addr, ByteView data,
                                              ByteView cmp_mask,
                                              ByteView swap_mask,
                                              CasCompare mode) {
    return MaskedCompareSwap(mem, rkey, addr, data, data, cmp_mask,
                             swap_mask, mode);
  }

  // The masked comparison itself, exposed for the PRISM executor and tests.
  // a and b must be the same width. Returns Compare(mode, a&mask, b&mask)
  // where for kGreater/kLess `a` is the request operand and `b` the memory.
  static bool MaskedCompare(ByteView request, ByteView memory, ByteView mask,
                            CasCompare mode);
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_VERBS_H_
