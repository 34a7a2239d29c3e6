// The PRISM operation model — Table 1 of the paper.
//
// A chain is a vector of Ops executed by the server NIC (or software stack)
// in order, in a single network round trip. Each op may carry:
//
//   addr_indirect  — the target address is a pointer to the real target
//   addr_bounded   — the pointer is a ⟨ptr,bound⟩ struct; length is clamped
//   data_indirect  — the data operand is a server-side pointer to the source
//   conditional    — execute only if the previous op in the chain succeeded
//   redirect       — write the op's output (READ/ALLOCATE) to redirect_addr
//                    instead of returning it to the client
//
// plus the enhanced-CAS fields: comparison mode (EQ/GT/LT), separate compare
// and swap bitmasks, and operand widths of 8..32 bytes (§3.3).
//
// Every operand and result is a SmallBytes (DESIGN.md §5.15): operands up to
// the 32-byte CAS width, masks, pointers and CAS old values sit inline in the
// Op or OpResult, and a longer WRITE/ALLOCATE payload or READ result is one
// shared block. Copying a chain copies no payload, and the only heap block an
// executed chain makes is the data of a READ longer than 32 bytes.
#ifndef PRISM_SRC_PRISM_OP_H_
#define PRISM_SRC_PRISM_OP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/rdma/memory.h"
#include "src/rdma/verbs.h"

namespace prism::core {

enum class OpCode : uint8_t {
  kRead = 0,
  kWrite = 1,
  kCas = 2,
  kAllocate = 3,
  // Extension beyond Table 1: Snap's software RDMA stack also ships a
  // pattern-search primitive (§9), used to scan remote structures (logs,
  // arrays) without transferring them. Scans [addr, addr+len) for the byte
  // pattern in `data`; returns the 8-byte offset of the first match, or
  // kSearchNotFound. Supports addr_indirect and redirect like READ.
  kSearch = 4,
};

inline constexpr uint64_t kSearchNotFound = ~uint64_t{0};

std::string_view OpCodeName(OpCode code);

// The wire representation of a bounded pointer (16 bytes, little-endian).
struct BoundedPtr {
  rdma::Addr ptr = 0;
  uint64_t bound = 0;

  static constexpr uint64_t kWireSize = 16;

  static BoundedPtr Load(const uint8_t* p) {
    return BoundedPtr{LoadU64(p), LoadU64(p + 8)};
  }
  void Store(uint8_t* p) const {
    StoreU64(p, ptr);
    StoreU64(p + 8, bound);
  }
  Bytes ToBytes() const {
    Bytes b(kWireSize);
    Store(b.data());
    return b;
  }
};

struct Op {
  OpCode code = OpCode::kRead;
  rdma::RKey rkey = 0;
  rdma::Addr addr = 0;   // target address (READ/WRITE/CAS)
  uint64_t len = 0;      // requested length (READ/WRITE)
  SmallBytes data;       // WRITE data / CAS operand / ALLOCATE payload;
                         // an 8-byte server pointer when data_indirect

  // Indirection flags (§3.1).
  bool addr_indirect = false;
  bool addr_bounded = false;
  bool data_indirect = false;

  // Chaining flags (§3.4).
  bool conditional = false;
  bool redirect = false;
  rdma::Addr redirect_addr = 0;

  // Enhanced CAS (§3.3). `data` is the swap operand. `compare`, when
  // non-empty, is a separate compare operand (the full Mellanox extended-
  // atomics form, which Table 1's single-`data` signature abbreviates);
  // when empty, `data` is used for both, selected by the two masks.
  // PRISM-KV's PUT needs the separate form: it compares the OLD buffer
  // address while swapping in the NEW one read from on-NIC scratch (§6.1).
  rdma::CasCompare cas_mode = rdma::CasCompare::kEqual;
  SmallBytes compare;
  bool compare_indirect = false;
  SmallBytes cmp_mask;
  SmallBytes swap_mask;

  // ALLOCATE (§3.2).
  uint32_t freelist = 0;

  // ---- factories ----

  static Op Read(rdma::RKey rkey, rdma::Addr addr, uint64_t len) {
    Op op;
    op.code = OpCode::kRead;
    op.rkey = rkey;
    op.addr = addr;
    op.len = len;
    return op;
  }

  // READ(..., indirect=true[, bounded]): addr points at a pointer (or
  // ⟨ptr,bound⟩ struct) to the real target.
  static Op IndirectRead(rdma::RKey rkey, rdma::Addr addr, uint64_t len,
                         bool bounded = false) {
    Op op = Read(rkey, addr, len);
    op.addr_indirect = true;
    op.addr_bounded = bounded;
    return op;
  }

  // Pattern search over [addr, addr+len) (Snap-style extension, §9).
  static Op Search(rdma::RKey rkey, rdma::Addr addr, uint64_t len,
                   SmallBytes pattern) {
    Op op;
    op.code = OpCode::kSearch;
    op.rkey = rkey;
    op.addr = addr;
    op.len = len;
    op.data = std::move(pattern);
    return op;
  }

  static Op Write(rdma::RKey rkey, rdma::Addr addr, SmallBytes data) {
    Op op;
    op.code = OpCode::kWrite;
    op.rkey = rkey;
    op.addr = addr;
    op.len = data.size();
    op.data = std::move(data);
    return op;
  }

  static Op Allocate(rdma::RKey rkey, uint32_t freelist, SmallBytes data) {
    Op op;
    op.code = OpCode::kAllocate;
    op.rkey = rkey;
    op.freelist = freelist;
    op.len = data.size();
    op.data = std::move(data);
    return op;
  }

  // Full-width equality CAS (masks all-ones).
  static Op Cas(rdma::RKey rkey, rdma::Addr addr, SmallBytes data) {
    Op op;
    op.code = OpCode::kCas;
    op.rkey = rkey;
    op.addr = addr;
    op.cmp_mask = SmallBytes(data.size(), 0xff);
    op.swap_mask = SmallBytes(data.size(), 0xff);
    op.len = data.size();
    op.data = std::move(data);
    return op;
  }

  static Op MaskedCas(rdma::RKey rkey, rdma::Addr addr, SmallBytes data,
                      SmallBytes cmp_mask, SmallBytes swap_mask,
                      rdma::CasCompare mode = rdma::CasCompare::kEqual) {
    Op op;
    op.code = OpCode::kCas;
    op.rkey = rkey;
    op.addr = addr;
    op.len = data.size();
    op.data = std::move(data);
    op.cmp_mask = std::move(cmp_mask);
    op.swap_mask = std::move(swap_mask);
    op.cas_mode = mode;
    return op;
  }

  // CAS with distinct compare and swap operands.
  static Op CompareSwapCas(rdma::RKey rkey, rdma::Addr addr,
                           SmallBytes compare, SmallBytes swap,
                           SmallBytes cmp_mask, SmallBytes swap_mask,
                           rdma::CasCompare mode = rdma::CasCompare::kEqual) {
    Op op = MaskedCas(rkey, addr, std::move(swap), std::move(cmp_mask),
                      std::move(swap_mask), mode);
    op.compare = std::move(compare);
    return op;
  }

  // ---- chain-flag decorators (builder style) ----

  Op&& Conditional() && {
    conditional = true;
    return std::move(*this);
  }
  Op&& RedirectTo(rdma::Addr target) && {
    redirect = true;
    redirect_addr = target;
    return std::move(*this);
  }
  Op&& WithAddrIndirect(bool bounded = false) && {
    addr_indirect = true;
    addr_bounded = bounded;
    return std::move(*this);
  }
  Op&& WithDataIndirect() && {
    data_indirect = true;
    return std::move(*this);
  }
};

using Chain = std::vector<Op>;

struct OpResult {
  Status status;            // NACK/errors; FailedPrecondition when skipped
  bool executed = false;    // false when skipped by `conditional`
  bool cas_swapped = false; // CAS comparison outcome
  SmallBytes data;          // READ payload / CAS old value / ALLOCATE addr;
                            // empty when output was redirected
  // For indirect READs: the pointer value the NIC resolved (8 extra response
  // bytes on the wire). Lets PRISM-KV's PUT learn the old buffer address
  // from the same single round trip that probes the slot (§6.2 reports a
  // 2-RT PUT). Also filled for redirected ALLOCATEs so clients can reclaim
  // buffers whose install CAS subsequently failed.
  rdma::Addr resolved_addr = 0;

  // "Successful" in the chaining sense (§3.4): executed without NACK, and a
  // CAS must additionally have swapped.
  bool Successful(OpCode code) const {
    if (!executed || !status.ok()) return false;
    if (code == OpCode::kCas) return cas_swapped;
    return true;
  }

  rdma::Addr AllocatedAddr() const {
    PRISM_CHECK_EQ(data.size(), 8u);
    return LoadU64(data.data());
  }
};

using ChainResult = std::vector<OpResult>;

// True iff every op of the chain executed successfully (CAS must swap).
bool ChainFullySucceeded(const Chain& chain, const ChainResult& results);

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_OP_H_
