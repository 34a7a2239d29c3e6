// The PRISM chain executor: exact semantics of Table 1.
//
// Pure synchronous semantics over an AddressSpace + FreeListRegistry; the
// timing layer (prism/service.h) interleaves ops of concurrent chains at op
// granularity, matching the paper's atomicity contract: the CAS itself is
// atomic, dereferencing indirect arguments is not, and chains as a whole are
// not.
//
// Security model (§3.1): every memory the op touches — the target address,
// the location an indirect target points to, an indirect data source, and a
// redirect destination — must lie in a region registered under the *same
// rkey* presented by the client (or the op NACKs with kPermissionDenied /
// kOutOfRange, modeled on the RDMA protection semantics).
#ifndef PRISM_SRC_PRISM_EXECUTOR_H_
#define PRISM_SRC_PRISM_EXECUTOR_H_

#include <vector>

#include "src/prism/freelist.h"
#include "src/prism/op.h"
#include "src/rdma/memory.h"
#include "src/rdma/verbs.h"

namespace prism::core {

// Tracks chain progress across ops (the CONDITIONAL flag's state).
struct ChainContext {
  bool prev_success = true;
};

// Memory-access counts for one op, used by the hardware-projection and
// BlueField timing models (each host access = one PCIe / host-memory RTT).
struct AccessProfile {
  int host_reads = 0;    // DMA reads of host memory
  int host_writes = 0;   // DMA writes to host memory
  int on_nic = 0;        // accesses landing in on-NIC SRAM
  bool atomic = false;   // needs the NIC's atomic unit
};

class Executor {
 public:
  Executor(rdma::AddressSpace* mem, FreeListRegistry* freelists)
      : mem_(mem), freelists_(freelists) {}

  // Executes one op of a chain, updating `ctx`.
  OpResult ExecuteOne(const Op& op, ChainContext& ctx);

  // Executes a whole chain in one shot (used by unit tests and by callers
  // that don't need op-granular timing).
  ChainResult Execute(const Chain& chain);

  // Predicts the op's memory-access profile *without* executing it (the
  // timing layer charges costs before effects). Uses only the op descriptor
  // plus region attributes (on-NIC vs host).
  AccessProfile Profile(const Op& op) const;

  rdma::AddressSpace& memory() { return *mem_; }
  FreeListRegistry& freelists() { return *freelists_; }

 private:
  OpResult DoRead(const Op& op);
  OpResult DoSearch(const Op& op);
  OpResult DoWrite(const Op& op);
  OpResult DoCas(const Op& op);
  OpResult DoAllocate(const Op& op);

  // Admits an access under op.rkey or within NIC-owned on-NIC scratch.
  Status CheckAccess(rdma::RKey rkey, rdma::Addr addr, uint64_t len,
                     uint32_t need) const;

  // Resolves the effective target address and length honoring addr_indirect
  // and addr_bounded; validates every touched range under op.rkey.
  struct Target {
    rdma::Addr addr = 0;
    uint64_t len = 0;
  };
  Result<Target> ResolveTarget(const Op& op, uint32_t need_access) const;
  // As above but with an explicit access length (CAS resolves the operand
  // width, not op.len) — avoids deep-copying the Op to override one field.
  Result<Target> ResolveTarget(const Op& op, uint64_t len,
                               uint32_t need_access) const;

  // Resolves the data operand honoring data_indirect: a view of the first
  // `width` inline bytes, or of the `width` bytes at the server-side source.
  // An indirect view aliases this memory until the op's store.
  Result<ByteView> ResolveData(const Op& op, uint64_t width) const;

  // The `len` bytes at `addr`, viewed in place (the caller validated them).
  ByteView View(rdma::Addr addr, uint64_t len) const {
    return {mem_->RawAt(addr, len), len};
  }

  // Stores an op output at the redirect target (validated under op.rkey).
  Status RedirectOutput(const Op& op, ByteView output);

  rdma::AddressSpace* mem_;
  FreeListRegistry* freelists_;
};

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_EXECUTOR_H_
