#include "src/prism/executor.h"

#include <algorithm>

namespace prism::core {

namespace {
using rdma::kRemoteAtomic;
using rdma::kRemoteRead;
using rdma::kRemoteWrite;
}  // namespace

std::string_view OpCodeName(OpCode code) {
  switch (code) {
    case OpCode::kRead: return "READ";
    case OpCode::kWrite: return "WRITE";
    case OpCode::kCas: return "CAS";
    case OpCode::kAllocate: return "ALLOCATE";
    case OpCode::kSearch: return "SEARCH";
  }
  return "UNKNOWN";
}

bool ChainFullySucceeded(const Chain& chain, const ChainResult& results) {
  if (chain.size() != results.size()) return false;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (!results[i].Successful(chain[i].code)) return false;
  }
  return true;
}

// §3.1 security rule, plus the §4.2 on-NIC scratch carve-out: an access is
// admitted if it lies in a region under the presented rkey, or entirely in
// NIC-owned scratch (per-connection temporary space the NIC itself manages).
Status Executor::CheckAccess(rdma::RKey rkey, rdma::Addr addr, uint64_t len,
                             uint32_t need) const {
  if (mem_->IsOnNic(addr, len)) return OkStatus();
  return mem_->Validate(rkey, addr, len, need);
}

Result<Executor::Target> Executor::ResolveTarget(const Op& op,
                                                 uint32_t need_access) const {
  return ResolveTarget(op, op.len, need_access);
}

Result<Executor::Target> Executor::ResolveTarget(const Op& op, uint64_t len,
                                                 uint32_t need_access) const {
  if (!op.addr_indirect) {
    PRISM_RETURN_IF_ERROR(CheckAccess(op.rkey, op.addr, len, need_access));
    return Target{op.addr, len};
  }
  // The pointer slot itself must be readable under the same rkey.
  const uint64_t slot_size = op.addr_bounded ? BoundedPtr::kWireSize : 8;
  PRISM_RETURN_IF_ERROR(CheckAccess(op.rkey, op.addr, slot_size,
                                    kRemoteRead));
  Target target;
  if (op.addr_bounded) {
    BoundedPtr bp = BoundedPtr::Load(mem_->RawAt(op.addr,
                                                 BoundedPtr::kWireSize));
    target.addr = bp.ptr;
    target.len = std::min<uint64_t>(len, bp.bound);
  } else {
    target.addr = mem_->LoadWord(op.addr);
    target.len = len;
  }
  // §3.1: the pointed-to location must be covered by the same rkey.
  PRISM_RETURN_IF_ERROR(CheckAccess(op.rkey, target.addr, target.len,
                                    need_access));
  return target;
}

Result<ByteView> Executor::ResolveData(const Op& op, uint64_t width) const {
  if (!op.data_indirect) {
    if (op.data.size() < width) {
      return InvalidArgument("inline data shorter than operand width");
    }
    return ByteView(op.data.data(), width);
  }
  if (op.data.size() != 8) {
    return InvalidArgument("indirect data must be an 8-byte pointer");
  }
  const rdma::Addr src = LoadU64(op.data.data());
  PRISM_RETURN_IF_ERROR(CheckAccess(op.rkey, src, width, kRemoteRead));
  return View(src, width);
}

Status Executor::RedirectOutput(const Op& op, ByteView output) {
  PRISM_RETURN_IF_ERROR(CheckAccess(op.rkey, op.redirect_addr, output.size(),
                                    kRemoteWrite));
  mem_->Store(op.redirect_addr, output);
  return OkStatus();
}

OpResult Executor::DoRead(const Op& op) {
  OpResult result;
  result.executed = true;
  auto target = ResolveTarget(op, kRemoteRead);
  if (!target.ok()) {
    result.status = target.status();
    return result;
  }
  if (op.addr_indirect) result.resolved_addr = target->addr;
  const ByteView value = View(target->addr, target->len);
  if (op.redirect) {
    result.status = RedirectOutput(op, value);
    return result;
  }
  result.data = value;
  return result;
}

OpResult Executor::DoWrite(const Op& op) {
  OpResult result;
  result.executed = true;
  auto target = ResolveTarget(op, kRemoteWrite);
  if (!target.ok()) {
    result.status = target.status();
    return result;
  }
  auto data = ResolveData(op, target->len);
  if (!data.ok()) {
    result.status = data.status();
    return result;
  }
  mem_->Store(target->addr, *data);
  return result;
}

OpResult Executor::DoCas(const Op& op) {
  OpResult result;
  result.executed = true;
  const uint64_t width = op.cmp_mask.size();
  if (width == 0 || width != op.swap_mask.size()) {
    result.status = InvalidArgument("CAS masks must match operand width");
    return result;
  }
  // Resolve indirect target (dereference is not atomic; the CAS below is).
  auto target = ResolveTarget(op, width, kRemoteAtomic);
  if (!target.ok()) {
    result.status = target.status();
    return result;
  }
  auto data = ResolveData(op, width);
  if (!data.ok()) {
    result.status = data.status();
    return result;
  }
  // Separate compare operand (Mellanox extended-atomics form); defaults to
  // the swap operand when absent (Table 1's compressed signature).
  ByteView compare_operand = *data;
  if (!op.compare.empty()) {
    if (op.compare_indirect) {
      if (op.compare.size() != 8) {
        result.status = InvalidArgument("indirect compare must be 8-byte ptr");
        return result;
      }
      const rdma::Addr src = LoadU64(op.compare.data());
      Status access = CheckAccess(op.rkey, src, width, kRemoteRead);
      if (!access.ok()) {
        result.status = access;
        return result;
      }
      compare_operand = View(src, width);
    } else if (op.compare.size() != width) {
      result.status = InvalidArgument("compare operand width mismatch");
      return result;
    } else {
      compare_operand = op.compare.view();
    }
  }
  auto outcome = rdma::Verbs::MaskedCompareSwap(
      *mem_, op.rkey, target->addr, compare_operand, *data, op.cmp_mask,
      op.swap_mask, op.cas_mode);
  if (!outcome.ok()) {
    result.status = outcome.status();
    return result;
  }
  result.cas_swapped = outcome->swapped;
  result.data = std::move(outcome->old_value);
  return result;
}

OpResult Executor::DoAllocate(const Op& op) {
  OpResult result;
  result.executed = true;
  auto buffer = freelists_->Pop(op.freelist, op.data.size());
  if (!buffer.ok()) {
    result.status = buffer.status();
    return result;
  }
  // The buffer must have been posted from a region the client's rkey covers
  // (the server registers data regions and free lists consistently).
  Status write_ok = mem_->Validate(op.rkey, *buffer, op.data.size(),
                                   kRemoteWrite);
  if (!write_ok.ok()) {
    // Return the buffer rather than leaking it.
    (void)freelists_->Post(op.freelist, *buffer);
    result.status = write_ok;
    return result;
  }
  mem_->Store(*buffer, op.data.view());
  const SmallBytes addr_bytes = SmallBytes::OfU64(*buffer);
  if (op.redirect) {
    result.status = RedirectOutput(op, addr_bytes.view());
    if (!result.status.ok()) {
      (void)freelists_->Post(op.freelist, *buffer);
      return result;
    }
    // Even when redirected, the 8-byte address rides back in the response
    // (accounted in ResponseOpSize) so the client can reclaim the buffer if
    // a later conditional install fails.
  }
  result.resolved_addr = *buffer;
  result.data = addr_bytes;
  return result;
}

OpResult Executor::DoSearch(const Op& op) {
  OpResult result;
  result.executed = true;
  if (op.data.empty() || op.data.size() > op.len) {
    result.status = InvalidArgument("bad search pattern length");
    return result;
  }
  auto target = ResolveTarget(op, kRemoteRead);
  if (!target.ok()) {
    result.status = target.status();
    return result;
  }
  if (op.addr_indirect) result.resolved_addr = target->addr;
  const uint8_t* haystack = mem_->RawAt(target->addr, target->len);
  uint64_t offset = kSearchNotFound;
  if (target->len >= op.data.size()) {
    for (uint64_t i = 0; i + op.data.size() <= target->len; ++i) {
      if (std::memcmp(haystack + i, op.data.data(), op.data.size()) == 0) {
        offset = i;
        break;
      }
    }
  }
  const SmallBytes offset_bytes = SmallBytes::OfU64(offset);
  if (op.redirect) {
    result.status = RedirectOutput(op, offset_bytes.view());
    return result;
  }
  result.data = offset_bytes;
  return result;
}

OpResult Executor::ExecuteOne(const Op& op, ChainContext& ctx) {
  if (op.conditional && !ctx.prev_success) {
    OpResult skipped;
    skipped.executed = false;
    skipped.status = FailedPrecondition("previous chained op failed");
    ctx.prev_success = false;
    return skipped;
  }
  OpResult result;
  switch (op.code) {
    case OpCode::kRead:
      result = DoRead(op);
      break;
    case OpCode::kWrite:
      result = DoWrite(op);
      break;
    case OpCode::kCas:
      result = DoCas(op);
      break;
    case OpCode::kAllocate:
      result = DoAllocate(op);
      break;
    case OpCode::kSearch:
      result = DoSearch(op);
      break;
  }
  ctx.prev_success = result.Successful(op.code);
  return result;
}

ChainResult Executor::Execute(const Chain& chain) {
  ChainContext ctx;
  ChainResult results;
  results.reserve(chain.size());
  for (const Op& op : chain) {
    results.push_back(ExecuteOne(op, ctx));
  }
  return results;
}

AccessProfile Executor::Profile(const Op& op) const {
  AccessProfile p;
  auto Count = [&](rdma::Addr addr, bool is_write) {
    if (mem_->IsOnNic(addr)) {
      p.on_nic++;
    } else if (is_write) {
      p.host_writes++;
    } else {
      p.host_reads++;
    }
  };
  if (op.addr_indirect) Count(op.addr, /*is_write=*/false);  // pointer chase
  if (op.data_indirect && op.data.size() == 8) {
    Count(LoadU64(op.data.data()), /*is_write=*/false);
  }
  switch (op.code) {
    case OpCode::kRead:
      // Target address after indirection is unknown pre-execution; assume
      // host memory (data buffers live there in all our applications).
      p.host_reads++;
      break;
    case OpCode::kWrite:
      p.host_writes++;
      break;
    case OpCode::kCas:
      p.host_reads++;  // read-modify-write through the atomic unit
      p.atomic = true;
      break;
    case OpCode::kAllocate:
      p.host_writes++;  // DMA payload into the popped buffer
      break;
    case OpCode::kSearch:
      // Streaming scan: one DMA read per 4 KiB of haystack (modeled as
      // host reads for the PCIe cost accounting).
      p.host_reads += static_cast<int>(1 + op.len / 4096);
      break;
  }
  if (op.redirect) Count(op.redirect_addr, /*is_write=*/true);
  return p;
}

}  // namespace prism::core
