#include "src/prism/wire.h"

namespace prism::core {
namespace {

// Fixed header per op: opcode(1) flags(1) cas_mode(1) mask_width(1)
// rkey(4) addr(8) len(4) freelist(4) data_len(4).
constexpr size_t kOpHeader = 1 + 1 + 1 + 1 + 4 + 8 + 4 + 4 + 4;
constexpr size_t kChainHeader = 2;  // op count (u16)

void PutU8(Bytes& out, uint8_t v) { out.push_back(v); }
void PutU16(Bytes& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
}
void PutU32(Bytes& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}
void PutU64(Bytes& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

struct Cursor {
  ByteView in;
  size_t pos;
  bool ok = true;

  uint8_t U8() { return Take(1) ? in[pos - 1] : 0; }
  uint16_t U16() {
    if (!Take(2)) return 0;
    return static_cast<uint16_t>(in[pos - 2] | (in[pos - 1] << 8));
  }
  uint32_t U32() {
    if (!Take(4)) return 0;
    return LoadU32(in.data() + pos - 4);
  }
  uint64_t U64() {
    if (!Take(8)) return 0;
    return LoadU64(in.data() + pos - 8);
  }
  ByteView Blob(size_t n) {
    if (!Take(n)) return {};
    return in.subspan(pos - n, n);
  }

 private:
  bool Take(size_t n) {
    if (!ok || pos + n > in.size()) {
      ok = false;
      return false;
    }
    pos += n;
    return true;
  }
};

}  // namespace

uint8_t PackFlags(const Op& op) {
  uint8_t f = 0;
  if (op.addr_indirect) f |= kFlagAddrIndirect;
  if (op.data_indirect) f |= kFlagDataIndirect;
  if (op.addr_bounded) f |= kFlagAddrBounded;
  if (op.conditional) f |= kFlagConditional;
  if (op.redirect) f |= kFlagRedirect;
  return f;
}

void UnpackFlags(uint8_t flags, Op& op) {
  op.addr_indirect = (flags & kFlagAddrIndirect) != 0;
  op.data_indirect = (flags & kFlagDataIndirect) != 0;
  op.addr_bounded = (flags & kFlagAddrBounded) != 0;
  op.conditional = (flags & kFlagConditional) != 0;
  op.redirect = (flags & kFlagRedirect) != 0;
}

size_t EncodedOpSize(const Op& op) {
  size_t size = kOpHeader + op.data.size();
  if (op.redirect) size += 8;
  if (op.code == OpCode::kCas) {
    size += op.cmp_mask.size() * 2;
    size += 2 + op.compare.size();  // compare_len u8, compare_indirect u8
  }
  return size;
}

size_t EncodedChainSize(std::span<const Op> chain) {
  size_t size = kChainHeader;
  for (const Op& op : chain) size += EncodedOpSize(op);
  return size;
}

size_t ResponseOpSize(const Op& op) {
  constexpr size_t kStatus = 4;
  switch (op.code) {
    case OpCode::kRead:
      // Indirect reads also report the resolved pointer (8 B).
      return kStatus + (op.redirect ? 0 : op.len) +
             (op.addr_indirect ? 8 : 0);
    case OpCode::kWrite:
      return kStatus;
    case OpCode::kCas:
      return kStatus + op.cmp_mask.size();  // previous value, always returned
    case OpCode::kAllocate:
      return kStatus + 8;  // address returned even when redirected
    case OpCode::kSearch:
      return kStatus + (op.redirect ? 0 : 8);  // match offset
  }
  return kStatus;
}

size_t ResponseChainSize(std::span<const Op> chain) {
  size_t size = 0;
  for (const Op& op : chain) size += ResponseOpSize(op);
  return size;
}

size_t ActualResponseSize(std::span<const Op> chain,
                          std::span<const OpResult> results) {
  constexpr size_t kStatus = 4;
  size_t size = 0;
  for (size_t i = 0; i < chain.size(); ++i) {
    size += kStatus;
    if (i >= results.size()) continue;
    size += results[i].data.size();  // bounded reads return only the bound
    if (chain[i].code == OpCode::kRead && chain[i].addr_indirect &&
        results[i].executed) {
      size += 8;  // resolved pointer
    }
  }
  return size;
}

void EncodeOp(const Op& op, Bytes& out) {
  PutU8(out, static_cast<uint8_t>(op.code));
  PutU8(out, PackFlags(op));
  PutU8(out, static_cast<uint8_t>(op.cas_mode));
  PutU8(out, static_cast<uint8_t>(op.cmp_mask.size()));
  PutU32(out, op.rkey);
  PutU64(out, op.addr);
  PutU32(out, static_cast<uint32_t>(op.len));
  PutU32(out, op.freelist);
  PutU32(out, static_cast<uint32_t>(op.data.size()));
  if (op.redirect) PutU64(out, op.redirect_addr);
  out.insert(out.end(), op.data.begin(), op.data.end());
  if (op.code == OpCode::kCas) {
    out.insert(out.end(), op.cmp_mask.begin(), op.cmp_mask.end());
    out.insert(out.end(), op.swap_mask.begin(), op.swap_mask.end());
    PutU8(out, static_cast<uint8_t>(op.compare.size()));
    PutU8(out, op.compare_indirect ? 1 : 0);
    out.insert(out.end(), op.compare.begin(), op.compare.end());
  }
}

Bytes EncodeChain(const Chain& chain) {
  Bytes out;
  out.reserve(EncodedChainSize(chain));
  PutU16(out, static_cast<uint16_t>(chain.size()));
  for (const Op& op : chain) EncodeOp(op, out);
  return out;
}

Result<Op> DecodeOp(ByteView in, size_t& offset) {
  Cursor c{in, offset};
  Op op;
  const uint8_t code = c.U8();
  if (code > static_cast<uint8_t>(OpCode::kSearch)) {
    return InvalidArgument("bad opcode");
  }
  op.code = static_cast<OpCode>(code);
  UnpackFlags(c.U8(), op);
  const uint8_t mode = c.U8();
  if (mode > static_cast<uint8_t>(rdma::CasCompare::kLess)) {
    return InvalidArgument("bad CAS mode");
  }
  op.cas_mode = static_cast<rdma::CasCompare>(mode);
  const uint8_t mask_width = c.U8();
  op.rkey = c.U32();
  op.addr = c.U64();
  op.len = c.U32();
  op.freelist = c.U32();
  const uint32_t data_len = c.U32();
  if (op.redirect) op.redirect_addr = c.U64();
  op.data = c.Blob(data_len);
  if (op.code == OpCode::kCas) {
    op.cmp_mask = c.Blob(mask_width);
    op.swap_mask = c.Blob(mask_width);
    const uint8_t compare_len = c.U8();
    op.compare_indirect = c.U8() != 0;
    op.compare = c.Blob(compare_len);
  }
  if (!c.ok) return InvalidArgument("truncated op encoding");
  offset = c.pos;
  return op;
}

Result<Chain> DecodeChain(ByteView in) {
  Cursor header{in, 0};
  const uint16_t count = header.U16();
  if (!header.ok) return InvalidArgument("truncated chain header");
  size_t offset = header.pos;
  Chain chain;
  chain.reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    PRISM_ASSIGN_OR_RETURN(Op op, DecodeOp(in, offset));
    chain.push_back(std::move(op));
  }
  if (offset != in.size()) {
    return InvalidArgument("trailing bytes after chain");
  }
  return chain;
}

}  // namespace prism::core
