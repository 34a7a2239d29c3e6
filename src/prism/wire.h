// Wire encoding of PRISM chains — the §4.2 protocol extension.
//
// PRISM needs five new flags in the RDMA BTH: three for indirection
// (addr-indirect, data-indirect, bounded) and two for chaining (conditional,
// redirect). This module provides a byte-exact encode/decode of chains (used
// by tests to validate the format round-trips) and the request/response size
// accounting the fabric uses for bandwidth modeling.
#ifndef PRISM_SRC_PRISM_WIRE_H_
#define PRISM_SRC_PRISM_WIRE_H_

#include <span>

#include "src/prism/op.h"

namespace prism::core {

// The five BTH flag bits (§4.2).
enum WireFlag : uint8_t {
  kFlagAddrIndirect = 1u << 0,
  kFlagDataIndirect = 1u << 1,
  kFlagAddrBounded = 1u << 2,
  kFlagConditional = 1u << 3,
  kFlagRedirect = 1u << 4,
};

uint8_t PackFlags(const Op& op);
void UnpackFlags(uint8_t flags, Op& op);

// Exact encoded size of one op / a whole chain (request side).
size_t EncodedOpSize(const Op& op);
size_t EncodedChainSize(std::span<const Op> chain);

// Bytes the response carries for one op: READ data (unless redirected), CAS
// old value, ALLOCATE pointer (unless redirected), plus a 4-byte status.
// These use the op descriptor (an upper bound: bounded reads may return
// less); ActualResponseSize uses the executed results and is what the
// fabric bandwidth model charges.
size_t ResponseOpSize(const Op& op);
size_t ResponseChainSize(std::span<const Op> chain);
size_t ActualResponseSize(std::span<const Op> chain,
                          std::span<const OpResult> results);

void EncodeOp(const Op& op, Bytes& out);
Bytes EncodeChain(const Chain& chain);

// Decodes one op starting at `in[offset]`; advances offset.
Result<Op> DecodeOp(ByteView in, size_t& offset);
Result<Chain> DecodeChain(ByteView in);

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_WIRE_H_
