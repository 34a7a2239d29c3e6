// Property-based tests: randomized sweeps (parameterized gtest) checking
// implementation behaviour against independent scalar models.
//
//  * Masked CAS vs a naive big-integer reference model, across widths,
//    modes, masks, and operands.
//  * Random chains: CONDITIONAL semantics (suffix-skipping), REDIRECT
//    output placement, and memory-safety invariants.
//  * Allocator: no buffer is ever handed out twice while live, across
//    random alloc/free interleavings.
//  * ABD tags and OCC timestamps: monotonicity under random concurrent
//    installs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <cmath>

#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/prism/executor.h"
#include "src/prism/freelist.h"
#include "src/prism/wire.h"
#include "src/rdma/verbs.h"

namespace prism {
namespace {

using core::Chain;
using core::ChainResult;
using core::Executor;
using core::FreeListRegistry;
using core::Op;
using core::OpCode;
using rdma::CasCompare;

// ---------- masked CAS vs reference model ----------

// Reference: arbitrary-width little-endian unsigned comparison + masked
// merge, written independently from the production code.
struct CasModel {
  static bool Compare(const Bytes& request, const Bytes& memory,
                      const Bytes& mask, CasCompare mode) {
    Bytes a(request.size()), b(memory.size());
    for (size_t i = 0; i < request.size(); ++i) {
      a[i] = request[i] & mask[i];
      b[i] = memory[i] & mask[i];
    }
    if (mode == CasCompare::kEqual) return a == b;
    // Compare as little-endian integers: reverse to get lexicographic.
    std::reverse(a.begin(), a.end());
    std::reverse(b.begin(), b.end());
    if (mode == CasCompare::kGreater) return a > b;
    return a < b;
  }
  static Bytes Merge(const Bytes& memory, const Bytes& swap,
                     const Bytes& mask) {
    Bytes out = memory;
    for (size_t i = 0; i < memory.size(); ++i) {
      out[i] = static_cast<uint8_t>((out[i] & ~mask[i]) | (swap[i] & mask[i]));
    }
    return out;
  }
};

class MaskedCasProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaskedCasProperty, MatchesReferenceModel) {
  Rng rng(GetParam());
  rdma::AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(4096, rdma::kRemoteAll);
  const size_t widths[] = {8, 16, 24, 32};
  for (int iter = 0; iter < 500; ++iter) {
    const size_t width = widths[rng.NextBelow(4)];
    const CasCompare mode =
        static_cast<CasCompare>(rng.NextBelow(3));
    Bytes initial(width), compare(width), swap(width), cmp_mask(width),
        swap_mask(width);
    for (size_t i = 0; i < width; ++i) {
      initial[i] = static_cast<uint8_t>(rng.NextU64());
      // Bias operands toward the memory value so comparisons sometimes pass.
      compare[i] = rng.NextBool(0.6) ? initial[i]
                                     : static_cast<uint8_t>(rng.NextU64());
      swap[i] = static_cast<uint8_t>(rng.NextU64());
      cmp_mask[i] = rng.NextBool(0.7) ? 0xff : 0x00;
      swap_mask[i] = rng.NextBool(0.7) ? 0xff : 0x00;
    }
    mem.Store(region.base, initial);
    auto outcome = rdma::Verbs::MaskedCompareSwap(
        mem, region.rkey, region.base, compare, swap, cmp_mask, swap_mask,
        mode);
    ASSERT_TRUE(outcome.ok());
    const bool expect_swap = CasModel::Compare(compare, initial, cmp_mask,
                                               mode);
    EXPECT_EQ(outcome->swapped, expect_swap) << "iter " << iter;
    EXPECT_EQ(outcome->old_value, initial);
    Bytes expect_mem = expect_swap
                           ? CasModel::Merge(initial, swap, swap_mask)
                           : initial;
    EXPECT_EQ(mem.Load(region.base, width), expect_mem) << "iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedCasProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- chain semantics ----------

class ChainProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChainProperty, ConditionalSuffixSemantics) {
  Rng rng(GetParam() * 77 + 5);
  rdma::AddressSpace mem(1 << 18);
  FreeListRegistry freelists;
  auto region = *mem.CarveAndRegister(32 * 1024, rdma::kRemoteAll);
  uint32_t queue = freelists.CreateQueue(64);
  for (int i = 0; i < 32; ++i) {
    freelists.Post(queue, region.base + 16384 + static_cast<uint64_t>(i) * 64);
  }
  Executor executor(&mem, &freelists);

  for (int iter = 0; iter < 200; ++iter) {
    // Random chain of 1..6 ops; some deliberately fail (bad rkey or a CAS
    // whose compare cannot match).
    Chain chain;
    const int len = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < len; ++i) {
      const uint64_t addr = region.base + rng.NextBelow(64) * 8;
      Op op;
      switch (rng.NextBelow(3)) {
        case 0:
          op = Op::Read(region.rkey, addr, 8);
          break;
        case 1:
          op = Op::Write(region.rkey, addr, BytesOfU64(rng.NextU64()));
          break;
        default:
          op = Op::Allocate(region.rkey, queue, BytesOfU64(rng.NextU64()));
          break;
      }
      if (rng.NextBool(0.25)) op.rkey += 99;  // force a NACK
      op.conditional = rng.NextBool(0.5);
      chain.push_back(std::move(op));
    }
    ChainResult results = executor.Execute(chain);
    ASSERT_EQ(results.size(), chain.size());
    // Model the conditional flag independently.
    bool prev_success = true;
    for (size_t i = 0; i < chain.size(); ++i) {
      const bool should_run = !chain[i].conditional || prev_success;
      EXPECT_EQ(results[i].executed, should_run) << "iter " << iter;
      prev_success = results[i].Successful(chain[i].code);
    }
    // Return every allocation so the free list never exhausts.
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].code == OpCode::kAllocate &&
          results[i].Successful(OpCode::kAllocate)) {
        freelists.Post(queue, results[i].AllocatedAddr());
      }
    }
  }
}

TEST_P(ChainProperty, WireRoundTripRandomChains) {
  Rng rng(GetParam() * 131 + 17);
  auto random_bytes = [&rng](size_t n) {
    SmallBytes b(n);
    uint8_t* p = b.mutable_data();
    for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint8_t>(rng.NextU64());
    return b;
  };
  for (int iter = 0; iter < 200; ++iter) {
    Chain chain;
    const int len = 1 + static_cast<int>(rng.NextBelow(5));
    for (int i = 0; i < len; ++i) {
      Op op;
      op.code = static_cast<OpCode>(rng.NextBelow(4));
      op.rkey = static_cast<rdma::RKey>(rng.NextU64());
      op.addr = rng.NextU64() >> 8;
      op.len = rng.NextBelow(1024);
      op.freelist = static_cast<uint32_t>(rng.NextBelow(8));
      op.data = random_bytes(rng.NextBelow(64));
      op.addr_indirect = rng.NextBool();
      op.addr_bounded = op.addr_indirect && rng.NextBool();
      op.data_indirect = rng.NextBool(0.3);
      op.conditional = rng.NextBool();
      op.redirect = rng.NextBool(0.3);
      if (op.redirect) op.redirect_addr = rng.NextU64() >> 8;
      if (op.code == OpCode::kCas) {
        const size_t width = 8u * (1 + rng.NextBelow(4));
        op.cmp_mask = random_bytes(width);
        op.swap_mask = random_bytes(width);
        op.cas_mode = static_cast<CasCompare>(rng.NextBelow(3));
        if (rng.NextBool()) {
          op.compare = random_bytes(rng.NextBool() ? width : 8);
          op.compare_indirect = op.compare.size() == 8 && rng.NextBool();
        }
      }
      chain.push_back(std::move(op));
    }
    Bytes encoded = core::EncodeChain(chain);
    ASSERT_EQ(encoded.size(), core::EncodedChainSize(chain));
    auto decoded = core::DecodeChain(encoded);
    ASSERT_TRUE(decoded.ok()) << "iter " << iter;
    ASSERT_EQ(decoded->size(), chain.size());
    for (size_t i = 0; i < chain.size(); ++i) {
      const Op& a = chain[i];
      const Op& b = (*decoded)[i];
      EXPECT_EQ(a.code, b.code);
      EXPECT_EQ(a.rkey, b.rkey);
      EXPECT_EQ(a.addr, b.addr);
      EXPECT_EQ(a.len, b.len);
      EXPECT_EQ(a.data, b.data);
      EXPECT_EQ(a.addr_indirect, b.addr_indirect);
      EXPECT_EQ(a.addr_bounded, b.addr_bounded);
      EXPECT_EQ(a.data_indirect, b.data_indirect);
      EXPECT_EQ(a.conditional, b.conditional);
      EXPECT_EQ(a.redirect, b.redirect);
      EXPECT_EQ(a.redirect_addr, b.redirect_addr);
      EXPECT_EQ(a.cmp_mask, b.cmp_mask);
      EXPECT_EQ(a.swap_mask, b.swap_mask);
      EXPECT_EQ(a.compare, b.compare);
      EXPECT_EQ(a.compare_indirect, b.compare_indirect);
      EXPECT_EQ(a.cas_mode, b.cas_mode);
      EXPECT_EQ(a.freelist, b.freelist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainProperty, ::testing::Values(1, 2, 3));

// ---------- allocator uniqueness ----------

class AllocatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocatorProperty, NoDoubleAllocation) {
  Rng rng(GetParam() * 999 + 1);
  FreeListRegistry freelists;
  uint32_t queue = freelists.CreateQueue(128);
  std::set<rdma::Addr> pool;
  for (int i = 0; i < 64; ++i) {
    rdma::Addr a = 1024 + static_cast<uint64_t>(i) * 128;
    pool.insert(a);
    freelists.Post(queue, a);
  }
  std::set<rdma::Addr> live;
  for (int iter = 0; iter < 5000; ++iter) {
    if (rng.NextBool(0.55)) {
      auto buf = freelists.Pop(queue, 1 + rng.NextBelow(128));
      if (buf.ok()) {
        // Never hand out a live buffer, and only pool members.
        EXPECT_TRUE(pool.count(*buf)) << iter;
        EXPECT_TRUE(live.insert(*buf).second) << "double alloc at " << iter;
      } else {
        EXPECT_EQ(buf.code(), Code::kResourceExhausted);
        EXPECT_EQ(live.size(), pool.size());
      }
    } else if (!live.empty()) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live.size())));
      freelists.Post(queue, *it);
      live.erase(it);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperty,
                         ::testing::Values(11, 22, 33));

// ---------- histogram quantiles vs exact ----------

class HistogramProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramProperty, QuantilesWithinBucketResolution) {
  Rng rng(GetParam());
  LatencyHistogram hist;
  std::vector<int64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform latencies from 100 ns to 10 ms.
    double log_ns = 2.0 + rng.NextDouble() * 5.0;
    int64_t ns = static_cast<int64_t>(std::pow(10.0, log_ns));
    samples.push_back(ns);
    hist.Record(ns);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    int64_t exact = samples[static_cast<size_t>(q * (samples.size() - 1))];
    int64_t approx = hist.QuantileNanos(q);
    // Log-bucketed histogram: <2% relative error plus interpolation slack.
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                0.05 * static_cast<double>(exact) + 2.0)
        << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace prism
