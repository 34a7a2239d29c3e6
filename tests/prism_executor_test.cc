// Exhaustive semantic tests for the PRISM primitives (Table 1 coverage):
// indirection (plain, bounded), allocation, enhanced CAS (modes, masks,
// indirect args), and chaining (CONDITIONAL, REDIRECT), plus the §3.1
// security rules.
#include <gtest/gtest.h>

#include "src/prism/executor.h"
#include "src/prism/freelist.h"
#include "src/prism/op.h"

namespace prism::core {
namespace {

using rdma::CasCompare;
using rdma::kRemoteAll;
using rdma::kRemoteRead;

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : mem_(1 << 20), executor_(&mem_, &freelists_) {
    region_ = *mem_.CarveAndRegister(64 * 1024, kRemoteAll);
    scratch_ = *mem_.CarveAndRegister(4096, kRemoteAll, rdma::kOnNic);
    // One free-list queue of 512 B buffers carved from the same region.
    queue_ = freelists_.CreateQueue(512);
    for (int i = 0; i < 8; ++i) {
      rdma::Addr buf = region_.base + 32768 + static_cast<uint64_t>(i) * 512;
      PRISM_CHECK(freelists_.Post(queue_, buf).ok());
    }
  }

  rdma::Addr A(uint64_t off) const { return region_.base + off; }

  rdma::AddressSpace mem_;
  FreeListRegistry freelists_;
  Executor executor_;
  rdma::MemoryRegion region_;
  rdma::MemoryRegion scratch_;
  uint32_t queue_;
};

// ---------- plain READ / WRITE ----------

TEST_F(ExecutorTest, DirectReadWrite) {
  auto w = executor_.Execute({Op::Write(region_.rkey, A(0),
                                        BytesOfString("direct"))});
  ASSERT_TRUE(w[0].Successful(OpCode::kWrite));
  auto r = executor_.Execute({Op::Read(region_.rkey, A(0), 6)});
  ASSERT_TRUE(r[0].Successful(OpCode::kRead));
  EXPECT_EQ(StringOfBytes(r[0].data), "direct");
}

TEST_F(ExecutorTest, ReadBadRkeyNacks) {
  auto r = executor_.Execute({Op::Read(region_.rkey + 77, A(0), 8)});
  EXPECT_FALSE(r[0].Successful(OpCode::kRead));
  EXPECT_EQ(r[0].status.code(), Code::kPermissionDenied);
}

// ---------- indirection (§3.1) ----------

TEST_F(ExecutorTest, IndirectReadFollowsPointer) {
  mem_.Store(A(512), BytesOfString("pointee!"));
  mem_.StoreWord(A(0), A(512));  // slot holds pointer
  auto r = executor_.Execute({Op::IndirectRead(region_.rkey, A(0), 8)});
  ASSERT_TRUE(r[0].Successful(OpCode::kRead));
  EXPECT_EQ(StringOfBytes(r[0].data), "pointee!");
}

TEST_F(ExecutorTest, BoundedIndirectReadClampsLength) {
  mem_.Store(A(512), BytesOfString("shortval"));
  BoundedPtr bp{A(512), 8};
  mem_.Store(A(0), bp.ToBytes());
  // Client asks for 512 bytes but the bound is 8 (variable-length objects).
  auto r = executor_.Execute(
      {Op::IndirectRead(region_.rkey, A(0), 512, /*bounded=*/true)});
  ASSERT_TRUE(r[0].Successful(OpCode::kRead));
  EXPECT_EQ(r[0].data.size(), 8u);
  EXPECT_EQ(StringOfBytes(r[0].data), "shortval");
}

TEST_F(ExecutorTest, BoundedReadUsesRequestedLenWhenSmaller) {
  mem_.Store(A(512), BytesOfString("abcdefgh"));
  BoundedPtr bp{A(512), 8};
  mem_.Store(A(0), bp.ToBytes());
  auto r = executor_.Execute(
      {Op::IndirectRead(region_.rkey, A(0), 3, /*bounded=*/true)});
  EXPECT_EQ(StringOfBytes(r[0].data), "abc");
}

TEST_F(ExecutorTest, IndirectReadRejectsPointerOutsideRkey) {
  // Pointer escapes the registered region: §3.1 requires rejection.
  mem_.StoreWord(A(0), region_.base + region_.length + 4096);
  auto r = executor_.Execute({Op::IndirectRead(region_.rkey, A(0), 8)});
  EXPECT_FALSE(r[0].Successful(OpCode::kRead));
}

TEST_F(ExecutorTest, IndirectReadRejectsPointerIntoOtherRegion) {
  auto other = *mem_.CarveAndRegister(1024, kRemoteAll);
  mem_.StoreWord(A(0), other.base);  // different rkey ⇒ reject
  auto r = executor_.Execute({Op::IndirectRead(region_.rkey, A(0), 8)});
  // The pointed-to range is not covered by the presented rkey's region.
  EXPECT_FALSE(r[0].status.ok());
  EXPECT_EQ(r[0].status.code(), Code::kOutOfRange);
}

TEST_F(ExecutorTest, IndirectWriteThroughPointer) {
  mem_.StoreWord(A(0), A(1024));
  Op op = Op::Write(region_.rkey, A(0), BytesOfString("via-ptr"));
  op.addr_indirect = true;
  auto r = executor_.Execute({op});
  ASSERT_TRUE(r[0].Successful(OpCode::kWrite));
  EXPECT_EQ(StringOfBytes(mem_.Load(A(1024), 7)), "via-ptr");
}

TEST_F(ExecutorTest, BoundedIndirectWriteClamps) {
  BoundedPtr bp{A(1024), 4};
  mem_.Store(A(0), bp.ToBytes());
  mem_.Store(A(1024), BytesOfString("XXXXXXXX"));
  Op op = Op::Write(region_.rkey, A(0), BytesOfString("abcdefgh"));
  op.addr_indirect = true;
  op.addr_bounded = true;
  auto r = executor_.Execute({op});
  ASSERT_TRUE(r[0].Successful(OpCode::kWrite));
  EXPECT_EQ(StringOfBytes(mem_.Load(A(1024), 8)), "abcdXXXX");
}

TEST_F(ExecutorTest, DataIndirectWriteReadsServerSideSource) {
  mem_.Store(A(2048), BytesOfString("srcdata"));
  Op op = Op::Write(region_.rkey, A(0), BytesOfU64(A(2048)));
  op.data_indirect = true;
  op.len = 7;
  auto r = executor_.Execute({op});
  ASSERT_TRUE(r[0].Successful(OpCode::kWrite));
  EXPECT_EQ(StringOfBytes(mem_.Load(A(0), 7)), "srcdata");
}

// ---------- ALLOCATE (§3.2) ----------

TEST_F(ExecutorTest, AllocateWritesAndReturnsPointer) {
  auto r = executor_.Execute(
      {Op::Allocate(region_.rkey, queue_, BytesOfString("fresh"))});
  ASSERT_TRUE(r[0].Successful(OpCode::kAllocate));
  rdma::Addr buf = r[0].AllocatedAddr();
  EXPECT_EQ(StringOfBytes(mem_.Load(buf, 5)), "fresh");
  EXPECT_EQ(freelists_.available(queue_), 7u);
}

TEST_F(ExecutorTest, AllocatePopsFifo) {
  auto r1 = executor_.Execute({Op::Allocate(region_.rkey, queue_, Bytes(8))});
  auto r2 = executor_.Execute({Op::Allocate(region_.rkey, queue_, Bytes(8))});
  EXPECT_NE(r1[0].AllocatedAddr(), r2[0].AllocatedAddr());
  EXPECT_EQ(r2[0].AllocatedAddr(), r1[0].AllocatedAddr() + 512);
}

TEST_F(ExecutorTest, AllocateEmptyQueueNacksRnr) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor_.Execute({Op::Allocate(region_.rkey, queue_,
                                                Bytes(8))})[0]
                    .status.ok());
  }
  auto r = executor_.Execute({Op::Allocate(region_.rkey, queue_, Bytes(8))});
  EXPECT_EQ(r[0].status.code(), Code::kResourceExhausted);
  EXPECT_EQ(freelists_.empty_nacks(), 1u);
}

TEST_F(ExecutorTest, AllocateOversizedPayloadRejected) {
  auto r = executor_.Execute(
      {Op::Allocate(region_.rkey, queue_, Bytes(1024))});
  EXPECT_EQ(r[0].status.code(), Code::kInvalidArgument);
  EXPECT_EQ(freelists_.available(queue_), 8u);  // nothing popped
}

TEST_F(ExecutorTest, FreeListQueueForPicksSmallestFit) {
  FreeListRegistry fl;
  uint32_t q64 = fl.CreateQueue(64);
  uint32_t q512 = fl.CreateQueue(512);
  uint32_t q4096 = fl.CreateQueue(4096);
  EXPECT_EQ(*fl.QueueFor(10), q64);
  EXPECT_EQ(*fl.QueueFor(64), q64);
  EXPECT_EQ(*fl.QueueFor(65), q512);
  EXPECT_EQ(*fl.QueueFor(4000), q4096);
  EXPECT_FALSE(fl.QueueFor(10000).ok());
}

// ---------- enhanced CAS (§3.3) ----------

TEST_F(ExecutorTest, FullWidthEqualityCas) {
  mem_.StoreWord(A(0), 11);
  auto r = executor_.Execute({Op::Cas(region_.rkey, A(0), BytesOfU64(12))});
  EXPECT_TRUE(r[0].executed);
  EXPECT_FALSE(r[0].cas_swapped);  // 12 != 11
  auto r2 = executor_.Execute({Op::MaskedCas(
      region_.rkey, A(0), BytesOfU64(11), FieldMask(8, 0, 8),
      FieldMask(8, 0, 8))});
  EXPECT_TRUE(r2[0].cas_swapped);  // compare 11 == 11; swap writes 11
}

TEST_F(ExecutorTest, CasCompareOneFieldSwapAnother) {
  // ⟨tag, addr⟩ slot: compare addr (offset 8), swap both (PRISM-KV PUT).
  mem_.Store(A(0), SmallBytes::OfU64Pair(/*tag=*/3, /*addr=*/A(512)));
  SmallBytes operand = SmallBytes::OfU64Pair(/*tag=*/4, /*addr=*/A(512));
  auto r = executor_.Execute({Op::MaskedCas(
      region_.rkey, A(0), operand, FieldMask(16, 8, 8), FieldMask(16, 0, 8))});
  ASSERT_TRUE(r[0].cas_swapped);
  EXPECT_EQ(mem_.LoadWord(A(0)), 4u);        // tag swapped
  EXPECT_EQ(mem_.LoadWord(A(8)), A(512));    // addr untouched
}

TEST_F(ExecutorTest, CasGreaterThanForVersionedUpdate) {
  // PRISM-RS pattern: install ⟨tag,addr⟩ only if new tag > stored tag.
  // Layout: [addr at 0 | tag at 8]; tag is most significant (LE compare).
  mem_.Store(A(0), SmallBytes::OfU64Pair(/*addr=*/A(512), /*tag=*/5));
  SmallBytes operand = SmallBytes::OfU64Pair(/*addr=*/A(1024), /*tag=*/7);
  SmallBytes cmp_mask = FieldMask(16, 8, 8);   // compare tag only
  SmallBytes swap_mask = FieldMask(16, 0, 16); // swap both
  auto r = executor_.Execute({Op::MaskedCas(region_.rkey, A(0), operand,
                                            cmp_mask, swap_mask,
                                            CasCompare::kGreater)});
  ASSERT_TRUE(r[0].cas_swapped);
  EXPECT_EQ(mem_.LoadWord(A(0)), A(1024));
  EXPECT_EQ(mem_.LoadWord(A(8)), 7u);
  // A stale tag (6 < 7 now stored) must lose.
  SmallBytes stale = SmallBytes::OfU64Pair(A(2048), 6);
  auto r2 = executor_.Execute({Op::MaskedCas(region_.rkey, A(0), stale,
                                             cmp_mask, swap_mask,
                                             CasCompare::kGreater)});
  EXPECT_FALSE(r2[0].cas_swapped);
  EXPECT_EQ(mem_.LoadWord(A(0)), A(1024));  // unchanged
}

TEST_F(ExecutorTest, CasReturnsPreviousValueEitherWay) {
  mem_.Store(A(0), SmallBytes::OfU64Pair(9, 10));
  SmallBytes operand = SmallBytes::OfU64Pair(1, 2);
  SmallBytes full = FieldMask(16, 0, 16);
  auto r = executor_.Execute({Op::MaskedCas(region_.rkey, A(0), operand, full,
                                            full, CasCompare::kGreater)});
  EXPECT_FALSE(r[0].cas_swapped);
  EXPECT_EQ(LoadU64(r[0].data.data()), 9u);
  EXPECT_EQ(LoadU64(r[0].data.data() + 8), 10u);
}

TEST_F(ExecutorTest, CasIndirectTarget) {
  mem_.StoreWord(A(0), A(512));   // pointer to the actual CAS target
  mem_.StoreWord(A(512), 100);
  Op op = Op::Cas(region_.rkey, A(0), BytesOfU64(100));
  op.addr_indirect = true;
  op.swap_mask = FieldMask(8, 0, 8);
  op.cmp_mask = FieldMask(8, 0, 8);
  op.data = BytesOfU64(100);
  // compare 100 == *target(100): swap writes 100 (no-op value change but
  // proves dereference happened at A(512), not A(0)).
  auto r = executor_.Execute({op});
  ASSERT_TRUE(r[0].cas_swapped);
  EXPECT_EQ(mem_.LoadWord(A(0)), A(512));  // pointer untouched
}

TEST_F(ExecutorTest, CasIndirectData) {
  // Operand loaded from server memory (PRISM-RS: compare against tmp).
  mem_.StoreWord(A(0), 55);
  mem_.StoreWord(A(2048), 55);  // server-side operand source
  Op op;
  op.code = OpCode::kCas;
  op.rkey = region_.rkey;
  op.addr = A(0);
  op.data = BytesOfU64(A(2048));
  op.data_indirect = true;
  op.cmp_mask = FieldMask(8, 0, 8);
  op.swap_mask = FieldMask(8, 0, 8);
  auto r = executor_.Execute({op});
  ASSERT_TRUE(r[0].cas_swapped);
  EXPECT_EQ(mem_.LoadWord(A(0)), 55u);
}

TEST_F(ExecutorTest, CasMismatchedMasksRejected) {
  Op op = Op::Cas(region_.rkey, A(0), BytesOfU64(1));
  op.swap_mask = Bytes(16, 0xff);  // width mismatch vs 8-byte cmp_mask
  auto r = executor_.Execute({op});
  EXPECT_EQ(r[0].status.code(), Code::kInvalidArgument);
}

// ---------- chaining (§3.4) ----------

TEST_F(ExecutorTest, ConditionalSkipsAfterFailure) {
  mem_.StoreWord(A(0), 1);
  Chain chain;
  chain.push_back(Op::Cas(region_.rkey, A(0), BytesOfU64(999)));  // fails
  chain.push_back(
      Op::Write(region_.rkey, A(8), BytesOfU64(0xdead)).Conditional());
  auto r = executor_.Execute(chain);
  EXPECT_FALSE(r[0].cas_swapped);
  EXPECT_FALSE(r[1].executed);
  EXPECT_EQ(r[1].status.code(), Code::kFailedPrecondition);
  EXPECT_EQ(mem_.LoadWord(A(8)), 0u);  // write suppressed
}

TEST_F(ExecutorTest, ConditionalRunsAfterSuccess) {
  mem_.StoreWord(A(0), 999);
  Chain chain;
  chain.push_back(Op::Cas(region_.rkey, A(0), BytesOfU64(999)));  // swaps
  chain.push_back(
      Op::Write(region_.rkey, A(8), BytesOfU64(0xbeef)).Conditional());
  auto r = executor_.Execute(chain);
  EXPECT_TRUE(r[0].cas_swapped);
  EXPECT_TRUE(r[1].Successful(OpCode::kWrite));
  EXPECT_EQ(mem_.LoadWord(A(8)), 0xbeefu);
}

TEST_F(ExecutorTest, FailurePropagatesThroughWholeSuffix) {
  Chain chain;
  chain.push_back(Op::Read(region_.rkey + 1, A(0), 8));  // NACK
  chain.push_back(Op::Write(region_.rkey, A(8), Bytes(8)).Conditional());
  chain.push_back(Op::Write(region_.rkey, A(16), Bytes(8)).Conditional());
  auto r = executor_.Execute(chain);
  EXPECT_FALSE(r[1].executed);
  EXPECT_FALSE(r[2].executed);
}

TEST_F(ExecutorTest, UnconditionalOpResetsChainState) {
  Chain chain;
  chain.push_back(Op::Read(region_.rkey + 1, A(0), 8));  // NACK
  chain.push_back(Op::Write(region_.rkey, A(8), BytesOfU64(1)));  // uncond.
  chain.push_back(Op::Write(region_.rkey, A(16), BytesOfU64(2)).Conditional());
  auto r = executor_.Execute(chain);
  EXPECT_TRUE(r[1].Successful(OpCode::kWrite));
  EXPECT_TRUE(r[2].Successful(OpCode::kWrite));
}

TEST_F(ExecutorTest, RedirectReadToMemory) {
  mem_.Store(A(0), BytesOfString("payload"));
  auto r = executor_.Execute(
      {Op::Read(region_.rkey, A(0), 7).RedirectTo(A(4096))});
  ASSERT_TRUE(r[0].status.ok());
  EXPECT_TRUE(r[0].data.empty());  // not returned to client
  EXPECT_EQ(StringOfBytes(mem_.Load(A(4096), 7)), "payload");
}

TEST_F(ExecutorTest, RedirectToOnNicScratch) {
  mem_.Store(A(0), BytesOfString("to-nic"));
  auto r = executor_.Execute(
      {Op::Read(region_.rkey, A(0), 6).RedirectTo(scratch_.base)});
  ASSERT_TRUE(r[0].status.ok());
  EXPECT_EQ(StringOfBytes(mem_.Load(scratch_.base, 6)), "to-nic");
}

TEST_F(ExecutorTest, AllocateRedirectThenConditionalCasInstall) {
  // The canonical §3.5 pattern: ALLOCATE → redirect addr to scratch →
  // conditional CAS installs the pointer read from scratch.
  mem_.StoreWord(A(0), 0);  // slot initially empty
  Chain chain;
  chain.push_back(Op::Allocate(region_.rkey, queue_, BytesOfString("newval"))
                      .RedirectTo(scratch_.base));
  Op install;
  install.code = OpCode::kCas;
  install.rkey = region_.rkey;
  install.addr = A(0);
  install.data = BytesOfU64(scratch_.base);
  install.data_indirect = true;  // operand = *scratch = allocated addr
  install.cmp_mask = Bytes(8, 0x00);  // unconditional swap (compare nothing)
  install.swap_mask = Bytes(8, 0xff);
  install.conditional = true;
  chain.push_back(install);
  auto r = executor_.Execute(chain);
  ASSERT_TRUE(r[0].status.ok());
  ASSERT_TRUE(r[1].cas_swapped);
  rdma::Addr installed = mem_.LoadWord(A(0));
  EXPECT_EQ(StringOfBytes(mem_.Load(installed, 6)), "newval");
}

TEST_F(ExecutorTest, FailedAllocateSkipsInstall) {
  while (freelists_.available(queue_) > 0) {
    (void)freelists_.Pop(queue_, 1);
  }
  Chain chain;
  chain.push_back(Op::Allocate(region_.rkey, queue_, Bytes(8))
                      .RedirectTo(scratch_.base));
  chain.push_back(
      Op::Write(region_.rkey, A(0), BytesOfU64(1)).Conditional());
  auto r = executor_.Execute(chain);
  EXPECT_EQ(r[0].status.code(), Code::kResourceExhausted);
  EXPECT_FALSE(r[1].executed);
}

TEST_F(ExecutorTest, RedirectFailedAllocateReturnsBuffer) {
  // Redirect target invalid (unmapped high address, outside every region
  // including the on-NIC scratch) ⇒ the popped buffer goes back to the queue.
  Chain chain;
  chain.push_back(Op::Allocate(region_.rkey, queue_, Bytes(8))
                      .RedirectTo((1u << 20) - 16));
  auto r = executor_.Execute(chain);
  EXPECT_FALSE(r[0].status.ok());
  EXPECT_EQ(freelists_.available(queue_), 8u);
}

// ---------- access profiles (timing model inputs) ----------

TEST_F(ExecutorTest, ProfileCountsPointerChase) {
  AccessProfile direct = executor_.Profile(Op::Read(region_.rkey, A(0), 64));
  AccessProfile indirect =
      executor_.Profile(Op::IndirectRead(region_.rkey, A(0), 64));
  EXPECT_EQ(direct.host_reads, 1);
  EXPECT_EQ(indirect.host_reads, 2);  // pointer + data
}

TEST_F(ExecutorTest, ProfileOnNicRedirectIsNotHostAccess) {
  Op to_nic = Op::Read(region_.rkey, A(0), 64).RedirectTo(scratch_.base);
  Op to_host = Op::Read(region_.rkey, A(0), 64).RedirectTo(A(4096));
  AccessProfile nic = executor_.Profile(to_nic);
  AccessProfile host = executor_.Profile(to_host);
  EXPECT_EQ(nic.on_nic, 1);
  EXPECT_EQ(nic.host_writes, 0);
  EXPECT_EQ(host.host_writes, 1);
}

TEST_F(ExecutorTest, ProfileCasIsAtomic) {
  EXPECT_TRUE(
      executor_.Profile(Op::Cas(region_.rkey, A(0), BytesOfU64(1))).atomic);
  EXPECT_FALSE(executor_.Profile(Op::Read(region_.rkey, A(0), 8)).atomic);
}

}  // namespace
}  // namespace prism::core
