// Tests for the RDMA substrate: memory registration, verbs semantics, and
// fabric-level one-sided operations with calibrated timing.
#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <vector>

#include "src/net/fabric.h"
#include "src/rdma/batch.h"
#include "src/rdma/memory.h"
#include "src/rdma/service.h"
#include "src/rdma/verbs.h"
#include "src/sim/task.h"

namespace prism::rdma {
namespace {

using sim::Micros;
using sim::Task;

// ---------- AddressSpace ----------

TEST(AddressSpaceTest, CarveProducesDisjointAlignedRanges) {
  AddressSpace mem(1 << 20);
  Addr a = *mem.Carve(100, 64);
  Addr b = *mem.Carve(100, 64);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
}

TEST(AddressSpaceTest, CarveRejectsExhaustion) {
  AddressSpace mem(4096);
  EXPECT_TRUE(mem.Carve(1000).ok());
  EXPECT_EQ(mem.Carve(1 << 20).code(), Code::kResourceExhausted);
}

TEST(AddressSpaceTest, AddressZeroNeverMapped) {
  AddressSpace mem(4096);
  Addr a = *mem.Carve(8);
  EXPECT_GT(a, 0u);  // null-pointer trap zone
}

TEST(AddressSpaceTest, RegisterAndValidate) {
  AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(1024, kRemoteRead | kRemoteWrite);
  EXPECT_TRUE(mem.Validate(region.rkey, region.base, 1024, kRemoteRead).ok());
  EXPECT_TRUE(
      mem.Validate(region.rkey, region.base + 512, 512, kRemoteWrite).ok());
}

TEST(AddressSpaceTest, ValidateRejectsUnknownRkey) {
  AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(1024, kRemoteAll);
  EXPECT_EQ(mem.Validate(region.rkey + 999, region.base, 8, kRemoteRead)
                .code(),
            Code::kPermissionDenied);
}

TEST(AddressSpaceTest, ValidateRejectsOutOfRegion) {
  AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(1024, kRemoteAll);
  EXPECT_EQ(mem.Validate(region.rkey, region.base + 1020, 8, kRemoteRead)
                .code(),
            Code::kOutOfRange);
  EXPECT_EQ(mem.Validate(region.rkey, region.base - 1, 8, kRemoteRead).code(),
            Code::kOutOfRange);
}

TEST(AddressSpaceTest, ValidateRejectsMissingRights) {
  AddressSpace mem(1 << 16);
  auto ro = *mem.CarveAndRegister(64, kRemoteRead);
  EXPECT_EQ(mem.Validate(ro.rkey, ro.base, 8, kRemoteWrite).code(),
            Code::kPermissionDenied);
  EXPECT_EQ(mem.Validate(ro.rkey, ro.base, 8, kRemoteAtomic).code(),
            Code::kPermissionDenied);
}

TEST(AddressSpaceTest, OverflowingRangeRejected) {
  AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(64, kRemoteAll);
  // addr + len would overflow uint64: must not wrap around into the region.
  EXPECT_FALSE(
      mem.Validate(region.rkey, ~0ull - 4, 16, kRemoteRead).ok());
}

TEST(AddressSpaceTest, OnNicAttribute) {
  AddressSpace mem(1 << 16);
  auto host_region = *mem.CarveAndRegister(64, kRemoteAll);
  auto nic_region = *mem.CarveAndRegister(64, kRemoteAll, kOnNic);
  EXPECT_FALSE(mem.IsOnNic(host_region.base));
  EXPECT_TRUE(mem.IsOnNic(nic_region.base));
  EXPECT_TRUE(mem.IsOnNic(nic_region.base + 63));
}

TEST(AddressSpaceTest, LocalLoadStore) {
  AddressSpace mem(4096);
  Addr a = *mem.Carve(16);
  mem.StoreWord(a, 0xabcdef);
  EXPECT_EQ(mem.LoadWord(a), 0xabcdefu);
  mem.Store(a, SmallBytes::OfU64Pair(1, 2));
  Bytes out = mem.Load(a, 16);
  EXPECT_EQ(LoadU64(out.data()), 1u);
  EXPECT_EQ(LoadU64(out.data() + 8), 2u);
}

// Both sides of the 2 MiB huge-page threshold, neither a whole page.
constexpr uint64_t kOddCapacities[] = {(64 << 10) + 5, (3 << 20) + 13};

TEST(AddressSpaceTest, FreshSpaceReadsZeroAtBothEnds) {
  for (uint64_t capacity : kOddCapacities) {
    AddressSpace mem(capacity);
    EXPECT_EQ(*mem.RawAt(0, 1), 0);
    EXPECT_EQ(*mem.RawAt(capacity - 1, 1), 0);
    mem.Store(capacity / 2,
              SmallBytes::OfU64Pair(~uint64_t{0}, ~uint64_t{0}));
    EXPECT_EQ(*mem.RawAt(0, 1), 0);
    EXPECT_EQ(*mem.RawAt(capacity - 1, 1), 0);
    EXPECT_EQ(mem.LoadWord(capacity / 2), ~uint64_t{0});
  }
}

TEST(AddressSpaceTest, RawAtPastCapacityDies) {
  // The mapping is rounded up past capacity(); the bounds check is not.
  for (uint64_t capacity : kOddCapacities) {
    AddressSpace mem(capacity);
    EXPECT_DEATH(mem.RawAt(capacity - 1, 2), "raw access out of bounds");
  }
}

uint64_t ResidentBytes() {
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  std::ifstream statm("/proc/self/statm");
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

// Untouched simulated memory costs no resident pages: no zero fill at
// construction, and one store faults in at most one huge page.
TEST(AddressSpaceTest, UntouchedSpaceIsNotResident) {
  constexpr uint64_t kGiB = uint64_t{1} << 30;
  constexpr uint64_t kLimit = uint64_t{8} << 20;
  const uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  AddressSpace mem(kGiB);
  EXPECT_LT(ResidentBytes() - before, kLimit);
  mem.StoreWord(kGiB / 2, 1);
  EXPECT_LT(ResidentBytes() - before, kLimit);
}

#if defined(__SANITIZE_ADDRESS__)
// The rounding tail past capacity() is poisoned, so a raw-pointer overrun
// is reported as it was when the space was a heap vector.
TEST(AddressSpaceTest, RawOverrunPastCapacityIsReported) {
  for (uint64_t capacity : kOddCapacities) {
    AddressSpace mem(capacity);
    volatile uint8_t* last = mem.RawAt(capacity - 1, 1);
    last[0] = 1;
    EXPECT_DEATH(last[1] = 1, "use-after-poison");
  }
}
#endif

// ---------- Verbs semantics ----------

class VerbsTest : public ::testing::Test {
 protected:
  VerbsTest() : mem_(1 << 16) {
    region_ = *mem_.CarveAndRegister(4096, kRemoteAll);
  }
  AddressSpace mem_;
  MemoryRegion region_;
};

TEST_F(VerbsTest, ReadWriteRoundTrip) {
  Bytes data = BytesOfString("hello rdma");
  ASSERT_TRUE(Verbs::Write(mem_, region_.rkey, region_.base, data).ok());
  auto read = Verbs::Read(mem_, region_.rkey, region_.base, data.size());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(StringOfBytes(*read), "hello rdma");
}

TEST_F(VerbsTest, ReadDeniedWithoutRights) {
  auto wo = *mem_.CarveAndRegister(64, kRemoteWrite);
  EXPECT_EQ(Verbs::Read(mem_, wo.rkey, wo.base, 8).code(),
            Code::kPermissionDenied);
}

TEST_F(VerbsTest, CompareSwapSuccessAndFailure) {
  Addr a = region_.base;
  mem_.StoreWord(a, 100);
  auto old1 = Verbs::CompareSwap(mem_, region_.rkey, a, 100, 200);
  ASSERT_TRUE(old1.ok());
  EXPECT_EQ(*old1, 100u);
  EXPECT_EQ(mem_.LoadWord(a), 200u);
  // Failed compare leaves memory untouched but still returns the old value.
  auto old2 = Verbs::CompareSwap(mem_, region_.rkey, a, 100, 300);
  ASSERT_TRUE(old2.ok());
  EXPECT_EQ(*old2, 200u);
  EXPECT_EQ(mem_.LoadWord(a), 200u);
}

TEST_F(VerbsTest, CasRequiresAlignment) {
  EXPECT_EQ(
      Verbs::CompareSwap(mem_, region_.rkey, region_.base + 4, 0, 1).code(),
      Code::kInvalidArgument);
}

TEST_F(VerbsTest, FetchAddAccumulates) {
  Addr a = region_.base;
  mem_.StoreWord(a, 10);
  EXPECT_EQ(*Verbs::FetchAdd(mem_, region_.rkey, a, 5), 10u);
  EXPECT_EQ(*Verbs::FetchAdd(mem_, region_.rkey, a, 7), 15u);
  EXPECT_EQ(mem_.LoadWord(a), 22u);
}

TEST_F(VerbsTest, MaskedCasEqualOnSelectedField) {
  // 16-byte operand: [fieldA | fieldB]. Compare fieldA, swap fieldB.
  Addr a = region_.base;
  mem_.Store(a, SmallBytes::OfU64Pair(42, 7));
  SmallBytes data = SmallBytes::OfU64Pair(42, 99);
  auto outcome = Verbs::MaskedCompareSwap(
      mem_, region_.rkey, a, data, FieldMask(16, 0, 8), FieldMask(16, 8, 8),
      CasCompare::kEqual);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->swapped);
  EXPECT_EQ(LoadU64(outcome->old_value.data()), 42u);
  EXPECT_EQ(LoadU64(outcome->old_value.data() + 8), 7u);
  EXPECT_EQ(mem_.LoadWord(a), 42u);      // compare field untouched
  EXPECT_EQ(mem_.LoadWord(a + 8), 99u);  // swap field updated
}

TEST_F(VerbsTest, MaskedCasEqualFailureReturnsOldValue) {
  Addr a = region_.base;
  mem_.Store(a, SmallBytes::OfU64Pair(42, 7));
  SmallBytes data = SmallBytes::OfU64Pair(41, 99);
  auto outcome = Verbs::MaskedCompareSwap(
      mem_, region_.rkey, a, data, FieldMask(16, 0, 8), FieldMask(16, 8, 8),
      CasCompare::kEqual);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->swapped);
  EXPECT_EQ(mem_.LoadWord(a + 8), 7u);  // unchanged
  EXPECT_EQ(LoadU64(outcome->old_value.data()), 42u);
}

TEST_F(VerbsTest, MaskedCasGreaterUsesHighOffsetAsMostSignificant) {
  // Little-endian 16-byte integer: the field at offset 8 is more significant.
  Addr a = region_.base;
  mem_.Store(a, SmallBytes::OfU64Pair(/*lo=*/100, /*hi=*/5));
  // (lo=0, hi=6) > (lo=100, hi=5) because hi dominates.
  SmallBytes data = SmallBytes::OfU64Pair(0, 6);
  SmallBytes full = FieldMask(16, 0, 16);
  auto outcome = Verbs::MaskedCompareSwap(mem_, region_.rkey, a, data, full,
                                          full, CasCompare::kGreater);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->swapped);
  EXPECT_EQ(mem_.LoadWord(a), 0u);
  EXPECT_EQ(mem_.LoadWord(a + 8), 6u);
}

TEST_F(VerbsTest, MaskedCasGreaterStrict) {
  Addr a = region_.base;
  mem_.StoreWord(a, 10);
  Bytes data = BytesOfU64(10);
  SmallBytes mask = FieldMask(8, 0, 8);
  auto outcome = Verbs::MaskedCompareSwap(mem_, region_.rkey, a, data, mask,
                                          mask, CasCompare::kGreater);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->swapped);  // equal is not greater
}

TEST_F(VerbsTest, MaskedCasLess) {
  Addr a = region_.base;
  mem_.StoreWord(a, 10);
  SmallBytes mask = FieldMask(8, 0, 8);
  auto outcome = Verbs::MaskedCompareSwap(mem_, region_.rkey, a,
                                          BytesOfU64(3), mask, mask,
                                          CasCompare::kLess);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->swapped);
  EXPECT_EQ(mem_.LoadWord(a), 3u);
}

TEST_F(VerbsTest, MaskedCasRejectsBadWidth) {
  Bytes data(12), mask(12);
  EXPECT_EQ(Verbs::MaskedCompareSwap(mem_, region_.rkey, region_.base, data,
                                     mask, mask, CasCompare::kEqual)
                .code(),
            Code::kInvalidArgument);
}

TEST_F(VerbsTest, MaskedCasRejectsMismatchedMaskWidth) {
  Bytes data(16), mask8(8), mask16(16);
  EXPECT_EQ(Verbs::MaskedCompareSwap(mem_, region_.rkey, region_.base, data,
                                     mask8, mask16, CasCompare::kEqual)
                .code(),
            Code::kInvalidArgument);
}

TEST_F(VerbsTest, MaskedCasRequiresAtomicRights) {
  auto ro = *mem_.CarveAndRegister(64, kRemoteRead | kRemoteWrite);
  Bytes data(8), mask(8, 0xff);
  EXPECT_EQ(Verbs::MaskedCompareSwap(mem_, ro.rkey, ro.base, data, mask, mask,
                                     CasCompare::kEqual)
                .code(),
            Code::kPermissionDenied);
}

// ---------- Fabric-level operations and timing ----------

class RdmaFabricTest : public ::testing::Test {
 protected:
  RdmaFabricTest()
      : fabric_(&sim_, net::CostModel::Fig1DirectTestbed()),
        server_(fabric_.AddHost("server")),
        client_host_(fabric_.AddHost("client")),
        mem_(1 << 20),
        hw_service_(&fabric_, server_, Backend::kHardwareNic, &mem_),
        sw_service_(&fabric_, server_, Backend::kSoftwareStack, &mem_),
        client_(&fabric_, client_host_) {
    region_ = *mem_.CarveAndRegister(8192, kRemoteAll);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_;
  net::HostId client_host_;
  AddressSpace mem_;
  RdmaService hw_service_;
  RdmaService sw_service_;
  RdmaClient client_;
  MemoryRegion region_;
};

TEST_F(RdmaFabricTest, HardwareReadLatencyCalibrated) {
  mem_.Store(region_.base, Bytes(512, 0xaa));
  sim::TimePoint done_at = 0;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.Read(&hw_service_, region_.rkey, region_.base,
                                   512);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->size(), 512u);
    done_at = sim_.Now();
  });
  sim_.Run();
  // Paper Fig. 1: one-sided 512 B READ on the direct testbed ≈ 2.5 µs.
  EXPECT_NEAR(sim::ToMicros(done_at), 2.5, 0.25);
}

TEST_F(RdmaFabricTest, SoftwareReadAddsPaperPremium) {
  mem_.Store(region_.base, Bytes(512, 0xbb));
  sim::TimePoint hw_done = 0, sw_done = 0;
  sim::Spawn([&]() -> Task<void> {
    co_await client_.Read(&hw_service_, region_.rkey, region_.base, 512);
    hw_done = sim_.Now();
    co_await client_.Read(&sw_service_, region_.rkey, region_.base, 512);
    sw_done = sim_.Now();
  });
  sim_.Run();
  double premium = sim::ToMicros(sw_done - hw_done) - sim::ToMicros(hw_done);
  // §4.3: the software prototype adds 2.5–2.8 µs per op.
  EXPECT_GT(premium, 2.0);
  EXPECT_LT(premium, 3.2);
}

TEST_F(RdmaFabricTest, WriteIsVisibleToSubsequentRead) {
  sim::Spawn([&]() -> Task<void> {
    Status w = co_await client_.Write(&hw_service_, region_.rkey,
                                      region_.base, BytesOfString("payload"));
    EXPECT_TRUE(w.ok());
    auto r =
        co_await client_.Read(&hw_service_, region_.rkey, region_.base, 7);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(StringOfBytes(*r), "payload");
  });
  sim_.Run();
}

TEST_F(RdmaFabricTest, ErrorsPropagateAsNacks) {
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_.Read(&hw_service_, region_.rkey + 1,
                                   region_.base, 8);
    EXPECT_EQ(r.code(), Code::kPermissionDenied);
    Status w = co_await client_.Write(&hw_service_, region_.rkey,
                                      region_.base + 8190, Bytes(16));
    EXPECT_EQ(w.code(), Code::kOutOfRange);
  });
  sim_.Run();
}

TEST_F(RdmaFabricTest, CasOverFabric) {
  mem_.StoreWord(region_.base, 5);
  sim::Spawn([&]() -> Task<void> {
    auto old = co_await client_.CompareSwap(&hw_service_, region_.rkey,
                                            region_.base, 5, 9);
    EXPECT_TRUE(old.ok());
    EXPECT_EQ(*old, 5u);
    EXPECT_EQ(mem_.LoadWord(region_.base), 9u);
  });
  sim_.Run();
}

TEST_F(RdmaFabricTest, ConcurrentCasAtomicity) {
  // 64 concurrent increments via CAS-retry must all land (no lost updates).
  mem_.StoreWord(region_.base, 0);
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    sim::Spawn([&]() -> Task<void> {
      while (true) {
        auto cur = co_await client_.Read(&hw_service_, region_.rkey,
                                         region_.base, 8);
        EXPECT_TRUE(cur.ok());
        uint64_t v = LoadU64(cur->data());
        auto old = co_await client_.CompareSwap(&hw_service_, region_.rkey,
                                                region_.base, v, v + 1);
        EXPECT_TRUE(old.ok());
        if (*old == v) break;
      }
      completed++;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 64);
  EXPECT_EQ(mem_.LoadWord(region_.base), 64u);
}

TEST_F(RdmaFabricTest, DownHostYieldsUnavailable) {
  fabric_.SetHostUp(server_, false);
  sim::Spawn([&]() -> Task<void> {
    auto r =
        co_await client_.Read(&hw_service_, region_.rkey, region_.base, 8);
    EXPECT_EQ(r.code(), Code::kUnavailable);
  });
  sim_.Run();
}

TEST_F(RdmaFabricTest, ServerCrashMidOpTimesOutInsteadOfHanging) {
  // The server crash/restarts while the READ request is on the wire: the
  // old incarnation's traffic is purged, no completion ever arrives, and
  // the op must resolve kTimedOut at ≈ Exchange::kDeadline instead of
  // hanging.
  mem_.Store(region_.base, Bytes(64, 0xaa));
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto r =
        co_await client_.Read(&hw_service_, region_.rkey, region_.base, 64);
    EXPECT_EQ(r.code(), Code::kTimedOut);
    EXPECT_GE(sim_.Now() - start, Exchange::kDeadline);
    EXPECT_LT(sim_.Now() - start, Exchange::kDeadline + sim::Millis(1));
    checked = true;
  });
  sim_.Schedule(sim::Nanos(500), [&] {  // post done, delivery pending
    fabric_.SetHostUp(server_, false);
    fabric_.SetHostUp(server_, true);
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(fabric_.purged_messages(), 1u);
}

TEST_F(RdmaFabricTest, ServerEgressSaturatesUnderLoad) {
  // 200 concurrent 512 B reads: aggregate completion is bounded by the
  // server's 25 Gb/s egress link, i.e. ~183 ns serialization per reply.
  mem_.Store(region_.base, Bytes(512, 1));
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    sim::Spawn([&]() -> Task<void> {
      auto r = co_await client_.Read(&hw_service_, region_.rkey,
                                     region_.base, 512);
      EXPECT_TRUE(r.ok());
      done++;
    });
  }
  sim_.Run();  // every op cancels its deadline, so Run() ends at the last op
  EXPECT_EQ(done, 200);
  // 200 replies * (512+60)B * 8 / 25Gbps = 36.6 µs minimum wall time.
  EXPECT_GT(sim::ToMicros(sim_.Now()), 36.0);
  EXPECT_LT(sim::ToMicros(sim_.Now()), 55.0);
}

// ---------- Verb-layer doorbell batching / completion coalescing ----------

TEST_F(RdmaFabricTest, UnbatchedClientTicksOneDoorbellAndPollPerOp) {
  mem_.Store(region_.base, Bytes(64, 1));
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto r =
          co_await client_.Read(&hw_service_, region_.rkey, region_.base, 64);
      EXPECT_TRUE(r.ok());
    }
  });
  sim_.Run();
  EXPECT_EQ(client_.tally().round_trips, 3u);
  EXPECT_EQ(client_.tally().doorbells, 3u);
  EXPECT_EQ(client_.tally().cq_polls, 3u);
}

TEST_F(RdmaFabricTest, DoorbellBatchingAmortizesClientActions) {
  mem_.Store(region_.base, Bytes(64, 2));
  BatchOptions opts;
  opts.doorbell_batch = 4;
  opts.cq_moderation = 4;
  VerbBatcher batcher(&sim_, &fabric_.cost(), opts);
  client_.set_batcher(&batcher);
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    sim::Spawn([&]() -> Task<void> {
      auto r =
          co_await client_.Read(&hw_service_, region_.rkey, region_.base, 64);
      EXPECT_TRUE(r.ok());
      done++;
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 4);
  // Protocol shape untouched: still one round trip per op.
  EXPECT_EQ(client_.tally().round_trips, 4u);
  // Client CPU actions amortized: the 4 WRs shared one doorbell ring, and
  // the 4 responses (landing within the coalescing window) one CQ drain.
  EXPECT_EQ(batcher.wrs_posted(), 4u);
  EXPECT_EQ(batcher.doorbells_rung(), 1u);
  EXPECT_EQ(batcher.cqes_reaped(), 4u);
  EXPECT_EQ(batcher.cq_drains(), 1u);
  EXPECT_EQ(client_.tally().doorbells, 1u);
  EXPECT_EQ(client_.tally().cq_polls, 1u);
}

TEST_F(RdmaFabricTest, PartialBatchFlushesOnTimeout) {
  // A lone op with an 8-deep batch still completes: the doorbell rings at
  // db_timeout and the CQ drains at cq_timeout, adding ~4 µs to the
  // calibrated 2.5 µs read.
  mem_.Store(region_.base, Bytes(64, 3));
  VerbBatcher batcher(&sim_, &fabric_.cost(), BatchOptions::Batched());
  client_.set_batcher(&batcher);
  sim::TimePoint done_at = 0;
  sim::Spawn([&]() -> Task<void> {
    auto r =
        co_await client_.Read(&hw_service_, region_.rkey, region_.base, 64);
    EXPECT_TRUE(r.ok());
    done_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(batcher.doorbells_rung(), 1u);
  EXPECT_EQ(batcher.cq_drains(), 1u);
  EXPECT_NEAR(sim::ToMicros(done_at),
              2.5 + sim::ToMicros(batcher.options().db_timeout) +
                  sim::ToMicros(batcher.options().cq_timeout),
              0.3);
}

TEST_F(RdmaFabricTest, BatchOfOneMatchesUnbatchedPath) {
  // doorbell_batch == cq_moderation == 1 must charge exactly the flat
  // client_post/completion costs: same timing and same tally as no batcher.
  mem_.Store(region_.base, Bytes(512, 4));
  sim::TimePoint unbatched_done = 0;
  sim::Spawn([&]() -> Task<void> {
    auto r =
        co_await client_.Read(&hw_service_, region_.rkey, region_.base, 512);
    EXPECT_TRUE(r.ok());
    unbatched_done = sim_.Now();
  });
  sim_.Run();

  VerbBatcher batcher(&sim_, &fabric_.cost(), BatchOptions{});
  RdmaClient batched(&fabric_, client_host_);
  batched.set_batcher(&batcher);
  sim::TimePoint start = sim_.Now();
  sim::TimePoint batched_done = 0;
  sim::Spawn([&]() -> Task<void> {
    auto r =
        co_await batched.Read(&hw_service_, region_.rkey, region_.base, 512);
    EXPECT_TRUE(r.ok());
    batched_done = sim_.Now();
  });
  sim_.Run();
  EXPECT_EQ(batched_done - start, unbatched_done);
  EXPECT_EQ(batched.tally().doorbells, 1u);
  EXPECT_EQ(batched.tally().cq_polls, 1u);
  EXPECT_EQ(batched.tally().round_trips, client_.tally().round_trips);
}

TEST(VerbBatcherDeterminismTest, BatchedRunReplaysBitIdentically) {
  auto run = [] {
    sim::Simulator sim;
    net::Fabric fabric(&sim, net::CostModel::Fig1DirectTestbed());
    net::HostId server = fabric.AddHost("server");
    net::HostId client_host = fabric.AddHost("client");
    AddressSpace mem(1 << 20);
    RdmaService service(&fabric, server, Backend::kHardwareNic, &mem);
    MemoryRegion region = *mem.CarveAndRegister(8192, kRemoteAll);
    mem.Store(region.base, Bytes(64, 9));
    RdmaClient client(&fabric, client_host);
    BatchOptions opts;
    opts.doorbell_batch = 3;
    opts.cq_moderation = 3;
    VerbBatcher batcher(&sim, &fabric.cost(), opts);
    client.set_batcher(&batcher);
    std::vector<int64_t> completions;
    for (int i = 0; i < 8; ++i) {
      sim::Spawn([&]() -> Task<void> {
        auto r =
            co_await client.Read(&service, region.rkey, region.base, 64);
        EXPECT_TRUE(r.ok());
        completions.push_back(sim.Now());
      });
    }
    sim.Run();
    completions.push_back(static_cast<int64_t>(sim.executed_events()));
    return completions;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace prism::rdma
