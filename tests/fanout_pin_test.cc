// Pins the quorum fan-out paths of the replicated stacks under faults.
//
// The fault-free pins (BenchPointTest, the figure goldens) never reach a
// fan-out's failure branches: an Arrive(false), a quorum that becomes
// unreachable, or a reply that lands after the outcome was decided. These
// runs do: PRISM-RS and consensus replies fail under chaos, consensus
// rounds become unreachable, and both leave stragglers. Each one is a
// production-engine run (no schedule hook), and its event count, history
// fingerprint, ok-op count and fired faults are pinned as literals, so a
// change to the fan-out machinery that moves any (when, seq) shows here.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "src/explore/workloads.h"

namespace prism::explore {
namespace {

struct Pin {
  Workload kind;
  Size size;
  uint64_t seed;
  uint64_t executed_events;
  uint64_t history_fingerprint;
  uint64_t ok_ops;
  int faults_injected;
};

// kRs, kTx and kConsensus run the sweep size row under chaos; the two
// positive controls run their explore row, fault-free.
// Columns: events, history fingerprint, ok ops, faults fired.
constexpr Pin kPins[] = {
    {Workload::kRs, Size::kSweep, 1, 2136, 0x64eaae349f031105, 30, 9},
    {Workload::kRs, Size::kSweep, 2, 2085, 0xc4311e63b413bbac, 30, 7},
    {Workload::kRs, Size::kSweep, 3, 2162, 0xd80086bb783b548e, 30, 8},
    {Workload::kRs, Size::kSweep, 4, 2110, 0x80a67d4f78f19f61, 30, 9},
    {Workload::kRs, Size::kSweep, 5, 2174, 0x2056489172eee31b, 30, 8},
    {Workload::kTx, Size::kSweep, 1, 1161, 0x3e221f91d0218e77, 21, 9},
    {Workload::kTx, Size::kSweep, 2, 1004, 0xe4f95376ce340d2c, 16, 7},
    {Workload::kTx, Size::kSweep, 3, 1110, 0xe097929478ca32fc, 19, 8},
    {Workload::kTx, Size::kSweep, 4, 1087, 0xde21a9f778ccd9b7, 19, 8},
    {Workload::kTx, Size::kSweep, 5, 1127, 0x2b62f1a209925800, 22, 8},
    {Workload::kConsensus, Size::kSweep, 1, 612, 0x2e6453045f40146d, 26, 9},
    {Workload::kConsensus, Size::kSweep, 2, 528, 0x9ae8dd6a6c4d27d4, 27, 7},
    {Workload::kConsensus, Size::kSweep, 3, 609, 0x6be10ce31cc6c1a2, 28, 8},
    {Workload::kConsensus, Size::kSweep, 4, 497, 0x36b9aaf462090de2, 25, 9},
    {Workload::kConsensus, Size::kSweep, 5, 619, 0x80e7c78c92746ca1, 27, 8},
    {Workload::kSyncBuggy, Size::kExplore, 1, 404, 0x5eaadab03638dfe5, 12, 0},
    {Workload::kSyncBuggy, Size::kExplore, 2, 439, 0x0ab1311bb3b30826, 12, 0},
    {Workload::kSyncBuggy, Size::kExplore, 3, 476, 0xe631bada46f19b14, 12, 0},
    {Workload::kConsensusBuggy, Size::kExplore, 1, 138, 0xd77e2945dafe22e4, 0,
     0},
    {Workload::kConsensusBuggy, Size::kExplore, 2, 138, 0x5b80e0e2d441a8e3, 0,
     0},
    {Workload::kConsensusBuggy, Size::kExplore, 3, 138, 0x61aa364299de42a5, 0,
     0},
};

TEST(FanOutPinTest, FaultPathsKeepTheirSchedules) {
  for (const Pin& pin : kPins) {
    const WorkloadOptions opts{.kind = pin.kind, .seed = pin.seed,
                               .size = pin.size};
    const RunOutcome out = RunWorkload(opts);
    char row[160];
    std::snprintf(row, sizeof(row), "%s seed %llu: %llu 0x%016llx %llu %d",
                  WorkloadName(pin.kind),
                  static_cast<unsigned long long>(pin.seed),
                  static_cast<unsigned long long>(out.executed_events),
                  static_cast<unsigned long long>(out.history_fingerprint),
                  static_cast<unsigned long long>(out.ok_ops),
                  out.faults_injected);
    EXPECT_EQ(out.executed_events, pin.executed_events) << row;
    EXPECT_EQ(out.history_fingerprint, pin.history_fingerprint) << row;
    EXPECT_EQ(out.ok_ops, pin.ok_ops) << row;
    EXPECT_EQ(out.faults_injected, pin.faults_injected) << row;
  }
}

}  // namespace
}  // namespace prism::explore
