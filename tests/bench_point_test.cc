// Pins the closed-loop figure points. One small point per Run*Point wrapper
// (Pilaf, PRISM-KV, ABD-LOCK, PRISM-RS, FaRM, PRISM-TX), each with a few
// clients, short fixed windows and a fixed seed, must reproduce its row
// exactly: throughput, mean and p99 latency, abort rate, the simulator's
// event count and every op row's count, round trips and messages. The
// stdout goldens print neither the event count nor the op rows, so this is
// the test that holds the shared client loop (bench/point.h) to the
// (when, seq) replay and to the skeleton order: draws, span, op, op row,
// then Record or RecordAbort. The ABD-LOCK and FaRM points run hot enough
// under Zipf to abort, so the abort path is pinned too.
//
// On a mismatch the failure message carries the point's actual row in the
// literal form used below.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/kv_bench_lib.h"
#include "bench/rs_bench_lib.h"
#include "bench/tx_bench_lib.h"
#include "src/rs/abd_lock.h"

namespace prism::bench {
namespace {

struct PinnedOp {
  std::string op;
  uint64_t count;
  uint64_t round_trips;
  uint64_t messages;
};

struct Pinned {
  double tput_mops;
  double mean_us;
  double p99_us;
  double abort_rate;
  uint64_t sim_events;
  std::vector<PinnedOp> ops;
};

// `p` in the literal form of a Pinned initializer.
std::string Literal(const workload::LoadPoint& p) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%.17g, %.17g, %.17g, %.17g, %llu, {",
                p.tput_mops, p.mean_us, p.p99_us, p.abort_rate,
                static_cast<unsigned long long>(p.sim_events));
  std::string s = buf;
  for (const obs::OpStats& os : p.ops) {
    std::snprintf(buf, sizeof(buf), "{\"%s\", %llu, %llu, %llu}, ",
                  os.op.c_str(), static_cast<unsigned long long>(os.count),
                  static_cast<unsigned long long>(os.totals.round_trips),
                  static_cast<unsigned long long>(os.totals.messages));
    s += buf;
  }
  return s + "}}";
}

void ExpectPinned(const workload::LoadPoint& p, const Pinned& want) {
  SCOPED_TRACE("actual: " + Literal(p));
  EXPECT_EQ(p.tput_mops, want.tput_mops);
  EXPECT_EQ(p.mean_us, want.mean_us);
  EXPECT_EQ(p.p99_us, want.p99_us);
  EXPECT_EQ(p.abort_rate, want.abort_rate);
  EXPECT_EQ(p.sim_events, want.sim_events);
  ASSERT_EQ(p.ops.size(), want.ops.size());
  for (size_t i = 0; i < p.ops.size(); ++i) {
    EXPECT_EQ(p.ops[i].op, want.ops[i].op);
    EXPECT_EQ(p.ops[i].count, want.ops[i].count) << p.ops[i].op;
    EXPECT_EQ(p.ops[i].totals.round_trips, want.ops[i].round_trips)
        << p.ops[i].op;
    EXPECT_EQ(p.ops[i].totals.messages, want.ops[i].messages) << p.ops[i].op;
  }
}

class BenchPointTest : public ::testing::Test {
 protected:
  // Fast mode keeps the stores small; the windows are fixed here rather
  // than taken from BenchWindows::Default().
  BenchPointTest() {
    setenv("PRISM_BENCH_FAST", "1", 1);
    windows_.warmup = sim::Micros(50);
    windows_.measure = sim::Micros(250);
  }

  BenchWindows windows_;
};

TEST_F(BenchPointTest, PilafHardware) {
  ExpectPinned(
      RunPilafPoint(3, 0.9, rdma::Backend::kHardwareNic, windows_, 11),
      {0.364, 8.0636263736263736, 8.369, 0, 1731,
       {{"kv.get", 102, 204, 204}, {"kv.put", 11, 11, 11}}});
}

TEST_F(BenchPointTest, PrismKv) {
  ExpectPinned(RunPrismKvPoint(3, 0.5, windows_, 12),
               {0.34, 8.4549764705882353, 11.825, 0, 1519,
                {{"kv.get", 59, 59, 59}, {"kv.put", 49, 98, 98}}});
}

TEST_F(BenchPointTest, AbdLock) {
  ExpectPinned(
      RunAbdLockPoint(16, 0.5, 1.2, rdma::Backend::kHardwareNic, windows_,
                      13),
      {0.428, 18.223570093457944, 94.136, 0, 17708,
       {{"abd.get", 87, 1248, 1248}, {"abd.put", 82, 1134, 1134}}});
}

// With the default 64 lock attempts ABD-LOCK never gives up at figure
// scale (Figure 7 prints 0.0% lock failures even at 100 clients), so the
// abort path runs through the same point with a budget of two attempts.
TEST_F(BenchPointTest, AbdLockAbortsWithTwoLockAttempts) {
  rs::AbdLockOptions opts;
  opts.max_lock_attempts = 2;
  const workload::LoadPoint p =
      RunRsPoint<rs::AbdLockCluster, rs::AbdLockClient>(
          opts, 16, 0.5, 1.2, windows_, 13, nullptr);
  EXPECT_GT(p.abort_rate, 0);
  ExpectPinned(p, {0.804, 14.74131343283582, 23.294, 0.1625, 26464,
                   {{"abd.get", 157, 1782, 1782},
                    {"abd.put", 155, 1776, 1776}}});
}

TEST_F(BenchPointTest, PrismRs) {
  ExpectPinned(RunPrismRsPoint(4, 0.5, 0.9, windows_, 14),
               {0.304, 12.061, 12.061, 0, 6230,
                {{"rs.get", 57, 341, 342}, {"rs.put", 43, 255, 258}}});
}

TEST_F(BenchPointTest, FarmAbortsUnderZipf) {
  const workload::LoadPoint p =
      RunFarmPoint(16, 1.4, rdma::Backend::kHardwareNic, windows_, 15);
  EXPECT_GT(p.abort_rate, 0);
  ExpectPinned(p, {0.38, 26.303126315789477, 65.539, 0.39873417721518989,
                   9447, {{"tx.rmw", 217, 1263, 1263}}});
}

TEST_F(BenchPointTest, PrismTx) {
  ExpectPinned(RunPrismTxPoint(4, 0.9, windows_, 16),
               {0.22, 17.6102, 17.639, 0, 2294, {{"tx.rmw", 72, 214, 214}}});
}

}  // namespace
}  // namespace prism::bench
