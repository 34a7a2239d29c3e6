// Deterministic chaos sweeps: PRISM-RS / PRISM-KV / PRISM-TX driven by a
// seeded ChaosMonkey (crash/restart, asymmetric partitions, loss bursts,
// latency spikes) through the stack registry's runner
// (src/explore/workloads.h, tests/chaos_sweep.h). Every client op is
// recorded into a history that the offline checkers (src/check) validate —
// linearizability for the register stores, read-committed for transactions
// — and a quiescent final probe feeds the final-state oracle. Any violating
// seed is printed with its expanded fault schedule and a replay command
// line:
//
//     chaos_test --seed=N --gtest_filter=ChaosSweep.*
//
// The binary has a custom main() for that flag plus --jobs=N, --trace=PATH
// and --metrics; everything else is standard gtest. Also here: negative
// tests proving the checkers *reject* bad histories (a checker that accepts
// everything would pass any sweep), and a crash-amnesia test proving the
// linearizability checker notices when a wiped quorum loses an acknowledged
// write.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/explore/workloads.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"
#include "tests/chaos_sweep.h"

namespace prism {

chaos_sweep::Flags g_flags;

namespace {

using sim::Task;

// ---- the sweeps: one per chaos-capable stack in this binary ----

TEST(ChaosSweep, PrismRsLinearizable) {
  chaos_sweep::Sweep(explore::Workload::kRs, g_flags, "chaos_test");
}

TEST(ChaosSweep, PrismKvLinearizable) {
  chaos_sweep::Sweep(explore::Workload::kKv, g_flags, "chaos_test");
}

TEST(ChaosSweep, PrismTxReadCommitted) {
  chaos_sweep::Sweep(explore::Workload::kTx, g_flags, "chaos_test");
}

// Every stack with a sweep size row is swept — by ChaosSweep above or by
// ConsensusChaosSweep in consensus_test — so a new stack cannot skip the
// chaos checkers.
TEST(SweepCoverageTest, EveryChaosStackIsSwept) {
  const std::vector<explore::Workload> swept = {
      explore::Workload::kRs, explore::Workload::kKv, explore::Workload::kTx,
      explore::Workload::kConsensus};
  for (explore::Workload w : explore::AllWorkloads()) {
    const bool is_swept =
        std::find(swept.begin(), swept.end(), w) != swept.end();
    EXPECT_EQ(is_swept, explore::HasSweepSize(w)) << explore::WorkloadName(w);
  }
}

// ---- crash amnesia: the checker must notice lost acknowledged writes ----
//
// ABD assumes replica memory survives restarts. Wipe all three replicas
// between an acknowledged Put and a Get: the Get returns the initial zero
// block, which no linearization can explain.
TEST(ChaosAmnesiaTest, CheckerDetectsQuorumWipe) {
  constexpr uint64_t kBlockSize = 64;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  rs::PrismRsOptions opts;
  opts.n_blocks = 1;
  opts.block_size = kBlockSize;
  opts.buffers_per_replica = 64;
  rs::PrismRsCluster cluster(&fabric, 3, opts);
  check::HistoryRecorder history(&sim);
  net::HostId ch = fabric.AddHost("client");
  rs::PrismRsClient client(&fabric, ch, &cluster, 1);
  client.set_history(&history);

  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        Bytes v = explore::UniqueValue(kBlockSize, /*seed=*/7, /*client=*/1, 0);
        Status put = co_await client.Put(0, std::move(v));
        EXPECT_TRUE(put.ok());
        for (int i = 0; i < 3; ++i) {
          fabric.SetHostUp(i, false);
          fabric.SetHostUp(i, true);
          cluster.replica(i).WipeState();  // DRAM did not survive
        }
        // Advance time so the Get strictly follows the Put in real time
        // (equal response/invoke instants count as concurrent).
        co_await sim::SleepFor(&sim, sim::Micros(10));
        auto got = co_await client.Get(0);
        EXPECT_TRUE(got.ok());
      },
      &tracker);
  sim.Run();
  EXPECT_EQ(tracker.live(), 0u);

  std::ostringstream ops;
  for (const check::Op& op : history.ops()) ops << check::FormatOp(op) << "\n";
  auto res = check::CheckLinearizable(history.ops(),
                                      check::IdOf(Bytes(kBlockSize, 0)));
  EXPECT_FALSE(res.ok) << "checker accepted a history with a lost write:\n"
                       << ops.str();
}

// ---- negative checker tests ----
//
// A checker that accepts everything would pass every sweep; prove the
// rejection paths work on hand-crafted histories.

check::Op MakeOp(int client, uint64_t key, check::OpType type,
                 check::ValueId value, sim::TimePoint invoke,
                 sim::TimePoint response,
                 check::Outcome outcome = check::Outcome::kOk) {
  check::Op op;
  op.client = client;
  op.key = key;
  op.type = type;
  op.value = value;
  op.invoke = invoke;
  op.response = response;
  op.outcome = outcome;
  op.done = true;
  return op;
}

constexpr check::ValueId kInit = 0x1111;
constexpr check::ValueId kA = 0xAAAA;
constexpr check::ValueId kB = 0xBBBB;
using check::OpType;
using check::Outcome;

TEST(CheckerTest, AcceptsSequentialAndConcurrentHistory) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kA, 2, 12),    // concurrent: sees new
      MakeOp(3, 0, OpType::kRead, kInit, 3, 13),  // concurrent: sees old
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),   // after: must see new
  };
  EXPECT_TRUE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, RejectsStaleRead) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kInit, 20, 30),  // write done; stale read
  };
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("key=0"), std::string::npos) << res.error;
}

TEST(CheckerTest, RejectsValueRegression) {
  // Two sequential writes, then reads observing them in reverse order.
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(1, 0, OpType::kWrite, kB, 20, 30),
      MakeOp(2, 0, OpType::kRead, kB, 40, 50),
      MakeOp(2, 0, OpType::kRead, kA, 60, 70),  // regressed
  };
  EXPECT_FALSE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, FailedWriteMustNotBeObserved) {
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kFailed),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
  };
  EXPECT_FALSE(check::CheckLinearizable(h, kInit).ok);
}

TEST(CheckerTest, IndeterminateWriteMayApplyOrNot) {
  // Applied…
  std::vector<check::Op> applied = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
  };
  EXPECT_TRUE(check::CheckLinearizable(applied, kInit).ok);
  // …or dropped…
  std::vector<check::Op> dropped = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kInit, 20, 30),
  };
  EXPECT_TRUE(check::CheckLinearizable(dropped, kInit).ok);
  // …but not both: once observed, the value cannot regress.
  std::vector<check::Op> both = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10, Outcome::kIndeterminate),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
      MakeOp(2, 0, OpType::kRead, kInit, 40, 50),
  };
  EXPECT_FALSE(check::CheckLinearizable(both, kInit).ok);
}

TEST(CheckerTest, KeysCheckIndependently) {
  // Fine on key 0, broken on key 1 — the witness names key 1.
  std::vector<check::Op> h = {
      MakeOp(1, 0, OpType::kWrite, kA, 0, 10),
      MakeOp(2, 0, OpType::kRead, kA, 20, 30),
      MakeOp(1, 1, OpType::kWrite, kB, 0, 10),
      MakeOp(2, 1, OpType::kRead, kInit, 20, 30),
  };
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("key=1"), std::string::npos) << res.error;
}

TEST(CheckerTest, RejectsOversizedKeyHistory) {
  std::vector<check::Op> h;
  for (size_t i = 0; i < check::kMaxOpsPerKey + 1; ++i) {
    h.push_back(MakeOp(1, 0, OpType::kWrite, kA + i,
                       sim::TimePoint(10 * i), sim::TimePoint(10 * i + 5)));
  }
  auto res = check::CheckLinearizable(h, kInit);
  EXPECT_FALSE(res.ok);
}

TEST(CheckerTest, ReadCommittedRejectsAbortedRead) {
  check::TxnRecord writer;
  writer.client = 1;
  writer.writes = {{5, kA}};
  writer.outcome = check::TxOutcome::kAborted;
  writer.begin = 0;
  writer.end = 10;
  writer.done = true;
  check::TxnRecord reader;
  reader.client = 2;
  reader.reads = {{5, kA}};  // observed an aborted write
  reader.outcome = check::TxOutcome::kCommitted;
  reader.begin = 20;
  reader.end = 30;
  reader.done = true;
  auto res = check::CheckReadCommitted({writer, reader}, {{5, kInit}});
  EXPECT_FALSE(res.ok);

  // The same read is fine if the writer committed — or might have.
  writer.outcome = check::TxOutcome::kCommitted;
  EXPECT_TRUE(check::CheckReadCommitted({writer, reader}, {{5, kInit}}).ok);
  writer.outcome = check::TxOutcome::kIndeterminate;
  EXPECT_TRUE(check::CheckReadCommitted({writer, reader}, {{5, kInit}}).ok);
}

TEST(CheckerTest, ReadCommittedRejectsPhantomValue) {
  check::TxnRecord reader;
  reader.client = 1;
  reader.reads = {{5, kB}};  // nobody ever wrote kB
  reader.outcome = check::TxOutcome::kCommitted;
  reader.done = true;
  EXPECT_FALSE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
  // Initial value and absence are always explainable.
  reader.reads = {{5, kInit}};
  EXPECT_TRUE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
  reader.reads = {{7, check::kAbsent}};
  EXPECT_TRUE(check::CheckReadCommitted({reader}, {{5, kInit}}).ok);
}

// ---- chaos monkey unit tests ----

TEST(ChaosMonkeyTest, ScheduleIsAPureFunctionOfOptions) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId a = fabric.AddHost("a");
  net::HostId b = fabric.AddHost("b");
  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.crashable = {a, b};
  opts.crash_count = 6;
  opts.partition_hosts = {a, b};
  chaos::ChaosMonkey m1(&fabric, opts);
  chaos::ChaosMonkey m2(&fabric, opts);
  ASSERT_EQ(m1.schedule().size(), m2.schedule().size());
  for (size_t i = 0; i < m1.schedule().size(); ++i) {
    const chaos::FaultEvent& e1 = m1.schedule()[i];
    const chaos::FaultEvent& e2 = m2.schedule()[i];
    EXPECT_EQ(e1.at, e2.at);
    EXPECT_EQ(e1.kind, e2.kind);
    EXPECT_EQ(e1.a, e2.a);
    EXPECT_EQ(e1.b, e2.b);
  }
  opts.seed = 43;
  chaos::ChaosMonkey m3(&fabric, opts);
  bool differs = m3.schedule().size() != m1.schedule().size();
  for (size_t i = 0; !differs && i < m1.schedule().size(); ++i) {
    differs = m1.schedule()[i].at != m3.schedule()[i].at ||
              m1.schedule()[i].kind != m3.schedule()[i].kind;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosMonkeyTest, EveryFaultHealsByHorizonAndHooksFire) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId a = fabric.AddHost("a");
  net::HostId b = fabric.AddHost("b");
  net::HostId c = fabric.AddHost("c");
  const double base_loss = fabric.cost().loss_probability;
  const sim::Duration base_prop = fabric.cost().propagation;

  chaos::ChaosOptions opts;
  opts.seed = 42;
  opts.crashable = {a, b, c};
  opts.crash_count = 8;
  opts.max_concurrent_crashes = 2;
  opts.partition_hosts = {a, b, c};
  opts.partition_count = 4;
  chaos::ChaosMonkey monkey(&fabric, opts);
  int scheduled_crashes = 0;
  for (const chaos::FaultEvent& ev : monkey.schedule()) {
    if (ev.kind == chaos::FaultKind::kCrash) scheduled_crashes++;
  }
  ASSERT_GT(scheduled_crashes, 0);  // seed 42 must actually crash someone

  int hooks_fired = 0;
  for (net::HostId h : {a, b, c}) {
    monkey.SetRestartHook(h, [&] { hooks_fired++; });
  }
  monkey.Arm();
  sim.Run();

  EXPECT_EQ(monkey.crashes_injected(), scheduled_crashes);
  EXPECT_EQ(hooks_fired, scheduled_crashes);  // one restart per crash
  for (net::HostId h : {a, b, c}) {
    EXPECT_TRUE(fabric.IsHostUp(h));
    for (net::HostId g : {a, b, c}) {
      EXPECT_FALSE(fabric.IsLinkBlocked(h, g));
    }
  }
  EXPECT_EQ(fabric.cost().loss_probability, base_loss);
  EXPECT_EQ(fabric.cost().propagation, base_prop);
}

}  // namespace
}  // namespace prism

// Custom main: strip --seed=N (single-seed replay), --jobs=N (sweep
// parallelism), --trace=<path> and --metrics (failure/replay observability
// dumps) before gtest parses the rest.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      prism::g_flags.replay_seed = std::stoll(arg.substr(7));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      prism::g_flags.jobs = std::stoi(arg.substr(7));
    } else if (arg.rfind("--trace=", 0) == 0) {
      prism::g_flags.trace_path = arg.substr(8);
    } else if (arg == "--metrics") {
      prism::g_flags.metrics = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
