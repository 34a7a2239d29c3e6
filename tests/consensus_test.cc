// Tests for the permission-guarded consensus log (src/consensus): leader
// election via rkey revocation, deposed-leader write rejection through the
// revoke-NACK path, cross-epoch log safety, the exact 2-round-trip commit
// profile, and a 100-seed chaos sweep (crash/partition/loss/latency) whose
// client histories all pass the Wing–Gong linearizability checker, the
// log-safety oracle and the final-state oracle. Any violating seed prints
// its fault schedule and a replay command line:
//
//     consensus_test --seed=N --gtest_filter=ConsensusChaosSweep.*
//
// The binary has a custom main() for --seed=N / --jobs=N, like chaos_test.
#include "src/consensus/consensus.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/explore/workloads.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "tests/chaos_sweep.h"

namespace prism {

// --seed=N / --jobs=N (see main below).
chaos_sweep::Flags g_flags;

namespace consensus {
namespace {

using sim::Task;

// A 3-replica cluster on its own fabric; replica hosts are 0..2.
struct Rig {
  sim::Simulator sim;
  net::Fabric fabric;
  std::unique_ptr<ConsensusCluster> cluster;

  explicit Rig(uint64_t loss_seed = 0,
               ConsensusOptions opts = ConsensusOptions{})
      : fabric(&sim, net::CostModel::EvalCluster40G(), loss_seed) {
    std::vector<net::HostId> hosts;
    for (int i = 0; i < opts.n_replicas; ++i) {
      hosts.push_back(fabric.AddHost("replica" + std::to_string(i)));
    }
    cluster = std::make_unique<ConsensusCluster>(&fabric, hosts, opts);
  }

  // Runs one election to completion on the main sim loop.
  Result<uint64_t> Elect(int candidate) {
    Result<uint64_t> out = Unavailable("election never ran");
    sim::Spawn([&]() -> Task<void> {
      out = co_await cluster->Failover(candidate, {});
    });
    sim.Run();
    return out;
  }
};

// ---- leader election via revocation ----

TEST(ElectionTest, RevocationMintsFreshRkeysAndBumpsEpoch) {
  Rig rig;
  std::vector<rdma::RKey> before;
  for (int i = 0; i < 3; ++i) before.push_back(rig.cluster->replica(i).rkey());

  auto won = rig.Elect(0);
  ASSERT_TRUE(won.ok()) << won.status();
  EXPECT_EQ(*won, 1u);
  EXPECT_TRUE(rig.cluster->node(0).leading());
  EXPECT_EQ(rig.cluster->leader_hint(), 0);
  // Every replica that granted revoked the seed registration: fresh rkey,
  // epoch word bumped, leader word recorded.
  int revoked = 0;
  for (int i = 0; i < 3; ++i) {
    if (rig.cluster->replica(i).rkey() != before[i]) {
      revoked++;
      EXPECT_EQ(rig.cluster->replica(i).epoch(), 1u);
      EXPECT_EQ(rig.cluster->replica(i).leader(), 0u);
      EXPECT_GE(rig.cluster->replica(i).revocations(), 1u);
    }
  }
  EXPECT_GE(revoked, rig.cluster->quorum());
  // With a quiet fabric, the post-quorum grant heals in: full membership.
  EXPECT_EQ(rig.cluster->node(0).granted_count(), 3);

  // A second election (new candidate) bumps the epoch everywhere again.
  auto won2 = rig.Elect(1);
  ASSERT_TRUE(won2.ok()) << won2.status();
  EXPECT_GT(*won2, *won);
  EXPECT_TRUE(rig.cluster->node(1).leading());
  EXPECT_EQ(rig.cluster->replica(1).leader(), 1u);
}

TEST(ElectionTest, StaleEpochGrantIsRejected) {
  Rig rig;
  ASSERT_TRUE(rig.Elect(0).ok());
  const uint64_t cur = rig.cluster->replica(0).epoch();
  GrantRequest stale;
  stale.epoch = cur;  // same epoch, different candidate
  stale.candidate = 2;
  GrantResponse resp = rig.cluster->replica(0).Grant(stale);
  EXPECT_FALSE(resp.granted);
  EXPECT_EQ(resp.epoch, cur);
  stale.epoch = cur - 1;  // older epoch
  resp = rig.cluster->replica(0).Grant(stale);
  EXPECT_FALSE(resp.granted);
}

// ---- the 2-round-trip commit profile ----

TEST(CommitProfileTest, PutAndGetCostTwoRoundTripsAtThreeReplicas) {
  Rig rig;
  ASSERT_TRUE(rig.Elect(0).ok());
  ASSERT_EQ(rig.cluster->node(0).granted_count(), 3);

  ConsensusSession session(rig.cluster.get());
  constexpr int kOps = 8;
  Status put_status = OkStatus();
  Result<Bytes> got = Unavailable("never ran");
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < kOps; ++i) {
      auto out = co_await session.PutOn(0, 7, MakeValue(1, 1, i), {});
      if (!out.status.ok()) put_status = out.status;
    }
    for (int i = 0; i < kOps; ++i) {
      got = co_await session.GetOn(0, 7, {});
    }
  });
  rig.sim.Run();
  ASSERT_TRUE(put_status.ok()) << put_status;
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, MakeValue(1, 1, kOps - 1));

  // The colocated leg is free; each of the two remote replicas costs one
  // chain per op — exactly 2 round trips/op for Puts (commit chains) and
  // Gets (permission-confirmation heartbeats) alike.
  EXPECT_EQ(session.round_trips(), static_cast<uint64_t>(2 * 2 * kOps));
}

// ---- deposed-leader write rejection (the revoke-NACK path) ----

// Block the new candidate's control plane to replica 0 so the old leader
// keeps its colocated permission: its next Put passes the free local check,
// pushes chains under the old rkeys, and both remotes NACK
// kPermissionDenied — the in-flight-rejection path, end to end.
TEST(DeposedLeaderTest, RemoteNacksRejectThePutAndMarkDeposal) {
  Rig rig;
  ASSERT_TRUE(rig.Elect(0).ok());
  ConsensusSession session(rig.cluster.get());

  Status first = Unavailable("never ran");
  sim::Spawn([&]() -> Task<void> {
    auto out = co_await session.PutOn(0, 1, MakeValue(2, 1, 0), {});
    first = out.status;
  });
  rig.sim.Run();
  ASSERT_TRUE(first.ok()) << first;

  // Usurper on node 1; its grant RPC to replica 0 is blocked, so node 0's
  // colocated replica never hears about the new epoch.
  rig.fabric.SetLinkBlocked(rig.cluster->replica(1).host(),
                            rig.cluster->replica(0).host(), true);
  rig.fabric.SetLinkBlocked(rig.cluster->replica(0).host(),
                            rig.cluster->replica(1).host(), true);
  auto won = rig.Elect(1);
  ASSERT_TRUE(won.ok()) << won.status();

  ConsensusNode::PutOutcome out;
  sim::Spawn([&]() -> Task<void> {
    out = co_await session.PutOn(0, 1, MakeValue(2, 1, 1), {});
  });
  rig.sim.Run();
  // The deposed leader's write must NOT be acknowledged; it observed its
  // deposal through the NACKs. The entry sits only in its colocated log, so
  // the outcome is maybe-applied, never yes.
  EXPECT_FALSE(out.status.ok());
  EXPECT_NE(out.applied, ConsensusNode::Applied::kYes);
  EXPECT_GE(rig.cluster->node(0).deposals_observed(), 1u);
  EXPECT_FALSE(rig.cluster->node(0).leading());
  rig.fabric.SetLinkBlocked(rig.cluster->replica(1).host(),
                            rig.cluster->replica(0).host(), false);
  rig.fabric.SetLinkBlocked(rig.cluster->replica(0).host(),
                            rig.cluster->replica(1).host(), false);

  // The usurper's reign is intact and linear: it can commit and read.
  Status usurper = Unavailable("never ran");
  Result<Bytes> read = Unavailable("never ran");
  sim::Spawn([&]() -> Task<void> {
    auto o = co_await session.PutOn(1, 1, MakeValue(2, 9, 0), {});
    usurper = o.status;
    read = co_await session.GetOn(1, 1, {});
  });
  rig.sim.Run();
  EXPECT_TRUE(usurper.ok()) << usurper;
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, MakeValue(2, 9, 0));
  std::string divergence;
  EXPECT_TRUE(rig.cluster->CommittedPrefixesAgree(&divergence)) << divergence;
}

// ---- log safety across epochs ----

TEST(LogSafetyTest, AdoptionCarriesCommitsAcrossLeaderChanges) {
  Rig rig;
  check::HistoryRecorder history(&rig.sim);
  ConsensusClient client(rig.cluster.get(), 1, /*rng_seed=*/42);
  client.set_history(&history, 1);

  // Three reigns; each commits a few writes, then hands off.
  for (int reign = 0; reign < 3; ++reign) {
    ASSERT_TRUE(rig.Elect(reign).ok());
    Status st = OkStatus();
    sim::Spawn([&]() -> Task<void> {
      for (int i = 0; i < 4; ++i) {
        Status s = co_await client.Put(1 + (i % 2),
                                       MakeValue(3, reign, i));
        if (!s.ok()) st = s;
      }
    });
    rig.sim.Run();
    ASSERT_TRUE(st.ok()) << "reign " << reign << ": " << st;
  }
  // The final reign's reads see the last committed values.
  Result<Bytes> v1 = Unavailable("never ran");
  Result<Bytes> v2 = Unavailable("never ran");
  sim::Spawn([&]() -> Task<void> {
    v1 = co_await client.Get(1);
    v2 = co_await client.Get(2);
  });
  rig.sim.Run();
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(*v1, MakeValue(3, 2, 2));  // reign 2, op 2 → key 1
  EXPECT_EQ(*v2, MakeValue(3, 2, 3));  // reign 2, op 3 → key 2

  std::string divergence;
  EXPECT_TRUE(rig.cluster->CommittedPrefixesAgree(&divergence)) << divergence;
  auto lin = check::CheckLinearizable(history.ops(), check::kAbsent);
  EXPECT_TRUE(lin.ok) << lin.error;
  // Each handoff adopted the predecessor's in-flight window.
  EXPECT_EQ(rig.cluster->failovers(), 3u);
  uint64_t revocations = 0;
  for (int i = 0; i < 3; ++i) {
    revocations += rig.cluster->replica(i).revocations();
  }
  EXPECT_GE(revocations, 6u);  // ≥ quorum per election
}

// The client bootstraps leadership itself: no election has run, the first
// Put finds no leader, triggers a failover, and retries.
TEST(ClientTest, BootstrapsLeadershipOnFirstOp) {
  Rig rig;
  ConsensusClient client(rig.cluster.get(), 1, 7);
  Status st = Unavailable("never ran");
  Result<Bytes> miss = Unavailable("never ran");
  sim::Spawn([&]() -> Task<void> {
    st = co_await client.Put(5, MakeValue(4, 1, 0));
    miss = co_await client.Get(99);
  });
  rig.sim.Run();
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_GE(client.failovers_triggered(), 1u);
  EXPECT_EQ(miss.status().code(), Code::kNotFound);
}

// ---- chaos sweep ----

// 3 replicas under chaos through the stack registry's runner
// (src/explore/workloads.h): linearizability, cross-replica log safety and
// the final-state oracle on every seed.
TEST(ConsensusChaosSweep, LinearizableWithAgreedLogs) {
  const chaos_sweep::Totals totals = chaos_sweep::Sweep(
      explore::Workload::kConsensus, g_flags, "consensus_test");
  if (g_flags.replay_seed < 0) {
    // The sweep must exercise real trouble AND real progress: faults
    // injected, leader changes forced by them, and plenty of acked ops.
    EXPECT_GT(totals.failovers, 100u);
    EXPECT_GT(totals.ok_ops, 100u * 10);
  }
}

}  // namespace
}  // namespace consensus
}  // namespace prism

// Custom main: --seed=N (replay one chaos schedule) and --jobs=N (sweep
// parallelism) before gtest parses the rest.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      prism::g_flags.replay_seed = std::stoll(arg.substr(7));
    } else if (arg.rfind("--jobs=", 0) == 0) {
      prism::g_flags.jobs = std::stoi(arg.substr(7));
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
