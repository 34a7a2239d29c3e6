// Unit tests for the one-sided synchronization schemes (src/sync): per-
// scheme behavior under contention, crash windows, and stalls, plus a
// 100-seed clean sweep across every correct scheme. The guideline-violating
// kUnfencedBuggy scheme is deliberately NOT swept here — its corruption is
// schedule-dependent and lives in the explore suite (explore_test, and
// tools/explore_main --workload=sync_buggy); this file only pins down that
// its canonical schedules stay clean.
#include "src/sync/sync.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/rdma/service.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/workload/open_loop.h"
#include "tests/stack_cell.h"

namespace prism::sync {
namespace {

using sim::Task;

// One self-contained contended run: `n_clients` clients of one scheme fire
// `ops_per_client` skewed ops at a 2-key index, with optional per-client
// critical-section stalls. Verifies linearizability and that the final
// value of every key is a value some writer actually wrote (torn values
// fingerprint to unwritten ValueIds, so both checks catch them).
struct RunSpec {
  SyncScheme scheme = SyncScheme::kSpinlock;
  uint64_t seed = 1;
  int n_clients = 2;
  int ops_per_client = 6;
  double update_fraction = 0.6;
  SyncOptions opts;
  // client index → stall inside every critical section.
  std::vector<sim::Duration> stalls;
};

struct RunResult {
  bool lin_ok = false;
  std::string lin_error;
  bool final_ok = false;
  std::string final_error;
  std::vector<uint64_t> round_trips;
  std::vector<uint64_t> lock_conflicts;
  std::vector<uint64_t> optimistic_retries;
  std::vector<uint64_t> lease_steals;
  std::vector<uint64_t> fencing_aborts;
  uint64_t lock_word_key1 = ~0ull;
  uint64_t version_word_key1 = ~0ull;
};

RunResult RunContended(const RunSpec& spec) {
  constexpr uint64_t kKeys = 2;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(),
                     /*loss_seed=*/spec.seed);
  net::HostId server_host = fabric.AddHost("index");
  SyncIndexServer server(&fabric, server_host, spec.opts);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    PRISM_CHECK(server.LoadKey(k, InitialValue()).ok());
  }
  const check::ValueId initial = check::IdOf(InitialValue());

  check::HistoryRecorder history(&sim);
  std::vector<std::unique_ptr<SyncClient>> clients;
  std::vector<Bytes> written;  // every value any client attempted to write
  for (int c = 0; c < spec.n_clients; ++c) {
    net::HostId h = fabric.AddHost("client" + std::to_string(c));
    clients.push_back(std::make_unique<SyncClient>(
        &fabric, h, &server, spec.scheme, static_cast<uint16_t>(c + 1),
        spec.seed * 131 + static_cast<uint64_t>(c)));
    clients[c]->set_history(&history, c + 1);
    if (c < static_cast<int>(spec.stalls.size())) {
      clients[c]->set_critical_stall(spec.stalls[c]);
    }
  }

  sim::TaskTracker tracker;
  for (int c = 0; c < spec.n_clients; ++c) {
    sim::Spawn(
        [&, c]() -> Task<void> {
          Rng rng(spec.seed * 977 + static_cast<uint64_t>(c));
          for (int i = 0; i < spec.ops_per_client; ++i) {
            const uint64_t key =
                rng.NextBool(0.75) ? 1 : 1 + rng.NextBelow(kKeys);
            if (rng.NextBool(spec.update_fraction)) {
              Bytes v = MakeValue(spec.seed, c, i);
              written.push_back(v);
              (void)co_await clients[c]->Update(key, std::move(v));
            } else {
              (void)co_await clients[c]->Read(key);
            }
            co_await sim::SleepFor(&sim, sim::Micros(rng.NextInRange(0, 6)));
          }
        },
        &tracker);
  }
  sim.Run();
  PRISM_CHECK_EQ(tracker.live(), 0u) << "clients hung";

  RunResult res;
  check::CheckResult lin = check::CheckLinearizable(history.ops(), initial);
  res.lin_ok = lin.ok;
  res.lin_error = lin.error;
  // Final values must be bytes somebody wrote (or the preload) — a torn
  // final value matches neither.
  res.final_ok = true;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    const Bytes fin = server.ValueBytes(k);
    bool known = fin == InitialValue();
    for (const Bytes& w : written) known = known || fin == w;
    if (!known) {
      res.final_ok = false;
      res.final_error = "key " + std::to_string(k) + " holds torn bytes";
    }
  }
  for (int c = 0; c < spec.n_clients; ++c) {
    res.round_trips.push_back(clients[c]->round_trips());
    res.lock_conflicts.push_back(clients[c]->lock_conflicts());
    res.optimistic_retries.push_back(clients[c]->optimistic_retries());
    res.lease_steals.push_back(clients[c]->lease_steals());
    res.fencing_aborts.push_back(clients[c]->fencing_aborts());
  }
  res.lock_word_key1 = server.LockWord(1);
  res.version_word_key1 = server.VersionWord(1);
  return res;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t s = 0;
  for (uint64_t x : v) s += x;
  return s;
}

// ---- spinlock: mutual exclusion under a crash window ----

// A "crashed" holder — a raw CAS seizes the lock and the owner never
// returns — wedges the spinlock for the length of the window. Competing
// clients must stay SAFE (no torn values, linearizable history, failed
// updates really absent) even though they lose liveness until the lock is
// reclaimed.
TEST(SpinlockTest, MutualExclusionAcrossCrashWindow) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(), /*loss_seed=*/7);
  net::HostId server_host = fabric.AddHost("index");
  SyncOptions opts;
  // Short attempt budget so wedged clients abort inside the window instead
  // of outlasting it.
  opts.max_attempts = 4;
  SyncIndexServer server(&fabric, server_host, opts);
  ASSERT_TRUE(server.LoadKey(1, InitialValue()).ok());
  const uint64_t slot = *server.SlotOf(1);
  const rdma::Addr lock_addr = server.slot_addr(slot) + kLockOff;

  check::HistoryRecorder history(&sim);
  SyncClient c1(&fabric, fabric.AddHost("c1"), &server,
                SyncScheme::kSpinlock, 1, 101);
  SyncClient c2(&fabric, fabric.AddHost("c2"), &server,
                SyncScheme::kSpinlock, 2, 202);
  c1.set_history(&history, 1);
  c2.set_history(&history, 2);

  net::HostId crash_host = fabric.AddHost("crasher");
  rdma::RdmaClient crasher(&fabric, crash_host);

  sim::TaskTracker tracker;
  int c1_failures = 0;
  // The crasher grabs the lock at t=0 and "dies" holding it; an operator
  // reclaims the lock 80µs later.
  sim::Spawn(
      [&]() -> Task<void> {
        Result<uint64_t> old = co_await crasher.CompareSwap(
            &server.rdma(), server.rkey(), lock_addr, 0, 99);
        PRISM_CHECK(old.ok() && *old == 0) << "crasher failed to seize lock";
        co_await sim::SleepFor(&sim, sim::Micros(80));
        (void)co_await crasher.Write(&server.rdma(), server.rkey(), lock_addr,
                                     Bytes(8, 0));
      },
      &tracker);
  sim::Spawn(
      [&]() -> Task<void> {
        for (int i = 0; i < 6; ++i) {
          Status s = co_await c1.Update(1, MakeValue(7, 0, i));
          if (!s.ok()) ++c1_failures;
          co_await sim::SleepFor(&sim, sim::Micros(10));
        }
      },
      &tracker);
  sim::Spawn(
      [&]() -> Task<void> {
        for (int i = 0; i < 6; ++i) {
          (void)co_await c2.Read(1);
          co_await sim::SleepFor(&sim, sim::Micros(10));
        }
      },
      &tracker);
  sim.Run();
  ASSERT_EQ(tracker.live(), 0u);

  // Liveness lost inside the window: some updates aborted after
  // max_attempts. Safety kept: the aborted ops are recorded as failed, the
  // history stays linearizable, and nothing tore.
  EXPECT_GT(c1_failures, 0);
  EXPECT_GT(c1.lock_conflicts(), 0u);
  check::CheckResult lin =
      check::CheckLinearizable(history.ops(), check::IdOf(InitialValue()));
  EXPECT_TRUE(lin.ok) << lin.error;
  EXPECT_EQ(server.LockWord(1), 0u);
}

// ---- optimistic: readers retry on a version bump ----

TEST(OptimisticTest, ReadRetriesOnVersionBump) {
  RunSpec spec;
  spec.scheme = SyncScheme::kOptimistic;
  spec.seed = 3;
  spec.n_clients = 3;
  spec.ops_per_client = 8;
  spec.update_fraction = 0.5;
  // Client 0 stalls 25µs inside every write's odd-version window, so
  // concurrent readers see an in-progress or bumped version and retry.
  spec.stalls = {sim::Micros(25)};
  RunResult res = RunContended(spec);
  EXPECT_TRUE(res.lin_ok) << res.lin_error;
  EXPECT_TRUE(res.final_ok) << res.final_error;
  EXPECT_GT(Sum(res.optimistic_retries), 0u);
  // Writers restored the seqlock to stable (even) on completion.
  EXPECT_EQ(res.version_word_key1 % 2, 0u);
}

// ---- lease: expiry + fencing reject a stale holder ----

TEST(LeaseTest, ExpiryAndFencingRejectStaleHolder) {
  RunSpec spec;
  spec.scheme = SyncScheme::kLease;
  spec.seed = 5;
  spec.n_clients = 3;
  spec.ops_per_client = 8;
  spec.update_fraction = 0.8;
  spec.opts.lease_term = sim::Micros(40);
  spec.opts.lease_guard = sim::Micros(10);
  // Client 0 stalls past its own lease term in every critical section:
  // competitors must steal the expired lease, and client 0's self-fencing
  // must refuse the late value write instead of scribbling over the thief.
  spec.stalls = {sim::Micros(120)};
  RunResult res = RunContended(spec);
  EXPECT_TRUE(res.lin_ok) << res.lin_error;
  EXPECT_TRUE(res.final_ok) << res.final_error;
  EXPECT_GT(Sum(res.lease_steals), 0u);
  EXPECT_GT(res.fencing_aborts[0], 0u);
}

// Without a stall nobody's lease expires: leases behave like a plain
// mutual-exclusion lock and nothing is stolen or fenced.
TEST(LeaseTest, NoStealsOrFencingWithoutStalls) {
  RunSpec spec;
  spec.scheme = SyncScheme::kLease;
  spec.seed = 11;
  spec.n_clients = 2;
  spec.ops_per_client = 8;
  RunResult res = RunContended(spec);
  EXPECT_TRUE(res.lin_ok) << res.lin_error;
  EXPECT_EQ(Sum(res.lease_steals), 0u);
  EXPECT_EQ(Sum(res.fencing_aborts), 0u);
}

// ---- PRISM chains: the whole locked op in one round trip ----

TEST(PrismNativeTest, UpdateIsOneRoundTripAfterPrewarm) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(), /*loss_seed=*/1);
  net::HostId server_host = fabric.AddHost("index");
  SyncIndexServer server(&fabric, server_host, SyncOptions{});
  ASSERT_TRUE(server.LoadKey(1, InitialValue()).ok());

  SyncClient prism_client(&fabric, fabric.AddHost("cp"), &server,
                          SyncScheme::kPrismNative, 1, 11);
  SyncClient spin_client(&fabric, fabric.AddHost("cs"), &server,
                         SyncScheme::kSpinlock, 2, 22);
  prism_client.Prewarm(1);
  spin_client.Prewarm(1);

  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        Status s = co_await prism_client.Update(1, MakeValue(1, 0, 0));
        PRISM_CHECK(s.ok()) << s;
        // Serialize the two updates so neither pays contention retries.
        s = co_await spin_client.Update(1, MakeValue(1, 1, 0));
        PRISM_CHECK(s.ok()) << s;
      },
      &tracker);
  sim.Run();
  ASSERT_EQ(tracker.live(), 0u);

  // The fused chain [CAS; cond WRITE; cond unlock] is a single round trip;
  // the fenced spinlock pays acquire + write + release.
  EXPECT_EQ(prism_client.round_trips(), 1u);
  EXPECT_GE(spin_client.round_trips(), 3u);
  EXPECT_EQ(server.ValueBytes(1), MakeValue(1, 1, 0));
  EXPECT_EQ(server.LockWord(1), 0u);
}

// ---- probe path: un-prewarmed clients traverse the index remotely ----

// A cold client (no Prewarm) locates every key by remote probe READs. It
// runs as a traced open-loop cell, so those READs are held to the same
// phase-sum and span-parentage rules as every stack in stack_cell_test.
TEST(ProbeTest, ColdClientFindsKeysAndMissesAbsentOnes) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(), /*loss_seed=*/2);
  net::HostId server_host = fabric.AddHost("index");
  SyncOptions opts;
  opts.n_slots = 16;
  SyncIndexServer server(&fabric, server_host, opts);
  for (uint64_t k = 1; k <= 5; ++k) {
    ASSERT_TRUE(server.LoadKey(k, InitialValue()).ok());
  }

  std::unique_ptr<SyncClient> cold;
  uint64_t reads = 0;
  obs::TimelineStore store;
  obs::Tracer tracer;
  stack_cell::RunCell(
      sim, fabric, {.what = "cold probe", .rate = 2e5, .seed = 33, .hosts = 1},
      store, &tracer,
      [&](workload::OpenLoopPool& pool, net::HostId host, int) {
        cold = std::make_unique<SyncClient>(&fabric, host, &server,
                                            SyncScheme::kSpinlock, 1, 33);
        pool.AddClass("sync.read", 1.0,
                      [&](uint64_t, obs::OpTimeline*) -> Task<void> {
                        const uint64_t key = 1 + reads++ % 6;  // 6 is absent
                        Result<Bytes> v = co_await cold->Read(key);
                        PRISM_CHECK_EQ(v.ok(), key <= 5) << v.status();
                        if (v.ok()) PRISM_CHECK(*v == InitialValue());
                      });
      });
  EXPECT_GE(reads, 6u) << "not every key 1..6 was read";
  EXPECT_GT(cold->probe_rounds(), 0u);
}

// ---- 100-seed clean sweep over every correct scheme ----

TEST(SyncSweepTest, HundredSeedsCleanAcrossCorrectSchemes) {
  const SyncScheme schemes[] = {SyncScheme::kSpinlock, SyncScheme::kOptimistic,
                                SyncScheme::kLease, SyncScheme::kPrismNative};
  for (SyncScheme scheme : schemes) {
    for (uint64_t seed = 1; seed <= 100; ++seed) {
      RunSpec spec;
      spec.scheme = scheme;
      spec.seed = seed;
      RunResult res = RunContended(spec);
      ASSERT_TRUE(res.lin_ok) << SchemeName(scheme) << " seed " << seed << ": "
                              << res.lin_error;
      ASSERT_TRUE(res.final_ok) << SchemeName(scheme) << " seed " << seed
                                << ": " << res.final_error;
      ASSERT_EQ(res.lock_word_key1, 0u)
          << SchemeName(scheme) << " seed " << seed;
    }
  }
}

// The buggy scheme's corruption is strictly schedule-dependent: under the
// canonical engine (no schedule hook) it is clean — which is exactly why
// the explore suite, not a seed sweep, is what catches it.
TEST(SyncSweepTest, UnfencedBuggyCanonicalSchedulesAreClean) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    RunSpec spec;
    spec.scheme = SyncScheme::kUnfencedBuggy;
    spec.seed = seed;
    RunResult res = RunContended(spec);
    ASSERT_TRUE(res.lin_ok) << "seed " << seed << ": " << res.lin_error;
    ASSERT_TRUE(res.final_ok) << "seed " << seed << ": " << res.final_error;
  }
}

}  // namespace
}  // namespace prism::sync
