// Property test for the per-op phase decomposition (src/obs/timeline.h,
// DESIGN.md §5.9): the telescoping-sum construction guarantees that every
// nanosecond between an op's arrival and its completion lands in exactly one
// phase, so
//
//     sum over phases of phase_ns == end_ns - start_ns     (exactly)
//
// for every operation, on every stack, under every interleaving — not
// approximately, not within rounding, but as an integer identity. This file
// drives every application stack (PRISM-KV, Pilaf's GET path, PRISM-RS,
// ABD-LOCK, PRISM-TX, FaRM, the one-sided synchronization suite and
// consensus) through an open-loop pool with phase timelines attached,
// across a 20-seed sweep, and checks the identity on
// every recorded timeline plus the store-level aggregates that
// tools/latency_report consumes:
//
//  * each timeline is finished, each phase is non-negative, phases sum to
//    the op's total;
//  * the store's exact per-class phase_total_ns equals the recomputed sum
//    over measured ops (window predicate: arrival >= start, completion <= end);
//  * started/measured op counters match; every exemplar satisfies the same
//    phase-sum identity.
//
// Half the seeds run with a span tracer attached (exercising the exemplar
// span-pinning path); the invariant cannot depend on it.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/consensus/consensus.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/simulator.h"
#include "src/sync/sync.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/workload/open_loop.h"

namespace prism {
namespace {

using sim::Task;

constexpr int kSeeds = 20;

struct RunResult {
  std::unique_ptr<obs::TimelineStore> store;
  int64_t win_start = 0;
  int64_t win_end = 0;
};

// Scaffold shared by all stacks: serial simulator, fabric, a tracer on even
// seeds, one open-loop pool with timelines attached. `build` wires servers
// and clients and registers the pool's op classes.
template <typename Build>
RunResult RunStack(uint64_t seed, const Build& build) {
  RunResult out;
  out.store = std::make_unique<obs::TimelineStore>();
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  obs::Tracer tracer;
  if (seed % 2 == 0) {
    fabric.AttachTracer(&tracer);
    out.store->SetTracer(&tracer);
  }

  // Per-seed offered rate: sweeps from light load into mild contention so
  // backlog, sync-spin, and retransmit-free phases all get populated.
  workload::PoolOptions popts;
  popts.workers = 6;
  workload::OpenLoopPool pool(
      &sim, workload::ArrivalSpec::Poisson(1.2e5 + 9e3 * seed), 12,
      Rng(7000 + seed), popts);
  net::HostId client_host = build(fabric, pool, seed);
  pool.set_timelines(out.store.get(), &fabric.obs(), client_host);

  out.win_start = sim::Micros(50);
  out.win_end = sim::Micros(550);
  pool.Start(out.win_start, out.win_end);
  sim.Run();
  pool.CheckDrained();
  return out;
}

// The invariant proper, checked against one run's store.
void CheckPhaseInvariant(const RunResult& run, const std::string& what) {
  const obs::TimelineStore& st = *run.store;
  std::vector<std::array<int64_t, obs::kNumPhases>> totals(st.n_classes());
  for (auto& t : totals) t.fill(0);

  uint64_t done = 0;
  uint64_t measured = 0;
  for (const obs::OpTimeline& t : st.timelines()) {
    ASSERT_TRUE(t.done()) << what << ": op never finished";
    int64_t sum = 0;
    for (int p = 0; p < obs::kNumPhases; ++p) {
      ASSERT_GE(t.phase_ns(p), 0)
          << what << ": negative " << obs::PhaseName(p) << " time";
      sum += t.phase_ns(p);
    }
    ASSERT_EQ(sum, t.total_ns())
        << what << ": phases sum to " << sum << " but the op took "
        << t.total_ns() << " ns — a handoff point lost or double-counted "
        << "an interval";
    ++done;
    if (t.start_ns() >= run.win_start && t.end_ns() <= run.win_end) {
      ++measured;
      for (int p = 0; p < obs::kNumPhases; ++p) {
        totals[t.cls()][p] += t.phase_ns(p);
      }
    }
  }
  EXPECT_GT(done, 0u) << what;
  EXPECT_GT(measured, 0u) << what;
  EXPECT_EQ(st.started_ops(), done) << what;
  EXPECT_EQ(st.measured_ops(), measured) << what;

  // The store's exact aggregates are the same sums, computed op by op.
  for (size_t c = 0; c < st.n_classes(); ++c) {
    for (int p = 0; p < obs::kNumPhases; ++p) {
      EXPECT_EQ(st.phase_total_ns(c, p), totals[c][p])
          << what << ": class " << st.class_name(c) << " phase "
          << obs::PhaseName(p);
    }
    for (const obs::TimelineStore::Exemplar& e : st.exemplars(c)) {
      int64_t esum = 0;
      for (int p = 0; p < obs::kNumPhases; ++p) esum += e.phase_ns[p];
      EXPECT_EQ(esum, e.total_ns())
          << what << ": exemplar seq=" << e.seq << " of "
          << st.class_name(c);
    }
  }
}

TEST(PhaseInvariantTest, KvStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct KvRig {
      std::unique_ptr<kv::PrismKvServer> server;
      std::unique_ptr<kv::PrismKvClient> get_client, put_client;
    };
    auto rig = std::make_shared<KvRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t) {
      net::HostId sh = fabric.AddHost("kv-server");
      kv::PrismKvOptions opts;
      opts.n_buckets = 256;
      opts.n_buffers = 512;
      rig->server = std::make_unique<kv::PrismKvServer>(&fabric, sh, opts);
      net::HostId ch = fabric.AddHost("kvc");
      rig->get_client = std::make_unique<kv::PrismKvClient>(
          &fabric, ch, rig->server.get());
      rig->put_client = std::make_unique<kv::PrismKvClient>(
          &fabric, ch, rig->server.get());
      pool.AddClass("kv.get", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->get_client->Get(
                          "k" + std::to_string(d % 16));
                      (void)r;  // misses race the puts; fine
                    });
      pool.AddClass("kv.put", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s = co_await rig->put_client->Put(
                          "k" + std::to_string(d % 16),
                          BytesOfString("v" + std::to_string(d % 4)));
                      PRISM_CHECK(s.ok()) << s;
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "kv seed=" + std::to_string(seed));
  }
}

TEST(PhaseInvariantTest, RsStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct RsRig {
      std::unique_ptr<rs::PrismRsCluster> cluster;
      std::unique_ptr<rs::PrismRsClient> client;
    };
    auto rig = std::make_shared<RsRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t) {
      rs::PrismRsOptions opts;
      opts.n_blocks = 64;
      opts.buffers_per_replica = 512;
      rig->cluster = std::make_unique<rs::PrismRsCluster>(&fabric, 3, opts);
      net::HostId ch = fabric.AddHost("rsc");
      rig->client = std::make_unique<rs::PrismRsClient>(
          &fabric, ch, rig->cluster.get(), /*client_id=*/1);
      pool.AddClass("rs.get", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->client->Get(d % 8);
                      (void)r;
                    });
      pool.AddClass("rs.put", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s = co_await rig->client->Put(
                          d % 8, Bytes(rig->cluster->options().block_size,
                                       static_cast<uint8_t>(d % 4)));
                      PRISM_CHECK(s.ok() || s.code() == Code::kAborted) << s;
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "rs seed=" + std::to_string(seed));
  }
}

// Pilaf's GET suspends twice outside any transport, for its two CRC checks,
// so an op's app time is exactly those two checks. A READ issued under any
// other op's ctx would leave this op holding that READ's time as app.
TEST(PhaseInvariantTest, PilafStack) {
  auto dense_key = [](uint64_t k) {
    std::string key(8, '\0');
    StoreU64(reinterpret_cast<uint8_t*>(key.data()), k);
    return key;
  };
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct PilafRig {
      std::unique_ptr<kv::PilafServer> server;
      std::unique_ptr<kv::PilafClient> client;
    };
    auto rig = std::make_shared<PilafRig>();
    sim::Duration crc_check = 0;
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t) {
      constexpr uint64_t kKeys = 16;
      kv::PilafOptions opts;
      opts.n_buckets = 64;
      opts.n_extents = 64;
      opts.dense_key_hash = true;
      rig->server = std::make_unique<kv::PilafServer>(
          &fabric, fabric.AddHost("pilaf-server"), opts);
      for (uint64_t k = 0; k < kKeys; ++k) {
        PRISM_CHECK(rig->server
                        ->LoadKey(BytesOfString(dense_key(k)), Bytes(32, 0x11))
                        .ok());
      }
      crc_check = fabric.cost().app_crc_check;
      net::HostId ch = fabric.AddHost("pc");
      rig->client = std::make_unique<kv::PilafClient>(&fabric, ch,
                                                      rig->server.get());
      pool.AddClass("kv.get", 1.0,
                    [rig, dense_key](uint64_t d,
                                     obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->client->Get(dense_key(d % kKeys));
                      PRISM_CHECK(r.ok()) << r.status();
                    });
      return ch;
    });
    const std::string what = "pilaf seed=" + std::to_string(seed);
    CheckPhaseInvariant(run, what);
    uint64_t gets = 0;
    uint64_t wrong = 0;
    for (const obs::OpTimeline& t : run.store->timelines()) {
      ++gets;
      if (t.phase_ns(obs::Phase::kApp) != 2 * crc_check) ++wrong;
    }
    EXPECT_EQ(wrong, 0u) << what << ": " << wrong << " of " << gets
                         << " GETs carry app time other than their two CRC "
                            "checks";
  }
}

TEST(PhaseInvariantTest, TxStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct TxRig {
      std::unique_ptr<tx::PrismTxCluster> cluster;
      std::unique_ptr<tx::PrismTxClient> client;
    };
    auto rig = std::make_shared<TxRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t) {
      tx::PrismTxOptions opts;
      rig->cluster = std::make_unique<tx::PrismTxCluster>(&fabric, 2, opts);
      for (uint64_t k = 1; k <= 6; ++k) {
        PRISM_CHECK(rig->cluster
                        ->LoadKey(k, BytesOfString("init-" +
                                                   std::to_string(k)))
                        .ok());
      }
      net::HostId ch = fabric.AddHost("txc");
      rig->client = std::make_unique<tx::PrismTxClient>(
          &fabric, ch, rig->cluster.get(), /*client_id=*/1);
      pool.AddClass("tx.txn", 1.0,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto txn = rig->client->Begin();
                      auto r = co_await rig->client->Read(txn, 1 + d % 6);
                      (void)r;
                      rig->client->Write(txn, 1 + (d / 7) % 6,
                                         BytesOfString("t" +
                                                       std::to_string(d % 4)));
                      Status s = co_await rig->client->Commit(txn);
                      (void)s;  // aborts under contention are expected
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "tx seed=" + std::to_string(seed));
  }
}

TEST(PhaseInvariantTest, SyncStack) {
  // The spinlock scheme is the one that stamps kSyncSpin on acquisition
  // retries and runs its retry verbs untimed — the invariant must hold
  // through that dance too.
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct SyncRig {
      std::unique_ptr<sync::SyncIndexServer> server;
      std::unique_ptr<sync::SyncClient> client;
    };
    auto rig = std::make_shared<SyncRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t s) {
      net::HostId sh = fabric.AddHost("index");
      rig->server = std::make_unique<sync::SyncIndexServer>(
          &fabric, sh, sync::SyncOptions{});
      constexpr uint64_t kKeys = 2;  // tight key set -> real lock convoys
      for (uint64_t k = 1; k <= kKeys; ++k) {
        PRISM_CHECK(rig->server->LoadKey(k, sync::InitialValue()).ok());
      }
      net::HostId ch = fabric.AddHost("sc");
      rig->client = std::make_unique<sync::SyncClient>(
          &fabric, ch, rig->server.get(), sync::SyncScheme::kSpinlock,
          /*client_id=*/1, /*seed=*/900 + s);
      pool.AddClass("sync.read", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->client->Read(1 + d % kKeys);
                      PRISM_CHECK(r.ok()) << r.status();
                    });
      pool.AddClass("sync.update", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status st = co_await rig->client->Update(
                          1 + d % kKeys,
                          sync::MakeValue(9, 1, static_cast<int>(d % 32)));
                      PRISM_CHECK(st.ok()) << st;
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "sync seed=" + std::to_string(seed));
  }
}

// ABD-LOCK: lock, read and write quorum rounds with backoff between lock
// attempts, all under the op's one ctx.
TEST(PhaseInvariantTest, AbdLockStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct AbdRig {
      std::unique_ptr<rs::AbdLockCluster> cluster;
      std::unique_ptr<rs::AbdLockClient> client;
    };
    auto rig = std::make_shared<AbdRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t s) {
      rs::AbdLockOptions opts;
      opts.n_blocks = 64;
      rig->cluster = std::make_unique<rs::AbdLockCluster>(&fabric, 3, opts);
      net::HostId ch = fabric.AddHost("abdc");
      rig->client = std::make_unique<rs::AbdLockClient>(
          &fabric, ch, rig->cluster.get(), /*client_id=*/1, 500 + s);
      pool.AddClass("abd.get", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->client->Get(d % 8);
                      (void)r;  // kAborted: the pool's own ops contend
                    });
      pool.AddClass("abd.put", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s = co_await rig->client->Put(
                          d % 8, Bytes(rig->cluster->options().block_size,
                                       static_cast<uint8_t>(d % 4)));
                      PRISM_CHECK(s.ok() || s.code() == Code::kAborted) << s;
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "abd seed=" + std::to_string(seed));
  }
}

// FaRM: two one-sided READs with a locked-object backoff, then lock,
// validate and update rounds over RPC and READs.
TEST(PhaseInvariantTest, FarmStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct FarmRig {
      std::unique_ptr<tx::FarmCluster> cluster;
      std::unique_ptr<tx::FarmClient> client;
    };
    auto rig = std::make_shared<FarmRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t) {
      tx::FarmOptions opts;
      opts.keys_per_shard = 64;
      opts.value_size = 64;
      rig->cluster = std::make_unique<tx::FarmCluster>(&fabric, 2, opts);
      for (uint64_t k = 1; k <= 6; ++k) {
        PRISM_CHECK(rig->cluster->LoadKey(k, Bytes(64, 0x11)).ok());
      }
      net::HostId ch = fabric.AddHost("farmc");
      rig->client = std::make_unique<tx::FarmClient>(
          &fabric, ch, rig->cluster.get(), /*client_id=*/1);
      pool.AddClass("tx.txn", 1.0,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto txn = rig->client->Begin();
                      auto r = co_await rig->client->Read(txn, 1 + d % 6);
                      if (!r.ok()) co_return;
                      rig->client->Write(txn, 1 + d % 6, Bytes(64, 0x22));
                      Status s = co_await rig->client->Commit(txn);
                      (void)s;  // aborts under contention are expected
                    });
      return ch;
    });
    CheckPhaseInvariant(run, "farm seed=" + std::to_string(seed));
  }
}

// Consensus: the leader's mutex, commit and confirm fan-outs, and (for an
// op that arrives before the warmup election ends) leader recovery.
TEST(PhaseInvariantTest, ConsensusStack) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    struct ConsensusRig {
      std::unique_ptr<consensus::ConsensusCluster> cluster;
      std::unique_ptr<consensus::ConsensusClient> client;
    };
    auto rig = std::make_shared<ConsensusRig>();
    RunResult run = RunStack(seed, [&](net::Fabric& fabric,
                                       workload::OpenLoopPool& pool,
                                       uint64_t s) {
      std::vector<net::HostId> hosts;
      for (int r = 0; r < 3; ++r) {
        hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
      }
      rig->cluster = std::make_unique<consensus::ConsensusCluster>(
          &fabric, hosts, consensus::ConsensusOptions{});
      rig->client = std::make_unique<consensus::ConsensusClient>(
          rig->cluster.get(), /*client_id=*/1, /*rng_seed=*/s);
      sim::Spawn([rig]() -> Task<void> {
        auto won = co_await rig->cluster->Failover(0, {});
        PRISM_CHECK(won.ok()) << won.status();
      });
      pool.AddClass("cons.put", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status st = co_await rig->client->Put(
                          1 + d % 4,
                          consensus::MakeValue(3, 1, static_cast<int>(d % 64)));
                      PRISM_CHECK(st.ok()) << st;
                    });
      pool.AddClass("cons.get", 0.5,
                    [rig](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await rig->client->Get(1 + d % 4);
                      (void)r;  // kNotFound before the key's first put
                    });
      return hosts[0];
    });
    CheckPhaseInvariant(run, "consensus seed=" + std::to_string(seed));
  }
}

}  // namespace
}  // namespace prism
