// Consensus-vs-ABD figure (no paper counterpart; ISSUE 10): the
// permission-guarded consensus log (src/consensus, Protected Memory Paxos
// style) against the lock-based ABD replicated store (src/rs ABD-LOCK)
// under identical open-loop load, plus a failover-latency CDF where leader
// change is an rkey revocation (Deregister + Register on a quorum).
//
// Methodology: both stores run 3 replicas and serve a 50/50 put/get mix
// over the same 16-key space with 16-byte values, driven by the same
// Poisson arrival process. The consensus leader is elected once during
// warmup and holds grants on all replicas for the whole measured window,
// so every put is exactly one PRISM chain per remote replica (CAS the slot
// header + conditional payload + piggybacked commit) and every get one
// heartbeat-confirm chain per remote — 2 round trips per op at n=3, and
// the accountant below asserts that EXACTLY (whole-run transport tally
// over whole-run completions). ABD-LOCK pays lock/read/write/unlock
// sequential round trips per op. The failover series drives repeated
// elections through the open-loop pool: each op revokes the incumbent's
// rkeys on a quorum and re-grants fresh ones, so the latency distribution
// IS the rkey-revocation failure-detector handoff time, catch-up included.
//
// Acceptance (PRISM_CHECKed, enforced by bench_smoke): consensus commits
// at exactly 2.0 round trips/op for both classes at the top offered rate,
// strictly below ABD-LOCK's profile; every measured failover succeeds and
// revokes on at least a quorum of replicas.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/point.h"
#include "src/consensus/consensus.h"
#include "src/harness/sweep.h"
#include "src/rs/abd_lock.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"

namespace prism::bench {
namespace {

constexpr double kPutFrac = 0.5;
constexpr uint64_t kConsKeys = 16;
constexpr int kConsReplicas = 3;
// Entries committed before the failover series starts: one full catch-up
// batch (kMaxCatchupEntries), so elections adopt a real log suffix.
constexpr uint64_t kFailoverSeedEntries = 32;

struct PointCfg {
  double offered_mops = 0.02;
  uint64_t n_clients = 0;
  BenchWindows windows;
  uint64_t seed = 1;
};

uint64_t DefaultClients() { return FastMode() ? 10'000 : 100'000; }

std::vector<double> OfferedSweepMops() {
  // The consensus leader serializes commits (the mutex is held across the
  // chain round trip), so the sweep tops out near half the leader's serial
  // capacity — a load figure, not an overload figure.
  if (FastMode()) return {0.02, 0.12};
  return {0.02, 0.05, 0.12};
}

std::vector<double> FailoverSweepMops() {
  if (FastMode()) return {0.01};
  return {0.005, 0.01};
}

// ---- PMP-consensus under open-loop load ----

workload::LoadPoint RunConsensusPoint(const PointCfg& cfg,
                                      obs::PointObs* pobs = nullptr) {
  Point point(cfg.windows, pobs);
  sim::Simulator& sim = point.sim();
  net::Fabric& fabric = point.fabric();
  std::vector<net::HostId> hosts;
  for (int r = 0; r < kConsReplicas; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  // One session per op class so the complexity tally is per-class exact;
  // the seeding session keeps warmup prefill off the measured books.
  consensus::ConsensusSession put_session(&cluster);
  consensus::ConsensusSession get_session(&cluster);
  consensus::ConsensusSession seed_session(&cluster);

  workload::OpenLoopPool& pool = point.AddPool(
      hosts[0], workload::ArrivalSpec::Poisson(cfg.offered_mops * 1e6),
      cfg.n_clients, Rng(cfg.seed), 16);
  pool.AddClass(
      "cons.put", kPutFrac,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const uint64_t key = 1 + draw % kConsKeys;
        auto put = co_await put_session.PutOn(
            0, key,
            consensus::MakeValue(cfg.seed, static_cast<int>(draw % 251),
                                 static_cast<int>(draw % 241)),
            obs::CtxOf(op));
        PRISM_CHECK(put.status.ok())
            << put.status << " key=" << key
            << " offered=" << cfg.offered_mops;
      });
  pool.AddClass(
      "cons.get", 1.0 - kPutFrac,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const uint64_t key = 1 + draw % kConsKeys;
        auto v = co_await get_session.GetOn(0, key, obs::CtxOf(op));
        PRISM_CHECK(v.ok()) << v.status() << " key=" << key
                            << " offered=" << cfg.offered_mops;
      });
  // Elect + prefill during warmup, then open the arrival tap: every pool op
  // runs against a stable fully-granted leader, so gets never miss and the
  // 2-RT accountant below is exact (no election traffic on the sessions, no
  // re-grant probes — those only fire when a replica is missing).
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, {});
        PRISM_CHECK(won.ok()) << won.status();
        for (uint64_t k = 1; k <= kConsKeys; ++k) {
          auto put = co_await seed_session.PutOn(
              0, k, consensus::MakeValue(cfg.seed, 0, static_cast<int>(k)),
              {});
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        PRISM_CHECK_EQ(cluster.node(0).granted_count(), kConsReplicas);
        PRISM_CHECK_LT(sim.Now(), point.measure_start())
            << "warmup too short for election + prefill";
        pool.Start(point.measure_start(), point.end());
      },
      &tracker);
  point.Drain([&](size_t, size_t c) {
    return (c == 0 ? put_session : get_session).tally();
  });
  PRISM_CHECK_EQ(tracker.live(), 0u) << "consensus warmup driver hung";
  PRISM_CHECK_EQ(cluster.tracker().live(), 0u) << "protocol tasks hung";
  PRISM_CHECK_EQ(cluster.node(0).granted_count(), kConsReplicas)
      << "leader lost a grant mid-run";
  return point.Finish();
}

// ---- ABD-LOCK baseline under the same load ----

workload::LoadPoint RunAbdPoint(const PointCfg& cfg,
                                obs::PointObs* pobs = nullptr) {
  Point point(cfg.windows, pobs);
  net::Fabric* fabric = &point.fabric();
  rs::AbdLockOptions aopts;
  aopts.n_blocks = kConsKeys;
  aopts.block_size = consensus::kValueSize;  // identical payloads
  rs::AbdLockCluster cluster(fabric, kConsReplicas, aopts);
  // Host h's writer is clients[2h] and its reader clients[2h + 1], with
  // distinct nonzero lock-owner ids: pool workers share a client's id, which
  // the lock words treat as a conflict, never as re-entry.
  std::vector<std::unique_ptr<rs::AbdLockClient>> clients;
  point.AddHostPools(
      cfg.offered_mops, cfg.n_clients, cfg.seed, 16,
      workload::ArrivalKind::kPoisson,
      [&](size_t h, net::HostId host, workload::OpenLoopPool& pool) {
        for (size_t role = 0; role < 2; ++role) {
          const auto id = static_cast<uint16_t>(2 * h + 1 + role);
          clients.push_back(std::make_unique<rs::AbdLockClient>(
              fabric, host, &cluster, id, cfg.seed * 131 + id));
        }
        rs::AbdLockClient* wr = clients[2 * h].get();
        rs::AbdLockClient* rd = clients[2 * h + 1].get();
        // kAborted means max_lock_attempts lost races — uniform keys keep
        // that rare, but under open-loop bursts it can happen.
        pool.AddClass(
            "abd.put", kPutFrac,
            [wr, fabric](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
              co_await RetryAborts(fabric, op, "ABD-LOCK", wr,
                                   &rs::AbdLockClient::Put, draw % kConsKeys,
                                   Bytes(consensus::kValueSize, 0x5A),
                                   nullptr);
            });
        pool.AddClass(
            "abd.get", 1.0 - kPutFrac,
            [rd, fabric](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
              co_await RetryAborts(fabric, op, "ABD-LOCK", rd,
                                   &rs::AbdLockClient::Get, draw % kConsKeys,
                                   nullptr);
            });
      });
  point.Drain([&](size_t h, size_t c) {
    return clients[2 * h + c]->TransportTally();
  });
  return point.Finish();
}

// ---- failover latency: leader change as rkey revocation ----

workload::LoadPoint RunFailoverPoint(const PointCfg& cfg,
                                     obs::PointObs* pobs = nullptr) {
  // Elections are ~100× rarer than data ops, so this series stretches the
  // measured window to collect a real distribution per point.
  BenchWindows windows = cfg.windows;
  windows.measure = 3 * windows.measure;
  Point point(windows, pobs);
  sim::Simulator& sim = point.sim();
  net::Fabric& fabric = point.fabric();
  std::vector<net::HostId> hosts;
  for (int r = 0; r < kConsReplicas; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  consensus::ConsensusSession seed_session(&cluster);

  // One worker: elections serialize on the cluster anyway.
  workload::OpenLoopPool& pool = point.AddPool(
      hosts[0], workload::ArrivalSpec::Poisson(cfg.offered_mops * 1e6), 64,
      Rng(cfg.seed), 1);
  pool.AddClass(
      "cons.failover", 1.0,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const int candidate = static_cast<int>(draw % kConsReplicas);
        auto won = co_await cluster.Failover(candidate, obs::CtxOf(op));
        PRISM_CHECK(won.ok()) << won.status() << " candidate=" << candidate;
      });
  // Seed one full catch-up batch of committed entries before the measured
  // elections, so every first-time candidate adopts a real log suffix.
  obs::TransportTally control_before;
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, {});
        PRISM_CHECK(won.ok()) << won.status();
        for (uint64_t k = 1; k <= kFailoverSeedEntries; ++k) {
          auto put = co_await seed_session.PutOn(
              0, k, consensus::MakeValue(cfg.seed, 0, static_cast<int>(k)),
              {});
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        PRISM_CHECK_LT(sim.Now(), point.measure_start())
            << "warmup too short for election + log seeding";
        for (int i = 0; i < kConsReplicas; ++i) {
          control_before += cluster.node(i).control_tally();
        }
        pool.Start(point.measure_start(), point.end());
      },
      &tracker);
  point.Drain([&](size_t, size_t) {
    obs::TransportTally control;
    for (int i = 0; i < kConsReplicas; ++i) {
      control += cluster.node(i).control_tally();
    }
    return control - control_before;
  });
  PRISM_CHECK_EQ(tracker.live(), 0u) << "failover seeding driver hung";
  PRISM_CHECK_EQ(cluster.tracker().live(), 0u) << "protocol tasks hung";

  const uint64_t n_failovers = pool.class_completions(0);
  PRISM_CHECK_GT(n_failovers, 0u) << "no failovers measured";
  // Every election revokes the incumbent's rkey on at least a quorum —
  // that IS the failure detector.
  uint64_t revocations = 0;
  for (int r = 0; r < kConsReplicas; ++r) {
    revocations += cluster.replica(r).revocations();
  }
  PRISM_CHECK_GE(revocations,
                 (n_failovers + 1) * static_cast<uint64_t>(cluster.quorum()))
      << "elections must revoke on a quorum";
  return point.Finish();
}

int Main(int argc, char** argv) {
  using workload::PrintHeader;
  using workload::PrintRow;
  const int jobs = harness::JobsFromArgs(argc, argv);
  const ObsOptions obs_opts = ObsFromArgs(argc, argv);
  const BenchWindows windows = BenchWindows::Default();
  const uint64_t n_clients = DefaultClients();
  const std::vector<double> sweep = OfferedSweepMops();
  const std::vector<double> fo_sweep = FailoverSweepMops();

  ObsRig rig(obs_opts, 2 * sweep.size() + fo_sweep.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (size_t li = 0; li < sweep.size(); ++li) {
    PointCfg cfg{sweep[li], n_clients, windows, 1000 + li};
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"PMP-consensus",
                     [cfg, po] { return RunConsensusPoint(cfg, po); },
                     sweep[li]});
  }
  for (size_t li = 0; li < sweep.size(); ++li) {
    PointCfg cfg{sweep[li], n_clients, windows, 2000 + li};
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"ABD-LOCK",
                     [cfg, po] { return RunAbdPoint(cfg, po); },
                     sweep[li]});
  }
  for (size_t li = 0; li < fo_sweep.size(); ++li) {
    PointCfg cfg{fo_sweep[li], 64, windows, 3000 + li};
    obs::PointObs* po = rig.at(slot++);
    cells.push_back({"failover",
                     [cfg, po] { return RunFailoverPoint(cfg, po); },
                     fo_sweep[li]});
  }
  const std::string title =
      "Permission-guarded consensus vs ABD-LOCK: open-loop 50% puts, "
      "n=3; leader change = rkey revocation";
  FigureReporter reporter("fig_consensus", title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  PrintHeader(title, "offered(Mops)  rt/put   rt/get");
  for (size_t i = 0; i < cells.size(); ++i) {
    char extra[64];
    if (cells[i].series == "failover") {
      std::snprintf(extra, sizeof(extra), "%10.4f  rt/failover %7.2f",
                    rows[i].offered_mops,
                    RtPerOp(rows[i], "cons.failover"));
    } else {
      const bool cons = cells[i].series == "PMP-consensus";
      std::snprintf(extra, sizeof(extra), "%10.3f  %7.2f  %7.2f",
                    rows[i].offered_mops,
                    RtPerOp(rows[i], cons ? "cons.put" : "abd.put"),
                    RtPerOp(rows[i], cons ? "cons.get" : "abd.get"));
    }
    PrintRow(cells[i].series, rows[i], extra);
  }
  reporter.WriteUnified();
  rig.Finish("fig_consensus", cells);

  // Acceptance at the top offered rate: the accountant-exact 2-RT commit
  // (one chain per remote replica, n=3), strictly below ABD-LOCK's
  // lock/read/write/unlock bill for both classes.
  const size_t top = sweep.size() - 1;
  const workload::LoadPoint& cons = rows[top];
  const workload::LoadPoint& abd = rows[sweep.size() + top];
  for (const char* cls : {"put", "get"}) {
    const double rt_cons = RtPerOp(cons, std::string("cons.") + cls);
    const double rt_abd = RtPerOp(abd, std::string("abd.") + cls);
    PRISM_CHECK(std::fabs(rt_cons - 2.0) < 1e-9)
        << "cons." << cls << " must commit in exactly 2 round trips at n=3, "
        << "got " << rt_cons;
    PRISM_CHECK_LT(rt_cons, rt_abd)
        << cls << ": consensus chains should beat ABD-LOCK round trips";
    std::printf("consensus-assert %-4s rt/op consensus %.3f abd %.3f\n", cls,
                rt_cons, rt_abd);
  }
  const workload::LoadPoint& fo = rows[2 * sweep.size() + fo_sweep.size() - 1];
  PRISM_CHECK_GT(fo.p50_us, 0.0) << "empty failover distribution";
  std::printf(
      "consensus-assert failover p50 %.1fus p99 %.1fus rt/failover %.2f\n",
      fo.p50_us, fo.p99_us, RtPerOp(fo, "cons.failover"));
  return 0;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) { return prism::bench::Main(argc, argv); }
