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
#include "src/common/histogram.h"
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
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
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

  const sim::TimePoint measure_start = sim.Now() + cfg.windows.warmup;
  const sim::TimePoint end = measure_start + cfg.windows.measure;
  workload::PoolOptions popts;
  popts.workers = 16;
  workload::OpenLoopPool pool(&sim,
                              workload::ArrivalSpec::Poisson(
                                  cfg.offered_mops * 1e6),
                              cfg.n_clients, Rng(cfg.seed), popts);
  if (pobs != nullptr && pobs->timelines != nullptr) {
    pool.set_timelines(pobs->timelines, &fabric.obs(), hosts[0]);
  }
  pool.AddClass(
      "cons.put", kPutFrac,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const uint64_t key = 1 + draw % kConsKeys;
        auto put = co_await put_session.PutOn(
            0, key,
            consensus::MakeValue(cfg.seed, static_cast<int>(draw % 251),
                                 static_cast<int>(draw % 241)),
            op);
        PRISM_CHECK(put.status.ok())
            << put.status << " key=" << key
            << " offered=" << cfg.offered_mops;
      });
  pool.AddClass(
      "cons.get", 1.0 - kPutFrac,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const uint64_t key = 1 + draw % kConsKeys;
        auto v = co_await get_session.GetOn(0, key, op);
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
        auto won = co_await cluster.Failover(0, nullptr);
        PRISM_CHECK(won.ok()) << won.status();
        for (uint64_t k = 1; k <= kConsKeys; ++k) {
          auto put = co_await seed_session.PutOn(
              0, k, consensus::MakeValue(cfg.seed, 0, static_cast<int>(k)),
              nullptr);
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        PRISM_CHECK_EQ(cluster.node(0).granted_count(), kConsReplicas);
        PRISM_CHECK_LT(sim.Now(), measure_start)
            << "warmup too short for election + prefill";
        pool.Start(measure_start, end);
      },
      &tracker);
  sim.RunUntil(end + sim::Millis(20));  // drain the backlog tail
  sim.Run();
  pool.CheckDrained();
  PRISM_CHECK_EQ(tracker.live(), 0u) << "consensus warmup driver hung";
  PRISM_CHECK_EQ(cluster.tracker().live(), 0u) << "protocol tasks hung";
  PRISM_CHECK_EQ(cluster.node(0).granted_count(), kConsReplicas)
      << "leader lost a grant mid-run";

  LatencyHistogram all;
  fabric.obs().ops().RecordN("cons.put", pool.class_completions(0),
                             put_session.tally());
  fabric.obs().ops().RecordN("cons.get", pool.class_completions(1),
                             get_session.tally());
  all.Merge(pool.recorder(0).hist());
  all.Merge(pool.recorder(1).hist());

  const double seconds = sim::ToSeconds(end - measure_start);
  workload::LoadPoint p;
  p.clients = static_cast<int>(pool.n_clients());
  const auto s = all.Summarize();
  p.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
  p.offered_mops =
      static_cast<double>(pool.measured_arrivals()) / seconds / 1e6;
  p.mean_us = s.mean_us;
  p.p50_us = s.p50_us;
  p.p99_us = s.p99_us;
  p.p999_us = s.p999_us;
  p.sim_events = sim.executed_events();
  p.ops = fabric.obs().ops().Collect();
  HarvestPointObs(fabric, pobs);
  return p;
}

// ---- ABD-LOCK baseline under the same load ----

workload::LoadPoint RunAbdPoint(const PointCfg& cfg,
                                obs::PointObs* pobs = nullptr) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
  rs::AbdLockOptions aopts;
  aopts.n_blocks = kConsKeys;
  aopts.block_size = consensus::kValueSize;  // identical payloads
  rs::AbdLockCluster cluster(&fabric, kConsReplicas, aopts);
  auto client_hosts = AddClientHosts(fabric);
  const size_t n_hosts = client_hosts.size();
  struct HostRig {
    std::unique_ptr<rs::AbdLockClient> writer;
    std::unique_ptr<rs::AbdLockClient> reader;
    std::unique_ptr<workload::OpenLoopPool> pool;
  };
  std::vector<HostRig> rigs(n_hosts);
  const sim::TimePoint measure_start = sim.Now() + cfg.windows.warmup;
  const sim::TimePoint end = measure_start + cfg.windows.measure;
  Rng master(cfg.seed);
  const double rate_per_host =
      cfg.offered_mops * 1e6 / static_cast<double>(n_hosts);
  uint64_t remaining = cfg.n_clients;
  for (size_t h = 0; h < n_hosts; ++h) {
    HostRig& rig = rigs[h];
    // Distinct nonzero lock-owner ids per (host, role) — pool workers share
    // a client's id, which the lock words treat as a conflict, never as
    // re-entry.
    rig.writer = std::make_unique<rs::AbdLockClient>(
        &fabric, client_hosts[h], &cluster,
        static_cast<uint16_t>(2 * h + 1), cfg.seed * 131 + 2 * h + 1);
    rig.reader = std::make_unique<rs::AbdLockClient>(
        &fabric, client_hosts[h], &cluster,
        static_cast<uint16_t>(2 * h + 2), cfg.seed * 131 + 2 * h + 2);
    const uint64_t n_here = remaining / (n_hosts - h);
    remaining -= n_here;
    workload::PoolOptions popts;
    popts.workers = 16;
    rig.pool = std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec::Poisson(rate_per_host), n_here,
        master.Fork(), popts);
    if (pobs != nullptr && pobs->timelines != nullptr) {
      rig.pool->set_timelines(pobs->timelines, &fabric.obs(), client_hosts[h]);
    }
    rs::AbdLockClient* wr = rig.writer.get();
    rs::AbdLockClient* rd = rig.reader.get();
    // kAborted means max_lock_attempts lost races — uniform keys keep that
    // rare, but under open-loop bursts it can happen; retry with a fresh
    // budget so the convoy cost lands in the tail, as in fig_sync.
    rig.pool->AddClass(
        "abd.put", kPutFrac,
        [wr, cfg, &sim](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
          const uint64_t block = draw % kConsKeys;
          for (int attempt = 0;; ++attempt) {
            Status s = co_await wr->Put(
                block, Bytes(consensus::kValueSize, 0x5A));
            if (s.ok()) break;
            PRISM_CHECK(attempt < 100 && s.code() == Code::kAborted)
                << s << " block=" << block << " offered=" << cfg.offered_mops;
            obs::SwitchOp(op, obs::Phase::kSyncSpin, sim.Now());
            co_await sim::SleepFor(&sim, sim::Micros(20));
            obs::SwitchOp(op, obs::Phase::kApp, sim.Now());
          }
        });
    rig.pool->AddClass(
        "abd.get", 1.0 - kPutFrac,
        [rd, cfg, &sim](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
          const uint64_t block = draw % kConsKeys;
          for (int attempt = 0;; ++attempt) {
            auto v = co_await rd->Get(block);
            if (v.ok()) break;
            PRISM_CHECK(attempt < 100 && v.status().code() == Code::kAborted)
                << v.status() << " block=" << block
                << " offered=" << cfg.offered_mops;
            obs::SwitchOp(op, obs::Phase::kSyncSpin, sim.Now());
            co_await sim::SleepFor(&sim, sim::Micros(20));
            obs::SwitchOp(op, obs::Phase::kApp, sim.Now());
          }
        });
    rig.pool->Start(measure_start, end);
  }
  sim.RunUntil(end + sim::Millis(20));
  sim.Run();

  LatencyHistogram all;
  for (size_t c = 0; c < 2; ++c) {
    LatencyHistogram cls_hist;
    obs::TransportTally tally;
    uint64_t n_ops = 0;
    for (HostRig& rig : rigs) {
      cls_hist.Merge(rig.pool->recorder(c).hist());
      n_ops += rig.pool->class_completions(c);
      rs::AbdLockClient* cl = c == 0 ? rig.writer.get() : rig.reader.get();
      tally += cl->TransportTally();
    }
    fabric.obs().ops().RecordN(rigs[0].pool->class_name(c), n_ops, tally);
    all.Merge(cls_hist);
  }
  uint64_t measured_arrivals = 0;
  uint64_t total_clients = 0;
  for (HostRig& rig : rigs) {
    rig.pool->CheckDrained();
    measured_arrivals += rig.pool->measured_arrivals();
    total_clients += rig.pool->n_clients();
  }

  const double seconds = sim::ToSeconds(end - measure_start);
  workload::LoadPoint p;
  p.clients = static_cast<int>(total_clients);
  const auto s = all.Summarize();
  p.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
  p.offered_mops = static_cast<double>(measured_arrivals) / seconds / 1e6;
  p.mean_us = s.mean_us;
  p.p50_us = s.p50_us;
  p.p99_us = s.p99_us;
  p.p999_us = s.p999_us;
  p.sim_events = sim.executed_events();
  p.ops = fabric.obs().ops().Collect();
  HarvestPointObs(fabric, pobs);
  return p;
}

// ---- failover latency: leader change as rkey revocation ----

workload::LoadPoint RunFailoverPoint(const PointCfg& cfg,
                                     obs::PointObs* pobs = nullptr) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
  std::vector<net::HostId> hosts;
  for (int r = 0; r < kConsReplicas; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  consensus::ConsensusSession seed_session(&cluster);

  const sim::TimePoint measure_start = sim.Now() + cfg.windows.warmup;
  // Elections are ~100× rarer than data ops, so this series stretches the
  // measured window to collect a real distribution per point.
  const sim::TimePoint end = measure_start + 3 * cfg.windows.measure;
  workload::PoolOptions popts;
  popts.workers = 1;  // elections serialize on the cluster anyway
  workload::OpenLoopPool pool(&sim,
                              workload::ArrivalSpec::Poisson(
                                  cfg.offered_mops * 1e6),
                              64, Rng(cfg.seed), popts);
  if (pobs != nullptr && pobs->timelines != nullptr) {
    pool.set_timelines(pobs->timelines, &fabric.obs(), hosts[0]);
  }
  pool.AddClass(
      "cons.failover", 1.0,
      [&](uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
        const int candidate = static_cast<int>(draw % kConsReplicas);
        auto won = co_await cluster.Failover(candidate, op);
        PRISM_CHECK(won.ok()) << won.status() << " candidate=" << candidate;
      });
  // Seed one full catch-up batch of committed entries before the measured
  // elections, so every first-time candidate adopts a real log suffix.
  obs::TransportTally control_before;
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, nullptr);
        PRISM_CHECK(won.ok()) << won.status();
        for (uint64_t k = 1; k <= kFailoverSeedEntries; ++k) {
          auto put = co_await seed_session.PutOn(
              0, k, consensus::MakeValue(cfg.seed, 0, static_cast<int>(k)),
              nullptr);
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        PRISM_CHECK_LT(sim.Now(), measure_start)
            << "warmup too short for election + log seeding";
        for (int i = 0; i < kConsReplicas; ++i) {
          control_before += cluster.node(i).control_tally();
        }
        pool.Start(measure_start, end);
      },
      &tracker);
  sim.RunUntil(end + sim::Millis(20));
  sim.Run();
  pool.CheckDrained();
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
  obs::TransportTally control;
  for (int i = 0; i < kConsReplicas; ++i) {
    control += cluster.node(i).control_tally();
  }
  fabric.obs().ops().RecordN("cons.failover", n_failovers,
                             control - control_before);

  const double seconds = sim::ToSeconds(end - measure_start);
  workload::LoadPoint p;
  p.clients = static_cast<int>(pool.n_clients());
  const auto s = pool.recorder(0).hist().Summarize();
  p.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
  p.offered_mops =
      static_cast<double>(pool.measured_arrivals()) / seconds / 1e6;
  p.mean_us = s.mean_us;
  p.p50_us = s.p50_us;
  p.p99_us = s.p99_us;
  p.p999_us = s.p999_us;
  p.sim_events = sim.executed_events();
  p.ops = fabric.obs().ops().Collect();
  HarvestPointObs(fabric, pobs);
  return p;
}

double RtPerOp(const workload::LoadPoint& p, const std::string& op) {
  for (const obs::OpStats& os : p.ops) {
    if (os.op == op && os.count > 0) {
      return static_cast<double>(os.totals.round_trips) /
             static_cast<double>(os.count);
    }
  }
  PRISM_CHECK(false) << "no complexity row for " << op;
  return 0;
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
