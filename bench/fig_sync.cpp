// Synchronization-scheme spectrum figure (no paper counterpart; ISSUE 7):
// throughput / latency / round trips per op for the four correct one-sided
// synchronization schemes over the remote hash index (src/sync), under
// open-loop load with zipf-skewed contention.
//
// Methodology: one index server host; per client host (11, the paper's
// testbed) an OpenLoopPool drives a 50/50 read/update mix through one
// reader and one updater SyncClient (distinct lock-owner ids). Keys are
// drawn zipf(0.99) over a deliberately small key set so the hot key sees
// real lock contention — conflict retries are part of every scheme's
// round-trip bill, which is the point of the figure. Latency is measured
// from arrival to completion (client-side queueing included).
//
// Acceptance (PRISM_CHECKed at the top offered rate, enforced by
// bench_smoke): the PRISM-native chain scheme — lock, op, and unlock fused
// into one conditional chain — must beat CAS-spinlock on round trips per
// op for both op classes. The unfenced buggy scheme is deliberately absent
// here: it exists as the explore/check positive control, not a contender.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/common/histogram.h"
#include "src/harness/sweep.h"
#include "src/sync/sync.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"
#include "src/workload/zipf.h"

namespace prism::bench {
namespace {

constexpr double kUpdateFrac = 0.5;
constexpr uint64_t kSyncKeys = 16;  // small on purpose: contention figure
constexpr double kZipfTheta = 0.99;

struct SyncConfig {
  sync::SyncScheme scheme = sync::SyncScheme::kSpinlock;
  const char* name = "";
  double offered_mops = 0.02;
  uint64_t n_clients = 0;
  BenchWindows windows;
  uint64_t seed = 1;
  // Lock-holding ops queue behind the hot key, so per-host op concurrency
  // stays modest — enough to expose contention, not enough to exhaust
  // max_attempts on every draw.
  int workers_per_host = 16;
};

uint64_t DefaultClients() { return FastMode() ? 10'000 : 100'000; }

std::vector<double> OfferedSweepMops() {
  // Fast mode keeps the full sweep's endpoints: the top point must reach
  // real lock convoys so the attribution acceptance check (spinlock tail
  // sync_spin-dominated, PRISM-native tail wire-dominated) sees the same
  // regime CI asserts on.
  if (FastMode()) return {0.02, 0.2};
  return {0.02, 0.05, 0.1, 0.2};
}

workload::LoadPoint RunSyncPoint(const SyncConfig& cfg,
                                 obs::PointObs* pobs = nullptr) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
  sync::SyncOptions sopts;
  sopts.n_slots = 64;
  sync::SyncIndexServer server(&fabric, fabric.AddHost("sync-server"), sopts);
  for (uint64_t k = 1; k <= kSyncKeys; ++k) {
    PRISM_CHECK(server.LoadKey(k, sync::InitialValue()).ok()) << "key " << k;
  }
  auto client_hosts = AddClientHosts(fabric);
  const size_t n_hosts = client_hosts.size();
  struct HostRig {
    std::unique_ptr<sync::SyncClient> reader;
    std::unique_ptr<sync::SyncClient> updater;
    std::unique_ptr<workload::OpenLoopPool> pool;
  };
  std::vector<HostRig> rigs(n_hosts);
  const sim::TimePoint measure_start = sim.Now() + cfg.windows.warmup;
  const sim::TimePoint end = measure_start + cfg.windows.measure;
  Rng master(cfg.seed);
  const workload::KeyChooser chooser(kSyncKeys, kZipfTheta);
  const double rate_per_host =
      cfg.offered_mops * 1e6 / static_cast<double>(n_hosts);
  uint64_t remaining = cfg.n_clients;
  for (size_t h = 0; h < n_hosts; ++h) {
    HostRig& rig = rigs[h];
    // Distinct nonzero lock-owner ids per (host, role): pool workers share
    // a client's id, which is safe (an unexpired own-id lock/lease reads as
    // a conflict, never as re-entry).
    const uint16_t reader_id = static_cast<uint16_t>(2 * h + 1);
    const uint16_t updater_id = static_cast<uint16_t>(2 * h + 2);
    rig.reader = std::make_unique<sync::SyncClient>(
        &fabric, client_hosts[h], &server, cfg.scheme, reader_id,
        cfg.seed * 131 + reader_id);
    rig.updater = std::make_unique<sync::SyncClient>(
        &fabric, client_hosts[h], &server, cfg.scheme, updater_id,
        cfg.seed * 131 + updater_id);
    for (uint64_t k = 1; k <= kSyncKeys; ++k) {
      rig.reader->Prewarm(k);
      rig.updater->Prewarm(k);
    }
    const uint64_t n_here = remaining / (n_hosts - h);
    remaining -= n_here;
    workload::PoolOptions popts;
    popts.workers = cfg.workers_per_host;
    rig.pool = std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec::Poisson(rate_per_host), n_here,
        master.Fork(), popts);
    if (pobs != nullptr && pobs->timelines != nullptr) {
      rig.pool->set_timelines(pobs->timelines, &fabric.obs(), client_hosts[h]);
    }
    sync::SyncClient* rd = rig.reader.get();
    sync::SyncClient* up = rig.updater.get();
    net::Fabric* fb = &fabric;
    // kAborted means max_attempts lost races — real behavior under a hot
    // lock, not corruption. Retry with a fresh attempt budget so the convoy
    // cost lands in the latency tail instead of aborting the sample. The
    // retry pause is acquisition spin for attribution; the register is
    // re-armed after every suspension so the next call attributes here.
    rig.pool->AddClass(
        "sync.read", 1.0 - kUpdateFrac,
        [rd, chooser, cfg, &sim, fb](uint64_t draw,
                                     obs::OpTimeline* op) -> sim::Task<void> {
          Rng r(draw);
          const uint64_t key = 1 + chooser.Next(r);
          for (int attempt = 0;; ++attempt) {
            auto v = co_await rd->Read(key);
            if (v.ok()) break;
            PRISM_CHECK(attempt < 100 && v.status().code() == Code::kAborted)
                << v.status() << " scheme=" << cfg.name << " key=" << key
                << " offered=" << cfg.offered_mops;
            obs::SwitchOp(op, obs::Phase::kSyncSpin, sim.Now());
            co_await sim::SleepFor(&sim, sim::Micros(20));
            obs::SwitchOp(op, obs::Phase::kApp, sim.Now());
            if (op != nullptr) fb->obs().SetCurrentOp(op);
          }
        });
    rig.pool->AddClass(
        "sync.update", kUpdateFrac,
        [up, chooser, cfg, &sim, fb](uint64_t draw,
                                     obs::OpTimeline* op) -> sim::Task<void> {
          Rng r(draw);
          const uint64_t key = 1 + chooser.Next(r);
          for (int attempt = 0;; ++attempt) {
            Status s =
                co_await up->Update(key, Bytes(sync::kValueSize, 0x5A));
            if (s.ok()) break;
            PRISM_CHECK(attempt < 100 && s.code() == Code::kAborted)
                << s << " scheme=" << cfg.name << " key=" << key
                << " offered=" << cfg.offered_mops;
            obs::SwitchOp(op, obs::Phase::kSyncSpin, sim.Now());
            co_await sim::SleepFor(&sim, sim::Micros(20));
            obs::SwitchOp(op, obs::Phase::kApp, sim.Now());
            if (op != nullptr) fb->obs().SetCurrentOp(op);
          }
        });
    rig.pool->Start(measure_start, end);
  }
  sim.RunUntil(end + sim::Millis(20));  // drain the backlog tail
  sim.Run();

  LatencyHistogram all;
  uint64_t measured_arrivals = 0;
  uint64_t total_clients = 0;
  for (size_t c = 0; c < 2; ++c) {
    LatencyHistogram cls_hist;
    obs::TransportTally tally;
    uint64_t n_ops = 0;
    for (HostRig& rig : rigs) {
      cls_hist.Merge(rig.pool->recorder(c).hist());
      n_ops += rig.pool->class_completions(c);
      sync::SyncClient* cl = c == 0 ? rig.reader.get() : rig.updater.get();
      tally += cl->tally();
    }
    fabric.obs().ops().RecordN(rigs[0].pool->class_name(c), n_ops, tally);
    all.Merge(cls_hist);
  }
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

  struct Series {
    sync::SyncScheme scheme;
    const char* name;
  };
  const std::vector<Series> series = {
      {sync::SyncScheme::kSpinlock, "CAS-spinlock"},
      {sync::SyncScheme::kOptimistic, "Optimistic (seqlock)"},
      {sync::SyncScheme::kLease, "Lease (fenced)"},
      {sync::SyncScheme::kPrismNative, "PRISM-native chain"},
  };
  ObsRig rig(obs_opts, series.size() * sweep.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (size_t si = 0; si < series.size(); ++si) {
    for (size_t li = 0; li < sweep.size(); ++li) {
      SyncConfig cfg;
      cfg.scheme = series[si].scheme;
      cfg.name = series[si].name;
      cfg.offered_mops = sweep[li];
      cfg.n_clients = n_clients;
      cfg.windows = windows;
      cfg.seed = 1000 * (si + 1) + li;
      obs::PointObs* po = rig.at(slot++);
      cells.push_back({series[si].name,
                       [cfg, po] { return RunSyncPoint(cfg, po); },
                       sweep[li]});
    }
  }
  const std::string title =
      "Sync schemes over a remote hash index: open-loop zipf(0.99) "
      "contention, 50% updates";
  FigureReporter reporter("fig_sync", title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  PrintHeader(title, "offered(Mops)  rt/read  rt/update");
  for (size_t i = 0; i < cells.size(); ++i) {
    char extra[64];
    std::snprintf(extra, sizeof(extra), "%10.3f  %7.2f  %9.2f",
                  rows[i].offered_mops, RtPerOp(rows[i], "sync.read"),
                  RtPerOp(rows[i], "sync.update"));
    PrintRow(cells[i].series, rows[i], extra);
  }
  reporter.WriteUnified();
  rig.Finish("fig_sync", cells);

  // Acceptance at the top offered rate: fusing lock+op+unlock into one
  // conditional chain must beat the spinlock's CAS/op/unlock round trips
  // for both op classes (conflict retries included on both sides).
  const size_t top = sweep.size() - 1;
  const workload::LoadPoint& spin = rows[0 * sweep.size() + top];
  const workload::LoadPoint& prism = rows[3 * sweep.size() + top];
  for (const char* op : {"sync.read", "sync.update"}) {
    const double rt_spin = RtPerOp(spin, op);
    const double rt_prism = RtPerOp(prism, op);
    PRISM_CHECK_LT(rt_prism, rt_spin)
        << op << ": PRISM-native chains should save round trips";
    std::printf("sync-assert %-12s rt/op spinlock %.3f prism %.3f\n", op,
                rt_spin, rt_prism);
  }
  return 0;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) { return prism::bench::Main(argc, argv); }
