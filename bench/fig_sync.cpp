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
#include "bench/point.h"
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
  Point point(cfg.windows, pobs);
  net::Fabric* fabric = &point.fabric();
  sync::SyncOptions sopts;
  sopts.n_slots = 64;
  sync::SyncIndexServer server(fabric, fabric->AddHost("sync-server"), sopts);
  for (uint64_t k = 1; k <= kSyncKeys; ++k) {
    PRISM_CHECK(server.LoadKey(k, sync::InitialValue()).ok()) << "key " << k;
  }
  // Host h's reader is clients[2h] and its updater clients[2h + 1], with
  // distinct nonzero lock-owner ids: pool workers share a client's id, which
  // is safe (an unexpired own-id lock/lease reads as a conflict, never as
  // re-entry).
  std::vector<std::unique_ptr<sync::SyncClient>> clients;
  const workload::KeyChooser chooser(kSyncKeys, kZipfTheta);
  point.AddHostPools(
      cfg.offered_mops, cfg.n_clients, cfg.seed, cfg.workers_per_host,
      workload::ArrivalKind::kPoisson,
      [&](size_t h, net::HostId host, workload::OpenLoopPool& pool) {
        for (size_t role = 0; role < 2; ++role) {
          const auto id = static_cast<uint16_t>(2 * h + 1 + role);
          clients.push_back(std::make_unique<sync::SyncClient>(
              fabric, host, &server, cfg.scheme, id, cfg.seed * 131 + id));
        }
        sync::SyncClient* rd = clients[2 * h].get();
        sync::SyncClient* up = clients[2 * h + 1].get();
        for (uint64_t k = 1; k <= kSyncKeys; ++k) {
          rd->Prewarm(k);
          up->Prewarm(k);
        }
        pool.AddClass(
            "sync.read", 1.0 - kUpdateFrac,
            [rd, chooser, fabric, name = cfg.name](
                uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
              Rng r(draw);
              co_await RetryAborts(fabric, op, name, rd,
                                   &sync::SyncClient::Read,
                                   1 + chooser.Next(r));
            });
        pool.AddClass(
            "sync.update", kUpdateFrac,
            [up, chooser, fabric, name = cfg.name](
                uint64_t draw, obs::OpTimeline* op) -> sim::Task<void> {
              Rng r(draw);
              co_await RetryAborts(fabric, op, name, up,
                                   &sync::SyncClient::Update,
                                   1 + chooser.Next(r),
                                   Bytes(sync::kValueSize, 0x5A));
            });
      });
  point.Drain(
      [&](size_t h, size_t c) { return clients[2 * h + c]->tally(); });
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
