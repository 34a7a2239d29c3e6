// Shared rig for the Figure 6 / Figure 7 replicated-block-store benchmarks.
#ifndef PRISM_BENCH_RS_BENCH_LIB_H_
#define PRISM_BENCH_RS_BENCH_LIB_H_

#include <cstdio>
#include <memory>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/point.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"

namespace prism::bench {

// Scaled-down store (DESIGN.md §1): 16 K blocks (2 K fast) instead of the
// paper's 8 M; identical 512 B blocks, 3 replicas, 50% writes.
inline uint64_t RsBlockCount() { return FastMode() ? 2048 : 16384; }
constexpr uint64_t kRsBlockSize = 512;
constexpr int kRsReplicas = 3;

// One closed-loop block-store point against the PRISM-RS or ABD-LOCK
// Cluster/Client pair, built from `opts`. ABD-LOCK gives up on an op after
// max_lock_attempts; that is recorded as an abort, and any other failure
// stops the run.
template <typename Cluster, typename Client, typename Opts>
workload::LoadPoint RunRsPoint(Opts opts, int n_clients, double write_frac,
                               double zipf_theta, const BenchWindows& windows,
                               uint64_t seed, obs::PointObs* pobs) {
  constexpr bool kAbd = std::is_same_v<Client, rs::AbdLockClient>;
  Point point(windows, pobs);
  net::Fabric& fabric = point.fabric();
  opts.n_blocks = RsBlockCount();
  opts.block_size = kRsBlockSize;
  Cluster cluster(&fabric, kRsReplicas, opts);
  auto make = [&](int c, net::HostId host) {
    const uint16_t id = static_cast<uint16_t>(c + 1);
    if constexpr (kAbd) {
      return std::make_unique<Client>(&fabric, host, &cluster, id,
                                      seed * 31 + 7);
    } else {
      return std::make_unique<Client>(&fabric, host, &cluster, id);
    }
  };
  workload::KeyChooser chooser(RsBlockCount(), zipf_theta);
  auto draw = [&](Rng& rng) {
    const uint64_t block = chooser.Next(rng);
    const bool is_put = rng.NextDouble() < write_frac;
    const char* put_op = kAbd ? "abd.put" : "rs.put";
    const char* get_op = kAbd ? "abd.get" : "rs.get";
    return OpDraw{is_put ? put_op : get_op, block, is_put};
  };
  auto op = [](Client& client, int c, OpDraw d) -> sim::Task<Status> {
    Status s;
    if (d.write) {
      s = co_await client.Put(d.key,
                              Bytes(kRsBlockSize, static_cast<uint8_t>(c)));
    } else {
      auto r = co_await client.Get(d.key);
      s = r.status();
    }
    PRISM_CHECK(kAbd || s.ok()) << s;  // ABD-LOCK: lock exhaustion
    co_return s;
  };
  return point.RunClients(n_clients, seed, make, draw, op);
}

inline workload::LoadPoint RunPrismRsPoint(int n_clients, double write_frac,
                                           double zipf_theta,
                                           const BenchWindows& windows,
                                           uint64_t seed,
                                           obs::PointObs* pobs = nullptr) {
  rs::PrismRsOptions opts;
  opts.buffers_per_replica = RsBlockCount() + 8192;
  return RunRsPoint<rs::PrismRsCluster, rs::PrismRsClient>(
      opts, n_clients, write_frac, zipf_theta, windows, seed, pobs);
}

inline workload::LoadPoint RunAbdLockPoint(int n_clients, double write_frac,
                                           double zipf_theta,
                                           rdma::Backend backend,
                                           const BenchWindows& windows,
                                           uint64_t seed,
                                           obs::PointObs* pobs = nullptr) {
  rs::AbdLockOptions opts;
  opts.backend = backend;
  return RunRsPoint<rs::AbdLockCluster, rs::AbdLockClient>(
      opts, n_clients, write_frac, zipf_theta, windows, seed, pobs);
}

// Figure 6: the full three-series client sweep.
inline void RunRsTputFigure(const char* bench_name, int jobs,
                            const ObsOptions& obs_opts = {}) {
  const BenchWindows windows = BenchWindows::Default();
  RunClientSweepFigure(
      bench_name,
      "Figure 6: replicated block store, 3 replicas, 50% writes, uniform",
      {{"ABDLOCK",
        [=](int n, obs::PointObs* po) {
          return RunAbdLockPoint(n, 0.5, 0.0, rdma::Backend::kHardwareNic,
                                 windows, 600 + static_cast<uint64_t>(n), po);
        }},
       {"ABDLOCK (software RDMA)",
        [=](int n, obs::PointObs* po) {
          return RunAbdLockPoint(n, 0.5, 0.0, rdma::Backend::kSoftwareStack,
                                 windows, 700 + static_cast<uint64_t>(n), po);
        }},
       {"PRISM-RS",
        [=](int n, obs::PointObs* po) {
          return RunPrismRsPoint(n, 0.5, 0.0, windows,
                                 800 + static_cast<uint64_t>(n), po);
        }}},
      jobs, obs_opts);
}

// Figure 7: latency vs Zipf coefficient at fixed load, ABD-LOCK vs
// PRISM-RS, one cell per (theta, system).
inline void RunRsZipfFigure(const char* bench_name, int jobs,
                            const ObsOptions& obs_opts = {}) {
  BenchWindows windows = BenchWindows::Default();
  const int kClients = FastMode() ? 40 : 100;
  std::vector<double> thetas = FastMode()
                                   ? std::vector<double>{0.0, 0.9, 1.2}
                                   : std::vector<double>{0.0, 0.2, 0.4, 0.6,
                                                         0.8, 0.9, 0.99, 1.1,
                                                         1.2};
  ObsRig rig(obs_opts, 2 * thetas.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (double theta : thetas) {
    obs::PointObs* po_abd = rig.at(slot++);
    cells.push_back({"ABDLOCK", [=] {
                       return RunAbdLockPoint(
                           kClients, 0.5, theta, rdma::Backend::kHardwareNic,
                           windows,
                           7000 + static_cast<uint64_t>(theta * 100), po_abd);
                     },
                     theta});
    obs::PointObs* po_prism = rig.at(slot++);
    cells.push_back({"PRISM-RS", [=] {
                       return RunPrismRsPoint(
                           kClients, 0.5, theta, windows,
                           7500 + static_cast<uint64_t>(theta * 100),
                           po_prism);
                     },
                     theta});
  }
  FigureReporter reporter(
      bench_name, "Figure 7: latency vs Zipf coefficient, 50% writes");
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  std::printf(
      "\n== Figure 7: latency vs Zipf coefficient (%d closed-loop clients, "
      "50%% writes) ==\n",
      kClients);
  std::printf("%6s %22s %24s %22s\n", "zipf", "ABDLOCK mean(us)",
              "ABDLOCK lock-failure%", "PRISM-RS mean(us)");
  for (size_t i = 0; i < thetas.size(); ++i) {
    const workload::LoadPoint& abd = rows[2 * i];
    const workload::LoadPoint& prism_point = rows[2 * i + 1];
    std::printf("%6.2f %22.1f %23.1f%% %22.1f\n", thetas[i], abd.mean_us,
                abd.abort_rate * 100.0, prism_point.mean_us);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_RS_BENCH_LIB_H_
