// Shared rig for the Figure 9 / Figure 10 transaction benchmarks.
//
// Workload: YCSB-T style short read-modify-write transactions (read one
// record, write it back modified) over a single shard running the full
// distributed commit protocol, as in §8.3.
#ifndef PRISM_BENCH_TX_BENCH_LIB_H_
#define PRISM_BENCH_TX_BENCH_LIB_H_

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/point.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"

namespace prism::bench {

inline uint64_t TxKeyCount() { return FastMode() ? 4096 : 32768; }
constexpr uint64_t kTxValueSize = 512;

// One YCSB-T read-modify-write closed-loop point against the PRISM-TX or
// FaRM Cluster/Client pair, built from `opts` on a single shard. A failed
// read or commit (OCC conflict) is an abort; YCSB-T retries it as a new
// transaction.
template <typename Cluster, typename Client, typename Opts>
workload::LoadPoint RunTxPoint(Opts opts, int n_clients, double zipf_theta,
                               const BenchWindows& windows, uint64_t seed,
                               obs::PointObs* pobs) {
  Point point(windows, pobs);
  net::Fabric& fabric = point.fabric();
  opts.keys_per_shard = TxKeyCount();
  opts.value_size = kTxValueSize;
  Cluster cluster(&fabric, /*n_shards=*/1, opts);
  for (uint64_t k = 0; k < TxKeyCount(); ++k) {
    PRISM_CHECK(cluster.LoadKey(k, Bytes(kTxValueSize, 0x11)).ok());
  }
  workload::KeyChooser chooser(TxKeyCount(), zipf_theta);
  auto draw = [&](Rng& rng) { return OpDraw{"tx.rmw", chooser.Next(rng)}; };
  auto op = [](Client& client, int, OpDraw d) -> sim::Task<Status> {
    tx::Transaction txn = client.Begin();
    auto v = co_await client.Read(txn, d.key);
    if (!v.ok()) co_return v.status();
    Bytes updated = std::move(*v);
    updated[0] = static_cast<uint8_t>(updated[0] + 1);
    client.Write(txn, d.key, std::move(updated));
    Status s = co_await client.Commit(txn);
    co_return s;
  };
  return point.RunClients(
      n_clients, seed,
      [&](int c, net::HostId host) {
        return std::make_unique<Client>(&fabric, host, &cluster,
                                        static_cast<uint16_t>(c + 1));
      },
      draw, op);
}

inline workload::LoadPoint RunPrismTxPoint(int n_clients, double zipf_theta,
                                           const BenchWindows& windows,
                                           uint64_t seed,
                                           obs::PointObs* pobs = nullptr) {
  tx::PrismTxOptions opts;
  opts.buffers_per_shard = TxKeyCount() + 8192;
  return RunTxPoint<tx::PrismTxCluster, tx::PrismTxClient>(
      opts, n_clients, zipf_theta, windows, seed, pobs);
}

inline workload::LoadPoint RunFarmPoint(int n_clients, double zipf_theta,
                                        rdma::Backend backend,
                                        const BenchWindows& windows,
                                        uint64_t seed,
                                        obs::PointObs* pobs = nullptr) {
  tx::FarmOptions opts;
  opts.backend = backend;
  return RunTxPoint<tx::FarmCluster, tx::FarmClient>(
      opts, n_clients, zipf_theta, windows, seed, pobs);
}

// Figure 9: the full three-series client sweep (FaRM hw / FaRM sw /
// PRISM-TX).
inline void RunTxTputFigure(const char* bench_name, int jobs,
                            const ObsOptions& obs_opts = {}) {
  const BenchWindows windows = BenchWindows::Default();
  RunClientSweepFigure(
      bench_name, "Figure 9: transactions, YCSB-T RMW, uniform, single shard",
      {{"FaRM",
        [=](int n, obs::PointObs* po) {
          return RunFarmPoint(n, 0.0, rdma::Backend::kHardwareNic, windows,
                              900 + static_cast<uint64_t>(n), po);
        }},
       {"FaRM (software RDMA)",
        [=](int n, obs::PointObs* po) {
          return RunFarmPoint(n, 0.0, rdma::Backend::kSoftwareStack, windows,
                              910 + static_cast<uint64_t>(n), po);
        }},
       {"PRISM-TX",
        [=](int n, obs::PointObs* po) {
          return RunPrismTxPoint(n, 0.0, windows,
                                 920 + static_cast<uint64_t>(n), po);
        }}},
      jobs, obs_opts, /*abort_column=*/true);
}

// Figure 10: peak throughput vs Zipf coefficient, one cell per
// (theta, system).
inline void RunTxZipfFigure(const char* bench_name, int jobs,
                            const ObsOptions& obs_opts = {}) {
  BenchWindows windows = BenchWindows::Default();
  const int kClients = FastMode() ? 96 : 192;  // near-peak load
  std::vector<double> thetas =
      FastMode() ? std::vector<double>{0.0, 0.9, 1.4}
                 : std::vector<double>{0.0, 0.3, 0.6, 0.8, 0.9, 0.99, 1.2,
                                       1.4, 1.6};
  ObsRig rig(obs_opts, 3 * thetas.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (double theta : thetas) {
    obs::PointObs* po_farm = rig.at(slot++);
    cells.push_back({"FaRM", [=] {
                       return RunFarmPoint(
                           kClients, theta, rdma::Backend::kHardwareNic,
                           windows, 100 + static_cast<uint64_t>(theta * 10),
                           po_farm);
                     },
                     theta});
    obs::PointObs* po_sw = rig.at(slot++);
    cells.push_back({"FaRM (software RDMA)", [=] {
                       return RunFarmPoint(
                           kClients, theta, rdma::Backend::kSoftwareStack,
                           windows, 200 + static_cast<uint64_t>(theta * 10),
                           po_sw);
                     },
                     theta});
    obs::PointObs* po_prism = rig.at(slot++);
    cells.push_back({"PRISM-TX", [=] {
                       return RunPrismTxPoint(
                           kClients, theta, windows,
                           300 + static_cast<uint64_t>(theta * 10),
                           po_prism);
                     },
                     theta});
  }
  FigureReporter reporter(
      bench_name,
      "Figure 10: peak throughput vs Zipf coefficient (YCSB-T RMW)");
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  std::printf(
      "\n== Figure 10: peak throughput vs Zipf coefficient (YCSB-T RMW, %d "
      "clients) ==\n",
      kClients);
  std::printf("%6s %14s %10s %26s %10s %16s %10s\n", "zipf", "FaRM(Mtxn/s)",
              "abort%", "FaRM-softRDMA(Mtxn/s)", "abort%",
              "PRISM-TX(Mtxn/s)", "abort%");
  for (size_t i = 0; i < thetas.size(); ++i) {
    const workload::LoadPoint& farm = rows[3 * i];
    const workload::LoadPoint& farm_sw = rows[3 * i + 1];
    const workload::LoadPoint& prism_point = rows[3 * i + 2];
    std::printf("%6.2f %14.3f %9.1f%% %26.3f %9.1f%% %16.3f %9.1f%%\n",
                thetas[i], farm.tput_mops, farm.abort_rate * 100,
                farm_sw.tput_mops, farm_sw.abort_rate * 100,
                prism_point.tput_mops, prism_point.abort_rate * 100);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_TX_BENCH_LIB_H_
