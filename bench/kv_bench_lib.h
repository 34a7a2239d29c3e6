// Shared rig for the Figure 3 / Figure 4 key-value benchmarks.
#ifndef PRISM_BENCH_KV_BENCH_LIB_H_
#define PRISM_BENCH_KV_BENCH_LIB_H_

#include <memory>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/point.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"

namespace prism::bench {

// Scaled-down store (DESIGN.md §1): the paper uses 8 M × 512 B objects; the
// protocol path is size-invariant in simulation, so we use 64 K keys
// (8 K in fast mode) with identical value size and access distribution.
inline uint64_t BenchKeyCount() { return FastMode() ? 8192 : 65536; }
constexpr uint64_t kBenchValueSize = 512;

// The figures' stores, each on a server host of its own and loaded with
// BenchKeyCount() dense keys of kBenchValueSize bytes.
template <typename Server, typename Opts>
std::unique_ptr<Server> LoadKvServer(net::Fabric& fabric,
                                     const char* host_name, Opts opts) {
  const uint64_t keys = BenchKeyCount();
  opts.n_buckets = keys;
  opts.dense_key_hash = true;
  auto server =
      std::make_unique<Server>(&fabric, fabric.AddHost(host_name), opts);
  for (uint64_t k = 0; k < keys; ++k) {
    PRISM_CHECK(server
                    ->LoadKey(BytesOfString(KeyOf(k)),
                              Bytes(kBenchValueSize, 0x11))
                    .ok());
  }
  return server;
}

inline std::unique_ptr<kv::PrismKvServer> LoadPrismKvServer(
    net::Fabric& fabric) {
  kv::PrismKvOptions opts;
  opts.n_buffers = BenchKeyCount() + 4096;
  return LoadKvServer<kv::PrismKvServer>(fabric, "kv-server", opts);
}

inline std::unique_ptr<kv::PilafServer> LoadPilafServer(
    net::Fabric& fabric, rdma::Backend backend) {
  kv::PilafOptions opts;
  opts.n_extents = BenchKeyCount() + 4096;
  opts.backend = backend;
  return LoadKvServer<kv::PilafServer>(fabric, "pilaf-server", opts);
}

// One YCSB-style closed-loop point against the store `load_server(fabric)`
// builds, driven through `Client`s: PRISM-KV or Pilaf. Every op must
// succeed. `pobs`, when given, attaches this point's tracer / collects its
// metrics snapshot.
template <typename Client, typename LoadServer>
workload::LoadPoint RunKvPoint(LoadServer load_server, int n_clients,
                               double read_frac, const BenchWindows& windows,
                               uint64_t seed, obs::PointObs* pobs) {
  Point point(windows, pobs);
  net::Fabric& fabric = point.fabric();
  auto server = load_server(fabric);
  const uint64_t keys = BenchKeyCount();
  auto draw = [&](Rng& rng) {
    const uint64_t key = rng.NextBelow(keys);
    const bool is_get = rng.NextDouble() < read_frac;
    return OpDraw{is_get ? "kv.get" : "kv.put", key, !is_get};
  };
  auto op = [](Client& client, int, OpDraw d) -> sim::Task<Status> {
    if (d.write) {
      Status s =
          co_await client.Put(KeyOf(d.key), Bytes(kBenchValueSize, 0x22));
      PRISM_CHECK(s.ok()) << s;
    } else {
      auto r = co_await client.Get(KeyOf(d.key));
      PRISM_CHECK(r.ok()) << r.status();
    }
    co_return OkStatus();
  };
  return point.RunClients(
      n_clients, seed,
      [&](int, net::HostId host) {
        return std::make_unique<Client>(&fabric, host, server.get());
      },
      draw, op);
}

inline workload::LoadPoint RunPrismKvPoint(int n_clients, double read_frac,
                                           const BenchWindows& windows,
                                           uint64_t seed,
                                           obs::PointObs* pobs = nullptr) {
  return RunKvPoint<kv::PrismKvClient>(LoadPrismKvServer, n_clients,
                                       read_frac, windows, seed, pobs);
}

inline workload::LoadPoint RunPilafPoint(int n_clients, double read_frac,
                                         rdma::Backend backend,
                                         const BenchWindows& windows,
                                         uint64_t seed,
                                         obs::PointObs* pobs = nullptr) {
  return RunKvPoint<kv::PilafClient>(
      [backend](net::Fabric& fabric) {
        return LoadPilafServer(fabric, backend);
      },
      n_clients, read_frac, windows, seed, pobs);
}

// The full three-series client sweep of Figures 3 and 4.
inline void RunKvFigure(const char* bench_name, const char* title,
                        double read_frac, int jobs,
                        const ObsOptions& obs_opts = {}) {
  const BenchWindows windows = BenchWindows::Default();
  RunClientSweepFigure(
      bench_name, title,
      {{"Pilaf",
        [=](int n, obs::PointObs* po) {
          return RunPilafPoint(n, read_frac, rdma::Backend::kHardwareNic,
                               windows, 1000 + static_cast<uint64_t>(n), po);
        }},
       {"Pilaf (software RDMA)",
        [=](int n, obs::PointObs* po) {
          return RunPilafPoint(n, read_frac, rdma::Backend::kSoftwareStack,
                               windows, 2000 + static_cast<uint64_t>(n), po);
        }},
       {"PRISM-KV",
        [=](int n, obs::PointObs* po) {
          return RunPrismKvPoint(n, read_frac, windows,
                                 3000 + static_cast<uint64_t>(n), po);
        }}},
      jobs, obs_opts);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_KV_BENCH_LIB_H_
