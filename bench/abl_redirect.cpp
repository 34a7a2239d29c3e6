// Ablation A3: redirect target placement (§4.2).
//
// Output redirection writes an op's result to memory instead of the wire.
// On a hardware PRISM NIC the target matters: on-NIC SRAM is ~0.1 µs while
// host memory costs a PCIe round trip per access. This bench measures the
// §3.5 allocate+redirect+CAS chain under the hardware projection with the
// temporary in each location — quantifying why the paper stresses the
// 256 KB on-NIC region.
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/prism/service.h"

namespace prism {
namespace {

using core::Chain;
using core::Op;
using sim::Task;
using sim::ToMicros;

struct Sample {
  double us = 0;
  uint64_t sim_events = 0;
};

Sample MeasureInstallChain(bool on_nic, core::Deployment deployment) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 21);
  core::PrismServer server(&fabric, server_host, deployment, &mem);
  auto region = *mem.CarveAndRegister(1 << 20, rdma::kRemoteAll);
  uint32_t freelist = server.freelists().CreateQueue(576);
  for (int i = 0; i < 128; ++i) {
    server.PostBuffers(freelist, {region.base + 65536 +
                                  static_cast<uint64_t>(i) * 576});
  }
  rdma::Addr tmp =
      on_nic ? *server.AllocateScratch(16)
             : region.base + 4096;  // host-memory temporary
  core::PrismClient client(&fabric, client_host);
  double total = 0;
  const int iters = 16;
  for (int i = 0; i < iters; ++i) {
    double us = 0;
    sim::Spawn([&]() -> Task<void> {
      Chain chain;
      chain.push_back(Op::Write(region.rkey, tmp + 8, BytesOfU64(576)));
      chain.push_back(Op::Allocate(region.rkey, freelist, Bytes(520, 1))
                          .RedirectTo(tmp)
                          .Conditional());
      Op install;
      install.code = core::OpCode::kCas;
      install.rkey = region.rkey;
      install.addr = region.base + 128;
      install.data = BytesOfU64(tmp);
      install.data_indirect = true;
      install.cmp_mask = Bytes(16, 0x00);
      install.swap_mask = Bytes(16, 0xff);
      install.conditional = true;
      chain.push_back(std::move(install));
      sim::TimePoint start = sim.Now();
      auto r = co_await client.Execute(&server, std::move(chain));
      PRISM_CHECK(r.ok());
      us = ToMicros(sim.Now() - start);
    });
    sim.Run();
    total += us;
  }
  return Sample{total / iters, sim.executed_events()};
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  using namespace prism;
  // Cell order: (HW on-nic, HW host, SW on-nic, SW host).
  std::vector<harness::SweepPoint<Sample>> points = {
      [] {
        return MeasureInstallChain(true,
                                   core::Deployment::kHardwareProjected);
      },
      [] {
        return MeasureInstallChain(false,
                                   core::Deployment::kHardwareProjected);
      },
      [] { return MeasureInstallChain(true, core::Deployment::kSoftware); },
      [] { return MeasureInstallChain(false, core::Deployment::kSoftware); },
  };
  bench::FigureReporter reporter(
      "abl_redirect", "Ablation A3: redirect target placement");
  std::vector<Sample> rows = bench::RunTimedSweep(
      reporter, points, harness::JobsFromArgs(argc, argv));
  std::printf("== Ablation A3: redirect temporary on-NIC vs in host memory "
              "(§4.2) ==\n");
  std::printf("%-22s %18s %22s\n", "deployment", "on-NIC scratch(us)",
              "host-memory scratch(us)");
  std::printf("%-22s %18.2f %22.2f   <- extra PCIe RTTs\n",
              "PRISM HW (projected)", rows[0].us, rows[1].us);
  std::printf("%-22s %18.2f %22.2f   (software: CPU reaches both equally)\n",
              "PRISM SW", rows[2].us, rows[3].us);
  const char* series[] = {"HW on-nic", "HW host", "SW on-nic", "SW host"};
  for (size_t i = 0; i < rows.size(); ++i) {
    workload::LoadPoint p;
    p.clients = 1;
    p.mean_us = rows[i].us;
    p.sim_events = rows[i].sim_events;
    reporter.AddRow(series[i], p);
  }
  reporter.WriteUnified();
  return 0;
}
