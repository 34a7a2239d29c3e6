// Figure 1: microbenchmarks of the PRISM software implementation vs hardware
// RDMA, the BlueField deployment, and the projected hardware PRISM NIC.
// 512-byte values, two machines, direct 25 GbE link (no switch).
//
// Paper shape: RDMA ops ≈ 2.5 µs; PRISM SW ≈ +2.5–2.8 µs; PRISM HW (proj.)
// slightly above raw RDMA (extra PCIe round trips); BlueField slowest.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"

namespace prism {
namespace {

using core::Chain;
using core::Deployment;
using core::Op;
using sim::Task;
using sim::ToMicros;

constexpr uint64_t kValue = 512;

struct Rig {
  sim::Simulator sim;
  net::Fabric fabric{&sim, net::CostModel::Fig1DirectTestbed()};
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem{1 << 22};
  rdma::RdmaService rdma_hw{&fabric, server_host,
                            rdma::Backend::kHardwareNic, &mem};
  core::PrismServer sw{&fabric, server_host, Deployment::kSoftware, &mem};
  core::PrismServer hw{&fabric, server_host, Deployment::kHardwareProjected,
                       &mem};
  core::PrismServer bf{&fabric, server_host, Deployment::kBlueField, &mem};
  rdma::RdmaClient rdma_client{&fabric, client_host};
  core::PrismClient prism_client{&fabric, client_host};
  rdma::MemoryRegion region;
  uint32_t freelist = 0;
  rdma::Addr scratch = 0;

  Rig() {
    region = *mem.CarveAndRegister(1 << 20, rdma::kRemoteAll);
    // Shared free lists across deployments (each PrismServer has its own
    // registry; create one queue per server with identical buffers).
    for (core::PrismServer* s : {&sw, &hw, &bf}) {
      uint32_t q = s->freelists().CreateQueue(kValue + 64);
      PRISM_CHECK_EQ(q, 0u);
      for (int i = 0; i < 4096; ++i) {
        s->PostBuffers(q, {region.base + 65536 +
                           static_cast<uint64_t>(i) * (kValue + 64)});
      }
    }
    scratch = *sw.AllocateScratch(16);
    // An indirect-read target: pointer at region.base -> data at +1024.
    mem.StoreWord(region.base, region.base + 1024);
    mem.Store(region.base + 1024, Bytes(kValue, 0x5a));
  }

  // Measures mean completion time of `op()` over `iters` sequential issues.
  // (Completion is captured inside the coroutine: sim.Run() also drains the
  // 5 ms op-timeout guards, which must not count.)
  double Measure(const std::function<sim::Task<void>()>& op, int iters = 32) {
    double total = 0;
    for (int i = 0; i < iters; ++i) {
      sim::TimePoint begin = sim.Now();
      sim::TimePoint finished = -1;
      sim::Spawn([&]() -> Task<void> {
        co_await op();
        finished = sim.Now();
      });
      sim.Run();
      PRISM_CHECK_GE(finished, begin);
      total += ToMicros(finished - begin);
    }
    return total / iters;
  }
};

Chain IndirectReadChain(const Rig& rig) {
  return {Op::IndirectRead(rig.region.rkey, rig.region.base, kValue)};
}

Chain AllocateChain(const Rig& rig) {
  return {Op::Allocate(rig.region.rkey, 0, Bytes(kValue, 1))};
}

Chain EnhancedCasChain(const Rig& rig) {
  return {Op::MaskedCas(rig.region.rkey, rig.region.base + 2048,
                        SmallBytes::OfU64Pair(7, 9), FieldMask(16, 0, 8),
                        FieldMask(16, 8, 8), rdma::CasCompare::kGreater)};
}

}  // namespace
}  // namespace prism

int main() {
  using namespace prism;
  Rig rig;
  auto prism_op = [&](core::PrismServer* server, Chain chain) {
    return rig.Measure([&rig, server, chain]() -> sim::Task<void> {
      Chain c = chain;
      auto r = co_await rig.prism_client.Execute(server, std::move(c));
      PRISM_CHECK(r.ok());
    });
  };

  std::printf("== Figure 1: PRISM microbenchmarks (512 B, direct 25 GbE link) ==\n");
  std::printf("%-16s %10s %12s %14s %18s\n", "op", "RDMA(us)", "PRISM SW(us)",
              "BlueField(us)", "PRISM HW proj(us)");

  // READ / WRITE: hardware RDMA baseline vs PRISM deployments running the
  // equivalent single-op chain.
  double rdma_read = rig.Measure([&]() -> sim::Task<void> {
    auto r = co_await rig.rdma_client.Read(&rig.rdma_hw, rig.region.rkey,
                                           rig.region.base + 1024, kValue);
    PRISM_CHECK(r.ok());
  });
  Chain read_chain{core::Op::Read(rig.region.rkey, rig.region.base + 1024,
                                  kValue)};
  std::printf("%-16s %10.2f %12.2f %14.2f %18.2f\n", "Read", rdma_read,
              prism_op(&rig.sw, read_chain), prism_op(&rig.bf, read_chain),
              prism_op(&rig.hw, read_chain));

  double rdma_write = rig.Measure([&]() -> sim::Task<void> {
    Status s = co_await rig.rdma_client.Write(&rig.rdma_hw, rig.region.rkey,
                                              rig.region.base + 4096,
                                              Bytes(kValue, 2));
    PRISM_CHECK(s.ok());
  });
  Chain write_chain{core::Op::Write(rig.region.rkey, rig.region.base + 4096,
                                    Bytes(kValue, 2))};
  std::printf("%-16s %10.2f %12.2f %14.2f %18.2f\n", "Write", rdma_write,
              prism_op(&rig.sw, write_chain), prism_op(&rig.bf, write_chain),
              prism_op(&rig.hw, write_chain));

  // Indirect read: no hardware-RDMA equivalent in one round trip (that is
  // the point); the RDMA column reports the two-READ emulation.
  double rdma_2reads = rig.Measure([&]() -> sim::Task<void> {
    auto p = co_await rig.rdma_client.Read(&rig.rdma_hw, rig.region.rkey,
                                           rig.region.base, 8);
    PRISM_CHECK(p.ok());
    auto r = co_await rig.rdma_client.Read(&rig.rdma_hw, rig.region.rkey,
                                           LoadU64(p->data()), kValue);
    PRISM_CHECK(r.ok());
  });
  std::printf("%-16s %10.2f %12.2f %14.2f %18.2f   (RDMA = 2 READs)\n",
              "Indirect Read", rdma_2reads,
              prism_op(&rig.sw, IndirectReadChain(rig)),
              prism_op(&rig.bf, IndirectReadChain(rig)),
              prism_op(&rig.hw, IndirectReadChain(rig)));

  std::printf("%-16s %10s %12.2f %14.2f %18.2f\n", "Allocate", "-",
              prism_op(&rig.sw, AllocateChain(rig)),
              prism_op(&rig.bf, AllocateChain(rig)),
              prism_op(&rig.hw, AllocateChain(rig)));

  double rdma_cas = rig.Measure([&]() -> sim::Task<void> {
    auto r = co_await rig.rdma_client.CompareSwap(
        &rig.rdma_hw, rig.region.rkey, rig.region.base + 2048, 0, 0);
    PRISM_CHECK(r.ok());
  });
  std::printf("%-16s %10.2f %12.2f %14.2f %18.2f   (RDMA = 8B CAS)\n",
              "Enhanced-CAS", rdma_cas,
              prism_op(&rig.sw, EnhancedCasChain(rig)),
              prism_op(&rig.bf, EnhancedCasChain(rig)),
              prism_op(&rig.hw, EnhancedCasChain(rig)));
  return 0;
}
