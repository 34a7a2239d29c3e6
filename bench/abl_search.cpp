// Ablation A7: the pattern-search extension (§9, Snap) vs transferring the
// haystack. Sweeps the remote-buffer size; reports latency and wire bytes
// for (a) READ-everything + client-side scan, (b) one SEARCH op.
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/prism/service.h"

namespace prism {
namespace {

using core::Op;
using sim::Task;
using sim::ToMicros;

struct Sample {
  double us;
  uint64_t wire_bytes;
  uint64_t sim_events = 0;
};

Sample Measure(bool use_search, uint64_t haystack, core::Deployment dep) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem((haystack + (1 << 20)) * 2);
  core::PrismServer server(&fabric, server_host, dep, &mem);
  auto region = *mem.CarveAndRegister(haystack + 4096, rdma::kRemoteAll);
  Bytes data(haystack, 'x');
  std::memcpy(data.data() + haystack - 16, "NEEDLE", 6);
  mem.Store(region.base, data);
  core::PrismClient client(&fabric, client_host);
  Sample out{0, 0};
  uint64_t before = fabric.total_wire_bytes();
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint t0 = sim.Now();
    if (use_search) {
      Op search = Op::Search(region.rkey, region.base, haystack,
                             BytesOfString("NEEDLE"));
      auto r = co_await client.ExecuteOne(&server, std::move(search));
      PRISM_CHECK(r.ok());
      PRISM_CHECK(LoadU64(r->data.data()) == haystack - 16);
    } else {
      Op read = Op::Read(region.rkey, region.base, haystack);
      auto r = co_await client.ExecuteOne(&server, std::move(read));
      PRISM_CHECK(r.ok());
      // Client-side scan cost is charged as CRC-like CPU time per KiB.
      co_await sim::SleepFor(&sim, fabric.cost().app_crc_check *
                                       static_cast<int64_t>(haystack / 512));
    }
    out.us = ToMicros(sim.Now() - t0);
  });
  sim.Run();
  out.wire_bytes = fabric.total_wire_bytes() - before;
  out.sim_events = sim.executed_events();
  return out;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  using namespace prism;
  const std::vector<uint64_t> sizes = {uint64_t{1} << 10, uint64_t{1} << 12,
                                       uint64_t{1} << 14, uint64_t{1} << 16,
                                       uint64_t{1} << 18};
  std::vector<harness::SweepPoint<Sample>> points;
  for (uint64_t size : sizes) {
    points.push_back(
        [size] { return Measure(false, size, core::Deployment::kSoftware); });
    points.push_back(
        [size] { return Measure(true, size, core::Deployment::kSoftware); });
  }
  bench::FigureReporter reporter(
      "abl_search", "Ablation A7: pattern search vs transfer-and-scan");
  std::vector<Sample> rows = bench::RunTimedSweep(
      reporter, points, harness::JobsFromArgs(argc, argv));
  std::printf("== Ablation A7: pattern search vs transfer-and-scan "
              "(software PRISM) ==\n");
  std::printf("%10s %14s %12s %14s %12s\n", "haystack", "READ+scan(us)",
              "wire(B)", "SEARCH(us)", "wire(B)");
  for (size_t i = 0; i < sizes.size(); ++i) {
    const Sample& read = rows[2 * i];
    const Sample& search = rows[2 * i + 1];
    std::printf("%9lluK %14.1f %12llu %14.1f %12llu\n",
                static_cast<unsigned long long>(sizes[i] / 1024), read.us,
                static_cast<unsigned long long>(read.wire_bytes), search.us,
                static_cast<unsigned long long>(search.wire_bytes));
    for (size_t v = 0; v < 2; ++v) {
      workload::LoadPoint p;
      p.clients = 1;
      p.mean_us = rows[2 * i + v].us;
      p.sim_events = rows[2 * i + v].sim_events;
      reporter.AddRow(v == 0 ? "READ+scan" : "SEARCH", p,
                      static_cast<double>(sizes[i]));
    }
  }
  reporter.WriteUnified();
  return 0;
}
