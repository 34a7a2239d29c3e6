// Ablation A8: variable-sized PRISM-RS blocks (the §7.3 extension).
//
// With fixed-size blocks every value is padded to block_size on the wire
// and in buffers; the ⟨tag,ptr,bound⟩ variant transfers exactly the stored
// length. This bench runs a mixed-size write/read workload under both modes
// and reports latency and wire bytes per operation.
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/rs/prism_rs.h"

namespace prism {
namespace {

using sim::Task;

struct Outcome {
  double mean_us;
  double wire_bytes_per_op;
  uint64_t sim_events;
};

Outcome Run(bool variable) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  rs::PrismRsOptions opts;
  opts.n_blocks = 256;
  opts.block_size = 512;  // fixed size / variable maximum
  opts.buffers_per_replica = 4096;
  opts.variable_block_size = variable;
  rs::PrismRsCluster cluster(&fabric, 3, opts);
  net::HostId host = fabric.AddHost("client");
  rs::PrismRsClient client(&fabric, host, &cluster, 1);
  Rng rng(11);
  LatencyHistogram hist;
  const int kOps = 400;
  uint64_t bytes_before = fabric.total_wire_bytes();
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < kOps; ++i) {
      const uint64_t block = rng.NextBelow(256);
      // Log-uniform sizes 16..512 B; fixed mode pads everything to 512.
      uint64_t size = 16ull << rng.NextBelow(6);
      if (!variable) size = 512;
      sim::TimePoint start = sim.Now();
      if (rng.NextBool()) {
        Status s = co_await client.Put(block,
                                       Bytes(size, static_cast<uint8_t>(i)));
        PRISM_CHECK(s.ok()) << s;
      } else {
        auto v = co_await client.Get(block);
        PRISM_CHECK(v.ok());
      }
      hist.Record(sim.Now() - start);
    }
    client.FlushReclaim();
  });
  sim.Run();
  Outcome out;
  out.mean_us = hist.Summarize().mean_us;
  out.wire_bytes_per_op =
      static_cast<double>(fabric.total_wire_bytes() - bytes_before) / kOps;
  out.sim_events = sim.executed_events();
  return out;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  using namespace prism;
  bench::FigureReporter reporter(
      "abl_variable_rs", "Ablation A8: fixed vs variable-size blocks");
  std::vector<Outcome> rows = bench::RunTimedSweep<Outcome>(
      reporter, {[] { return Run(false); }, [] { return Run(true); }},
      harness::JobsFromArgs(argc, argv));
  const Outcome& fixed = rows[0];
  const Outcome& variable = rows[1];
  std::printf("== Ablation A8: fixed vs variable-size PRISM-RS blocks "
              "(§7.3 extension) ==\n");
  std::printf("workload: mixed 16–512 B values, 3 replicas, 50%% writes\n\n");
  std::printf("%-22s %12s %18s\n", "mode", "mean(us)", "wire bytes/op");
  std::printf("%-22s %12.2f %18.0f\n", "fixed (512 B blocks)", fixed.mean_us,
              fixed.wire_bytes_per_op);
  std::printf("%-22s %12.2f %18.0f   <- bounded reads + exact buffers\n",
              "variable ⟨tag,ptr,bound⟩", variable.mean_us,
              variable.wire_bytes_per_op);
  const char* names[] = {"fixed", "variable"};
  for (size_t i = 0; i < rows.size(); ++i) {
    workload::LoadPoint p;
    p.clients = 1;
    p.mean_us = rows[i].mean_us;
    p.sim_events = rows[i].sim_events;
    reporter.AddRow(names[i], p);
  }
  reporter.WriteUnified();
  return 0;
}
