// Ablation A9: one-round ABD reads (skip the write-back when the read
// quorum is unanimous — the classic ABD optimization, off by default to
// match the paper's measured two-phase protocol).
//
// Read-heavy workloads skip nearly every write-back, halving GET latency;
// under heavy write contention quorums disagree more often and the benefit
// shrinks.
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/rs/prism_rs.h"

namespace prism {
namespace {

using sim::Task;

struct Outcome {
  double get_mean_us;
  double skipped_pct;
  uint64_t sim_events;
};

Outcome Run(bool optimized, double write_frac) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  rs::PrismRsOptions opts;
  opts.n_blocks = 64;
  opts.block_size = 512;
  opts.buffers_per_replica = 4096;
  opts.skip_unanimous_writeback = optimized;
  rs::PrismRsCluster cluster(&fabric, 3, opts);
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<rs::PrismRsClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    net::HostId host = fabric.AddHost("c" + std::to_string(c));
    clients.push_back(std::make_unique<rs::PrismRsClient>(
        &fabric, host, &cluster, static_cast<uint16_t>(c + 1)));
  }
  Rng master(5);
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.push_back(master.Fork());
  LatencyHistogram get_hist;
  uint64_t gets = 0;
  for (int c = 0; c < kClients; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      rs::PrismRsClient* client = clients[static_cast<size_t>(c)].get();
      Rng* rng = &rngs[static_cast<size_t>(c)];
      for (int i = 0; i < 150; ++i) {
        const uint64_t block = rng->NextBelow(64);
        if (rng->NextDouble() < write_frac) {
          PRISM_CHECK(
              (co_await client->Put(block, Bytes(512, 1))).ok());
        } else {
          sim::TimePoint start = sim.Now();
          auto v = co_await client->Get(block);
          PRISM_CHECK(v.ok());
          get_hist.Record(sim.Now() - start);
          gets++;
        }
      }
      client->FlushReclaim();
    });
  }
  sim.Run();
  uint64_t skipped = 0;
  for (auto& c : clients) skipped += c->writebacks_skipped();
  Outcome out;
  out.get_mean_us = get_hist.Summarize().mean_us;
  out.skipped_pct = gets > 0 ? 100.0 * static_cast<double>(skipped) /
                                   static_cast<double>(gets)
                             : 0;
  out.sim_events = sim.executed_events();
  return out;
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  using namespace prism;
  const std::vector<double> write_fracs = {0.05, 0.3, 0.7};
  std::vector<harness::SweepPoint<Outcome>> points;
  for (double wf : write_fracs) {
    points.push_back([wf] { return Run(false, wf); });
    points.push_back([wf] { return Run(true, wf); });
  }
  bench::FigureReporter reporter(
      "abl_abd_oneround_reads", "Ablation A9: one-round ABD reads");
  std::vector<Outcome> rows = bench::RunTimedSweep(
      reporter, points, harness::JobsFromArgs(argc, argv));
  std::printf("== Ablation A9: one-round ABD reads (unanimous-quorum "
              "write-back elision) ==\n");
  std::printf("%12s %22s %24s %18s\n", "write frac", "stock GET mean(us)",
              "optimized GET mean(us)", "write-backs skipped");
  for (size_t i = 0; i < write_fracs.size(); ++i) {
    const Outcome& stock = rows[2 * i];
    const Outcome& opt = rows[2 * i + 1];
    std::printf("%12.2f %22.2f %24.2f %17.1f%%\n", write_fracs[i],
                stock.get_mean_us, opt.get_mean_us, opt.skipped_pct);
    for (size_t v = 0; v < 2; ++v) {
      workload::LoadPoint p;
      p.clients = 8;
      p.mean_us = rows[2 * i + v].get_mean_us;
      p.sim_events = rows[2 * i + v].sim_events;
      reporter.AddRow(v == 0 ? "stock" : "optimized", p, write_fracs[i]);
    }
  }
  reporter.WriteUnified();
  return 0;
}
