// Ablation A5: reclamation batching (§3.2).
//
// Freed buffers return to the server via RPC; each batch costs one server
// core slot. Batching amortizes that CPU cost — this bench sweeps the batch
// size under a fixed overwrite churn and reports server core time burned
// per reclaimed buffer and the wire messages used.
//
// Each batch size is an independent simulation fanned out through the
// parallel sweep runner (--jobs=N).
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/kv/prism_kv.h"

namespace {

struct BatchRow {
  uint64_t messages = 0;
  double core_us_per_buffer = 0;
  size_t free_buffers = 0;
  uint64_t sim_events = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace prism;
  using bench::KeyOf;
  const std::vector<size_t> batches = {1, 4, 16, 64};
  constexpr int kChurn = 512;

  std::vector<harness::SweepPoint<BatchRow>> points;
  for (size_t batch : batches) {
    points.push_back([batch]() -> BatchRow {
      sim::Simulator sim;
      net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
      net::HostId server_host = fabric.AddHost("server");
      kv::PrismKvOptions opts;
      opts.n_buckets = 256;
      opts.n_buffers = 2048;
      opts.reclaim_batch = batch;
      kv::PrismKvServer server(&fabric, server_host, opts);
      net::HostId client_host = fabric.AddHost("client");
      kv::PrismKvClient client(&fabric, client_host, &server);
      const uint64_t msgs_before = fabric.total_messages();
      sim::Spawn([&]() -> sim::Task<void> {
        for (int i = 0; i < kChurn; ++i) {
          PRISM_CHECK((co_await client.Put(KeyOf(1), Bytes(256, 1))).ok());
        }
        client.FlushReclaim();
      });
      sim.Run();
      BatchRow row;
      row.messages = fabric.total_messages() - msgs_before;
      row.core_us_per_buffer =
          sim::ToMicros(fabric.Cores(server_host).total_busy()) / kChurn;
      row.free_buffers = server.free_buffers();
      row.sim_events = sim.executed_events();
      return row;
    });
  }

  bench::FigureReporter reporter(
      "abl_reclaim_batch", "Ablation A5: buffer-reclamation batch size");
  std::vector<BatchRow> rows = bench::RunTimedSweep(
      reporter, points, harness::JobsFromArgs(argc, argv));

  std::printf("== Ablation A5: buffer-reclamation batch size (§3.2) ==\n");
  std::printf("%8s %16s %22s %16s\n", "batch", "messages", "core-us/buffer",
              "free-list final");
  for (size_t i = 0; i < batches.size(); ++i) {
    std::printf("%8zu %16llu %22.3f %16zu\n", batches[i],
                static_cast<unsigned long long>(rows[i].messages),
                rows[i].core_us_per_buffer, rows[i].free_buffers);
    workload::LoadPoint p;
    p.clients = 1;
    p.mean_us = rows[i].core_us_per_buffer;
    p.sim_events = rows[i].sim_events;
    reporter.AddRow("reclaim", p, static_cast<double>(batches[i]));
  }
  std::printf("(core time includes the PUT chains themselves; the delta "
              "across rows is the reclamation-RPC cost)\n");
  reporter.WriteUnified();
  return 0;
}
