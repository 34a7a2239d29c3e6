// Overload figure (no paper counterpart; ROADMAP item 2): latency vs
// offered load under open-loop traffic, PRISM-KV vs Pilaf, with and
// without verb-layer doorbell batching + completion coalescing.
//
// Methodology: per client host, an OpenLoopPool of compact 16-byte client
// state machines (1M logical clients total; 100k in fast mode) driven by a
// seeded arrival process (--arrival=poisson|mmpp|diurnal). Latency is
// measured from *arrival* to completion, so client-side queueing is part
// of every sample — below saturation the curves are flat, past it p99/p999
// explode while throughput plateaus; PRISM's fewer round trips per op push
// its knee to higher offered load than Pilaf's.
//
// The batched series shares one VerbBatcher per client host
// (doorbell_batch = cq_moderation = 8, 2 µs flush timers). The driver
// asserts, from the complexity accountant, that batching leaves
// round_trips per op unchanged while cutting client-side verb-layer CPU
// actions (doorbells + cq_polls) per op at the highest offered load.
//
// --guard=N runs the flat-memory CI guard instead of the figure: two
// single-point runs (N/8 then N clients) bound the *marginal* RSS per
// client at ≤64 B (plus the 16 B/client state array asserted exactly).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "bench/kv_bench_lib.h"
#include "bench/point.h"
#include "src/harness/sweep.h"
#include "src/rdma/batch.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"

namespace prism::bench {
namespace {

constexpr double kReadFrac = 0.95;

// Resident set size from /proc; 0 where unsupported.
size_t VmRssBytes() {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb * 1024;
#else
  return 0;
#endif
}

struct OverloadConfig {
  const char* system = "kv";
  bool batched = false;
  double offered_mops = 1.0;
  uint64_t n_clients = 0;
  workload::ArrivalKind kind = workload::ArrivalKind::kPoisson;
  BenchWindows windows;
  uint64_t seed = 1;
  // Bounded in-flight window per host (a real client library's QP-depth /
  // credit limit). Past saturation the excess load queues in the client
  // backlog rather than inside the fabric: by Little's law 32*11 in-flight
  // ops at the ~8 Mops service plateau spend ~45 µs in flight, so the
  // multi-hundred-µs post-knee p999 is backlog_wait, which is what the
  // attribution layer (and tools/latency_report) must show.
  int workers_per_host = 32;
  // When set, VmRSS is sampled at the end of the run while the rigs are
  // still live (the --guard path).
  size_t* live_rss_out = nullptr;
};

uint64_t DefaultClients() { return FastMode() ? 100'000 : 1'000'000; }

std::vector<double> OfferedSweepMops() {
  if (FastMode()) return {1, 4, 12};
  return {1, 2, 4, 8, 16, 24};
}

// One open-loop point against the store `load_server(fabric)` builds. Host
// h's GET client is clients[2h] and its PUT client clients[2h + 1], so
// per-class tallies stay separable; in the batched series the two share one
// VerbBatcher.
template <typename Client, typename LoadServer>
workload::LoadPoint RunOverloadPoint(LoadServer load_server,
                                     const OverloadConfig& cfg,
                                     obs::PointObs* pobs) {
  Point point(cfg.windows, pobs);
  sim::Simulator* sim = &point.sim();
  net::Fabric* fabric = &point.fabric();
  auto server = load_server(*fabric);
  const uint64_t keys = BenchKeyCount();
  std::vector<std::unique_ptr<rdma::VerbBatcher>> batchers;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<const workload::OpenLoopPool*> pools;
  point.AddHostPools(
      cfg.offered_mops, cfg.n_clients, cfg.seed, cfg.workers_per_host,
      cfg.kind,
      [&](size_t h, net::HostId host, workload::OpenLoopPool& pool) {
        pools.push_back(&pool);
        if (cfg.batched) {
          batchers.push_back(std::make_unique<rdma::VerbBatcher>(
              sim, &fabric->cost(), rdma::BatchOptions::Batched()));
        }
        for (int role = 0; role < 2; ++role) {
          clients.push_back(
              std::make_unique<Client>(fabric, host, server.get()));
          if (cfg.batched) clients.back()->set_batcher(batchers.back().get());
        }
        Client* gc = clients[2 * h].get();
        Client* pc = clients[2 * h + 1].get();
        // Every loaded key stays reachable through any interleaving:
        // PRISM-KV's install CAS is atomic and each PUT chain stages its
        // swap operand in a private scratch lease, so a failed GET here is
        // table corruption, not queueing — check it hard.
        pool.AddClass(
            "kv.get", kReadFrac,
            [gc, keys, cfg](uint64_t draw, obs::OpTimeline*) -> sim::Task<void> {
              auto r = co_await gc->Get(KeyOf(draw % keys));
              PRISM_CHECK(r.ok())
                  << r.status() << " key=" << (draw % keys)
                  << " system=" << cfg.system << " offered=" << cfg.offered_mops
                  << " batched=" << cfg.batched;
            });
        pool.AddClass(
            "kv.put", 1.0 - kReadFrac,
            [pc, keys, cfg, sim, fabric](uint64_t draw,
                                         obs::OpTimeline* op) -> sim::Task<void> {
              for (int attempt = 0;; ++attempt) {
                Status s = co_await pc->Put(KeyOf(draw % keys),
                                            Bytes(kBenchValueSize, 0x22));
                if (s.ok()) break;
                // Overload can transiently exhaust version buffers while
                // reclamation RPCs drain; back off one op-service-time.
                PRISM_CHECK(attempt < 8 &&
                            s.code() == Code::kResourceExhausted)
                    << s << " key=" << (draw % keys) << " system=" << cfg.system
                    << " offered=" << cfg.offered_mops
                    << " batched=" << cfg.batched << " attempt=" << attempt;
                co_await sim::SleepFor(sim, sim::Micros(20));
                // The sleep suspended us: re-arm the entry register
                // before the retry so the next Put runs under this op.
                if (op != nullptr) {
                  fabric->obs().SetCurrentOp(op);
                  fabric->obs().SetCurrentSpan(op->root_span());
                }
              }
            });
      });
  point.Drain([&](size_t h, size_t c) {
    return clients[2 * h + c]->TransportTally();
  });
  for (const workload::OpenLoopPool* pool : pools) {
    PRISM_CHECK_LE(pool->state_bytes() / pool->n_clients(), 64u);
  }
  if constexpr (requires(Client* cl) { cl->FlushReclaim(); }) {
    for (auto& client : clients) client->FlushReclaim();
  }
  sim->Run();  // flushed reclamation notifications
  workload::LoadPoint p = point.Finish();
  // Sampled with every pool, client, and histogram still resident so the
  // guard's two samples share their fixed footprint.
  if (cfg.live_rss_out != nullptr) *cfg.live_rss_out = VmRssBytes();
  return p;
}

workload::LoadPoint RunPrismOverloadPoint(const OverloadConfig& cfg,
                                          obs::PointObs* pobs = nullptr) {
  return RunOverloadPoint<kv::PrismKvClient>(LoadPrismKvServer, cfg, pobs);
}

workload::LoadPoint RunPilafOverloadPoint(const OverloadConfig& cfg,
                                          obs::PointObs* pobs = nullptr) {
  return RunOverloadPoint<kv::PilafClient>(
      [](net::Fabric& fabric) {
        return LoadPilafServer(fabric, rdma::Backend::kHardwareNic);
      },
      cfg, pobs);
}

// Acceptance assertions at the highest offered load: batching must leave
// round trips per op unchanged (protocol shape untouched) while reducing
// client-side verb-layer CPU actions per op.
void AssertBatchingInvariant(const std::string& system,
                             const workload::LoadPoint& plain,
                             const workload::LoadPoint& batched) {
  for (const char* op : {"kv.get", "kv.put"}) {
    const double rt_a = RtPerOp(plain, op);
    const double rt_b = RtPerOp(batched, op);
    const obs::OpStats* a = FindOp(plain, op);
    const obs::OpStats* b = FindOp(batched, op);
    PRISM_CHECK_LE(std::abs(rt_a - rt_b), 0.02 * rt_a)
        << system << " " << op << ": batching changed round trips per op ("
        << rt_a << " -> " << rt_b << ")";
    const double cpu_a = static_cast<double>(a->totals.client_cpu_actions()) /
                         static_cast<double>(a->count);
    const double cpu_b = static_cast<double>(b->totals.client_cpu_actions()) /
                         static_cast<double>(b->count);
    PRISM_CHECK_LT(cpu_b, 0.9 * cpu_a)
        << system << " " << op
        << ": batching failed to amortize client CPU actions per op ("
        << cpu_a << " -> " << cpu_b << ")";
    std::printf(
        "overload-assert %-10s %-6s rt/op %.3f->%.3f client-cpu/op "
        "%.3f->%.3f\n",
        system.c_str(), op, rt_a, rt_b, cpu_a, cpu_b);
  }
}

// CI guard: marginal resident memory per client must stay ≤64 B. Two runs
// bound the marginal cost, with RSS sampled while each run's rigs are still
// live: both samples then contain the fixed footprint (server pools,
// fabric, worker frames, event pools), so it cancels out of the marginal.
// Sampling after teardown instead leaves the number hostage to whether the
// allocator returned the freed arena to the OS — glibc's dynamic mmap
// threshold makes that nondeterministic run to run.
int RunGuard(uint64_t n_clients) {
  OverloadConfig cfg;
  cfg.batched = true;
  cfg.offered_mops = 2.0;
  cfg.windows.warmup = sim::Millis(0.2);
  cfg.windows.measure = sim::Millis(1.0);
  cfg.seed = 42;
  const uint64_t small = n_clients / 8 > 0 ? n_clients / 8 : 1;
  size_t live_small = 0;
  size_t live_big = 0;
  cfg.n_clients = small;
  cfg.live_rss_out = &live_small;
  workload::LoadPoint warm = RunPrismOverloadPoint(cfg);
  PRISM_CHECK_GT(warm.tput_mops, 0.0);
  cfg.n_clients = n_clients;
  cfg.seed = 43;
  cfg.live_rss_out = &live_big;
  workload::LoadPoint big = RunPrismOverloadPoint(cfg);
  PRISM_CHECK_GT(big.tput_mops, 0.0);
  std::printf("guard: %llu clients, tput %.3f Mops, p999 %.2f us\n",
              static_cast<unsigned long long>(n_clients), big.tput_mops,
              big.p999_us);
  if (live_small > 0 && live_big > 0) {
    const size_t grown = live_big > live_small ? live_big - live_small : 0;
    const double per_client =
        static_cast<double>(grown) / static_cast<double>(n_clients - small);
    std::printf(
        "guard: marginal rss %.2f B/client (%zu B over %llu clients)\n",
        per_client, grown, static_cast<unsigned long long>(n_clients - small));
    PRISM_CHECK_LE(per_client, 64.0)
        << "open-loop per-client memory exceeds the 64 B/client budget";
  } else {
    std::printf("guard: rss measurement unsupported on this platform; "
                "state-array bound only\n");
  }
  std::printf("guard: ok (state array %zu B/client)\n",
              sizeof(workload::ClientSlot));
  return 0;
}

int Main(int argc, char** argv) {
  using workload::PrintHeader;
  using workload::PrintRow;
  uint64_t guard_clients = 0;
  workload::ArrivalKind kind = workload::ArrivalKind::kPoisson;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--guard=", 8) == 0) {
      guard_clients = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--arrival=", 10) == 0) {
      PRISM_CHECK(workload::ParseArrivalKind(argv[i] + 10, &kind))
          << "unknown --arrival " << argv[i] + 10;
    }
  }
  if (guard_clients > 0) return RunGuard(guard_clients);

  const int jobs = harness::JobsFromArgs(argc, argv);
  const ObsOptions obs_opts = ObsFromArgs(argc, argv);
  const BenchWindows windows = BenchWindows::Default();
  const uint64_t n_clients = DefaultClients();
  const std::vector<double> sweep = OfferedSweepMops();

  struct Series {
    const char* name;
    bool prism;
    bool batched;
  };
  const std::vector<Series> series = {
      {"Pilaf", false, false},
      {"Pilaf (batched)", false, true},
      {"PRISM-KV", true, false},
      {"PRISM-KV (batched)", true, true},
  };
  ObsRig rig(obs_opts, series.size() * sweep.size());
  std::vector<SweepCell> cells;
  size_t slot = 0;
  for (size_t si = 0; si < series.size(); ++si) {
    for (size_t li = 0; li < sweep.size(); ++li) {
      OverloadConfig cfg;
      cfg.system = series[si].name;
      cfg.batched = series[si].batched;
      cfg.offered_mops = sweep[li];
      cfg.n_clients = n_clients;
      cfg.kind = kind;
      cfg.windows = windows;
      cfg.seed = 1000 * (si + 1) + li;
      obs::PointObs* po = rig.at(slot++);
      const bool prism = series[si].prism;
      cells.push_back({series[si].name,
                       [cfg, prism, po] {
                         return prism ? RunPrismOverloadPoint(cfg, po)
                                      : RunPilafOverloadPoint(cfg, po);
                       },
                       sweep[li]});
    }
  }
  const std::string title =
      std::string("Overload: latency vs offered load, open-loop ") +
      workload::ArrivalSpec{kind}.KindName() + " arrivals";
  FigureReporter reporter("fig_overload", title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  PrintHeader(title, "offered(Mops)");
  for (size_t i = 0; i < cells.size(); ++i) {
    char extra[32];
    std::snprintf(extra, sizeof(extra), "%10.3f", rows[i].offered_mops);
    PrintRow(cells[i].series, rows[i], extra);
  }
  reporter.WriteUnified();
  rig.Finish("fig_overload", cells);

  // Acceptance: compare plain vs batched at the highest offered load.
  const size_t top = sweep.size() - 1;
  AssertBatchingInvariant("Pilaf", rows[0 * sweep.size() + top],
                          rows[1 * sweep.size() + top]);
  AssertBatchingInvariant("PRISM-KV", rows[2 * sweep.size() + top],
                          rows[3 * sweep.size() + top]);
  return 0;
}

}  // namespace
}  // namespace prism::bench

int main(int argc, char** argv) { return prism::bench::Main(argc, argv); }
