// One sweep point, shared by every load-driven figure: the closed-loop
// client sweeps of Figures 3, 4, 6, 7, 9 and 10 (kv_bench_lib.h,
// rs_bench_lib.h, tx_bench_lib.h) and the open-loop figures (fig_sync,
// fig_overload, fig_consensus).
//
// A point owns its simulator and fabric and runs the protocol every such
// point follows. Closed loop, clients issuing ops back to back:
//
//   Point point(windows, pobs);            // fabric; tracer when traced
//   ... server or cluster on point.fabric() ...
//   return point.RunClients(n, seed, make, draw, op);  // the LoadPoint row
//
// Open loop, arrivals from pools:
//
//   Point point(windows, pobs);
//   ... servers and clusters on point.fabric() ...
//   point.AddHostPools(...);               // or AddPool(...) + Start
//   point.Drain(tally);                    // run out, check, file classes
//   ... the figure's own checks and extra runs ...
//   return point.Finish();                 // the LoadPoint row
//
// Declare the figure's servers and clients after the point, so they go
// before the pools and the fabric they refer to.
#ifndef PRISM_BENCH_POINT_H_
#define PRISM_BENCH_POINT_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/obs/timeline.h"
#include "src/sim/task.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"

namespace prism::bench {

// One closed-loop op as its draw fixed it: the span and op-row name, the
// key or block, and whether the op writes.
struct OpDraw {
  const char* name = nullptr;
  uint64_t key = 0;
  bool write = false;
};

class Point {
 public:
  // Ops and arrivals are measured over [warmup, warmup + measure) from now.
  Point(const BenchWindows& windows, obs::PointObs* pobs)
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        pobs_(pobs),
        measure_start_(sim_.Now() + windows.warmup),
        end_(measure_start_ + windows.measure),
        recorder_(&sim_, measure_start_, end_) {
    if (pobs_ != nullptr) fabric_.AttachTracer(pobs_->tracer);
  }

  sim::Simulator& sim() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  sim::TimePoint measure_start() const { return measure_start_; }
  sim::TimePoint end() const { return end_; }

  // Runs `n_clients` closed-loop clients to the end of the window and
  // returns the point's row. Client c is `make(c, host)`, a unique_ptr, on
  // the c-th client host round-robin (AddClientHosts); it draws from the
  // c-th Fork of Rng(seed) and runs ClientLoop. The loops hold pointers to
  // `draw` and `op` (src/sim/task.h pitfall 1: no closure is a coroutine
  // parameter).
  template <typename Make, typename Draw, typename Op>
  workload::LoadPoint RunClients(int n_clients, uint64_t seed,
                                 const Make& make, const Draw& draw,
                                 const Op& op) {
    using Client =
        typename std::invoke_result_t<const Make&, int,
                                      net::HostId>::element_type;
    const std::vector<net::HostId> hosts = AddClientHosts(fabric_);
    std::vector<std::unique_ptr<Client>> clients;
    std::vector<Rng> rngs;
    Rng master(seed);
    for (int c = 0; c < n_clients; ++c) {
      clients.push_back(make(c, hosts[static_cast<size_t>(c) % hosts.size()]));
      rngs.push_back(master.Fork());
    }
    sim::TaskTracker tracker;
    for (int c = 0; c < n_clients; ++c) {
      const size_t i = static_cast<size_t>(c);
      sim::Spawn(ClientLoop(clients[i].get(), hosts[i % hosts.size()],
                            &rngs[i], &draw, &op, c),
                 &tracker);
    }
    RunOut();
    PRISM_CHECK_EQ(tracker.live(), 0);
    clients_ += static_cast<uint64_t>(n_clients);
    return Finish();
  }

  // One pool of `n_clients` on `host`, with per-op timelines when the point
  // is traced. The caller adds its classes and calls Start.
  workload::OpenLoopPool& AddPool(net::HostId host,
                                  const workload::ArrivalSpec& spec,
                                  uint64_t n_clients, Rng rng, int workers) {
    workload::PoolOptions popts;
    popts.workers = workers;
    pools_.push_back(std::make_unique<workload::OpenLoopPool>(
        &sim_, spec, n_clients, rng, popts));
    workload::OpenLoopPool& pool = *pools_.back();
    clients_ += n_clients;
    if (pobs_ != nullptr && pobs_->timelines != nullptr) {
      pool.set_timelines(pobs_->timelines, &fabric_.obs(), host);
    }
    return pool;
  }

  // One pool per client host (AddClientHosts): `n_clients` and
  // `offered_mops` are split evenly over the hosts, and pool h is seeded by
  // the h-th Fork of Rng(seed). `setup(h, host, pool)` builds host h's
  // clients and adds the pool's classes; the pool starts before host h + 1
  // is set up.
  template <typename Setup>
  void AddHostPools(double offered_mops, uint64_t n_clients, uint64_t seed,
                    int workers, workload::ArrivalKind kind,
                    const Setup& setup) {
    const std::vector<net::HostId> hosts = AddClientHosts(fabric_);
    const size_t n_hosts = hosts.size();
    Rng master(seed);
    const double rate_per_host =
        offered_mops * 1e6 / static_cast<double>(n_hosts);
    uint64_t remaining = n_clients;
    for (size_t h = 0; h < n_hosts; ++h) {
      const uint64_t n_here = remaining / (n_hosts - h);
      remaining -= n_here;
      workload::OpenLoopPool& pool = AddPool(
          hosts[h], workload::ArrivalSpec{kind, rate_per_host}, n_here,
          master.Fork(), workers);
      setup(h, hosts[h], pool);
      pool.Start(measure_start_, end_);
    }
  }

  // Runs the point's pools out (RunOut) and files each op class with the
  // complexity accountant: its completions over all pools against the sum
  // of `tally(pool_index, class_index)`.
  template <typename Tally>
  void Drain(const Tally& tally) {
    RunOut();
    for (size_t c = 0; c < pools_.front()->n_classes(); ++c) {
      LatencyHistogram cls_hist;
      obs::TransportTally cls_tally;
      uint64_t n_ops = 0;
      for (size_t i = 0; i < pools_.size(); ++i) {
        cls_hist.Merge(pools_[i]->recorder(c).hist());
        n_ops += pools_[i]->class_completions(c);
        cls_tally += tally(i, c);
      }
      fabric_.obs().ops().RecordN(pools_.front()->class_name(c), n_ops,
                                  cls_tally);
      all_.Merge(cls_hist);
    }
  }

  // The point's row, from the closed-loop clients and every class of every
  // pool: measured throughput and latency, the closed loop's abort rate,
  // measured offered load, events as of now and the accountant's rows.
  // Fills the point's observability slot too.
  workload::LoadPoint Finish() {
    uint64_t measured_arrivals = 0;
    for (const auto& pool : pools_) {
      measured_arrivals += pool->measured_arrivals();
    }
    all_.Merge(recorder_.hist());
    const double seconds = sim::ToSeconds(end_ - measure_start_);
    workload::LoadPoint p;
    p.clients = static_cast<int>(clients_);
    const auto s = all_.Summarize();
    p.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
    p.offered_mops = static_cast<double>(measured_arrivals) / seconds / 1e6;
    p.mean_us = s.mean_us;
    p.p50_us = s.p50_us;
    p.p99_us = s.p99_us;
    p.p999_us = s.p999_us;
    const double ended =
        static_cast<double>(recorder_.completed() + recorder_.aborts());
    p.abort_rate =
        ended > 0 ? static_cast<double>(recorder_.aborts()) / ended : 0;
    p.sim_events = sim_.executed_events();
    p.ops = fabric_.obs().ops().Collect();
    HarvestPointObs(fabric_, pobs_);
    return p;
  }

 private:
  // Arrivals and ops stop at end(), the tail gets 20 ms, then everything
  // left (reclamation, deadlines) runs to quiescence. Checks that every
  // pool drained.
  void RunOut() {
    sim_.RunUntil(end_ + sim::Millis(20));
    sim_.Run();
    for (const auto& pool : pools_) pool->CheckDrained();
  }

  // One closed-loop client: until end(), draw an op (an OpDraw), run it as
  // `op(client, c, draw)`, a sim::Task<Status>, inside its span, file its
  // op row, and record its latency, or an abort when it failed. Then flush
  // the client's reclamation batch, if its type has one.
  template <typename Client, typename Draw, typename Op>
  sim::Task<void> ClientLoop(Client* client, net::HostId host, Rng* rng,
                             const Draw* draw, const Op* op, int c) {
    obs::Hub& hub = fabric_.obs();
    while (sim_.Now() < end_) {
      const OpDraw d = (*draw)(*rng);
      const sim::TimePoint op_start = sim_.Now();
      const obs::TransportTally before = client->TransportTally();
      const obs::SpanId span =
          hub.StartSpan(d.name, "app", host, op_start, /*parent=*/0);
      hub.SetCurrentSpan(span);
      const Status s = co_await (*op)(*client, c, d);
      hub.SetCurrentSpan(0);
      hub.FinishSpan(span, sim_.Now());
      hub.ops().Record(d.name, client->TransportTally() - before);
      if (s.ok()) {
        recorder_.Record(op_start);
      } else {
        recorder_.RecordAbort();
      }
    }
    if constexpr (requires { client->FlushReclaim(); }) {
      client->FlushReclaim();
    }
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  obs::PointObs* pobs_;
  sim::TimePoint measure_start_;
  sim::TimePoint end_;
  workload::Recorder recorder_;  // the closed-loop clients' ops
  std::vector<std::unique_ptr<workload::OpenLoopPool>> pools_;
  uint64_t clients_ = 0;
  LatencyHistogram all_;
};

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

// Runs (client->*call)(key, rest...) until it succeeds. kAborted means the
// client's attempt budget lost races on a hot lock: real behaviour, not
// corruption. So each abort backs off 20 µs and retries with a fresh
// budget, and the convoy cost lands in the latency tail. The pause is
// stamped sync_spin, and the entry register is re-armed after it so the
// retry runs under `op`'s ctx. Any other error, or a 100th abort, fails
// the run. (A plain-data coroutine: the call is a member pointer, not a
// closure; see src/sim/task.h.)
template <typename Client, typename Call, typename... Rest>
sim::Task<void> RetryAborts(net::Fabric* fabric, obs::OpTimeline* op,
                            const char* what, Client* client, Call call,
                            uint64_t key, Rest... rest) {
  sim::Simulator* sim = fabric->sim();
  for (int attempt = 0;; ++attempt) {
    auto r = co_await (client->*call)(key, rest...);
    const Status s = StatusOf(r);
    if (s.ok()) co_return;
    PRISM_CHECK(attempt < 100 && s.code() == Code::kAborted)
        << s << " " << what << " key=" << key;
    obs::SwitchOp(op, obs::Phase::kSyncSpin, sim->Now());
    co_await sim::SleepFor(sim, sim::Micros(20));
    obs::SwitchOp(op, obs::Phase::kApp, sim->Now());
    if (op != nullptr) {
      fabric->obs().SetCurrentOp(op);
      fabric->obs().SetCurrentSpan(op->root_span());
    }
  }
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_POINT_H_
