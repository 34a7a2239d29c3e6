// The benchmark's workloads: fixed lists of simulation points run serially
// through the simulator's public APIs. Each point builds its own stack (as
// the figure drivers do), runs it, checks every op's output, and reports
// its simulated results plus host time and allocations per phase.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "simbench/bench.h"
#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/rdma/batch.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/workload/arrival.h"
#include "src/workload/open_loop.h"
#include "src/workload/zipf.h"

namespace simbench {

using namespace prism;  // NOLINT: the benchmark drives every layer

namespace {

// Scaled-down stores of the figure drivers (DESIGN.md §1): 512 B values.
constexpr uint64_t kKvKeys = 65536;
constexpr uint64_t kRsBlocks = 16384;
constexpr uint64_t kTxKeys = 32768;
constexpr uint64_t kValueSize = 512;
constexpr int kRsReplicas = 3;
constexpr double kZipf = 0.99;
constexpr int kClientHosts = 11;  // the paper's client machines
constexpr uint64_t kLoadBatch = 8192;
constexpr uint64_t kOpenLoopClients = uint64_t{1} << 20;
constexpr int kWorkersPerHost = 32;
constexpr int kMaxPutAttempts = 8;

const sim::Duration kWarmup = sim::Millis(0.5);
const sim::Duration kMeasure = sim::Millis(3.0);
const sim::Duration kDrain = sim::Millis(20);

// KV values name their key and writer, so a GET can check it got a whole
// value written for that key: [key u64][tag u64][fill x 496].
uint8_t FillOf(uint64_t key, uint64_t tag) {
  return static_cast<uint8_t>(MixU64(key * 0x9e3779b97f4a7c15ull ^ tag));
}

Bytes KvValue(uint64_t key, uint64_t tag) {
  Bytes v(kValueSize, FillOf(key, tag));
  StoreU64(v.data(), key);
  StoreU64(v.data() + 8, tag);
  return v;
}

bool KvValueOk(const Bytes& v, uint64_t key) {
  if (v.size() != kValueSize || LoadU64(v.data()) != key) return false;
  const uint8_t fill = FillOf(key, LoadU64(v.data() + 8));
  for (size_t i = 16; i < v.size(); ++i) {
    if (v[i] != fill) return false;
  }
  return true;
}

// Replicated blocks are written as 512 copies of one byte.
bool UniformBlock(const Bytes& v) {
  if (v.size() != kValueSize) return false;
  for (uint8_t b : v) {
    if (b != v[0]) return false;
  }
  return true;
}

// Transaction values start as 0x11 bytes; each RMW bumps byte 0 only.
bool TxValueOk(const Bytes& v) {
  if (v.size() != kValueSize) return false;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] != 0x11) return false;
  }
  return true;
}

std::vector<net::HostId> AddClientHosts(net::Fabric& fabric) {
  std::vector<net::HostId> hosts;
  for (int i = 0; i < kClientHosts; ++i) {
    hosts.push_back(fabric.AddHost("client-host-" + std::to_string(i)));
  }
  return hosts;
}

std::string PointName(const std::string& workload, const PointSpec& s) {
  char buf[96];
  if (s.clients > 0) {
    std::snprintf(buf, sizeof(buf), "%s/%s/c%d", workload.c_str(), s.system,
                  s.clients);
  } else {
    std::snprintf(buf, sizeof(buf), "%s/%s%s/r%g", workload.c_str(), s.system,
                  s.batched ? "+batch" : "", s.offered_mops);
  }
  return buf;
}

enum class Outcome { kOk, kAbort, kFail };

// Closed-loop state shared by a point's client coroutines.
struct ClosedLoop {
  sim::Simulator* sim;
  workload::Recorder* rec;
  PointResult* out;
  obs::Hub* hub;
  obs::TimelineStore* store;  // null unless the program's timelines are on
  uint32_t store_cls;
};

// One closed-loop client: issues ops back to back until the measurement
// window closes. `op` is a coroutine lambda owned by the point runner.
template <typename OpFn>
sim::Task<void> ClientLoop(ClosedLoop* loop, OpFn* op, int c) {
  while (loop->sim->Now() < loop->rec->measure_end()) {
    const sim::TimePoint start = loop->sim->Now();
    obs::OpTimeline* tl = nullptr;
    if (loop->store != nullptr) {
      tl = loop->store->StartOp(loop->store_cls, start);
      tl->Switch(obs::Phase::kApp, start);
      loop->hub->SetCurrentOp(tl);
    }
    const Outcome o = co_await (*op)(c);
    if (tl != nullptr) {
      loop->hub->SetCurrentOp(nullptr);
      loop->store->FinishOp(tl, loop->sim->Now());
    }
    ++loop->out->ops;
    if (o == Outcome::kOk) {
      loop->rec->Record(start);
    } else if (o == Outcome::kAbort) {
      ++loop->out->aborted;
      loop->rec->RecordAbort();
    }
  }
}

// The part every point shares: the engine, the fabric, optional program-
// side observation, and result harvesting. The point's clock lives outside
// the rig so that the rig's own destruction is timed as teardown.
class PointRig {
 public:
  PointRig(PointResult* out, PointClock* clock, const Env& env)
      : out_(out),
        clock_(clock),
        build_(clock->Begin()),
        fabric_(&sim_, net::CostModel::EvalCluster40G()) {
    if (env.tracer != nullptr) fabric_.AttachTracer(env.tracer);
    if (env.timelines) store_ = std::make_unique<obs::TimelineStore>();
  }

  sim::Simulator& sim() { return sim_; }
  net::Fabric& fabric() { return fabric_; }
  PointClock& clock() { return *clock_; }
  obs::TimelineStore* store() { return store_.get(); }

  // Closes the build phase opened by the constructor or BeginBuild.
  void Built(const char* span) { clock_->End(Phase::kBuild, span, build_); }
  void BeginBuild() { build_ = clock_->Begin(); }

  // Advances the simulation past the window plus drain, then to quiescence.
  void RunToEnd(sim::TimePoint end) {
    PointClock::Mark m = clock_->Begin();
    sim_.RunUntil(end + kDrain);
    clock_->End(Phase::kSim, "sim.RunUntil", m);
    RunIdle();
  }

  void RunIdle() {
    PointClock::Mark m = clock_->Begin();
    sim_.Run();
    clock_->End(Phase::kSim, "sim.Run", m);
  }

  // Harvests engine and fabric counters.
  void Harvest() {
    out_->events = sim_.executed_events();
    out_->engine = sim_.stats();
    out_->wire_messages = fabric_.total_messages();
    out_->wire_bytes = fabric_.total_wire_bytes();
    out_->lp.sim_events = out_->events;
    out_->lp.ops = fabric_.obs().ops().Collect();
  }
  // Opens the teardown phase: the point runner's last call, so its locals
  // and then the rig are destroyed inside the phase.
  void BeginTeardown() { teardown_ = clock_->Begin(); }
  const PointClock::Mark& teardown() const { return teardown_; }

 private:
  PointResult* out_;
  PointClock* clock_;
  PointClock::Mark build_;
  PointClock::Mark teardown_{};
  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<obs::TimelineStore> store_;
};

// Runs `n_clients` closed-loop clients over `op` and fills out->lp.
template <typename OpFn>
void DriveClosedLoop(PointRig& rig, PointResult* out, int n_clients,
                     OpFn& op) {
  const sim::TimePoint start = rig.sim().Now() + kWarmup;
  const sim::TimePoint end = start + kMeasure;
  workload::Recorder rec(&rig.sim(), start, end);
  ClosedLoop loop{&rig.sim(), &rec, out, &rig.fabric().obs(), rig.store(), 0};
  if (rig.store() != nullptr) {
    rig.store()->SetWindow(start, end);
    loop.store_cls = rig.store()->EnsureClass(out->system);
  }
  sim::TaskTracker tracker;
  for (int c = 0; c < n_clients; ++c) {
    sim::Spawn(ClientLoop(&loop, &op, c), &tracker);
  }
  rig.RunToEnd(end);
  if (tracker.live() != 0) out->Fail("closed-loop clients did not finish");
  out->lp = workload::MakeLoadPoint(n_clients, rec);
}

// ---- key-value stacks (kv_read, kv_write) ----

template <typename Kv>
std::unique_ptr<typename Kv::Server> BuildAndLoadKv(PointRig& rig,
                                                    PointResult* out) {
  net::Fabric& fabric = rig.fabric();
  auto server = Kv::MakeServer(&fabric, fabric.AddHost("kv-server"), kKvKeys);
  rig.Built("build.server");
  for (uint64_t base = 0; base < kKvKeys; base += kLoadBatch) {
    PointClock::Mark m = rig.clock().Begin();
    for (uint64_t k = base; k < std::min(base + kLoadBatch, kKvKeys); ++k) {
      Status s = server->LoadKey(BytesOfString(KeyOf(k)), KvValue(k, 0));
      if (!s.ok()) out->Fail("LoadKey: " + s.ToString());
    }
    rig.clock().End(Phase::kLoad, "kv.LoadKey batch", m);
  }
  return server;
}

template <typename Kv>
void RunKvClosed(PointRig& rig, PointResult* out, const PointSpec& spec,
                 uint64_t seed) {
  net::Fabric& fabric = rig.fabric();
  auto server = BuildAndLoadKv<Kv>(rig, out);
  rig.BeginBuild();
  const std::vector<net::HostId> hosts = AddClientHosts(fabric);
  std::vector<std::unique_ptr<typename Kv::Client>> clients;
  Rng master(seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<typename Kv::Client>(
        &fabric, hosts[static_cast<size_t>(c) % hosts.size()], server.get()));
    rngs.push_back(master.Fork());
  }
  rig.Built("build.clients");

  auto op = [&](int c) -> sim::Task<Outcome> {
    typename Kv::Client* client = clients[static_cast<size_t>(c)].get();
    const uint64_t key = rngs[static_cast<size_t>(c)].NextBelow(kKvKeys);
    const obs::TransportTally before = client->TransportTally();
    auto v = co_await client->Get(KeyOf(key));
    const obs::TransportTally delta = client->TransportTally() - before;
    fabric.obs().ops().Record("kv.get", delta);
    if (!v.ok()) {
      out->Fail("GET status " + v.status().ToString());
      co_return Outcome::kFail;
    }
    if (!KvValueOk(*v, key)) {
      out->Fail("GET returned a wrong value");
      co_return Outcome::kFail;
    }
    out->Output(key ^ LoadU64(v->data() + 8) << 20);
    // Table 1: with no concurrent writers a GET takes exactly kGetRt.
    if (delta.round_trips != Kv::kGetRt) {
      out->Fail("GET took " + std::to_string(delta.round_trips) + " RT");
      co_return Outcome::kFail;
    }
    co_return Outcome::kOk;
  };
  DriveClosedLoop(rig, out, spec.clients, op);
  rig.Harvest();
  rig.BeginTeardown();
}

// Open loop (kv_write): per client host, one OpenLoopPool of compact
// client slots with Poisson arrivals, and one GET and one PUT client so the
// per-class transport tallies stay separable.
template <typename Kv>
void RunKvOpen(PointRig& rig, PointResult* out, const PointSpec& spec,
               uint64_t seed) {
  sim::Simulator& sim = rig.sim();
  net::Fabric& fabric = rig.fabric();
  auto server = BuildAndLoadKv<Kv>(rig, out);
  rig.BeginBuild();
  const std::vector<net::HostId> hosts = AddClientHosts(fabric);
  struct HostRig {
    std::unique_ptr<rdma::VerbBatcher> batcher;
    std::unique_ptr<typename Kv::Client> get_client;
    std::unique_ptr<typename Kv::Client> put_client;
    std::unique_ptr<workload::OpenLoopPool> pool;
    uint64_t put_calls = 0;
    uint64_t puts_ok = 0;
  };
  std::vector<HostRig> rigs(hosts.size());
  for (size_t h = 0; h < hosts.size(); ++h) {
    HostRig& hr = rigs[h];
    if (spec.batched) {
      hr.batcher = std::make_unique<rdma::VerbBatcher>(
          &sim, &fabric.cost(), rdma::BatchOptions::Batched());
    }
    hr.get_client =
        std::make_unique<typename Kv::Client>(&fabric, hosts[h], server.get());
    hr.put_client =
        std::make_unique<typename Kv::Client>(&fabric, hosts[h], server.get());
    if (hr.batcher != nullptr) {
      hr.get_client->set_batcher(hr.batcher.get());
      hr.put_client->set_batcher(hr.batcher.get());
    }
  }
  rig.Built("build.clients");

  PointClock::Mark pool_mark = rig.clock().Begin();
  const sim::TimePoint start = sim.Now() + kWarmup;
  const sim::TimePoint end = start + kMeasure;
  Rng master(seed);
  const double rate_per_host =
      spec.offered_mops * 1e6 / static_cast<double>(hosts.size());
  uint64_t remaining = kOpenLoopClients;
  for (size_t h = 0; h < hosts.size(); ++h) {
    HostRig& hr = rigs[h];
    const uint64_t n_here = remaining / (hosts.size() - h);
    remaining -= n_here;
    workload::PoolOptions popts;
    popts.workers = kWorkersPerHost;
    hr.pool = std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec::Poisson(rate_per_host), n_here,
        master.Fork(), popts);
    if (rig.store() != nullptr) {
      hr.pool->set_timelines(rig.store(), &fabric.obs(), hosts[h]);
    }
    typename Kv::Client* gc = hr.get_client.get();
    typename Kv::Client* pc = hr.put_client.get();
    HostRig* hp = &hr;
    hr.pool->AddClass(
        "kv.get", 0.5,
        [gc, out](uint64_t draw, obs::OpTimeline*) -> sim::Task<void> {
          const uint64_t key = draw % kKvKeys;
          auto v = co_await gc->Get(KeyOf(key));
          if (!v.ok()) {
            out->Fail("GET status " + v.status().ToString());
          } else if (!KvValueOk(*v, key)) {
            out->Fail("GET returned a wrong value");
          } else {
            out->Output(key ^ LoadU64(v->data() + 8) << 20);
          }
        });
    hr.pool->AddClass(
        "kv.put", 0.5,
        [pc, hp, out, &sim, &fabric](uint64_t draw,
                                     obs::OpTimeline* tl) -> sim::Task<void> {
          const uint64_t key = draw % kKvKeys;
          for (int attempt = 1;; ++attempt) {
            ++hp->put_calls;
            Status s = co_await pc->Put(KeyOf(key), KvValue(key, draw));
            if (s.ok()) {
              ++hp->puts_ok;
              out->Output(~key);
              co_return;
            }
            // Reclamation can briefly run the version buffers dry under
            // load; that is a simulated outcome, retried after one
            // op-service time. Anything else is a failure.
            if (s.code() != Code::kResourceExhausted ||
                attempt == kMaxPutAttempts) {
              out->Fail("PUT status " + s.ToString());
              co_return;
            }
            co_await sim::SleepFor(&sim, sim::Micros(20));
            if (tl != nullptr) fabric.obs().SetCurrentOp(tl);
          }
        });
    hr.pool->Start(start, end);
  }
  rig.clock().End(Phase::kPoolSetup, "workload.OpenLoopPool", pool_mark);

  rig.RunToEnd(end);
  PointClock::Mark collect = rig.clock().Begin();
  LatencyHistogram all;
  uint64_t measured_arrivals = 0;
  for (size_t cls = 0; cls < 2; ++cls) {
    obs::TransportTally tally;
    uint64_t n_ops = 0;
    for (HostRig& hr : rigs) {
      all.Merge(hr.pool->recorder(cls).hist());
      n_ops += hr.pool->class_completions(cls);
      tally += cls == 0 ? hr.get_client->TransportTally()
                        : hr.put_client->TransportTally();
    }
    fabric.obs().ops().RecordN(rigs[0].pool->class_name(cls), n_ops, tally);
  }
  for (HostRig& hr : rigs) {
    hr.pool->CheckDrained();
    measured_arrivals += hr.pool->measured_arrivals();
    out->ops += hr.pool->completions();
    out->pool_clients += hr.pool->n_clients();
    out->pool_state_bytes += hr.pool->state_bytes();
    out->attempts += hr.put_calls;
    out->useful += hr.puts_ok;
    if constexpr (requires(typename Kv::Client* cl) { cl->FlushReclaim(); }) {
      hr.get_client->FlushReclaim();
      hr.put_client->FlushReclaim();
      out->attempts += hr.put_client->cas_failures();
    }
  }
  rig.clock().End(Phase::kCollect, "collect", collect);
  rig.RunIdle();  // flushed reclamation notifications

  const double seconds = sim::ToSeconds(kMeasure);
  const auto s = all.Summarize();
  out->lp.clients = static_cast<int>(out->pool_clients);
  out->lp.tput_mops = static_cast<double>(s.count) / seconds / 1e6;
  out->lp.offered_mops = static_cast<double>(measured_arrivals) / seconds / 1e6;
  out->lp.mean_us = s.mean_us;
  out->lp.p50_us = s.p50_us;
  out->lp.p99_us = s.p99_us;
  out->lp.p999_us = s.p999_us;
  rig.Harvest();

  // Table 1, aggregated per class (the pools share each transport client):
  // a PRISM-KV GET is exactly 1 RT and a PUT attempt exactly 2 (probe +
  // install chain); a Pilaf PUT is exactly one RPC.
  for (const obs::OpStats& os : out->lp.ops) {
    const uint64_t rt = os.totals.round_trips;
    bool ok = true;
    if (std::strcmp(spec.system, "kv.prism") == 0) {
      ok = os.op == "kv.get" ? rt == os.count : rt == 2 * out->attempts;
    } else {
      ok = os.op == "kv.get" ? rt >= 2 * os.count : rt == out->attempts;
    }
    if (!ok) {
      out->Fail(os.op + " round trips " + std::to_string(rt) +
                " break Table 1");
    }
  }
  rig.BeginTeardown();
}

// ---- replicated block store and transactions (rs_tx) ----

template <typename Cluster, typename Client, typename Opts>
void RunRs(PointRig& rig, PointResult* out, const PointSpec& spec,
           uint64_t seed, const Opts& opts) {
  constexpr bool kAbd = std::is_same_v<Client, rs::AbdLockClient>;
  net::Fabric& fabric = rig.fabric();
  Cluster cluster(&fabric, kRsReplicas, opts);
  const std::vector<net::HostId> hosts = AddClientHosts(fabric);
  std::vector<std::unique_ptr<Client>> clients;
  Rng master(seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < spec.clients; ++c) {
    const net::HostId h = hosts[static_cast<size_t>(c) % hosts.size()];
    const uint16_t id = static_cast<uint16_t>(c + 1);
    if constexpr (kAbd) {
      clients.push_back(std::make_unique<Client>(&fabric, h, &cluster, id,
                                                 MixU64(seed + id)));
    } else {
      clients.push_back(std::make_unique<Client>(&fabric, h, &cluster, id));
    }
    rngs.push_back(master.Fork());
  }
  workload::KeyChooser chooser(kRsBlocks, kZipf);
  rig.Built("build.cluster");

  auto op = [&](int c) -> sim::Task<Outcome> {
    Client* client = clients[static_cast<size_t>(c)].get();
    Rng& rng = rngs[static_cast<size_t>(c)];
    const uint64_t block = chooser.Next(rng);
    const bool is_put = rng.NextDouble() < 0.5;
    const obs::TransportTally before = client->TransportTally();
    Status s;
    if (is_put) {
      s = co_await client->Put(block,
                               Bytes(kValueSize, static_cast<uint8_t>(c + 1)));
    } else {
      auto v = co_await client->Get(block);
      s = v.status();
      if (v.ok() && !UniformBlock(*v)) {
        out->Fail("block GET returned a torn value");
        co_return Outcome::kFail;
      }
      if (v.ok()) out->Output(block << 8 | (*v)[0]);
    }
    fabric.obs().ops().Record(is_put ? "rs.put" : "rs.get",
                              client->TransportTally() - before);
    out->Output(block << 8 ^ static_cast<uint64_t>(s.code()) << 40);
    if (s.ok()) co_return Outcome::kOk;
    // ABD-LOCK gives up after max_lock_attempts: a simulated outcome.
    if (kAbd && s.code() == Code::kAborted) co_return Outcome::kAbort;
    out->Fail("block op status " + s.ToString());
    co_return Outcome::kFail;
  };
  DriveClosedLoop(rig, out, spec.clients, op);
  PointClock::Mark collect = rig.clock().Begin();
  // ABD-LOCK: every op that got past the lock phase won one lock attempt;
  // each conflict was one more attempt that backed off.
  out->useful = out->ops - out->aborted - out->failed;
  out->attempts = out->useful;
  for (auto& client : clients) {
    if constexpr (kAbd) {
      out->attempts += client->lock_conflicts();
    } else {
      client->FlushReclaim();
    }
  }
  rig.clock().End(Phase::kCollect, "collect", collect);
  rig.RunIdle();
  rig.Harvest();
  out->replicas = kRsReplicas;
  rig.BeginTeardown();
}

template <typename Cluster, typename Client, typename Opts>
void RunTx(PointRig& rig, PointResult* out, const PointSpec& spec,
           uint64_t seed, const Opts& opts) {
  net::Fabric& fabric = rig.fabric();
  Cluster cluster(&fabric, /*n_shards=*/1, opts);
  rig.Built("build.cluster");
  for (uint64_t base = 0; base < kTxKeys; base += kLoadBatch) {
    PointClock::Mark m = rig.clock().Begin();
    for (uint64_t k = base; k < std::min(base + kLoadBatch, kTxKeys); ++k) {
      Status s = cluster.LoadKey(k, Bytes(kValueSize, 0x11));
      if (!s.ok()) out->Fail("LoadKey: " + s.ToString());
    }
    rig.clock().End(Phase::kLoad, "tx.LoadKey batch", m);
  }
  rig.BeginBuild();
  const std::vector<net::HostId> hosts = AddClientHosts(fabric);
  std::vector<std::unique_ptr<Client>> clients;
  Rng master(seed);
  std::vector<Rng> rngs;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<Client>(
        &fabric, hosts[static_cast<size_t>(c) % hosts.size()], &cluster,
        static_cast<uint16_t>(c + 1)));
    rngs.push_back(master.Fork());
  }
  workload::KeyChooser chooser(kTxKeys, kZipf);
  rig.Built("build.clients");

  auto op = [&](int c) -> sim::Task<Outcome> {
    Client* client = clients[static_cast<size_t>(c)].get();
    const uint64_t key = chooser.Next(rngs[static_cast<size_t>(c)]);
    const obs::TransportTally before = client->TransportTally();
    auto txn = client->Begin();
    auto v = co_await client->Read(txn, key);
    Status s = v.status();
    if (v.ok()) {
      if (!TxValueOk(*v)) {
        out->Fail("transaction read a wrong value");
        co_return Outcome::kFail;
      }
      out->Output(key << 8 | (*v)[0]);
      Bytes updated = std::move(*v);
      updated[0] = static_cast<uint8_t>(updated[0] + 1);
      client->Write(txn, key, std::move(updated));
      s = co_await client->Commit(txn);
    }
    fabric.obs().ops().Record("tx.rmw", client->TransportTally() - before);
    if (s.ok()) {
      ++out->useful;
      co_return Outcome::kOk;
    }
    // OCC / lock conflicts abort; YCSB-T retries as a new transaction.
    if (s.code() == Code::kAborted) co_return Outcome::kAbort;
    out->Fail("transaction status " + s.ToString());
    co_return Outcome::kFail;
  };
  DriveClosedLoop(rig, out, spec.clients, op);
  PointClock::Mark collect = rig.clock().Begin();
  if constexpr (std::is_same_v<Client, tx::PrismTxClient>) {
    for (auto& client : clients) client->FlushReclaim();
  }
  rig.clock().End(Phase::kCollect, "collect", collect);
  rig.RunIdle();
  rig.Harvest();
  rig.BeginTeardown();
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"kv_read",
       {{"kv.pilaf", 32, 0, false},
        {"kv.pilaf", 192, 0, false},
        {"kv.prism", 32, 0, false},
        {"kv.prism", 192, 0, false}}},
      {"kv_write",
       {{"kv.pilaf", 0, 6.0, false},
        {"kv.pilaf", 0, 13.0, false},
        {"kv.pilaf", 0, 6.0, true},
        {"kv.pilaf", 0, 13.0, true},
        {"kv.prism", 0, 6.0, false},
        {"kv.prism", 0, 13.0, false},
        {"kv.prism", 0, 6.0, true},
        {"kv.prism", 0, 13.0, true}}},
      {"rs_tx",
       {{"rs.abd", 100, 0, false},
        {"rs.prism", 100, 0, false},
        {"tx.farm", 192, 0, false},
        {"tx.prism", 192, 0, false}}},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

PointResult RunPoint(const std::string& workload, const PointSpec& spec,
                     uint64_t seed, uint32_t point_id, const Env& env) {
  PointResult out;
  out.name = PointName(workload, spec);
  out.system = spec.system;
  const std::string sys = spec.system;
  PointClock clock(env.spans, point_id, out.name);
  auto rig = std::make_unique<PointRig>(&out, &clock, env);
  if (sys == "kv.pilaf" || sys == "kv.prism") {
    const bool prism_kv = sys == "kv.prism";
    if (spec.clients > 0) {
      prism_kv ? RunKvClosed<PrismKv>(*rig, &out, spec, seed)
               : RunKvClosed<PilafKv>(*rig, &out, spec, seed);
    } else {
      prism_kv ? RunKvOpen<PrismKv>(*rig, &out, spec, seed)
               : RunKvOpen<PilafKv>(*rig, &out, spec, seed);
    }
  } else if (sys == "rs.abd") {
    rs::AbdLockOptions o;
    o.n_blocks = kRsBlocks;
    o.block_size = kValueSize;
    o.backend = rdma::Backend::kHardwareNic;
    RunRs<rs::AbdLockCluster, rs::AbdLockClient>(*rig, &out, spec, seed, o);
  } else if (sys == "rs.prism") {
    rs::PrismRsOptions o;
    o.n_blocks = kRsBlocks;
    o.block_size = kValueSize;
    o.buffers_per_replica = kRsBlocks + 8192;
    RunRs<rs::PrismRsCluster, rs::PrismRsClient>(*rig, &out, spec, seed, o);
  } else if (sys == "tx.farm") {
    tx::FarmOptions o;
    o.keys_per_shard = kTxKeys;
    o.value_size = kValueSize;
    o.backend = rdma::Backend::kHardwareNic;
    RunTx<tx::FarmCluster, tx::FarmClient>(*rig, &out, spec, seed, o);
  } else {
    tx::PrismTxOptions o;
    o.keys_per_shard = kTxKeys;
    o.value_size = kValueSize;
    o.buffers_per_shard = kTxKeys + 8192;
    RunTx<tx::PrismTxCluster, tx::PrismTxClient>(*rig, &out, spec, seed, o);
  }
  const PointClock::Mark teardown = rig->teardown();
  rig.reset();
  clock.End(Phase::kTeardown, "teardown", teardown);
  for (int i = 0; i < kNumPhases; ++i) {
    out.phase_ns[i] = clock.ns(static_cast<Phase>(i));
    out.phase_allocs[i] = clock.allocs(static_cast<Phase>(i));
  }
  clock.Finish();
  out.digest = DigestOf(out);
  return out;
}

uint64_t DigestOf(const PointResult& r) {
  std::string s = r.name;
  char buf[256];
  const workload::LoadPoint& p = r.lp;
  std::snprintf(buf, sizeof(buf), "|%d|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g|%.17g",
                p.clients, p.tput_mops, p.offered_mops, p.mean_us, p.p50_us,
                p.p99_us, p.p999_us, p.abort_rate);
  s += buf;
  s += "|out:" + std::to_string(r.outputs);
  for (const obs::OpStats& os : p.ops) {
    const obs::TransportTally& t = os.totals;
    std::snprintf(buf, sizeof(buf), "|%s:%llu:%llu:%llu:%llu:%llu:%llu:%llu:%llu",
                  os.op.c_str(), static_cast<unsigned long long>(os.count),
                  static_cast<unsigned long long>(t.round_trips),
                  static_cast<unsigned long long>(t.messages),
                  static_cast<unsigned long long>(t.bytes_out),
                  static_cast<unsigned long long>(t.bytes_in),
                  static_cast<unsigned long long>(t.cpu_actions),
                  static_cast<unsigned long long>(t.doorbells),
                  static_cast<unsigned long long>(t.cq_polls));
    s += buf;
  }
  return Fnv1a64(std::string_view(s));
}

}  // namespace simbench
