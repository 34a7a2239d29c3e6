// The per-layer ledger: each layer's public entry point timed alone on an
// idle stack (one client, nothing else in flight), as host ns per call and
// heap allocations per call. `<layer>.self_ns` subtracts the nested calls a
// layer makes, so a change to one layer shows in that layer's row only.
#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "simbench/bench.h"
#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/prism/executor.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"
#include "src/rdma/verbs.h"
#include "src/rpc/rpc.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"

namespace simbench {

using namespace prism;  // NOLINT: the ledger drives every layer

namespace {

constexpr int kBatches = 9;
constexpr int64_t kBatchNs = 6'000'000;
constexpr uint64_t kStoreKeys = 1024;
constexpr uint64_t kValue = 512;

struct Cost {
  int64_t ns;
  uint64_t allocs;
};

template <typename F>
Cost TimeIt(F&& f) {
  const uint64_t a0 = Allocs().allocs;
  const int64_t t0 = HostNowNs();
  f();
  return Cost{HostNowNs() - t0, Allocs().allocs - a0};
}

struct PerCall {
  double ns;
  double allocs;
};

// Grows the call count until one batch takes kBatchNs, then reports the
// fastest of kBatches batches: interference only slows a batch, so the
// fastest is the steadiest, and nested calls timed the same way subtract
// cleanly. `batch(n)` performs n calls. Times are also calibrated by the
// reference kernel run before and after the batches.
template <typename Batch>
PerCall Measure(Batch&& batch) {
  const double kernel_before = ReferenceKernelMs();
  uint64_t n = 1;
  for (;;) {
    const Cost c = batch(n);
    if (c.ns >= kBatchNs || n >= (uint64_t{1} << 24)) break;
    const int64_t grow = c.ns > 0 ? kBatchNs / c.ns + 1 : 16;
    n *= static_cast<uint64_t>(std::clamp<int64_t>(grow, 2, 16));
  }
  std::vector<double> ns;
  std::vector<double> allocs;
  for (int b = 0; b < kBatches; ++b) {
    const Cost c = batch(n);
    ns.push_back(static_cast<double>(c.ns) / static_cast<double>(n));
    allocs.push_back(static_cast<double>(c.allocs) / static_cast<double>(n));
  }
  const double scale =
      2 * kReferenceMs / (kernel_before + ReferenceKernelMs());
  return PerCall{*std::min_element(ns.begin(), ns.end()) * scale,
                 Median(allocs)};
}

// Runs `n` sequential awaited calls of `call(i)` (a coroutine lambda
// returning Task<bool>, false on a failed call) and drains the engine.
template <typename Call>
Cost RunCalls(sim::Simulator& sim, uint64_t n, Call& call, uint64_t* bad) {
  return TimeIt([&] {
    sim::Spawn([&call, n, bad]() -> sim::Task<void> {
      for (uint64_t i = 0; i < n; ++i) {
        const bool ok = co_await call(i);
        if (!ok) ++*bad;
      }
    });
    sim.Run();
  });
}

class Ledger {
 public:
  explicit Ledger(std::vector<LedgerEntry>* out) : out_(out) {}

  void Add(const std::string& name, double v, const char* unit) {
    out_->push_back(LedgerEntry{name, v, unit});
    values_[name] = v;
  }
  void AddCall(const std::string& name, const PerCall& c) {
    Add(name, c.ns, "ns");
  }
  double operator[](const std::string& name) const {
    return values_.at(name);
  }

  // Round trips per op on an idle stack must be the paper's Table-1 count.
  void ExpectRt(const char* what, uint64_t rts, uint64_t ops, uint64_t per_op) {
    if (ops == 0 || rts != ops * per_op) {
      ++violations_;
      std::fprintf(stderr, "ledger: %s took %llu RT over %llu ops, want %llu/op\n",
                   what, static_cast<unsigned long long>(rts),
                   static_cast<unsigned long long>(ops),
                   static_cast<unsigned long long>(per_op));
    }
  }
  void Expect(bool ok, const char* what) {
    if (!ok) {
      ++violations_;
      std::fprintf(stderr, "ledger: %s failed\n", what);
    }
  }
  uint64_t violations() const { return violations_; }

 private:
  std::vector<LedgerEntry>* out_;
  std::map<std::string, double> values_;
  uint64_t violations_ = 0;
};

// Two hosts on the evaluation cluster's fabric.
struct TwoHosts {
  sim::Simulator sim;
  net::Fabric fabric{&sim, net::CostModel::EvalCluster40G()};
  net::HostId server = fabric.AddHost("server");
  net::HostId client = fabric.AddHost("client");
};

// One event at a time, as on an idle stack: schedule, then run to empty.
void SimLedger(Ledger& l) {
  sim::Simulator sim;
  uint64_t sink = 0;
  l.AddCall("sim.dispatch_ns", Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) {
        sim.Schedule(0, [&sink] { ++sink; });
        sim.Run();
      }
    });
  }));
  // A delay inside the timing wheel's horizon: the timer lane.
  l.AddCall("sim.timer_dispatch_ns", Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) {
        sim.Schedule(500, [&sink] { ++sink; });
        sim.Run();
      }
    });
  }));
  l.AddCall("sim.resume_ns", Measure([&](uint64_t n) {
    return TimeIt([&] {
      sim::Spawn([&sim, n]() -> sim::Task<void> {
        for (uint64_t i = 0; i < n; ++i) co_await sim::Yield(&sim);
      });
      sim.Run();
    });
  }));
  l.Expect(sink > 0, "sim dispatch");
}

void NetLedger(Ledger& l) {
  TwoHosts s;
  uint64_t delivered = 0;
  uint64_t sent = 0;
  l.AddCall("net.send_ns", Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) {
        s.fabric.Send(s.client, s.server, 512, [&delivered] { ++delivered; });
        s.sim.Run();
      }
      sent += n;
    });
  }));
  l.Expect(delivered == sent, "fabric delivery");
}

void RdmaLedger(Ledger& l) {
  TwoHosts s;
  rdma::AddressSpace mem(1 << 20);
  const rdma::MemoryRegion region =
      *mem.CarveAndRegister(64 << 10, rdma::kRemoteAll);
  mem.Store(region.base, Bytes(kValue, 0x42));
  uint64_t sink = 0;
  const PerCall verbs = Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) {
        auto r = rdma::Verbs::Read(mem, region.rkey, region.base, kValue);
        sink += r.ok() ? r->size() : 0;
      }
    });
  });
  l.AddCall("rdma.verbs_read_ns", verbs);
  l.Expect(sink > 0, "Verbs::Read");

  rdma::RdmaService svc(&s.fabric, s.server, rdma::Backend::kHardwareNic,
                        &mem);
  rdma::RdmaClient client(&s.fabric, s.client);
  uint64_t bad = 0;
  uint64_t calls = 0;
  auto read = [&](uint64_t) -> sim::Task<bool> {
    ++calls;
    auto r = co_await client.Read(&svc, region.rkey, region.base, kValue);
    co_return r.ok() && r->size() == kValue;
  };
  const PerCall rt =
      Measure([&](uint64_t n) { return RunCalls(s.sim, n, read, &bad); });
  l.AddCall("rdma.read_rt_ns", rt);
  l.Add("rdma.read_allocs", rt.allocs, "allocs/call");
  l.Expect(bad == 0, "RdmaClient::Read");
  l.ExpectRt("rdma read", client.tally().round_trips, calls, 1);
}

// The 3-op chain both PRISM rows use: WRITE 8 B, READ 512 B, CAS 8 B.
core::Chain ThreeOpChain(const rdma::MemoryRegion& region) {
  core::Chain chain;
  chain.push_back(core::Op::Write(region.rkey, region.base + 4096,
                                  BytesOfU64(7)));
  chain.push_back(core::Op::Read(region.rkey, region.base, kValue));
  chain.push_back(core::Op::Cas(region.rkey, region.base + 4096,
                                BytesOfU64(7)));
  return chain;
}

void PrismLedger(Ledger& l) {
  TwoHosts s;
  rdma::AddressSpace mem(1 << 20);
  const rdma::MemoryRegion region =
      *mem.CarveAndRegister(64 << 10, rdma::kRemoteAll);
  mem.Store(region.base, Bytes(kValue, 0x42));
  const core::Chain chain = ThreeOpChain(region);
  core::FreeListRegistry freelists;
  core::Executor executor(&mem, &freelists);
  uint64_t sink = 0;
  l.AddCall("prism.executor_ns", Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) {
        sink += core::ChainFullySucceeded(chain, executor.Execute(chain));
      }
    });
  }));
  l.Expect(sink > 0, "Executor::Execute");

  core::PrismServer server(&s.fabric, s.server, core::Deployment::kSoftware,
                           &mem);
  core::PrismClient client(&s.fabric, s.client);
  uint64_t bad = 0;
  uint64_t calls = 0;
  auto execute = [&](uint64_t) -> sim::Task<bool> {
    ++calls;
    core::Chain copy = chain;
    auto r = co_await client.Execute(&server, std::move(copy));
    co_return r.ok() && core::ChainFullySucceeded(chain, *r);
  };
  const PerCall rt =
      Measure([&](uint64_t n) { return RunCalls(s.sim, n, execute, &bad); });
  l.AddCall("prism.execute_rt_ns", rt);
  l.Add("prism.execute_allocs", rt.allocs, "allocs/call");
  // The smallest chain, one 512 B READ: what a PRISM-KV GET issues.
  auto read = [&](uint64_t) -> sim::Task<bool> {
    ++calls;
    auto r = co_await client.ExecuteOne(
        &server, core::Op::Read(region.rkey, region.base, kValue));
    co_return r.ok() && r->status.ok() && r->data.size() == kValue;
  };
  l.AddCall("prism.read_rt_ns", Measure([&](uint64_t n) {
    return RunCalls(s.sim, n, read, &bad);
  }));
  l.Expect(bad == 0, "PrismClient::Execute");
  l.ExpectRt("prism chain", client.tally().round_trips, calls, 1);
}

void RpcLedger(Ledger& l) {
  TwoHosts s;
  rpc::RpcServer server(&s.fabric, s.server);
  server.Register(1, [](const rpc::Message&) -> sim::Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(Bytes(kValue, 0x42), kValue + 16);
  });
  rpc::RpcClient client(&s.fabric, s.client);
  uint64_t bad = 0;
  uint64_t calls = 0;
  auto call = [&](uint64_t) -> sim::Task<bool> {
    ++calls;
    auto r = co_await client.Call(&server, 1, rpc::Message::Empty(24));
    co_return r.ok();
  };
  const PerCall rt =
      Measure([&](uint64_t n) { return RunCalls(s.sim, n, call, &bad); });
  l.AddCall("rpc.call_rt_ns", rt);
  l.Add("rpc.call_allocs", rt.allocs, "allocs/call");
  l.Expect(bad == 0, "RpcClient::Call");
  l.ExpectRt("rpc call", client.tally().round_trips, calls, 1);
}

template <typename Kv>
void KvLedger(Ledger& l) {
  const std::string name = Kv::kName;
  const PerCall load = Measure([&](uint64_t n) {
    TwoHosts s;
    auto server = Kv::MakeServer(&s.fabric, s.server, n);
    bool ok = true;
    const Cost c = TimeIt([&] {
      for (uint64_t k = 0; k < n; ++k) {
        ok &= server->LoadKey(BytesOfString(KeyOf(k)), Bytes(kValue, 0x11))
                  .ok();
      }
    });
    l.Expect(ok, "LoadKey");
    return c;
  });
  l.AddCall(name + ".load_key_ns", load);

  TwoHosts s;
  auto server = Kv::MakeServer(&s.fabric, s.server, kStoreKeys);
  for (uint64_t k = 0; k < kStoreKeys; ++k) {
    l.Expect(
        server->LoadKey(BytesOfString(KeyOf(k)), Bytes(kValue, 0x11)).ok(),
        "LoadKey");
  }
  typename Kv::Client client(&s.fabric, s.client, server.get());
  uint64_t bad = 0;
  uint64_t gets = 0;
  obs::TransportTally before = client.TransportTally();
  auto get = [&](uint64_t i) -> sim::Task<bool> {
    ++gets;
    auto v = co_await client.Get(KeyOf(i % kStoreKeys));
    co_return v.ok() && v->size() == kValue;
  };
  l.AddCall(name + ".get_ns", Measure([&](uint64_t n) {
    return RunCalls(s.sim, n, get, &bad);
  }));
  l.ExpectRt("kv GET", (client.TransportTally() - before).round_trips, gets,
             Kv::kGetRt);

  uint64_t puts = 0;
  before = client.TransportTally();
  auto put = [&](uint64_t i) -> sim::Task<bool> {
    ++puts;
    Status st = co_await client.Put(KeyOf(i % kStoreKeys), Bytes(kValue, 0x22));
    co_return st.ok();
  };
  l.AddCall(name + ".put_ns", Measure([&](uint64_t n) {
    const Cost c = RunCalls(s.sim, n, put, &bad);
    if constexpr (requires { client.FlushReclaim(); }) {
      client.FlushReclaim();
      s.sim.Run();
    }
    return c;
  }));
  l.ExpectRt("kv PUT", (client.TransportTally() - before).round_trips, puts,
             Kv::kPutRt);
  l.Expect(bad == 0, "kv ops");
}

// Replicated-store PUT on 3 replicas. Returns transport calls per PUT.
template <typename Cluster, typename Client, typename Opts>
double RsLedger(Ledger& l, const std::string& name, const Opts& opts,
                uint64_t table1_rt) {
  TwoHosts s;
  Cluster cluster(&s.fabric, 3, opts);
  Client client(&s.fabric, s.client, &cluster, 1);
  uint64_t bad = 0;
  uint64_t puts = 0;
  auto put = [&](uint64_t i) -> sim::Task<bool> {
    ++puts;
    Status st = co_await client.Put(i % kStoreKeys, Bytes(kValue, 0x33));
    co_return st.ok();
  };
  l.AddCall(name + ".put_ns", Measure([&](uint64_t n) {
    const Cost c = RunCalls(s.sim, n, put, &bad);
    if constexpr (requires { client.FlushReclaim(); }) {
      client.FlushReclaim();
      s.sim.Run();
    }
    return c;
  }));
  l.Expect(bad == 0, "rs PUT");
  l.ExpectRt("rs PUT", client.TransportTally().round_trips, puts,
             3 * table1_rt);
  return static_cast<double>(client.TransportTally().messages) /
         static_cast<double>(puts);
}

// YCSB-T read-modify-write. Returns the client's tally per RMW.
template <typename Cluster, typename Client, typename Opts>
obs::TransportTally TxLedger(Ledger& l, const std::string& name,
                             const Opts& opts, uint64_t* rmws) {
  TwoHosts s;
  Cluster cluster(&s.fabric, 1, opts);
  for (uint64_t k = 0; k < kStoreKeys; ++k) {
    l.Expect(cluster.LoadKey(k, Bytes(kValue, 0x11)).ok(), "tx LoadKey");
  }
  Client client(&s.fabric, s.client, &cluster, 1);
  uint64_t bad = 0;
  auto rmw = [&](uint64_t i) -> sim::Task<bool> {
    ++*rmws;
    auto txn = client.Begin();
    auto v = co_await client.Read(txn, i % kStoreKeys);
    if (!v.ok()) co_return false;
    Bytes updated = std::move(*v);
    updated[0] = static_cast<uint8_t>(updated[0] + 1);
    client.Write(txn, i % kStoreKeys, std::move(updated));
    Status st = co_await client.Commit(txn);
    co_return st.ok();
  };
  l.AddCall(name + ".rmw_ns", Measure([&](uint64_t n) {
    const Cost c = RunCalls(s.sim, n, rmw, &bad);
    if constexpr (requires { client.FlushReclaim(); }) {
      client.FlushReclaim();
      s.sim.Run();
    }
    return c;
  }));
  l.Expect(bad == 0, "tx RMW");
  return client.TransportTally();
}

}  // namespace

uint64_t RunLedger(std::vector<LedgerEntry>* out) {
  Ledger l(out);
  SimLedger(l);
  NetLedger(l);
  RdmaLedger(l);
  PrismLedger(l);
  RpcLedger(l);
  KvLedger<PilafKv>(l);
  KvLedger<PrismKv>(l);

  rs::AbdLockOptions abd;
  abd.n_blocks = kStoreKeys;
  const double abd_calls =
      RsLedger<rs::AbdLockCluster, rs::AbdLockClient>(l, "rs.abd", abd, 4);
  rs::PrismRsOptions prs;
  prs.n_blocks = kStoreKeys;
  prs.buffers_per_replica = kStoreKeys + 4096;
  const double prs_calls =
      RsLedger<rs::PrismRsCluster, rs::PrismRsClient>(l, "rs.prism", prs, 2);

  tx::FarmOptions farm;
  farm.keys_per_shard = kStoreKeys;
  uint64_t farm_rmws = 0;
  const obs::TransportTally farm_t =
      TxLedger<tx::FarmCluster, tx::FarmClient>(l, "tx.farm", farm,
                                                &farm_rmws);
  tx::PrismTxOptions ptx;
  ptx.keys_per_shard = kStoreKeys;
  ptx.buffers_per_shard = kStoreKeys + 4096;
  uint64_t ptx_rmws = 0;
  const obs::TransportTally ptx_t =
      TxLedger<tx::PrismTxCluster, tx::PrismTxClient>(l, "tx.prism", ptx,
                                                      &ptx_rmws);

  Bytes kib4(4096);
  for (size_t i = 0; i < kib4.size(); ++i) kib4[i] = static_cast<uint8_t>(i);
  uint64_t sink = 0;
  const PerCall crc = Measure([&](uint64_t n) {
    return TimeIt([&] {
      for (uint64_t i = 0; i < n; ++i) sink += Crc32(kib4);
    });
  });
  l.Add("common.crc32_ns_per_kib", crc.ns / 4, "ns/KiB");
  l.Expect(sink != 0, "Crc32");

  // Self time: a layer's call minus the nested calls it makes. FaRM's
  // RPCs are the calls that involve a server CPU (hardware-NIC verbs do
  // not); its other transport calls are one-sided verbs. PRISM chains
  // nested in an app op are charged at the one-READ chain, the cheapest
  // chain, so longer chains' extra ops count as the app's own time.
  const double farm_rpcs = static_cast<double>(farm_t.cpu_actions) /
                           static_cast<double>(farm_rmws);
  const double farm_verbs =
      static_cast<double>(farm_t.messages) / static_cast<double>(farm_rmws) -
      farm_rpcs;
  const double ptx_chains =
      static_cast<double>(ptx_t.messages) / static_cast<double>(ptx_rmws);
  const double send = l["net.send_ns"];
  const double read_rt = l["rdma.read_rt_ns"];
  const double chain_rt = l["prism.read_rt_ns"];
  const double rpc_rt = l["rpc.call_rt_ns"];
  l.Add("net.self_ns", send - l["sim.timer_dispatch_ns"], "ns");
  l.Add("rdma.self_ns", read_rt - 2 * send - l["rdma.verbs_read_ns"], "ns");
  l.Add("prism.self_ns",
        l["prism.execute_rt_ns"] - 2 * send - l["prism.executor_ns"], "ns");
  l.Add("rpc.self_ns", rpc_rt - 2 * send, "ns");
  l.Add("kv.pilaf.self_ns", l["kv.pilaf.get_ns"] - 2 * read_rt, "ns");
  l.Add("kv.prism.self_ns", l["kv.prism.get_ns"] - chain_rt, "ns");
  l.Add("rs.abd.self_ns", l["rs.abd.put_ns"] - abd_calls * read_rt, "ns");
  l.Add("rs.prism.self_ns", l["rs.prism.put_ns"] - prs_calls * chain_rt,
        "ns");
  l.Add("tx.farm.self_ns",
        l["tx.farm.rmw_ns"] - farm_verbs * read_rt - farm_rpcs * rpc_rt, "ns");
  l.Add("tx.prism.self_ns", l["tx.prism.rmw_ns"] - ptx_chains * chain_rt,
        "ns");
  return l.violations();
}

}  // namespace simbench
