// Exact span parentage under concurrency (src/obs/obs.h, DESIGN.md §5.4).
// Every stack runs one multi-client open-loop cell with a span tracer and
// phase timelines attached, and no faults: two client hosts, each with its
// own pool of four workers, so ops interleave at event granularity. A span
// parented through anything but its own op's ctx would then start a tree of
// its own or land in a sibling op's tree. For every finished span, following
// its parent links:
//
//  * no transport, server or fabric span (rdma, prism, rpc, net) is a root;
//  * its chain ends at an app-op span, and it starts inside that op's
//    interval. Work the op leaves behind (a quorum straggler's reclamation
//    flight) may start after the op ends, but only once its own parent has
//    ended too;
//  * its recorded root is that op, so Perfetto draws it on the op's track
//    and the op's exemplar tree includes it, left-behind work too;
//  * where clients issue from their pool's host (every stack but
//    consensus, whose chains issue from the leader's host), a span the app
//    op parents directly runs on the op's own host.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/consensus/consensus.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/simulator.h"
#include "src/sync/sync.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/workload/open_loop.h"

namespace prism {
namespace {

using sim::Task;
using AddClients =
    std::function<void(workload::OpenLoopPool&, net::HostId, int)>;

constexpr int kClientHosts = 2;

// Builds the stack's servers on `fabric` (running any setup traffic before
// the tracer attaches), then one pool per client host whose op classes
// `setup`'s returned callable registers. Runs the cell to quiescence and
// checks every span the tracer kept.
template <typename Setup>
void CheckCell(const std::string& what, bool clients_on_pool_host,
               const Setup& setup) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  const AddClients add_clients = setup(fabric);
  sim.Run();  // untraced setup (elections, preloads)

  obs::Tracer tracer;
  obs::TimelineStore store;
  fabric.AttachTracer(&tracer);
  store.SetTracer(&tracer);
  std::vector<std::unique_ptr<workload::OpenLoopPool>> pools;
  for (int h = 0; h < kClientHosts; ++h) {
    const net::HostId host = fabric.AddHost("client-" + std::to_string(h));
    workload::PoolOptions popts;
    popts.workers = 4;
    pools.push_back(std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec::Poisson(4e5), 8, Rng(300 + h), popts));
    add_clients(*pools.back(), host, h);
    pools.back()->set_timelines(&store, &fabric.obs(), host);
  }
  const sim::TimePoint start = sim.Now() + sim::Micros(10);
  for (auto& pool : pools) pool->Start(start, start + sim::Micros(150));
  sim.Run();
  for (auto& pool : pools) pool->CheckDrained();

  ASSERT_EQ(tracer.dropped_count(), 0u) << what;
  ASSERT_EQ(tracer.open_count(), 0u) << what;
  std::unordered_map<obs::SpanId, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : tracer.finished()) by_id[s.id] = &s;

  // The app op at the top of a span's parent chain; null if the chain is
  // broken or ends elsewhere.
  auto op_of = [&](const obs::SpanRecord& s) -> const obs::SpanRecord* {
    const obs::SpanRecord* at = &s;
    while (at->parent != 0) {
      auto it = by_id.find(at->parent);
      if (it == by_id.end()) return nullptr;
      at = it->second;
    }
    return at->cat == "app" ? at : nullptr;
  };

  // Offending spans of one kind: how many, and the first one's name.
  struct Offenders {
    uint64_t count = 0;
    std::string example;
  };
  uint64_t ops = 0, spans = 0;
  Offenders roots, foreign, outside, misrooted, off_host;
  auto note = [](Offenders* o, const obs::SpanRecord& s) {
    if (o->count++ == 0) {
      o->example = s.name + " on host " + std::to_string(s.host);
    }
  };
  for (const obs::SpanRecord& s : tracer.finished()) {
    if (s.cat == "app") {
      EXPECT_EQ(s.parent, 0u) << what << ": app span " << s.name;
      ++ops;
      continue;
    }
    ++spans;
    if (s.parent == 0) {
      note(&roots, s);
      continue;
    }
    const obs::SpanRecord* op = op_of(s);
    if (op == nullptr) {
      note(&foreign, s);
      continue;
    }
    if (s.root != op->id) note(&misrooted, s);
    const bool left_behind = by_id[s.parent]->end_ns <= s.start_ns;
    if (s.start_ns < op->start_ns ||
        (s.start_ns > op->end_ns && !left_behind)) {
      note(&outside, s);
    }
    if (clients_on_pool_host && s.parent == op->id && s.host != op->host) {
      note(&off_host, s);
    }
  }
  EXPECT_GT(ops, 20u) << what;
  EXPECT_GT(spans, ops) << what;
  EXPECT_EQ(roots.count, 0u) << what << ": transport/server/net spans "
                             << "that are roots, e.g. " << roots.example;
  EXPECT_EQ(foreign.count, 0u) << what << ": spans whose parent chain does "
                               << "not end at an app op, e.g. "
                               << foreign.example;
  EXPECT_EQ(outside.count, 0u) << what << ": spans that start outside "
                               << "their op's interval, e.g. "
                               << outside.example;
  EXPECT_EQ(misrooted.count, 0u) << what << ": spans whose recorded root "
                                 << "is not their op, e.g. "
                                 << misrooted.example;
  EXPECT_EQ(off_host.count, 0u) << what << ": op children on another "
                                << "client host, e.g. " << off_host.example;
}

std::string DenseKey(uint64_t k) {
  std::string key(8, '\0');
  StoreU64(reinterpret_cast<uint8_t*>(key.data()), k);
  return key;
}

TEST(SpanParentageTest, PrismKv) {
  CheckCell("prism-kv", true, [](net::Fabric& fabric) -> AddClients {
    kv::PrismKvOptions opts;
    opts.n_buckets = 256;
    opts.n_buffers = 1024;
    auto server = std::make_shared<kv::PrismKvServer>(
        &fabric, fabric.AddHost("kv-server"), opts);
    return [&fabric, server](workload::OpenLoopPool& pool, net::HostId host,
                             int) {
      auto client =
          std::make_shared<kv::PrismKvClient>(&fabric, host, server.get());
      pool.AddClass("kv.get", 0.5,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r =
                          co_await client->Get("k" + std::to_string(d % 8));
                      (void)r;  // misses race the puts
                    });
      pool.AddClass("kv.put", 0.5,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s = co_await client->Put(
                          "k" + std::to_string(d % 8),
                          Bytes(64, static_cast<uint8_t>(d % 7)));
                      PRISM_CHECK(s.ok()) << s;
                    });
    };
  });
}

TEST(SpanParentageTest, Pilaf) {
  CheckCell("pilaf", true, [](net::Fabric& fabric) -> AddClients {
    kv::PilafOptions opts;
    opts.n_buckets = 64;
    opts.n_extents = 256;
    opts.dense_key_hash = true;
    auto server = std::make_shared<kv::PilafServer>(
        &fabric, fabric.AddHost("pilaf-server"), opts);
    for (uint64_t k = 0; k < 8; ++k) {
      PRISM_CHECK(
          server->LoadKey(BytesOfString(DenseKey(k)), Bytes(32, 1)).ok());
    }
    return [&fabric, server](workload::OpenLoopPool& pool, net::HostId host,
                             int) {
      auto client =
          std::make_shared<kv::PilafClient>(&fabric, host, server.get());
      pool.AddClass("kv.get", 0.7,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await client->Get(DenseKey(d % 8));
                      (void)r;  // a torn read may run out of retries
                    });
      pool.AddClass("kv.put", 0.3,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s =
                          co_await client->Put(DenseKey(d % 8), Bytes(32, 2));
                      PRISM_CHECK(s.ok()) << s;
                    });
    };
  });
}

TEST(SpanParentageTest, PrismRs) {
  CheckCell("prism-rs", true, [](net::Fabric& fabric) -> AddClients {
    rs::PrismRsOptions opts;
    opts.n_blocks = 16;
    opts.buffers_per_replica = 1024;
    auto cluster = std::make_shared<rs::PrismRsCluster>(&fabric, 3, opts);
    return [&fabric, cluster](workload::OpenLoopPool& pool, net::HostId host,
                              int h) {
      auto client = std::make_shared<rs::PrismRsClient>(
          &fabric, host, cluster.get(), static_cast<uint16_t>(h + 1));
      const uint64_t size = cluster->options().block_size;
      pool.AddClass("rs.get", 0.5,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await client->Get(d % 8);
                      PRISM_CHECK(r.ok()) << r.status();
                    });
      pool.AddClass("rs.put", 0.5,
                    [client, size](uint64_t d,
                                   obs::OpTimeline*) -> Task<void> {
                      Status s = co_await client->Put(d % 8, Bytes(size, 3));
                      PRISM_CHECK(s.ok()) << s;
                    });
    };
  });
}

TEST(SpanParentageTest, AbdLock) {
  CheckCell("abd-lock", true, [](net::Fabric& fabric) -> AddClients {
    rs::AbdLockOptions opts;
    opts.n_blocks = 16;
    auto cluster = std::make_shared<rs::AbdLockCluster>(&fabric, 3, opts);
    return [&fabric, cluster](workload::OpenLoopPool& pool, net::HostId host,
                              int h) {
      auto client = std::make_shared<rs::AbdLockClient>(
          &fabric, host, cluster.get(), static_cast<uint16_t>(h + 1));
      const uint64_t size = cluster->options().block_size;
      pool.AddClass("abd.get", 0.5,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await client->Get(d % 8);
                      (void)r;  // kAborted: lost every lock race
                    });
      pool.AddClass("abd.put", 0.5,
                    [client, size](uint64_t d,
                                   obs::OpTimeline*) -> Task<void> {
                      Status s = co_await client->Put(d % 8, Bytes(size, 4));
                      (void)s;
                    });
    };
  });
}

// One YCSB-T style read-modify-write per op, on either transaction stack.
template <typename Client>
Task<void> Rmw(Client* client, uint64_t d) {
  auto txn = client->Begin();
  auto v = co_await client->Read(txn, 1 + d % 6);
  if (!v.ok()) co_return;
  client->Write(txn, 1 + d % 6, Bytes(v->size(), static_cast<uint8_t>(d)));
  Status s = co_await client->Commit(txn);
  (void)s;  // aborts under contention are expected
}

TEST(SpanParentageTest, PrismTx) {
  CheckCell("prism-tx", true, [](net::Fabric& fabric) -> AddClients {
    auto cluster = std::make_shared<tx::PrismTxCluster>(
        &fabric, 2, tx::PrismTxOptions{});
    for (uint64_t k = 1; k <= 6; ++k) {
      PRISM_CHECK(cluster->LoadKey(k, Bytes(64, 5)).ok());
    }
    return [&fabric, cluster](workload::OpenLoopPool& pool, net::HostId host,
                              int h) {
      auto client = std::make_shared<tx::PrismTxClient>(
          &fabric, host, cluster.get(), static_cast<uint16_t>(h + 1));
      pool.AddClass("tx.rmw", 1.0,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      co_await Rmw(client.get(), d);
                    });
    };
  });
}

TEST(SpanParentageTest, Farm) {
  CheckCell("farm", true, [](net::Fabric& fabric) -> AddClients {
    tx::FarmOptions opts;
    opts.keys_per_shard = 64;
    opts.value_size = 64;
    auto cluster = std::make_shared<tx::FarmCluster>(&fabric, 2, opts);
    for (uint64_t k = 1; k <= 6; ++k) {
      PRISM_CHECK(cluster->LoadKey(k, Bytes(64, 6)).ok());
    }
    return [&fabric, cluster](workload::OpenLoopPool& pool, net::HostId host,
                              int h) {
      auto client = std::make_shared<tx::FarmClient>(
          &fabric, host, cluster.get(), static_cast<uint16_t>(h + 1));
      pool.AddClass("tx.rmw", 1.0,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      co_await Rmw(client.get(), d);
                    });
    };
  });
}

TEST(SpanParentageTest, SyncSchemes) {
  for (sync::SyncScheme scheme :
       {sync::SyncScheme::kSpinlock, sync::SyncScheme::kOptimistic,
        sync::SyncScheme::kLease, sync::SyncScheme::kPrismNative,
        sync::SyncScheme::kUnfencedBuggy}) {
    const std::string what = "sync " + std::string(sync::SchemeName(scheme));
    CheckCell(what, true, [scheme](net::Fabric& fabric) -> AddClients {
      auto server = std::make_shared<sync::SyncIndexServer>(
          &fabric, fabric.AddHost("index"), sync::SyncOptions{});
      for (uint64_t k = 1; k <= 4; ++k) {
        PRISM_CHECK(server->LoadKey(k, sync::InitialValue()).ok());
      }
      return [&fabric, server, scheme](workload::OpenLoopPool& pool,
                                       net::HostId host, int h) {
        auto client = std::make_shared<sync::SyncClient>(
            &fabric, host, server.get(), scheme,
            static_cast<uint16_t>(h + 1), /*rng_seed=*/70 + h);
        pool.AddClass("sync.read", 0.5,
                      [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                        auto r = co_await client->Read(1 + d % 4);
                        (void)r;  // kAborted: lost every lock race
                      });
        pool.AddClass("sync.update", 0.5,
                      [client, h](uint64_t d, obs::OpTimeline*) -> Task<void> {
                        Status s = co_await client->Update(
                            1 + d % 4,
                            sync::MakeValue(1, h, static_cast<int>(d % 64)));
                        (void)s;
                      });
      };
    });
  }
}

TEST(SpanParentageTest, Consensus) {
  CheckCell("consensus", false, [](net::Fabric& fabric) -> AddClients {
    std::vector<net::HostId> hosts;
    for (int r = 0; r < 3; ++r) {
      hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
    }
    auto cluster = std::make_shared<consensus::ConsensusCluster>(
        &fabric, hosts, consensus::ConsensusOptions{});
    sim::Spawn([cluster]() -> Task<void> {
      auto won = co_await cluster->Failover(0, {});
      PRISM_CHECK(won.ok()) << won.status();
    });
    return [cluster](workload::OpenLoopPool& pool, net::HostId, int h) {
      auto client = std::make_shared<consensus::ConsensusClient>(
          cluster.get(), static_cast<uint16_t>(h + 1), /*rng_seed=*/90 + h);
      pool.AddClass("cons.put", 0.5,
                    [client, h](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      Status s = co_await client->Put(
                          1 + d % 4, consensus::MakeValue(
                                         2, h, static_cast<int>(d % 64)));
                      PRISM_CHECK(s.ok()) << s;
                    });
      pool.AddClass("cons.get", 0.5,
                    [client](uint64_t d, obs::OpTimeline*) -> Task<void> {
                      auto r = co_await client->Get(1 + d % 4);
                      (void)r;  // kNotFound before the key's first put
                    });
    };
  });
}

}  // namespace
}  // namespace prism
