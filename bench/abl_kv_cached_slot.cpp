// Ablation A4: PRISM-KV PUT with a cached hash-table slot (§6.2's remark).
//
// The stock PUT spends round trip 1 probing the slot (and learning the old
// buffer address). A read-modify-write client already knows both from its
// preceding GET, so the install chain alone suffices — the paper notes this
// halves PUT latency for RMW workloads. This bench measures GET, stock PUT
// (2 RTs), and cached-slot PUT (1 RT).
#include <cstdio>

#include "bench/bench_common.h"
#include "src/kv/prism_kv.h"

namespace prism {
namespace {

using core::Chain;
using core::Op;
using sim::Task;
using sim::ToMicros;

}  // namespace
}  // namespace prism

int main() {
  using namespace prism;
  using bench::KeyOf;
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  kv::PrismKvOptions opts;
  opts.n_buckets = 1024;
  opts.n_buffers = 4096;
  opts.dense_key_hash = true;
  kv::PrismKvServer server(&fabric, server_host, opts);
  net::HostId client_host = fabric.AddHost("client");
  kv::PrismKvClient client(&fabric, client_host, &server);
  core::PrismClient raw(&fabric, client_host);
  rdma::Addr scratch = *server.prism().AllocateScratch(16);

  const int iters = 32;
  double get_us = 0, put_us = 0, cached_put_us = 0;
  sim::Spawn([&]() -> Task<void> {
    (void)co_await client.Put(KeyOf(1), Bytes(512, 1));
    for (int i = 0; i < iters; ++i) {
      sim::TimePoint t0 = sim.Now();
      auto v = co_await client.Get(KeyOf(1));
      PRISM_CHECK(v.ok());
      get_us += ToMicros(sim.Now() - t0);

      t0 = sim.Now();
      PRISM_CHECK((co_await client.Put(KeyOf(1), Bytes(512, 2))).ok());
      put_us += ToMicros(sim.Now() - t0);

      // Cached-slot PUT: the client remembers the bucket and current buffer
      // address (from a preceding read, here read server-side for brevity)
      // and issues only the install chain.
      const uint64_t bucket = server.HashBucket(BytesOfString(KeyOf(1)));
      const rdma::Addr old_ptr =
          server.memory().LoadWord(server.slot_addr(bucket));
      SmallBytes record = kv::EncodeRecord(BytesOfString(KeyOf(1)),
                                           Bytes(512, 3));
      t0 = sim.Now();
      Chain chain;
      chain.push_back(Op::Write(server.rkey(), scratch + 8,
                                BytesOfU64(record.size())));
      chain.push_back(Op::Allocate(server.rkey(), server.freelist(), record)
                          .RedirectTo(scratch)
                          .Conditional());
      Op install = Op::CompareSwapCas(
          server.rkey(), server.slot_addr(bucket),
          SmallBytes::OfU64Pair(old_ptr, 0), BytesOfU64(scratch),
          FieldMask(16, 0, 8), FieldMask(16, 0, 16));
      install.data_indirect = true;
      install.conditional = true;
      chain.push_back(std::move(install));
      auto r = co_await raw.Execute(&server.prism(), std::move(chain));
      PRISM_CHECK(r.ok());
      PRISM_CHECK((*r)[2].cas_swapped);
      cached_put_us += ToMicros(sim.Now() - t0);
    }
  });
  sim.Run();

  std::printf("== Ablation A4: PRISM-KV PUT with cached slot (§6.2) ==\n");
  std::printf("GET (1 RT):             %6.2f us\n", get_us / iters);
  std::printf("PUT, stock (2 RTs):     %6.2f us\n", put_us / iters);
  std::printf("PUT, cached slot (1 RT):%6.2f us   <- read-modify-write "
              "workloads skip the probe\n",
              cached_put_us / iters);
  return 0;
}
