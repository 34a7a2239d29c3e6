// PRISM chains over the simulated fabric, under three deployment models.
//
//   kSoftware           — the paper's prototype (§4.1): chains are steered to
//                         a dedicated server core which executes one primitive
//                         per sw_primitive; ~2.5 µs over hardware RDMA.
//   kHardwareProjected  — the §4.3 performance model of a PRISM NIC ASIC:
//                         base NIC processing plus one PCIe round trip per
//                         host-memory access (pointer chases, data DMA),
//                         on-NIC SRAM accesses nearly free.
//   kBlueField          — off-path SmartNIC: slow ARM cores and ~3 µs
//                         internal-RDMA access to host memory per touch.
//
// Semantics are identical across deployments (the same core::Executor runs
// each op); only timing differs. Ops of a chain execute in separate simulator
// events, so concurrent chains interleave at op granularity — matching the
// paper's contract that the enhanced CAS is atomic but chains and indirect
// dereferences are not.
//
// The service also owns the ALLOCATE machinery: free-list queues, the §3.2
// drain rule (buffers are re-posted only when no chain is in flight), and the
// on-NIC scratch region clients use for redirect targets.
#ifndef PRISM_SRC_PRISM_SERVICE_H_
#define PRISM_SRC_PRISM_SERVICE_H_

#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/prism/executor.h"
#include "src/prism/freelist.h"
#include "src/prism/op.h"
#include "src/prism/wire.h"
#include "src/rdma/exchange.h"
#include "src/rdma/memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::core {

enum class Deployment {
  kSoftware,
  kHardwareProjected,
  kBlueField,
};

inline std::string_view DeploymentName(Deployment d) {
  switch (d) {
    case Deployment::kSoftware: return "PRISM SW";
    case Deployment::kHardwareProjected: return "PRISM HW (proj.)";
    case Deployment::kBlueField: return "PRISM BlueField";
  }
  return "?";
}

class PrismServer {
 public:
  static constexpr uint64_t kOnNicBytes = 256 * 1024;  // ConnectX-5 (§4.2)

  PrismServer(net::Fabric* fabric, net::HostId host, Deployment deployment,
              rdma::AddressSpace* mem)
      : fabric_(fabric),
        host_(host),
        deployment_(deployment),
        mem_(mem),
        executor_(mem, &freelists_),
        nic_pipeline_(fabric->sim(), fabric->cost().nic_pipeline_units),
        bf_cores_(fabric->sim(), fabric->cost().bf_cores) {
    obs::MetricsRegistry& m = fabric->obs().metrics();
    const std::string& hn = fabric->HostName(host);
    chains_metric_ = m.AddCounter("prism", "chains_executed", hn);
    ops_metric_ = m.AddCounter("prism", "ops_executed", hn);
    host_reads_metric_ = m.AddCounter("prism", "host_reads", hn);
    host_writes_metric_ = m.AddCounter("prism", "host_writes", hn);
    on_nic_metric_ = m.AddCounter("prism", "on_nic_accesses", hn);
    auto region = mem->CarveAndRegister(kOnNicBytes, rdma::kRemoteAll,
                                        rdma::kOnNic);
    PRISM_CHECK(region.ok()) << region.status();
    on_nic_region_ = *region;
    on_nic_next_ = on_nic_region_.base;
  }

  net::HostId host() const { return host_; }
  Deployment deployment() const { return deployment_; }
  rdma::AddressSpace& memory() { return *mem_; }
  FreeListRegistry& freelists() { return freelists_; }
  Executor& executor() { return executor_; }
  const rdma::MemoryRegion& on_nic_region() const { return on_nic_region_; }

  // Hands out per-connection scratch space from the 256 KB on-NIC region
  // (32 B per connection suffices for all three applications, §4.2).
  Result<rdma::Addr> AllocateScratch(uint64_t bytes) {
    const uint64_t aligned = (bytes + 7) & ~uint64_t{7};
    if (on_nic_next_ + aligned >
        on_nic_region_.base + on_nic_region_.length) {
      return ResourceExhausted("on-NIC scratch exhausted");
    }
    rdma::Addr addr = on_nic_next_;
    on_nic_next_ += aligned;
    return addr;
  }

  // ---- free-list posting with the §3.2 drain rule ----

  // Posts buffers to a free list. The paper's rule: "recycled buffers only
  // be added back to the free list when concurrent NIC operations are
  // complete" — i.e. a post behaves like the write side of a reader-writer
  // lock: it waits for the chains in flight *at post time* (which might
  // still hold a stale pointer to the buffer) to finish, not for the NIC to
  // go idle. Implemented as an epoch barrier: the post flushes once every
  // chain with an id below the barrier has completed, i.e. once the oldest
  // unfinished chain id reaches it.
  void PostBuffer(uint32_t queue, rdma::Addr buffer) {
    if (oldest_chain_id_ == next_chain_id_) {
      PRISM_CHECK(freelists_.Post(queue, buffer).ok());
    } else {
      pending_posts_.push_back(PendingPost{next_chain_id_, queue, buffer});
    }
  }
  void PostBuffers(uint32_t queue, const std::vector<rdma::Addr>& buffers) {
    for (rdma::Addr b : buffers) PostBuffer(queue, b);
  }

  int in_flight() const { return in_flight_; }
  uint64_t chains_executed() const { return chains_executed_; }
  uint64_t ops_executed() const { return ops_executed_; }
  size_t deferred_posts() const { return pending_posts_.size(); }

 private:
  friend class PrismClient;

  // Per-op server-side processing cost under the current deployment, given
  // the op's access profile.
  sim::Duration OpCost(const Op& op, const AccessProfile& p) const {
    const net::CostModel& c = fabric_->cost();
    switch (deployment_) {
      case Deployment::kSoftware:
        if (op.code == OpCode::kSearch) {
          // The dedicated core streams through the haystack.
          return c.sw_primitive +
                 c.sw_scan_per_kb * static_cast<int64_t>(op.len / 1024 + 1);
        }
        return c.sw_primitive;
      case Deployment::kHardwareProjected: {
        sim::Duration cost = c.hw_chain_step;
        cost += p.host_reads * c.pcie_read_rtt;
        cost += p.host_writes * c.pcie_write;
        cost += p.on_nic * c.on_nic_mem_access;
        if (p.atomic) cost += c.atomic_overhead;
        if (op.code == OpCode::kAllocate) cost += c.hw_freelist_pop;
        return cost;
      }
      case Deployment::kBlueField:
        return c.bf_primitive +
               (p.host_reads + p.host_writes) * c.bf_host_mem_rtt +
               p.on_nic * c.on_nic_mem_access +
               (op.code == OpCode::kSearch
                    ? 4 * c.sw_scan_per_kb *
                          static_cast<int64_t>(op.len / 1024 + 1)
                    : 0);
    }
    return 0;
  }

  // Executes the chain with deployment-specific timing; fills results[i]
  // for op i. The ops live in the server body's closure and the results in
  // its frame; the body awaits this task, so both outlive it. `ctx` is the
  // prism.execute op's (Reply::ctx()).
  sim::Task<void> RunChain(std::span<const Op> chain, OpResult* results,
                           obs::Ctx ctx) {
    const obs::SpanId span = fabric_->obs().StartSpan(
        "prism.chain", "prism", host_, fabric_->sim()->Now(), ctx.span);
    const net::CostModel& c = fabric_->cost();
    ++in_flight_;
    const uint64_t chain_id = next_chain_id_++;
    chain_done_.push_back(false);
    // Admission: reach and hold the engine that runs the chain.
    switch (deployment_) {
      case Deployment::kSoftware:
        co_await sim::SleepFor(fabric_->sim(),
                               c.sw_ring_dma + c.sw_queue_delay);
        co_await fabric_->Cores(host_).Acquire();
        co_await sim::SleepFor(fabric_->sim(), c.sw_dispatch);
        break;
      case Deployment::kHardwareProjected:
        co_await nic_pipeline_.Acquire();
        co_await sim::SleepFor(fabric_->sim(), c.nic_process);
        break;
      case Deployment::kBlueField:
        co_await sim::SleepFor(fabric_->sim(), c.sw_ring_dma);
        co_await bf_cores_.Acquire();
        co_await sim::SleepFor(fabric_->sim(), c.bf_dispatch);
        break;
    }
    ChainContext chain_ctx;
    for (size_t i = 0; i < chain.size(); ++i) {
      // Charge the op's cost first, then apply its effect in this event —
      // concurrent chains interleave between ops, never inside one. The
      // profile depends only on the op and the on-NIC region, which never
      // moves, so one serves both the cost and the metrics.
      const Op& op = chain[i];
      const AccessProfile p = executor_.Profile(op);
      co_await sim::SleepFor(fabric_->sim(), OpCost(op, p));
      results[i] = executor_.ExecuteOne(op, chain_ctx);
      ops_executed_++;
      ops_metric_->Add();
      host_reads_metric_->Add(p.host_reads);
      host_writes_metric_->Add(p.host_writes);
      on_nic_metric_->Add(p.on_nic);
    }
    // Release the engine; the software paths then transmit the response.
    switch (deployment_) {
      case Deployment::kSoftware:
        fabric_->Cores(host_).Release();
        co_await sim::SleepFor(fabric_->sim(), c.sw_tx);
        break;
      case Deployment::kHardwareProjected:
        nic_pipeline_.Release();
        break;
      case Deployment::kBlueField:
        bf_cores_.Release();
        co_await sim::SleepFor(fabric_->sim(), c.sw_tx);
        break;
    }
    chains_executed_++;
    chains_metric_->Add();
    --in_flight_;
    chain_done_[chain_id - oldest_chain_id_] = true;
    while (!chain_done_.empty() && chain_done_.front()) {
      chain_done_.pop_front();
      ++oldest_chain_id_;
    }
    FlushPendingPosts();
    fabric_->obs().FinishSpan(span, fabric_->sim()->Now());
  }

  void FlushPendingPosts() {
    while (!pending_posts_.empty() &&
           pending_posts_.front().barrier <= oldest_chain_id_) {
      const PendingPost& p = pending_posts_.front();
      PRISM_CHECK(freelists_.Post(p.queue, p.buffer).ok());
      pending_posts_.pop_front();
    }
  }

  net::Fabric* fabric_;
  net::HostId host_;
  Deployment deployment_;
  rdma::AddressSpace* mem_;
  FreeListRegistry freelists_;
  Executor executor_;
  sim::ServiceQueue nic_pipeline_;
  sim::ServiceQueue bf_cores_;
  rdma::MemoryRegion on_nic_region_;
  rdma::Addr on_nic_next_ = 0;

  struct PendingPost {
    uint64_t barrier;  // flush once all chain ids < barrier completed
    uint32_t queue;
    rdma::Addr buffer;
  };

  obs::Counter* chains_metric_ = nullptr;
  obs::Counter* ops_metric_ = nullptr;
  obs::Counter* host_reads_metric_ = nullptr;
  obs::Counter* host_writes_metric_ = nullptr;
  obs::Counter* on_nic_metric_ = nullptr;

  int in_flight_ = 0;
  // Chain ids are issued in order; chain_done_[i] says whether chain
  // oldest_chain_id_ + i has finished. The window starts at the oldest
  // unfinished chain, so every chain below oldest_chain_id_ is done.
  uint64_t next_chain_id_ = 0;
  uint64_t oldest_chain_id_ = 0;
  std::deque<bool> chain_done_;
  uint64_t chains_executed_ = 0;
  uint64_t ops_executed_ = 0;
  std::deque<PendingPost> pending_posts_;
};

// Chains ride the RDMA verb path (rdma::Exchange: tally(), set_batcher()).
class PrismClient : public rdma::Exchange {
 public:
  PrismClient(net::Fabric* fabric, net::HostId self)
      : Exchange(fabric, self, "prism") {}

  // Executes a chain in one round trip. The ChainResult has one entry per op
  // (skipped conditional ops are marked executed=false). SW and BlueField
  // chains burn a (server or SmartNIC) core; the projected ASIC does not.
  // The chain rides in the server body's closure, inside the exchange's op
  // state, and its results in the body's frame.
  sim::Task<Result<ChainResult>> Execute(PrismServer* server, Chain chain,
                                         obs::Ctx ctx = {}) {
    const size_t req_bytes = EncodedChainSize(chain);
    return Run<Result<ChainResult>>(
        "prism.execute", server->host(), req_bytes, OnCpu(server),
        [server, chain = std::move(chain)](
            Reply<Result<ChainResult>> reply) -> sim::Task<void> {
          ChainResult results(chain.size());
          co_await server->RunChain(chain, results.data(), reply.ctx());
          const size_t resp_bytes = ActualResponseSize(chain, results);
          reply(std::move(results), resp_bytes);
        },
        ctx);
  }

  // A one-op chain, held as the op itself: no chain or result vector.
  sim::Task<Result<OpResult>> ExecuteOne(PrismServer* server, Op op,
                                         obs::Ctx ctx = {}) {
    const size_t req_bytes = EncodedChainSize({&op, 1});
    return Run<Result<OpResult>>(
        "prism.execute", server->host(), req_bytes, OnCpu(server),
        [server, op = std::move(op)](
            Reply<Result<OpResult>> reply) -> sim::Task<void> {
          OpResult result;
          co_await server->RunChain({&op, 1}, &result, reply.ctx());
          const size_t resp_bytes = ActualResponseSize({&op, 1}, {&result, 1});
          reply(std::move(result), resp_bytes);
        },
        ctx);
  }

 private:
  static bool OnCpu(const PrismServer* server) {
    return server->deployment() != Deployment::kHardwareProjected;
  }
};

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_SERVICE_H_
