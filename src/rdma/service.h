// One-sided RDMA operations over the simulated fabric.
//
// RdmaService is the server-side entity that executes one-sided verbs
// against the host's AddressSpace. Two backends:
//
//   kHardwareNic    — the classic RDMA path: a NIC pipeline slot, PCIe DMA
//                     to host memory, no CPU. Calibrated to 2.5 µs per op on
//                     the direct-link testbed (paper Fig. 1).
//   kSoftwareStack  — a Snap-style software implementation: the op is DMA'd
//                     to a ring and executed by a dedicated server core,
//                     adding the paper's ~2.5 µs software premium. Used for
//                     the "(software RDMA)" baseline variants in Figs. 3–10.
//
// RdmaClient provides awaitable verbs. Implementation note: each verb is one
// Exchange round trip (src/rdma/exchange.h) and supplies only its request
// bytes, whether the backend burns a CPU, and a server body. ServerPath only
// *charges time*; the body applies the memory effect after awaiting it.
#ifndef PRISM_SRC_RDMA_SERVICE_H_
#define PRISM_SRC_RDMA_SERVICE_H_

#include <coroutine>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/rdma/exchange.h"
#include "src/rdma/memory.h"
#include "src/rdma/verbs.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rdma {

enum class Backend {
  kHardwareNic,
  kSoftwareStack,
};

class RdmaService {
  struct SourceOrder;  // per-source atomic ordering state, below

 public:
  RdmaService(net::Fabric* fabric, net::HostId host, Backend backend,
              AddressSpace* mem)
      : fabric_(fabric),
        host_(host),
        backend_(backend),
        mem_(mem),
        nic_pipeline_(fabric->sim(), fabric->cost().nic_pipeline_units),
        ops_metric_(fabric->obs().metrics().AddCounter(
            "rdma", "server_ops", fabric->HostName(host))) {}

  net::HostId host() const { return host_; }
  Backend backend() const { return backend_; }
  AddressSpace& memory() { return *mem_; }
  uint64_t ops_executed() const { return ops_executed_; }

  // Charges the server-side datapath cost for one op: NIC pipeline + PCIe on
  // the hardware backend, ring DMA + a dedicated core on the software one.
  // The caller performs the memory effect after this resumes. `ctx` is the
  // verb's (Reply::ctx()).
  sim::Task<void> ServerPath(sim::Duration memory_cost, obs::Ctx ctx) {
    const obs::SpanId span = fabric_->obs().StartSpan(
        "rdma.server", "rdma", host_, fabric_->sim()->Now(), ctx.span);
    const net::CostModel& c = fabric_->cost();
    if (backend_ == Backend::kHardwareNic) {
      co_await nic_pipeline_.Use(c.nic_process);
      co_await sim::SleepFor(fabric_->sim(), memory_cost);
    } else {
      co_await sim::SleepFor(fabric_->sim(),
                             c.sw_ring_dma + c.sw_queue_delay);
      co_await fabric_->Cores(host_).Use(c.sw_dispatch + c.sw_primitive);
      co_await sim::SleepFor(fabric_->sim(), c.sw_tx);
    }
    ops_executed_++;
    ops_metric_->Add();
    fabric_->obs().FinishSpan(span, fabric_->sim()->Now());
  }

  // ---- Same-QP ordering around atomics ---------------------------------
  //
  // Real RNIC responders execute a QP's inbound requests in PSN order. The
  // model relaxes that so the multi-unit NIC pipeline can overlap cheap
  // READs with expensive ops from the same source — EXCEPT around atomics:
  // an atomic is an ordering point, and every request from the same source
  // host that *arrives after* an in-flight atomic begins execution only
  // once that atomic's memory effect has landed. Without this fence a
  // doorbell-batched [CAS; dependent READ] pair reorders at the responder
  // (the CAS pays atomic_overhead, the READ does not) and the READ observes
  // pre-CAS memory — an outcome no hardware QP can produce (qp_test pins
  // it). Plain READ/WRITE pairs still pipeline freely, so open-loop pools
  // that multiplex many workers over one client are not serialized.
  //
  // Atomics from one source therefore execute one at a time in arrival
  // order and land in that order, so per source two counters say which have
  // landed: a request waits until `landed` reaches the number of atomics
  // from its source that began before it.
  struct AtomicFence {
    bool await_ready() const noexcept { return order->landed >= need; }
    void await_suspend(std::coroutine_handle<> h) const {
      order->parked.push_back({need, h});
    }
    void await_resume() const noexcept {}
    SourceOrder* order;
    uint64_t need;
  };

  // Called by an atomic verb, synchronously at request delivery (so arrival
  // order matches PSN order): the fence behind every earlier atomic from
  // the same source. The verb calls AtomicLand once its effect is in place.
  AtomicFence AtomicBegin(net::HostId src) {
    SourceOrder& o = OrderOf(src);
    return {&o, o.begun++};
  }

  // Called by a non-atomic verb, synchronously at request delivery: the
  // fence behind every atomic from the same source begun so far.
  AtomicFence AtomicGate(net::HostId src) {
    SourceOrder& o = OrderOf(src);
    return {&o, o.begun};
  }

  // The oldest unlanded atomic from `src` has landed: resumes, in arrival
  // order, the requests that waited for it.
  void AtomicLand(net::HostId src) {
    SourceOrder& o = order_[src];
    ++o.landed;
    auto ready = o.parked.begin();
    while (ready != o.parked.end() && ready->need <= o.landed) {
      fabric_->sim()->Resume(ready->waiter);
      ++ready;
    }
    o.parked.erase(o.parked.begin(), ready);  // keeps its capacity
  }

 private:
  net::Fabric* fabric_;
  net::HostId host_;
  Backend backend_;
  AddressSpace* mem_;
  sim::ServiceQueue nic_pipeline_;
  obs::Counter* ops_metric_;
  uint64_t ops_executed_ = 0;
  // The atomic ordering state of each source host, indexed by HostId.
  struct SourceOrder {
    struct Parked {
      uint64_t need;  // resume once `landed` reaches this
      std::coroutine_handle<> waiter;
    };
    uint64_t begun = 0;
    uint64_t landed = 0;
    std::vector<Parked> parked;  // in arrival order; `need` never decreases
  };

  SourceOrder& OrderOf(net::HostId src) {
    if (src >= order_.size()) order_.resize(src + 1);
    return order_[src];
  }

  std::vector<SourceOrder> order_;
};

class RdmaClient : public Exchange {
 public:
  RdmaClient(net::Fabric* fabric, net::HostId self)
      : Exchange(fabric, self, "rdma") {}

  sim::Task<Result<Bytes>> Read(RdmaService* svc, RKey rkey, Addr addr,
                                uint64_t len, obs::Ctx ctx = {}) {
    return Run<Result<Bytes>>(
        "rdma.read", svc->host(), /*req_bytes=*/16, OnCpu(svc),
        [this, svc, rkey, addr,
         len](Reply<Result<Bytes>> reply) -> sim::Task<void> {
          co_await svc->AtomicGate(host());
          co_await svc->ServerPath(cost().pcie_read_rtt, reply.ctx());
          Result<Bytes> r = Verbs::Read(svc->memory(), rkey, addr, len);
          const size_t n = r.ok() ? r.value().size() : 0;
          reply(std::move(r), n);
        },
        ctx);
  }

  // `data` is held by the server body, so a payload shared by several
  // WRITEs (a quorum round's) is one block, and a body that outlives its op
  // still stores from live bytes.
  sim::Task<Status> Write(RdmaService* svc, RKey rkey, Addr addr,
                          SmallBytes data, obs::Ctx ctx = {}) {
    const size_t req_bytes = 16 + data.size();
    return Run<Status>(
        "rdma.write", svc->host(), req_bytes, OnCpu(svc),
        [this, svc, rkey, addr,
         data = std::move(data)](Reply<Status> reply) -> sim::Task<void> {
          co_await svc->AtomicGate(host());
          co_await svc->ServerPath(cost().pcie_write, reply.ctx());
          reply(Verbs::Write(svc->memory(), rkey, addr, data.view()),
                /*bytes=*/0);
        },
        ctx);
  }

  sim::Task<Result<uint64_t>> CompareSwap(RdmaService* svc, RKey rkey,
                                          Addr addr, uint64_t compare,
                                          uint64_t swap, obs::Ctx ctx = {}) {
    return Run<Result<uint64_t>>(
        "rdma.cas", svc->host(), /*req_bytes=*/32, OnCpu(svc),
        [this, svc, rkey, addr, compare,
         swap](Reply<Result<uint64_t>> reply) -> sim::Task<void> {
          co_await svc->AtomicBegin(host());
          co_await svc->ServerPath(AtomicCost(), reply.ctx());
          Result<uint64_t> r =
              Verbs::CompareSwap(svc->memory(), rkey, addr, compare, swap);
          svc->AtomicLand(host());
          reply(std::move(r), /*bytes=*/8);
        },
        ctx);
  }

  sim::Task<Result<uint64_t>> FetchAdd(RdmaService* svc, RKey rkey, Addr addr,
                                       uint64_t delta, obs::Ctx ctx = {}) {
    return Run<Result<uint64_t>>(
        "rdma.faa", svc->host(), /*req_bytes=*/24, OnCpu(svc),
        [this, svc, rkey, addr,
         delta](Reply<Result<uint64_t>> reply) -> sim::Task<void> {
          co_await svc->AtomicBegin(host());
          co_await svc->ServerPath(AtomicCost(), reply.ctx());
          Result<uint64_t> r =
              Verbs::FetchAdd(svc->memory(), rkey, addr, delta);
          svc->AtomicLand(host());
          reply(std::move(r), /*bytes=*/8);
        },
        ctx);
  }

 private:
  // Only the software stack's server time burns a core.
  static bool OnCpu(const RdmaService* svc) {
    return svc->backend() == Backend::kSoftwareStack;
  }
  sim::Duration AtomicCost() const {
    return cost().pcie_read_rtt + cost().atomic_overhead;
  }
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_SERVICE_H_
