// Two-sided RDMA: queue pairs, SEND/RECV, and shared receive queues.
//
// §4.2 grounds PRISM's ALLOCATE in this machinery: "its behavior closely
// resembles traditional SEND/RECEIVE functionality, where the NIC allocates
// a buffer from a receive queue to write an incoming message; existing SRQ
// functionality allows multiple connections to share a receive queue."
// This module implements that substrate explicitly:
//
//  * ReceiveQueue — a queue of posted receive buffers (addr, capacity). An
//    incoming SEND pops the head buffer, DMAs the message into it, and
//    produces a completion ⟨buffer, length⟩. No buffer posted ⇒ RNR NACK,
//    exactly the failure mode ALLOCATE inherits (§3.2 / freelist.h).
//  * SharedReceiveQueue — the same queue shared by many QPs.
//  * QueuePair — a connected endpoint: Send() transmits to the peer QP,
//    whose receive side (own RQ or attached SRQ) lands the message;
//    completions are consumed with AwaitRecv().
//
// Timing rides the same fabric model as everything else; the receive-side
// DMA charges pcie_write like any NIC write of host memory.
#ifndef PRISM_SRC_RDMA_QP_H_
#define PRISM_SRC_RDMA_QP_H_

#include <deque>
#include <memory>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/rdma/memory.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rdma {

// A completed receive: where the message landed and how long it is.
struct RecvCompletion {
  Addr buffer = 0;
  uint64_t length = 0;
  uint32_t src_qp = 0;  // sender's QP number
};

// Posted receive buffers, popped in FIFO order by incoming SENDs.
class ReceiveQueue {
 public:
  explicit ReceiveQueue(AddressSpace* mem) : mem_(mem) {}

  // Posts a buffer of `capacity` bytes at `addr` for one incoming message.
  void PostRecv(Addr addr, uint64_t capacity) {
    buffers_.push_back({addr, capacity});
  }

  size_t posted() const { return buffers_.size(); }
  uint64_t rnr_nacks() const { return rnr_nacks_; }

  // Consumes the head buffer for a `length`-byte message; kResourceExhausted
  // (RNR) when empty or the message does not fit the head buffer.
  Result<Addr> Consume(uint64_t length) {
    if (buffers_.empty()) {
      rnr_nacks_++;
      return ResourceExhausted("receiver not ready (no posted buffers)");
    }
    if (length > buffers_.front().capacity) {
      rnr_nacks_++;
      return ResourceExhausted("posted buffer too small");
    }
    Addr addr = buffers_.front().addr;
    buffers_.pop_front();
    return addr;
  }

  AddressSpace& memory() { return *mem_; }

 private:
  struct Posted {
    Addr addr;
    uint64_t capacity;
  };
  AddressSpace* mem_;
  std::deque<Posted> buffers_;
  uint64_t rnr_nacks_ = 0;
};

// An SRQ is just a ReceiveQueue shared by several QPs (§4.2) — aliased for
// intent at call sites.
using SharedReceiveQueue = ReceiveQueue;

class QueuePair {
 public:
  // A QP owned by `host`; receive side uses `rq` (possibly shared). The QP
  // is connected to a peer with Connect().
  QueuePair(net::Fabric* fabric, net::HostId host, uint32_t qp_number,
            ReceiveQueue* rq)
      : fabric_(fabric),
        host_(host),
        qp_number_(qp_number),
        rq_(rq),
        completions_(fabric->sim()),
        sends_metric_(fabric->obs().metrics().AddCounter(
            "qp", "sends", fabric->HostName(host))),
        rnr_metric_(fabric->obs().metrics().AddCounter(
            "qp", "rnr_nacks", fabric->HostName(host))) {}

  void Connect(QueuePair* peer) { peer_ = peer; }

  net::HostId host() const { return host_; }
  uint32_t qp_number() const { return qp_number_; }

  // Sends `data` to the connected peer. Completes OK once the receiver has
  // landed it in a posted buffer; kResourceExhausted on RNR (after the
  // transport's bounded RNR retries); kUnavailable if the peer host is down.
  sim::Task<Status> Send(Bytes data);

  // Awaits the next receive completion on this QP's receive side.
  sim::Task<RecvCompletion> AwaitRecv() {
    auto completion = co_await completions_.Pop();
    co_return completion;
  }

  size_t pending_completions() const { return completions_.size(); }

 private:
  static constexpr int kRnrRetries = 4;
  static constexpr sim::Duration kRnrDelay = sim::Micros(10);

  // Per-attempt completion state; Reset() re-arms the event between RNR
  // retries.
  struct SendState {
    explicit SendState(sim::Simulator* s) : sim(s) { Reset(); }
    sim::Simulator* sim;
    std::shared_ptr<sim::Event> done;
    Status result;
    net::HostId sender = 0;
    void Reset() {
      done = std::make_shared<sim::Event>(sim);
      result = OkStatus();
    }
    void Finish(Status status) {
      if (!done->is_set()) {
        result = std::move(status);
        done->Set();
      }
    }
  };

  net::Fabric* fabric_;
  net::HostId host_;
  uint32_t qp_number_;
  ReceiveQueue* rq_;
  QueuePair* peer_ = nullptr;
  sim::Channel<RecvCompletion> completions_;
  obs::Counter* sends_metric_;
  obs::Counter* rnr_metric_;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_QP_H_
