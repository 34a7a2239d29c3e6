// One request/response exchange: the round-trip skeleton of every transport
// op (RdmaClient verbs, PrismClient::Execute, RpcClient::Call; each client
// is an Exchange). An op supplies its request bytes, a server body and one
// `cpu_involved` flag; the exchange owns every other step (DESIGN.md §5.11),
// so the Table-1 counting rules (src/obs/complexity.h) and the phase rules
// (src/obs/phase.h) live here only. The first of response delivery, drop and
// deadline decides an op, and a server result reaches the caller only if its
// response is delivered to a still-pending op. The deadline is cancelled as
// soon as the op is decided, so no timer or op state outlives the op. The
// op state and the body's closure share one block from the thread's
// coroutine-frame pool (sim::PoolAllocator).
//
// Every op takes its caller's obs::Ctx last; the default (empty) ctx is an
// untimed op with a root span. The op state carries the op's own span and
// the caller's timeline to the fabric and, through Reply, to the server
// body, which parents its span to it.
//
// sim/task.h rule 1: the body is never a coroutine parameter. Run() moves it
// into the op state and request delivery moves it on into the Spawn
// callable, so its captures die with the server work, not with the op.
#ifndef PRISM_SRC_RDMA_EXCHANGE_H_
#define PRISM_SRC_RDMA_EXCHANGE_H_

#include <coroutine>
#include <memory>
#include <string_view>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/rdma/batch.h"
#include "src/sim/task.h"

namespace prism::rdma {

class Exchange {
  // Shared by the client coroutine, the fabric callbacks and the body's Reply.
  template <typename R>
  struct OpState {
    R result = R(Code::kInternal);  // decided before `done` is set
    std::coroutine_handle<> waiter;
    obs::Ctx ctx;  // this op's span and the caller's timeline
    size_t resp_bytes = 0;
    bool done = false;
    bool responded = false;
  };

 public:
  // Every op's deadline (models RC transport retry exhaustion, compressed to
  // keep failure tests fast).
  static constexpr sim::Duration kDeadline = sim::Millis(5);

  // A server body's handle on its op: the body ends by calling it once with
  // its result (R is Result<T>, or Status) and the response payload bytes.
  // The result is staged only in a still-pending op (a drop or deadline that
  // decides the op first overwrites it); the response delivery commits it.
  template <typename R>
  struct Reply {
    void operator()(R result, size_t bytes) const {
      if (!op->done) op->result = std::move(result);
      op->resp_bytes = bytes;
      sim::Simulator* eng = ex->fabric_->sim();
      obs::SwitchOp(op->ctx.op, obs::Phase::kWire, eng->Now());
      ex->fabric_->Send(
          server, ex->self_, bytes,
          [eng, op = op] {
            // Delivered: the client's CQ poll or coalesced drain starts here.
            obs::SwitchOp(op->ctx.op, obs::Phase::kBatchWait, eng->Now());
            if (!op->done) {
              op->responded = true;
              Wake(eng, *op);
            }
          },
          nullptr, op->ctx);
    }
    // The server body's context: parent its spans to the op's span.
    obs::Ctx ctx() const { return op->ctx; }
    Exchange* ex;
    std::shared_ptr<OpState<R>> op;
    net::HostId server;
  };

  // `category` is the span category of every op ("rdma", "prism", "rpc").
  Exchange(net::Fabric* fabric, net::HostId self, std::string_view category)
      : fabric_(fabric), self_(self), category_(category) {}

  net::HostId host() const { return self_; }

  // Protocol-complexity tally across every op issued by this client (see
  // src/obs/complexity.h for the counting rules).
  const obs::TransportTally& tally() const { return tally_; }

  // Routes the post/poll path through a shared per-host batcher (doorbell
  // batching + completion coalescing). Null (default) keeps the flat
  // unbatched cost: one doorbell ring and one CQ drain per op.
  void set_batcher(VerbBatcher* b) { batcher_ = b; }

 protected:
  const net::CostModel& cost() const { return fabric_->cost(); }

  // One op: `req_bytes` to `server`, where `body`, a lambda coroutine
  // `(Reply<R>) -> sim::Task<void>`, runs on delivery. Lazy like any Task.
  template <typename R, typename Body>
  sim::Task<R> Run(std::string_view span, net::HostId server,
                   size_t req_bytes, bool cpu_involved, Body body,
                   obs::Ctx ctx) {
    using State = WithBody<R, Body>;
    auto op = std::allocate_shared<State>(sim::PoolAllocator<State>(),
                                          std::move(body));
    return Roundtrip(std::move(op), span, server, req_bytes, cpu_involved,
                     ctx);
  }

 private:
  template <typename R, typename Body>
  struct WithBody : OpState<R> {
    explicit WithBody(Body b) : body(std::move(b)) {}
    Body body;  // moved into the Spawn callable at request delivery
  };

  // Parks Roundtrip until decided (awaiting *op itself crashes on GCC 12).
  template <typename R>
  struct Decided {
    OpState<R>* op;
    bool await_ready() const noexcept { return op->done; }
    void await_suspend(std::coroutine_handle<> h) const { op->waiter = h; }
    void await_resume() const noexcept {}
  };

  template <typename R, typename Body>
  sim::Task<R> Roundtrip(std::shared_ptr<WithBody<R, Body>> op,
                         std::string_view span, net::HostId server,
                         size_t req_bytes, bool cpu_involved,
                         obs::Ctx caller) {
    obs::Hub& hub = fabric_->obs();
    sim::Simulator* eng = fabric_->sim();
    op->ctx = {hub.StartSpan(span, category_, self_, eng->Now(), caller.span),
               caller.op};
    if (caller.op != nullptr) {
      if (caller.op->root_span() == 0 && op->ctx.span != 0) {
        caller.op->set_root_span(hub.tracer()->RootOf(op->ctx.span));
      }
      // The post path is batch_wait.
      caller.op->Switch(obs::Phase::kBatchWait, eng->Now());
    }
    if (batcher_ != nullptr) {
      co_await batcher_->Post(&tally_);
    } else {
      tally_.doorbells++;
      co_await sim::SleepFor(eng, fabric_->cost().client_post);
    }
    // One logical message out; a CPU action iff the far side burns a core.
    tally_.messages++;
    tally_.bytes_out += req_bytes;
    if (cpu_involved) tally_.cpu_actions++;
    obs::SwitchOp(caller.op, obs::Phase::kWire, eng->Now());
    fabric_->Send(
        self_, server, req_bytes,
        [this, op, server, cpu_involved] {
          // CPU-involved server time is responder; a NIC-resident server
          // (hardware verbs, the projected PRISM ASIC) stays on the wire.
          if (cpu_involved) {
            obs::SwitchOp(op->ctx.op, obs::Phase::kResponder,
                          fabric_->sim()->Now());
          }
          sim::Spawn([reply = Reply<R>{this, op, server},
                      body = std::move(op->body)] { return body(reply); });
        },
        [eng, op] { Decide(eng, *op, Unavailable("host down")); }, op->ctx);
    const sim::TimerId deadline = eng->Schedule(
        kDeadline, [eng, op] { Decide(eng, *op, TimedOut("op deadline")); });
    co_await Decided<R>{op.get()};
    // Whatever decided the op, its deadline is no longer needed; a fired one
    // makes this a no-op.
    eng->Cancel(deadline);
    if (batcher_ != nullptr) {
      co_await batcher_->Complete(&tally_);
    } else {
      tally_.cq_polls++;
      co_await sim::SleepFor(eng, fabric_->cost().completion);
    }
    if (op->responded) {
      tally_.round_trips++;
      tally_.bytes_in += op->resp_bytes;
    }
    obs::SwitchOp(caller.op, obs::Phase::kApp, eng->Now());
    hub.FinishSpan(op->ctx.span, eng->Now());
    co_return std::move(op->result);
  }

  // Decides a still-pending op with a failure: a drop or the deadline.
  template <typename R>
  static void Decide(sim::Simulator* eng, OpState<R>& op, Status s) {
    if (op.done) return;
    op.result = std::move(s);
    Wake(eng, op);
  }

  // Every decision is an event, so Roundtrip is already parked on the op.
  template <typename R>
  static void Wake(sim::Simulator* eng, OpState<R>& op) {
    op.done = true;
    eng->Resume(op.waiter);
  }

  net::Fabric* fabric_;
  net::HostId self_;
  std::string_view category_;
  VerbBatcher* batcher_ = nullptr;
  obs::TransportTally tally_;
};

}  // namespace prism::rdma

#endif  // PRISM_SRC_RDMA_EXCHANGE_H_
