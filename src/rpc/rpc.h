// Two-sided RPC over the simulated fabric, modeled on eRPC (§2.1).
//
// Calibration target (the paper's own measurement): a 512 B read RPC takes
// ≈5.6 µs on the 40 GbE cluster where a one-sided READ takes ≈3.2 µs. The
// server side consumes a dedicated core for dispatch + handler time — this
// CPU cost is exactly what the PRISM paper's applications avoid.
//
// Messages are type-erased: the fabric models timing from the declared wire
// size while the body travels as a shared_ptr (no serialization needed for
// correctness — applications may still serialize if they want, and the PRISM
// chain path does, see prism/wire.h).
#ifndef PRISM_SRC_RPC_RPC_H_
#define PRISM_SRC_RPC_RPC_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/rdma/exchange.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rpc {

using MethodId = uint32_t;

class Message;
// All RPC-facing signatures traffic in shared_ptr<Message>: GCC 12 double-
// destroys class-type temporaries in co_await full-expressions, and bare
// shared_ptr temporaries are the vetted-safe way to pass payloads through
// coroutine calls (see the warning in sim/task.h).
using MessagePtr = std::shared_ptr<Message>;

class Message {
 public:
  Message() = default;

  template <typename T>
  static MessagePtr Of(T value, size_t wire_bytes) {
    auto m = std::make_shared<Message>();
    m->body_ = std::make_shared<T>(std::move(value));
    m->wire_bytes_ = wire_bytes;
    return m;
  }

  static MessagePtr Empty(size_t wire_bytes = 0) {
    auto m = std::make_shared<Message>();
    m->wire_bytes_ = wire_bytes;
    return m;
  }

  template <typename T>
  const T& As() const {
    PRISM_CHECK(body_ != nullptr) << "empty rpc message body";
    return *std::static_pointer_cast<const T>(body_);
  }

  template <typename T>
  T& MutableAs() {
    PRISM_CHECK(body_ != nullptr);
    return *std::static_pointer_cast<T>(body_);
  }

  bool empty() const { return body_ == nullptr; }
  size_t wire_bytes() const { return wire_bytes_; }

 private:
  std::shared_ptr<void> body_;
  size_t wire_bytes_ = 0;
};

class RpcServer {
 public:
  // A handler is a coroutine taking the request and producing the response.
  // Handlers run on one of the server's dedicated cores; the constant
  // rpc_handler cost is charged on top of whatever the handler itself awaits.
  // The request outlives the handler's frame, so it may keep the reference.
  using Handler = std::function<sim::Task<MessagePtr>(const Message&)>;

  RpcServer(net::Fabric* fabric, net::HostId host)
      : fabric_(fabric),
        host_(host),
        served_metric_(fabric->obs().metrics().AddCounter(
            "rpc", "calls_served", fabric->HostName(host))) {}

  void Register(MethodId method, Handler handler) {
    PRISM_CHECK(handlers_.emplace(method, std::move(handler)).second)
        << "duplicate rpc method " << method;
  }

  net::HostId host() const { return host_; }
  uint64_t calls_served() const { return calls_served_; }

 private:
  friend class RpcClient;

  // `ctx` is the rpc.call op's (Reply::ctx()).
  sim::Task<MessagePtr> Serve(MethodId method, MessagePtr request,
                              obs::Ctx ctx) {
    const obs::SpanId span = fabric_->obs().StartSpan(
        "rpc.serve", "rpc", host_, fabric_->sim()->Now(), ctx.span);
    const net::CostModel& c = fabric_->cost();
    co_await sim::SleepFor(fabric_->sim(), c.sw_ring_dma);
    sim::ServiceQueue& cores = fabric_->Cores(host_);
    co_await cores.Acquire();
    co_await sim::SleepFor(fabric_->sim(),
                           c.rpc_dispatch + c.rpc_handler);
    auto it = handlers_.find(method);
    MessagePtr response;
    if (it != handlers_.end()) {
      response = co_await it->second(*request);
    } else {
      response = Message::Empty();
    }
    cores.Release();
    co_await sim::SleepFor(fabric_->sim(), c.sw_tx);
    calls_served_++;
    served_metric_->Add();
    fabric_->obs().FinishSpan(span, fabric_->sim()->Now());
    co_return response;
  }

  net::Fabric* fabric_;
  net::HostId host_;
  obs::Counter* served_metric_;
  std::unordered_map<MethodId, Handler> handlers_;
  uint64_t calls_served_ = 0;
};

// eRPC posts WRs and polls CQs too: a call is an rdma::Exchange round trip.
class RpcClient : public rdma::Exchange {
 public:
  RpcClient(net::Fabric* fabric, net::HostId self)
      : Exchange(fabric, self, "rpc") {}

  // Every RPC burns a server core: delivery-to-response is responder time.
  sim::Task<Result<MessagePtr>> Call(RpcServer* server, MethodId method,
                                     MessagePtr request_ptr,
                                     obs::Ctx ctx = {}) {
    const size_t req_bytes = request_ptr->wire_bytes();
    return Run<Result<MessagePtr>>(
        "rpc.call", server->host(), req_bytes, /*cpu_involved=*/true,
        [server, method, request_ptr = std::move(request_ptr)](
            Reply<Result<MessagePtr>> reply) -> sim::Task<void> {
          MessagePtr response =
              co_await server->Serve(method, request_ptr, reply.ctx());
          const size_t resp_bytes = response ? response->wire_bytes() : 0;
          reply(std::move(response), resp_bytes);
        },
        ctx);
  }
};

}  // namespace prism::rpc

#endif  // PRISM_SRC_RPC_RPC_H_
