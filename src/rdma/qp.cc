#include "src/rdma/qp.h"

namespace prism::rdma {

sim::Task<Status> QueuePair::Send(Bytes data) {
  PRISM_CHECK(peer_ != nullptr) << "QP not connected";
  const net::CostModel& cost = fabric_->cost();
  co_await sim::SleepFor(fabric_->sim(), cost.client_post);

  auto state = std::make_shared<SendState>(fabric_->sim());
  state->sender = host_;
  auto payload = std::make_shared<Bytes>(std::move(data));
  for (int attempt = 0; attempt <= kRnrRetries; ++attempt) {
    state->Reset();
    sends_metric_->Add();
    QueuePair* peer = peer_;
    net::Fabric* fabric = fabric_;
    const uint32_t src_qp = qp_number_;
    fabric_->Send(
        host_, peer_->host(), payload->size(),
        [fabric, peer, payload, state, src_qp] {
          // Receive path: consume a posted buffer, DMA the message in, then
          // surface a completion.
          auto buffer = peer->rq_->Consume(payload->size());
          if (!buffer.ok()) {
            state->Finish(buffer.status());  // RNR NACK back to sender
            return;
          }
          const Addr landed = *buffer;
          sim::Spawn([fabric, peer, payload, state, landed,
                      src_qp]() -> sim::Task<void> {
            co_await sim::SleepFor(fabric->sim(),
                                   fabric->cost().nic_process +
                                       fabric->cost().pcie_write);
            peer->rq_->memory().Store(landed, *payload);
            peer->completions_.Push(
                RecvCompletion{landed, payload->size(), src_qp});
            // Ack back to the sender.
            fabric->Send(peer->host_, state->sender, 0,
                         [state] { state->Finish(OkStatus()); });
          });
        },
        [state] { state->Finish(Unavailable("peer down")); });
    co_await state->done->Wait();
    if (state->result.code() != Code::kResourceExhausted) {
      co_return state->result;  // delivered, or a non-retryable failure
    }
    rnr_metric_->Add();
    // RNR: wait for the receiver to post buffers, then retry (the standard
    // RNR-retry flow; ALLOCATE inherits exactly this behaviour, §4.2).
    co_await sim::SleepFor(fabric_->sim(), kRnrDelay);
  }
  co_return ResourceExhausted("RNR retries exhausted");
}

}  // namespace prism::rdma
