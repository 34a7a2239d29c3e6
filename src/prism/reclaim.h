// Client-driven buffer reclamation (§3.2).
//
// PRISM applications detect when a buffer is dead (e.g. a PUT's CAS returned
// the previous version's address) and report it to a daemon on the server
// over a traditional RPC; the daemon re-registers the buffer with the NIC
// free list. Both sides batch: the client accumulates `batch_size` frees per
// notification, and the server posts the whole batch in one core slot —
// PostBuffer then applies the §3.2 drain rule to each buffer.
#ifndef PRISM_SRC_PRISM_RECLAIM_H_
#define PRISM_SRC_PRISM_RECLAIM_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/net/fabric.h"
#include "src/prism/service.h"
#include "src/sim/task.h"

namespace prism::core {

class ReclaimClient {
 public:
  ReclaimClient(net::Fabric* fabric, net::HostId self, PrismServer* server,
                size_t batch_size = 16)
      : fabric_(fabric),
        self_(self),
        server_(server),
        batch_size_(batch_size) {
    PRISM_CHECK_GT(batch_size, 0u);
  }

  // Queues (queue, buffer) for return; ships a batch when full. Fire and
  // forget — reclamation is off the critical path by design, so a batch
  // the freeing op ships is parented to its span but never timed.
  void Free(uint32_t queue, rdma::Addr buffer, obs::Ctx ctx = {}) {
    pending_.push_back({queue, buffer});
    if (pending_.size() >= batch_size_) Flush(ctx.Untimed());
  }

  // Ships any partial batch (benchmark teardown, periodic timers).
  void Flush(obs::Ctx ctx = {}) {
    if (pending_.empty()) return;
    auto batch = std::make_shared<std::vector<Entry>>(std::move(pending_));
    pending_.clear();
    pending_.reserve(batch_size_);
    const size_t payload = 12 * batch->size();  // (queue u32, addr u64) each
    net::Fabric* fabric = fabric_;
    PrismServer* server = server_;
    fabric_->Send(
        self_, server_->host(), payload,
        [fabric, server, batch] {
          // Server side: one daemon core slot per batch, then
          // post-with-drain.
          sim::Spawn([fabric, server, batch]() -> sim::Task<void> {
            co_await fabric->Cores(server->host())
                .Use(fabric->cost().rpc_handler);
            for (const Entry& e : *batch) {
              server->PostBuffer(e.queue, e.buffer);
            }
          });
        },
        nullptr, ctx);
    batches_sent_++;
  }

  size_t pending() const { return pending_.size(); }
  uint64_t batches_sent() const { return batches_sent_; }

 private:
  struct Entry {
    uint32_t queue;
    rdma::Addr buffer;
  };

  net::Fabric* fabric_;
  net::HostId self_;
  PrismServer* server_;
  size_t batch_size_;
  std::vector<Entry> pending_;
  uint64_t batches_sent_ = 0;
};

}  // namespace prism::core

#endif  // PRISM_SRC_PRISM_RECLAIM_H_
