// FaRM (Dragojević et al., NSDI'14) — the transaction baseline of §8.1.
//
// The representative state of the art the paper compares against: one-sided
// READs for transaction execution, but a three-phase commit that needs the
// server CPU:
//
//   1. LOCK      — RPC per write key: the server CPU sets the object's lock
//                  bit if the version is unchanged; any failure aborts.
//   2. VALIDATE  — one-sided READ per read key of the object's version word;
//                  a changed or locked version aborts.
//   3. UPDATE+UNLOCK — RPC per write key: the server CPU applies the value
//                  in place, bumps the version, clears the lock.
//
// Per-key layout at each shard:
//   * slot array: [ptr u64 | pad u64]                  (16 B, READ #1)
//   * objects:    [version u64 | key u64 | value]      (READ #2)
// The version word's top bit is the lock bit. Execution reads retry while
// an object is locked or while version changes underneath (FaRM's torn-read
// protection via version checks).
#ifndef PRISM_SRC_TX_FARM_H_
#define PRISM_SRC_TX_FARM_H_

#include <memory>
#include <vector>

#include "src/net/fabric.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tx/prism_tx.h"

namespace prism::tx {

struct FarmOptions {
  uint64_t keys_per_shard = 4096;
  uint64_t value_size = 512;
  rdma::Backend backend = rdma::Backend::kHardwareNic;
  int max_read_retries = 64;
};

class FarmShard {
 public:
  static constexpr uint64_t kLockBit = 1ull << 63;
  static constexpr rpc::MethodId kLockMethod = 1;
  static constexpr rpc::MethodId kUpdateMethod = 2;
  static constexpr rpc::MethodId kUnlockMethod = 3;

  struct LockRequest {
    std::vector<uint64_t> slots;
    std::vector<uint64_t> expected_versions;
    uint16_t client;
  };
  struct LockResponse {
    bool ok = false;
  };
  struct UpdateRequest {  // also unlocks
    std::vector<uint64_t> slots;
    std::vector<Bytes> values;
    uint16_t client;
  };
  struct UnlockRequest {
    std::vector<uint64_t> slots;
    uint16_t client;
  };

  FarmShard(net::Fabric* fabric, net::HostId host, FarmOptions opts);

  rdma::RdmaService& rdma() { return *rdma_; }
  rpc::RpcServer& rpc() { return *rpc_; }
  rdma::AddressSpace& memory() { return *mem_; }
  rdma::RKey rkey() const { return region_.rkey; }

  rdma::Addr slot_addr(uint64_t slot) const { return slot_base_ + slot * 16; }
  rdma::Addr object_addr(uint64_t slot) const {
    return obj_base_ + slot * (16 + opts_.value_size);
  }

  Status LoadKey(uint64_t slot, uint64_t key, ByteView value);

 private:
  // The handlers read the request in place (RpcServer::Handler).
  sim::Task<rpc::MessagePtr> HandleLock(const LockRequest& req);
  sim::Task<rpc::MessagePtr> HandleUpdate(const UpdateRequest& req);
  sim::Task<rpc::MessagePtr> HandleUnlock(const UnlockRequest& req);

  FarmOptions opts_;
  net::Fabric* fabric_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<rdma::RdmaService> rdma_;
  std::unique_ptr<rpc::RpcServer> rpc_;
  rdma::MemoryRegion region_;
  rdma::Addr slot_base_ = 0;
  rdma::Addr obj_base_ = 0;
  // Which client holds each lock (server-side bookkeeping for safety checks).
  std::vector<uint16_t> lock_holder_;
};

class FarmCluster {
 public:
  FarmCluster(net::Fabric* fabric, int n_shards, FarmOptions opts);

  int n_shards() const { return static_cast<int>(shards_.size()); }
  FarmShard& shard(int i) { return *shards_[i]; }
  const FarmOptions& options() const { return opts_; }

  std::pair<int, uint64_t> Locate(uint64_t key) const;
  Status LoadKey(uint64_t key, ByteView value);

 private:
  FarmOptions opts_;
  std::vector<std::unique_ptr<FarmShard>> shards_;
};

class FarmClient {
 public:
  FarmClient(net::Fabric* fabric, net::HostId self, FarmCluster* cluster,
             uint16_t client_id);

  Transaction Begin() {
    Transaction txn;
    txn.ctx = fabric_->obs().entry();
    return txn;
  }

  // Execution-phase read: two one-sided READs (slot, then object), retried
  // while the object is locked / its version changes.
  sim::Task<Result<Bytes>> Read(Transaction& txn, uint64_t key);

  void Write(Transaction& txn, uint64_t key, Bytes value);

  // FaRM's three-phase commit.
  sim::Task<Status> Commit(Transaction& txn);

  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }
  // Combined protocol-complexity tally over both transports
  // (src/obs/complexity.h).
  obs::TransportTally TransportTally() const {
    return rdma_.tally() + rpc_.tally();
  }
  // Shared per-host verb batcher (doorbell batching + completion
  // coalescing) applied to both transports; null keeps the flat cost.
  void set_batcher(rdma::VerbBatcher* b) {
    rdma_.set_batcher(b);
    rpc_.set_batcher(b);
  }

 private:
  net::Fabric* fabric_;
  net::HostId self_;
  FarmCluster* cluster_;
  rdma::RdmaClient rdma_;
  rpc::RpcClient rpc_;
  uint16_t client_id_;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
};

}  // namespace prism::tx

#endif  // PRISM_SRC_TX_FARM_H_
