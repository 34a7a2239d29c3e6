// ABD-LOCK — the DrTM-style lock-based ABD baseline of §7.2.
//
// Standard RDMA only: per-block layout at each replica is
//     [lock u64][tag u64][value blockB]
// A client CASes its id into the lock word at every replica, needs a
// majority of locks, then READs/WRITEs tag and value in place, and releases
// with a second CAS. GET and PUT each take four sequential round trips
// (lock, read, write, unlock), and lock conflicts force exponential backoff
// — the behaviour that collapses under Zipf contention in Figure 7.
//
// The §7.2 pathologies are modeled too: a crashed client leaves blocks
// locked until a lease expires (lock words carry an expiry the next locker
// may reclaim), and failed acquisitions release partial lock sets.
#ifndef PRISM_SRC_RS_ABD_LOCK_H_
#define PRISM_SRC_RS_ABD_LOCK_H_

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/rdma/service.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"

namespace prism::rs {

struct AbdLockOptions {
  uint64_t n_blocks = 1024;
  uint64_t block_size = 512;
  rdma::Backend backend = rdma::Backend::kHardwareNic;
  sim::Duration backoff_base = sim::Micros(4);
  sim::Duration backoff_cap = sim::Micros(512);
  int max_lock_attempts = 64;
};

class AbdLockReplica {
 public:
  AbdLockReplica(net::Fabric* fabric, net::HostId host, AbdLockOptions opts);

  rdma::RdmaService& rdma() { return *rdma_; }
  rdma::AddressSpace& memory() { return *mem_; }
  rdma::RKey rkey() const { return region_.rkey; }

  rdma::Addr lock_addr(uint64_t block) const {
    return base_ + block * record_size_;
  }
  rdma::Addr tag_addr(uint64_t block) const { return lock_addr(block) + 8; }
  rdma::Addr value_addr(uint64_t block) const { return lock_addr(block) + 16; }

 private:
  AbdLockOptions opts_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<rdma::RdmaService> rdma_;
  rdma::MemoryRegion region_;
  rdma::Addr base_ = 0;
  uint64_t record_size_ = 0;
};

class AbdLockCluster {
 public:
  AbdLockCluster(net::Fabric* fabric, int n_replicas, AbdLockOptions opts);

  int n() const { return static_cast<int>(replicas_.size()); }
  int quorum() const { return n() / 2 + 1; }
  AbdLockReplica& replica(int i) { return *replicas_[i]; }
  const AbdLockOptions& options() const { return opts_; }

 private:
  AbdLockOptions opts_;
  std::vector<std::unique_ptr<AbdLockReplica>> replicas_;
};

class AbdLockClient {
 public:
  AbdLockClient(net::Fabric* fabric, net::HostId self, AbdLockCluster* cluster,
                uint16_t client_id, uint64_t rng_seed = 42);

  sim::Task<Result<Bytes>> Get(uint64_t block, Tag* out_tag = nullptr);
  sim::Task<Status> Put(uint64_t block, Bytes value, Tag* out_tag = nullptr);

  uint64_t lock_conflicts() const { return lock_conflicts_; }
  uint64_t round_trips() const { return round_trips_; }
  // Transport-level protocol-complexity tally (src/obs/complexity.h).
  obs::TransportTally TransportTally() const { return rdma_.tally(); }
  // Shared per-host verb batcher (doorbell batching + completion
  // coalescing); null keeps the flat unbatched post/poll cost.
  void set_batcher(rdma::VerbBatcher* b) { rdma_.set_batcher(b); }

  // Failure injection for tests: acquire locks and "crash" (never release).
  sim::Task<Status> AcquireAndAbandon(uint64_t block);

 private:
  // Every phase runs under its public op's ctx (src/obs/obs.h).

  // Acquires the block lock at a majority; fills `locked` (size n) with the
  // replicas we hold. Retries with exponential backoff.
  sim::Task<Status> AcquireLocks(uint64_t block, std::vector<bool>* locked,
                                 obs::Ctx ctx);
  sim::Task<void> ReleaseLocks(uint64_t block, const std::vector<bool>& locked,
                               obs::Ctx ctx);

  // Reads ⟨tag,value⟩ from locked replicas; returns the max-tag pair.
  sim::Task<Result<std::pair<Tag, Bytes>>> ReadLocked(
      uint64_t block, const std::vector<bool>& locked, obs::Ctx ctx);
  sim::Task<Status> WriteLocked(uint64_t block,
                                const std::vector<bool>& locked, Tag tag,
                                ByteView value, obs::Ctx ctx);

  net::Fabric* fabric_;
  net::HostId self_;
  AbdLockCluster* cluster_;
  rdma::RdmaClient rdma_;
  uint16_t client_id_;
  Rng rng_;
  uint64_t lock_conflicts_ = 0;
  uint64_t round_trips_ = 0;
};

}  // namespace prism::rs

#endif  // PRISM_SRC_RS_ABD_LOCK_H_
