#include "src/rs/abd_lock.h"

#include <algorithm>
#include <cstring>

namespace prism::rs {

AbdLockReplica::AbdLockReplica(net::Fabric* fabric, net::HostId host,
                               AbdLockOptions opts)
    : opts_(opts), record_size_(16 + opts.block_size) {
  const uint64_t bytes = opts.n_blocks * record_size_;
  mem_ = std::make_unique<rdma::AddressSpace>(bytes + (1 << 20));
  auto region = mem_->CarveAndRegister(bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  base_ = region_.base;
  rdma_ = std::make_unique<rdma::RdmaService>(fabric, host, opts.backend,
                                              mem_.get());
}

AbdLockCluster::AbdLockCluster(net::Fabric* fabric, int n_replicas,
                               AbdLockOptions opts)
    : opts_(opts) {
  PRISM_CHECK(n_replicas % 2 == 1);
  for (int i = 0; i < n_replicas; ++i) {
    net::HostId host = fabric->AddHost("abd-replica-" + std::to_string(i));
    replicas_.push_back(std::make_unique<AbdLockReplica>(fabric, host, opts));
  }
}

AbdLockClient::AbdLockClient(net::Fabric* fabric, net::HostId self,
                             AbdLockCluster* cluster, uint16_t client_id,
                             uint64_t rng_seed)
    : fabric_(fabric),
      self_(self),
      cluster_(cluster),
      rdma_(fabric, self),
      client_id_(client_id),
      rng_(rng_seed ^ client_id) {}

sim::Task<Status> AbdLockClient::AcquireLocks(uint64_t block,
                                              std::vector<bool>* locked,
                                              obs::Ctx ctx) {
  const AbdLockOptions& opts = cluster_->options();
  locked->assign(static_cast<size_t>(cluster_->n()), false);
  for (int attempt = 0; attempt < opts.max_lock_attempts; ++attempt) {
    // Try every replica in parallel; CAS 0 -> client id. The lock phase
    // waits for ALL responses (they are parallel, so latency is one round
    // trip): proceeding on the first f+1 would leak locks that complete
    // late, wedging the block for everyone else.
    sim::FanOut<std::vector<bool>> all(fabric_->sim(), cluster_->n(),
                                       cluster_->n());
    std::vector<bool>& won = all.state();
    won.assign(static_cast<size_t>(cluster_->n()), false);
    for (int i = 0; i < cluster_->n(); ++i) {
      AbdLockReplica* replica = &cluster_->replica(i);
      all.Spawn([this, replica, block, i,
                 ctx](std::vector<bool>& acquired) -> sim::Task<bool> {
        auto old = co_await rdma_.CompareSwap(
            &replica->rdma(), replica->rkey(), replica->lock_addr(block), 0,
            client_id_, ctx);
        round_trips_++;
        if (old.ok() && *old == 0) acquired[static_cast<size_t>(i)] = true;
        co_return true;  // every reply arrives; the state tallies the locks
      });
    }
    co_await all.Wait();
    int held = 0;
    for (bool b : won) held += b ? 1 : 0;
    if (held >= cluster_->quorum()) {
      *locked = won;
      co_return OkStatus();
    }
    // Failed: release whatever we grabbed, back off, retry (§7.2 notes the
    // livelock risk this backoff mitigates).
    lock_conflicts_++;
    co_await ReleaseLocks(block, won, ctx);
    sim::Duration backoff = std::min<sim::Duration>(
        opts.backoff_cap,
        opts.backoff_base << std::min(attempt, 7));
    backoff += static_cast<sim::Duration>(
        rng_.NextBelow(static_cast<uint64_t>(backoff) / 2 + 1));
    co_await sim::SleepFor(fabric_->sim(), backoff);
  }
  co_return Aborted("could not acquire majority of locks");
}

sim::Task<void> AbdLockClient::ReleaseLocks(uint64_t block,
                                            const std::vector<bool>& locked,
                                            obs::Ctx ctx) {
  int pending = 0;
  for (bool b : locked) pending += b ? 1 : 0;
  sim::FanOut<> releases(fabric_->sim(), pending, pending);
  for (int i = 0; i < cluster_->n(); ++i) {
    if (!locked[static_cast<size_t>(i)]) continue;
    AbdLockReplica* replica = &cluster_->replica(i);
    releases.Spawn([this, replica, block, ctx]() -> sim::Task<bool> {
      auto old = co_await rdma_.CompareSwap(&replica->rdma(), replica->rkey(),
                                            replica->lock_addr(block),
                                            client_id_, 0, ctx);
      round_trips_++;
      co_return old.ok();
    });
  }
  co_await releases.Wait();
}

sim::Task<Result<std::pair<Tag, Bytes>>> AbdLockClient::ReadLocked(
    uint64_t block, const std::vector<bool>& locked, obs::Ctx ctx) {
  const uint64_t read_len = 8 + cluster_->options().block_size;
  int holders = 0;
  for (bool b : locked) holders += b ? 1 : 0;
  struct Shared {
    Tag max_tag;
    Bytes max_value;
    bool any = false;
  };
  sim::FanOut<Shared> reads(fabric_->sim(), cluster_->quorum(), holders);
  for (int i = 0; i < cluster_->n(); ++i) {
    if (!locked[static_cast<size_t>(i)]) continue;
    AbdLockReplica* replica = &cluster_->replica(i);
    reads.Spawn([this, replica, block, read_len,
                 ctx](Shared& shared) -> sim::Task<bool> {
      auto r = co_await rdma_.Read(&replica->rdma(), replica->rkey(),
                                   replica->tag_addr(block), read_len, ctx);
      round_trips_++;
      if (!r.ok()) co_return false;
      Tag tag = Tag::FromPacked(LoadU64(r->data()));
      if (!shared.any || shared.max_tag < tag) {
        shared.any = true;
        shared.max_tag = tag;
        shared.max_value.assign(r->begin() + 8, r->end());
      }
      co_return true;
    });
  }
  const bool reached = co_await reads.Wait();
  if (!reached) {
    Result<std::pair<Tag, Bytes>> err = Unavailable("read: lost quorum");
    co_return err;
  }
  Result<std::pair<Tag, Bytes>> out = std::make_pair(
      reads.state().max_tag, std::move(reads.state().max_value));
  co_return out;
}

sim::Task<Status> AbdLockClient::WriteLocked(
    uint64_t block, const std::vector<bool>& locked, Tag tag, ByteView value,
    obs::Ctx ctx) {
  int holders = 0;
  for (bool b : locked) holders += b ? 1 : 0;
  sim::FanOut<> writes(fabric_->sim(), cluster_->quorum(), holders);
  // [tag | value], built once: every locked replica's WRITE shares it, and
  // each WRITE's copy keeps it alive for a server body that outlives this
  // phase (DESIGN.md §5.15).
  SmallBytes payload(8 + value.size());
  StoreU64(payload.mutable_data(), tag.Packed());
  if (!value.empty()) {
    std::memcpy(payload.mutable_data() + 8, value.data(), value.size());
  }
  for (int i = 0; i < cluster_->n(); ++i) {
    if (!locked[static_cast<size_t>(i)]) continue;
    AbdLockReplica* replica = &cluster_->replica(i);
    writes.Spawn([this, replica, block, payload, ctx]() -> sim::Task<bool> {
      // Holding the lock, the in-place write is safe. (ABD's tag check is
      // subsumed: only one writer can hold a majority at a time.)
      Status w = co_await rdma_.Write(&replica->rdma(), replica->rkey(),
                                      replica->tag_addr(block), payload, ctx);
      round_trips_++;
      co_return w.ok();
    });
  }
  const bool reached = co_await writes.Wait();
  if (!reached) co_return Unavailable("write: lost quorum");
  co_return OkStatus();
}

sim::Task<Result<Bytes>> AbdLockClient::Get(uint64_t block, Tag* out_tag) {
  const obs::Ctx ctx = fabric_->obs().entry();
  std::vector<bool> locked;
  Status lock_status = co_await AcquireLocks(block, &locked, ctx);
  if (!lock_status.ok()) co_return lock_status;
  auto read = co_await ReadLocked(block, locked, ctx);
  if (!read.ok()) {
    co_await ReleaseLocks(block, locked, ctx);
    co_return read.status();
  }
  // Write-back so a majority stores the returned version.
  Status wb =
      co_await WriteLocked(block, locked, read->first, read->second, ctx);
  co_await ReleaseLocks(block, locked, ctx);
  if (!wb.ok()) co_return wb;
  if (out_tag != nullptr) *out_tag = read->first;
  co_return std::move(read->second);
}

sim::Task<Status> AbdLockClient::Put(uint64_t block, Bytes value,
                                     Tag* out_tag) {
  if (value.size() != cluster_->options().block_size) {
    co_return InvalidArgument("value must be exactly block_size");
  }
  const obs::Ctx ctx = fabric_->obs().entry();
  std::vector<bool> locked;
  Status lock_status = co_await AcquireLocks(block, &locked, ctx);
  if (!lock_status.ok()) co_return lock_status;
  auto read = co_await ReadLocked(block, locked, ctx);
  if (!read.ok()) {
    co_await ReleaseLocks(block, locked, ctx);
    co_return read.status();
  }
  Tag tag{read->first.ts + 1, client_id_};
  Status w = co_await WriteLocked(block, locked, tag, value, ctx);
  co_await ReleaseLocks(block, locked, ctx);
  if (!w.ok()) co_return w;
  if (out_tag != nullptr) *out_tag = tag;
  co_return OkStatus();
}

sim::Task<Status> AbdLockClient::AcquireAndAbandon(uint64_t block) {
  std::vector<bool> locked;
  Status s = co_await AcquireLocks(block, &locked, fabric_->obs().entry());
  co_return s;  // never released: simulates a client crash holding locks
}

}  // namespace prism::rs
