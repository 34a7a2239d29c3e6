// PRISM-TX — serializable distributed transactions via one-sided OCC (§8.2).
//
// Data is partitioned across shards (the paper evaluates one shard but runs
// the full commit protocol; the implementation supports many). Each shard
// stores a hash table of per-key 32-byte metadata elements (Figure 8):
//
//     [PR u64 | PW u64 | C u64 | addr u64]
//
//   PR — highest timestamp of a prepared transaction that READ the key
//   PW — highest timestamp of a prepared transaction that will WRITE it
//   C  — timestamp of the latest committed write (duplicated in the buffer)
//   addr — pointer to the committed value buffer  [C u64 | key u64 | value]
//
// Timestamps are Meerkat-style loosely synchronized logical clocks packed as
// (clock_time << 16 | client_id).
//
// Protocol (all one-sided; no server CPU on any path):
//  * Execution: reads are PRISM-KV-style indirect READs of the addr field
//    (atomic ⟨C,key,value⟩); writes are buffered client-side.
//  * Prepare / read validation, one enhanced CAS per read key on the
//    [PR|PW] window: compare (RC|TS) > (PW|PR) — with PW the significant
//    field this is exactly "RC == PW and TS > PR" (RC > PW is impossible) —
//    and swap PR := TS. A comparison failure with returned PW == RC just
//    means PR was already ≥ TS (benign); returned PW != RC means a
//    conflicting prepared writer ⇒ abort.
//  * Prepare / write validation, one CAS per write key: compare TS > PW,
//    swap PW := TS; the returned old value also carries PR, which the
//    client checks TS > PR. Bumping PW optimistically is safe (§8.2): it
//    can only cause spurious aborts, never incorrect commits.
//  * Commit: per write key, the PRISM-RS install chain (WRITE TS to
//    scratch, ALLOCATE [TS|key|value] redirected to scratch+8, CAS_GT on
//    the [C|addr] window).
//  * Abort: leave PR/PW as-is (conservative, §8.2) but bump C := TS for
//    keys whose write validation succeeded, reducing blocking.
#ifndef PRISM_SRC_TX_PRISM_TX_H_
#define PRISM_SRC_TX_PRISM_TX_H_

#include <map>
#include <memory>
#include <vector>

#include "src/check/history.h"
#include "src/net/fabric.h"
#include "src/prism/reclaim.h"
#include "src/prism/service.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::tx {

// Packed loosely-synchronized timestamp.
struct Timestamp {
  uint64_t time = 0;
  uint16_t client = 0;
  uint64_t Packed() const { return (time << 16) | client; }
  static Timestamp FromPacked(uint64_t p) {
    return Timestamp{p >> 16, static_cast<uint16_t>(p & 0xffff)};
  }
  bool operator<(const Timestamp& o) const { return Packed() < o.Packed(); }
};

struct PrismTxOptions {
  uint64_t keys_per_shard = 4096;   // metadata slots per shard
  uint64_t value_size = 512;
  uint64_t buffers_per_shard = 8192;
  core::Deployment deployment = core::Deployment::kSoftware;
  size_t reclaim_batch = 16;
};

class PrismTxShard {
 public:
  PrismTxShard(net::Fabric* fabric, net::HostId host, PrismTxOptions opts);

  core::PrismServer& prism() { return *prism_; }
  rdma::AddressSpace& memory() { return *mem_; }
  rdma::RKey rkey() const { return region_.rkey; }
  uint32_t freelist() const { return freelist_; }

  // Metadata element base for slot s (32 B each).
  rdma::Addr meta_addr(uint64_t slot) const { return meta_base_ + slot * 32; }
  rdma::Addr pr_addr(uint64_t slot) const { return meta_addr(slot); }
  rdma::Addr pw_addr(uint64_t slot) const { return meta_addr(slot) + 8; }
  rdma::Addr c_addr(uint64_t slot) const { return meta_addr(slot) + 16; }
  rdma::Addr ptr_addr(uint64_t slot) const { return meta_addr(slot) + 24; }

  // Setup-time bulk load (models the YCSB load phase; not a transaction).
  Status LoadKey(uint64_t slot, uint64_t key, ByteView value);

 private:
  PrismTxOptions opts_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<core::PrismServer> prism_;
  rdma::MemoryRegion region_;
  rdma::Addr meta_base_ = 0;
  rdma::Addr pool_base_ = 0;
  uint64_t next_load_buffer_ = 0;
  uint32_t freelist_ = 0;
};

class PrismTxCluster {
 public:
  PrismTxCluster(net::Fabric* fabric, int n_shards, PrismTxOptions opts);

  int n_shards() const { return static_cast<int>(shards_.size()); }
  PrismTxShard& shard(int i) { return *shards_[i]; }
  const PrismTxOptions& options() const { return opts_; }

  // key -> (shard, slot). Benches preload every key so slots are stable.
  std::pair<int, uint64_t> Locate(uint64_t key) const;

  Status LoadKey(uint64_t key, ByteView value);

 private:
  PrismTxOptions opts_;
  std::vector<std::unique_ptr<PrismTxShard>> shards_;
};

// A client-coordinated transaction.
class Transaction {
 public:
  struct ReadEntry {
    uint64_t key;
    uint64_t rc;  // packed C version observed
  };
  struct WriteEntry {
    uint64_t key;
    Bytes value;
  };

  std::vector<ReadEntry> read_set;
  std::vector<WriteEntry> write_set;
  bool active = true;
  // The transaction is one op: Begin() takes its ctx, and its reads and
  // commit run under it (src/obs/obs.h).
  obs::Ctx ctx;

  // History-recording handle (see PrismTxClient::set_history).
  static constexpr size_t kNoHistory = static_cast<size_t>(-1);
  size_t history_id = kNoHistory;
};

class PrismTxClient {
 public:
  PrismTxClient(net::Fabric* fabric, net::HostId self,
                PrismTxCluster* cluster, uint16_t client_id);

  Transaction Begin() {
    Transaction txn;
    txn.ctx = fabric_->obs().entry();
    if (history_ != nullptr) txn.history_id = history_->BeginTxn(client_id_);
    return txn;
  }

  // When set, every transaction records its remote reads, writes, and
  // outcome for offline read-committed checking.
  void set_history(check::TxHistoryRecorder* history) { history_ = history; }

  // Transactional read: fetches the committed version and records it in the
  // read set. kNotFound for never-loaded keys.
  sim::Task<Result<Bytes>> Read(Transaction& txn, uint64_t key);

  // Buffered write (visible to later reads in the same transaction).
  void Write(Transaction& txn, uint64_t key, Bytes value);

  // Two-phase commit: prepare (validation CASes) + commit (install chains).
  // Returns kAborted if validation fails.
  sim::Task<Status> Commit(Transaction& txn);

  void FlushReclaim();

  uint64_t commits() const { return commits_; }
  uint64_t aborts() const { return aborts_; }
  // Transport-level protocol-complexity tally (src/obs/complexity.h).
  obs::TransportTally TransportTally() const { return prism_.tally(); }
  // Shared per-host verb batcher (doorbell batching + completion
  // coalescing); null keeps the flat unbatched post/poll cost.
  void set_batcher(rdma::VerbBatcher* b) { prism_.set_batcher(b); }

 private:
  struct WritePrep {
    uint64_t key;
    bool pw_bumped = false;  // write-validation CAS swapped
    bool valid = false;      // and TS > PR held
  };

  sim::Task<Status> AbortCleanup(const std::vector<WritePrep>& preps,
                                 Timestamp ts, obs::Ctx ctx);

  net::Fabric* fabric_;
  net::HostId self_;
  PrismTxCluster* cluster_;
  core::PrismClient prism_;
  uint16_t client_id_;
  check::TxHistoryRecorder* history_ = nullptr;
  uint64_t logical_clock_ = 1;
  // Per-shard scratch: kScratchSlots × 16 B so a commit's parallel install
  // chains (one per write key on the shard) never share a redirect target.
  static constexpr uint64_t kScratchSlots = 8;
  std::vector<rdma::Addr> scratch_;
  std::vector<std::unique_ptr<core::ReclaimClient>> reclaim_;
  uint64_t commits_ = 0;
  uint64_t aborts_ = 0;
};

}  // namespace prism::tx

#endif  // PRISM_SRC_TX_PRISM_TX_H_
