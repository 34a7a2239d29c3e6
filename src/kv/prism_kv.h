// PRISM-KV — the paper's key-value store case study (§6).
//
// Design (following §6.1):
//  * A hash-table index of 16-byte ⟨ptr,bound⟩ slots points at out-of-place
//    record buffers managed by PRISM ALLOCATE free lists.
//  * GET: one indirect+bounded READ of the slot (returns the record AND the
//    resolved buffer address); linear probing on key mismatch. One PRISM op
//    per probe, vs Pilaf's two READs.
//  * PUT: two round trips. RT1 probes the slot like GET (learning the old
//    buffer address). RT2 is the §3.5 chain: WRITE the new bound into
//    on-NIC scratch, ALLOCATE the record with its address redirected into
//    scratch, then a conditional CAS that installs ⟨new_ptr,new_bound⟩ into
//    the slot iff the old pointer is unchanged (footnote 2's protection
//    against slot reuse). A failed CAS means a concurrent writer won; the
//    freshly allocated buffer is reported back to the reclamation daemon and
//    the PUT retries.
//  * DELETE: CAS the slot to point at a shared tombstone marker record and
//    reclaim the buffer. Tombstones keep linear-probe chains intact; readers
//    probe past them and writers may reuse them.
//  * Correctness under concurrency comes from write-once buffers plus the
//    atomic pointer install — no Pilaf-style CRCs needed.
//
// Record layout in a buffer: [klen u32][vlen u32][key][value]; the slot
// bound is 8+klen+vlen so bounded reads return exactly the record.
#ifndef PRISM_SRC_KV_PRISM_KV_H_
#define PRISM_SRC_KV_PRISM_KV_H_

#include <memory>
#include <string>
#include <vector>

#include "src/check/history.h"
#include "src/net/fabric.h"
#include "src/prism/reclaim.h"
#include "src/prism/service.h"
#include "src/sim/task.h"

namespace prism::kv {

struct PrismKvOptions {
  uint64_t n_buckets = 4096;
  uint64_t buffer_size = 640;   // fits an 8 B header + 8 B key + 512 B value
  uint64_t n_buffers = 8192;    // per size class
  uint64_t max_value_size = 512;
  // §3.2: "registering multiple queues containing buffers of different
  // sizes, and selecting the appropriate one" — e.g. {128, 256, 512, 1024}
  // bounds space overhead to 2×. Empty: one class of `buffer_size`.
  std::vector<uint64_t> size_classes;
  core::Deployment deployment = core::Deployment::kSoftware;
  size_t reclaim_batch = 16;
  int max_probes = 64;   // linear-probe cap before giving up
  int max_retries = 16;  // PUT CAS-race retries
  // Benches use the paper's "collisionless hash function" (§6.2): keys are
  // dense 8-byte integers mapped directly to buckets.
  bool dense_key_hash = false;
};

class PrismKvServer {
 public:
  PrismKvServer(net::Fabric* fabric, net::HostId host, PrismKvOptions opts);

  core::PrismServer& prism() { return *prism_; }
  rdma::AddressSpace& memory() { return *mem_; }
  const PrismKvOptions& options() const { return opts_; }

  rdma::RKey rkey() const { return region_.rkey; }
  rdma::Addr table_base() const { return table_base_; }
  // The (single or smallest-fitting) free-list queue for a record size.
  uint32_t freelist() const { return freelist_; }
  Result<uint32_t> QueueForRecord(uint64_t record_size) const {
    return prism_->freelists().QueueFor(record_size);
  }
  uint64_t slot_addr(uint64_t bucket) const {
    return table_base_ + bucket * kSlotSize;
  }

  // Number of record buffers currently on the free list (all classes).
  size_t free_buffers() const {
    size_t total = 0;
    for (uint32_t q = 0; q < prism_->freelists().queue_count(); ++q) {
      total += prism_->freelists().available(q);
    }
    return total;
  }

  // Setup-time bulk load (models the YCSB load phase): installs the record
  // directly, consuming one free-list buffer. Key must hash to a free slot.
  Status LoadKey(const Bytes& key, ByteView value);

  uint64_t HashBucket(const Bytes& key) const;

  static constexpr uint64_t kSlotSize = core::BoundedPtr::kWireSize;

  // DELETE installs a pointer to this shared marker record; readers that
  // land on it keep probing (the probe chain stays intact), unlike the empty
  // slot ⟨0,0⟩ which ends a chain. The marker is a record with klen =
  // 0xffffffff, which no real key can produce.
  rdma::Addr tombstone_addr() const { return tombstone_addr_; }
  static constexpr uint64_t kTombstoneBound = 8;

 private:
  PrismKvOptions opts_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<core::PrismServer> prism_;
  rdma::MemoryRegion region_;
  rdma::Addr table_base_ = 0;
  uint32_t freelist_ = 0;
  rdma::Addr tombstone_addr_ = 0;
};

class PrismKvClient {
 public:
  PrismKvClient(net::Fabric* fabric, net::HostId self, PrismKvServer* server);

  // GET: returns the value, or kNotFound.
  sim::Task<Result<Bytes>> Get(const std::string& key);

  // PUT: last-writer-wins upsert. kAborted after max_retries lost races.
  sim::Task<Status> Put(const std::string& key, Bytes value);

  // DELETE: removes the key (tombstone). kNotFound if absent.
  sim::Task<Status> Delete(const std::string& key);

  // Ships any batched reclamation notifications.
  void FlushReclaim() { reclaim_.Flush(); }

  // When set, every Get/Put/Delete records an invocation/response entry
  // (keyed by the key's fingerprint) for offline linearizability checking.
  void set_history(check::HistoryRecorder* history, int client_id) {
    history_ = history;
    history_client_ = client_id;
  }

  // ---- stats ----
  uint64_t round_trips() const { return round_trips_; }
  // Transport-level protocol-complexity tally (src/obs/complexity.h).
  obs::TransportTally TransportTally() const { return prism_.tally(); }
  // Shared per-host verb batcher (doorbell batching + completion
  // coalescing); null keeps the flat unbatched post/poll cost.
  void set_batcher(rdma::VerbBatcher* b) { prism_.set_batcher(b); }
  uint64_t cas_failures() const { return cas_failures_; }
  uint64_t probe_overflows() const { return probe_overflows_; }

 private:
  struct ProbeOutcome {
    Status status;            // ok ⇒ landed on a usable slot
    uint64_t bucket = 0;      // slot index the probe ended on
    rdma::Addr old_ptr = 0;   // resolved buffer address (0 for empty slot;
                              // the tombstone marker address for reusable
                              // tombstone slots)
    SmallBytes record;        // record bytes when the key was found
    bool found_key = false;   // record's key matches
  };

  // Probes for `key` starting at its hash bucket. If for_write, an empty or
  // tombstone slot terminates the probe successfully (insertion point).
  sim::Task<ProbeOutcome> Probe(std::shared_ptr<const Bytes> key,
                                bool for_write, obs::Ctx ctx);

  uint64_t HashBucket(const Bytes& key) const;

  // Leases a 16 B on-NIC scratch slot ([new_ptr | new_bound]) for one
  // in-flight PUT. PUT chains write their CAS swap operand through scratch,
  // so each concurrent PUT needs its own slot: open-loop pools multiplex
  // many logical clients onto one client object, and a shared slot lets two
  // interleaved chains install each other's ⟨ptr,bound⟩ (aliasing two
  // buckets to one buffer). The pool grows to the peak number of
  // simultaneous PUTs and slots are recycled via scratch_free_.
  rdma::Addr AcquireScratch();

  net::Fabric* fabric_;
  PrismKvServer* server_;
  core::PrismClient prism_;
  core::ReclaimClient reclaim_;
  std::vector<rdma::Addr> scratch_free_;
  check::HistoryRecorder* history_ = nullptr;
  int history_client_ = 0;

  uint64_t round_trips_ = 0;
  uint64_t cas_failures_ = 0;
  uint64_t probe_overflows_ = 0;
};

// Record encoding helpers (shared with tests). A record is
// [klen u32 | vlen u32 | key | value]; EncodeRecordInto writes its
// 8 + key.size() + value.size() bytes at `out`.
void EncodeRecordInto(uint8_t* out, ByteView key, ByteView value);
SmallBytes EncodeRecord(ByteView key, ByteView value);
struct DecodedRecord {
  Bytes key;
  Bytes value;
};
Result<DecodedRecord> DecodeRecord(ByteView record);

}  // namespace prism::kv

#endif  // PRISM_SRC_KV_PRISM_KV_H_
