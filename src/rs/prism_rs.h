// PRISM-RS — replicated block storage via multi-writer ABD (§7).
//
// Linearizable single-register-per-block storage across n = 2f+1 replicas,
// tolerating f crashes, with no replica CPU involvement.
//
// Per-replica memory layout (Figure 5):
//  * a metadata array with one 16-byte element per block:
//        [tag_i u64 | addr_i u64]
//    where tag = (logical timestamp << 16 | client id), and addr_i points at
//  * a value buffer   [tag u64 | value blockB]   — the tag is deliberately
//    duplicated so a single indirect READ of addr_i returns an atomic
//    ⟨tag,value⟩ pair, and the CAS on ⟨tag_i,addr_i⟩ orders installs.
//
// Protocol (Lynch–Shvartsman multi-writer ABD, §7.1):
//  * Read phase: indirect READ of the metadata addr field at all replicas;
//    wait for f+1; pick v_max with maximal tag.
//  * Write phase (GET write-back and PUT install) per replica, one chain:
//      1. WRITE tag' into the client's on-NIC scratch tmp
//      2. ALLOCATE [tag'|v'] with the new address redirected to tmp+8
//      3. CAS_GT on the metadata element: operand = *tmp (16 B, indirect),
//         compare mask = tag field, swap mask = both fields — installs
//         ⟨tag',addr'⟩ iff tag' > tag_i.
//    A CAS that loses (replica already has a newer tag) still acknowledges
//    the phase — ABD only needs the replica to be at least as new — and the
//    orphaned buffer goes back through the reclamation daemon.
#ifndef PRISM_SRC_RS_PRISM_RS_H_
#define PRISM_SRC_RS_PRISM_RS_H_

#include <memory>
#include <vector>

#include "src/check/history.h"
#include "src/net/fabric.h"
#include "src/prism/reclaim.h"
#include "src/prism/service.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::rs {

// Tag = (logical timestamp, client id) packed so that integer comparison is
// lexicographic comparison of the pair.
struct Tag {
  uint64_t ts = 0;
  uint16_t client = 0;

  uint64_t Packed() const { return (ts << 16) | client; }
  static Tag FromPacked(uint64_t packed) {
    return Tag{packed >> 16, static_cast<uint16_t>(packed & 0xffff)};
  }
  bool operator<(const Tag& other) const { return Packed() < other.Packed(); }
  bool operator==(const Tag& other) const {
    return Packed() == other.Packed();
  }
};

struct PrismRsOptions {
  uint64_t n_blocks = 1024;
  uint64_t block_size = 512;   // fixed size, or the maximum in variable mode
  uint64_t buffers_per_replica = 4096;
  core::Deployment deployment = core::Deployment::kSoftware;
  size_t reclaim_batch = 16;
  // §7.3: "it can be extended to variable-sized blocks by adding a len_i
  // metadata field as in PRISM-KV". In variable mode the metadata element
  // widens to 24 bytes — [tag | ptr | bound] — so the read phase issues a
  // *bounded* indirect READ and the install CAS swaps all three fields in
  // one 24-byte enhanced CAS.
  bool variable_block_size = false;
  // Classic ABD read optimization: when every replica in the read quorum
  // returns the same tag, the value is already stored at f+1 replicas and
  // the write-back phase can be skipped — a GET completes in ONE round of
  // communication. Linearizability is preserved (the quorum itself
  // witnesses the tag at f+1 replicas). Off by default to match the paper's
  // measured two-phase protocol.
  bool skip_unanimous_writeback = false;
};

// One replica: a PRISM server hosting the metadata array and buffer pool.
class PrismRsReplica {
 public:
  PrismRsReplica(net::Fabric* fabric, net::HostId host, PrismRsOptions opts);

  core::PrismServer& prism() { return *prism_; }
  rdma::AddressSpace& memory() { return *mem_; }
  rdma::RKey rkey() const { return region_.rkey; }
  uint32_t freelist() const { return freelist_; }
  // Metadata element: fixed mode [tag|addr] (16 B); variable mode
  // [tag|ptr|bound] (24 B).
  uint64_t meta_stride() const {
    return opts_.variable_block_size ? 24 : 16;
  }
  rdma::Addr meta_addr(uint64_t block) const {
    return meta_base_ + block * meta_stride();
  }

  // Crash amnesia: resets every metadata element to its zero-state, as if
  // the replica's DRAM did not survive a restart. ABD assumes replica state
  // outlives crashes, so a quorum of wiped replicas loses writes — chaos
  // tests use this to prove the checker notices.
  void WipeState();

 private:
  PrismRsOptions opts_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<core::PrismServer> prism_;
  rdma::MemoryRegion region_;
  rdma::Addr meta_base_ = 0;
  uint32_t freelist_ = 0;
};

class PrismRsCluster {
 public:
  PrismRsCluster(net::Fabric* fabric, int n_replicas, PrismRsOptions opts);

  int n() const { return static_cast<int>(replicas_.size()); }
  int quorum() const { return n() / 2 + 1; }
  PrismRsReplica& replica(int i) { return *replicas_[i]; }
  const PrismRsOptions& options() const { return opts_; }

 private:
  PrismRsOptions opts_;
  std::vector<std::unique_ptr<PrismRsReplica>> replicas_;
};

class PrismRsClient {
 public:
  PrismRsClient(net::Fabric* fabric, net::HostId self, PrismRsCluster* cluster,
                uint16_t client_id);

  // Linearizable read of a block. Returns the value; out_tag (optional)
  // receives the tag the read observed.
  sim::Task<Result<Bytes>> Get(uint64_t block, Tag* out_tag = nullptr);

  // Linearizable write. out_tag receives the installed tag.
  sim::Task<Status> Put(uint64_t block, Bytes value, Tag* out_tag = nullptr);

  void FlushReclaim();

  // When set, every Get/Put records an invocation/response entry (keyed by
  // block) for offline linearizability checking.
  void set_history(check::HistoryRecorder* history) { history_ = history; }

  uint64_t round_trips() const { return round_trips_; }
  // Transport-level protocol-complexity tally (src/obs/complexity.h).
  obs::TransportTally TransportTally() const { return prism_.tally(); }
  // Shared per-host verb batcher (doorbell batching + completion
  // coalescing); null keeps the flat unbatched post/poll cost.
  void set_batcher(rdma::VerbBatcher* b) { prism_.set_batcher(b); }
  uint64_t writebacks_skipped() const { return writebacks_skipped_; }

 private:
  struct ReadPhaseResult {
    Status status;
    Tag max_tag;
    Bytes max_value;  // [value] only (tag stripped)
    bool unanimous = false;  // every quorum member returned max_tag
  };
  sim::Task<ReadPhaseResult> ReadPhase(uint64_t block, obs::Ctx ctx);
  // Propagates ⟨tag,value⟩ to replicas; resolves OK once f+1 acked.
  // `value` is read only before the first suspension.
  sim::Task<Status> WritePhase(uint64_t block, Tag tag, ByteView value,
                              obs::Ctx ctx);

  net::Fabric* fabric_;
  net::HostId self_;
  PrismRsCluster* cluster_;
  core::PrismClient prism_;
  uint16_t client_id_;
  check::HistoryRecorder* history_ = nullptr;
  std::vector<rdma::Addr> scratch_;  // 16 B per replica: [tag' | addr']
  std::vector<std::unique_ptr<core::ReclaimClient>> reclaim_;
  uint64_t round_trips_ = 0;
  uint64_t writebacks_skipped_ = 0;
};

}  // namespace prism::rs

#endif  // PRISM_SRC_RS_PRISM_RS_H_
