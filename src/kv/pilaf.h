// Pilaf (Mitchell et al., ATC'13) — the baseline key-value store the paper
// compares PRISM-KV against (§2.1, §6).
//
// Pilaf's split of labor:
//  * GET uses one-sided RDMA READs: one READ of the hash-table bucket, a
//    second READ of the extent it points to — two round trips, plus
//    application-level CRC verification of both structures (self-verifying
//    data structures detect races with concurrent server-CPU writes).
//  * PUT/DELETE are two-sided RPCs executed by the server CPU, which
//    allocates extents, writes data, and updates buckets.
//
// Memory layout (byte-accurate in the simulated address space):
//  * Bucket array: 64 B per bucket (what a GET READs). The 32-byte entry:
//      [flags u32][klen u32][vlen u32][seq u32][ptr u64][pad u64][crc u32]
//    flags: 0 = empty, 1 = valid, 2 = tombstone; crc covers bytes 0..27.
//  * Extents: fixed-size slabs holding [key][value][crc u32] with the CRC
//    over key+value. In-place value updates write data before the CRC, so a
//    concurrent reader can observe a torn extent — and must detect it by
//    checksum and retry, exactly the complexity PRISM-KV's out-of-place
//    updates eliminate.
#ifndef PRISM_SRC_KV_PILAF_H_
#define PRISM_SRC_KV_PILAF_H_

#include <deque>
#include <memory>
#include <string>

#include "src/net/fabric.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"

namespace prism::kv {

struct PilafOptions {
  uint64_t n_buckets = 4096;
  uint64_t extent_size = 640;
  uint64_t n_extents = 8192;
  uint64_t max_value_size = 512;
  rdma::Backend backend = rdma::Backend::kHardwareNic;
  int max_probes = 64;
  int max_torn_retries = 64;
  bool dense_key_hash = false;  // §6.2's collisionless hash (bench setup)
};

class PilafServer {
 public:
  static constexpr uint64_t kBucketSize = 64;
  static constexpr uint64_t kEntrySize = 32;
  static constexpr rpc::MethodId kPutMethod = 1;
  static constexpr rpc::MethodId kDeleteMethod = 2;

  struct PutRequest {
    Bytes key;
    Bytes value;
  };
  struct PutResponse {
    Status status;
  };

  PilafServer(net::Fabric* fabric, net::HostId host, PilafOptions opts);

  rdma::RdmaService& rdma() { return *rdma_; }
  rpc::RpcServer& rpc() { return *rpc_; }
  rdma::AddressSpace& memory() { return *mem_; }
  const PilafOptions& options() const { return opts_; }

  rdma::RKey rkey() const { return region_.rkey; }
  rdma::Addr bucket_addr(uint64_t bucket) const {
    return table_base_ + bucket * kBucketSize;
  }

  uint64_t puts_served() const { return puts_served_; }
  size_t free_extents() const { return free_extents_.size(); }

  // Setup-time bulk load (bypasses the RPC path).
  Status LoadKey(const Bytes& key, ByteView value);

  uint64_t HashBucket(const Bytes& key) const;

  // Bucket-entry codec (shared with the client and tests).
  struct Entry {
    uint32_t flags = 0;  // 0 empty / 1 valid / 2 tombstone
    uint32_t klen = 0;
    uint32_t vlen = 0;
    uint32_t seq = 0;
    rdma::Addr ptr = 0;
    bool crc_ok = false;
  };
  static Entry ParseEntry(ByteView bucket_bytes);
  static void WriteEntry(uint8_t* dst, uint32_t flags, uint32_t klen,
                         uint32_t vlen, uint32_t seq, rdma::Addr ptr);

 private:
  friend class PilafClient;

  // The handlers read the request in place (RpcServer::Handler).
  sim::Task<rpc::MessagePtr> HandlePut(const PutRequest& request);
  sim::Task<rpc::MessagePtr> HandleDelete(const Bytes& key);

  // Server-side probe for a key; returns the bucket index, or the first
  // free/tombstone bucket if absent (result < 0 means table full).
  int64_t FindBucket(const Bytes& key, bool* exists) const;

  PilafOptions opts_;
  net::Fabric* fabric_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<rdma::RdmaService> rdma_;
  std::unique_ptr<rpc::RpcServer> rpc_;
  rdma::MemoryRegion region_;
  rdma::Addr table_base_ = 0;
  rdma::Addr extents_base_ = 0;
  std::deque<rdma::Addr> free_extents_;
  uint64_t puts_served_ = 0;
};

class PilafClient {
 public:
  PilafClient(net::Fabric* fabric, net::HostId self, PilafServer* server);

  // GET via two one-sided READs + CRC verification; retries torn reads.
  sim::Task<Result<Bytes>> Get(const std::string& key);

  // PUT/DELETE via two-sided RPC.
  sim::Task<Status> Put(const std::string& key, Bytes value);
  sim::Task<Status> Delete(const std::string& key);

  uint64_t reads_issued() const { return reads_issued_; }
  uint64_t torn_retries() const { return torn_retries_; }
  // Combined protocol-complexity tally over both transports
  // (src/obs/complexity.h): one-sided READs for GETs, RPC for PUTs.
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
  PilafServer* server_;
  rdma::RdmaClient rdma_;
  rpc::RpcClient rpc_;
  uint64_t reads_issued_ = 0;
  uint64_t torn_retries_ = 0;
};

}  // namespace prism::kv

#endif  // PRISM_SRC_KV_PILAF_H_
