#include "src/rs/prism_rs.h"

namespace prism::rs {

using core::Chain;
using core::Op;
using core::OpCode;

PrismRsReplica::PrismRsReplica(net::Fabric* fabric, net::HostId host,
                               PrismRsOptions opts)
    : opts_(opts) {
  const uint64_t meta_bytes = opts.n_blocks * meta_stride();
  const uint64_t buf_size = 8 + opts.block_size;  // [tag | value]
  const uint64_t pool_bytes = opts.buffers_per_replica * buf_size;
  mem_ = std::make_unique<rdma::AddressSpace>(
      meta_bytes + pool_bytes + core::PrismServer::kOnNicBytes + (1 << 20));
  prism_ = std::make_unique<core::PrismServer>(fabric, host, opts.deployment,
                                               mem_.get());
  auto region =
      mem_->CarveAndRegister(meta_bytes + pool_bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  meta_base_ = region_.base;
  freelist_ = prism_->freelists().CreateQueue(buf_size);
  const rdma::Addr pool_base = region_.base + meta_bytes;
  // Block 0-state: every metadata element starts as ⟨tag=0, addr=initial⟩
  // with a zero-filled initial buffer, so reads of never-written blocks
  // return zeroes rather than NACKing.
  const rdma::Addr initial_buf = pool_base;  // shared by all blocks
  for (uint64_t b = 0; b < opts.n_blocks; ++b) {
    mem_->StoreWord(meta_addr(b), 0);                // tag
    mem_->StoreWord(meta_addr(b) + 8, initial_buf);  // addr / ptr
    if (opts.variable_block_size) {
      mem_->StoreWord(meta_addr(b) + 16, 8 + opts.block_size);  // bound
    }
  }
  std::vector<rdma::Addr> buffers;
  buffers.reserve(opts.buffers_per_replica);
  for (uint64_t i = 1; i < opts.buffers_per_replica; ++i) {
    buffers.push_back(pool_base + i * buf_size);
  }
  prism_->PostBuffers(freelist_, std::move(buffers));
}

void PrismRsReplica::WipeState() {
  const uint64_t meta_bytes = opts_.n_blocks * meta_stride();
  const rdma::Addr initial_buf = meta_base_ + meta_bytes;
  for (uint64_t b = 0; b < opts_.n_blocks; ++b) {
    mem_->StoreWord(meta_addr(b), 0);                // tag
    mem_->StoreWord(meta_addr(b) + 8, initial_buf);  // addr / ptr
    if (opts_.variable_block_size) {
      mem_->StoreWord(meta_addr(b) + 16, 8 + opts_.block_size);  // bound
    }
  }
}

PrismRsCluster::PrismRsCluster(net::Fabric* fabric, int n_replicas,
                               PrismRsOptions opts)
    : opts_(opts) {
  PRISM_CHECK(n_replicas % 2 == 1) << "need n = 2f+1 replicas";
  for (int i = 0; i < n_replicas; ++i) {
    net::HostId host = fabric->AddHost("rs-replica-" + std::to_string(i));
    replicas_.push_back(
        std::make_unique<PrismRsReplica>(fabric, host, opts));
  }
}

PrismRsClient::PrismRsClient(net::Fabric* fabric, net::HostId self,
                             PrismRsCluster* cluster, uint16_t client_id)
    : fabric_(fabric),
      self_(self),
      cluster_(cluster),
      prism_(fabric, self),
      client_id_(client_id) {
  const uint64_t scratch_bytes =
      cluster->options().variable_block_size ? 24 : 16;
  for (int i = 0; i < cluster->n(); ++i) {
    auto scratch =
        cluster->replica(i).prism().AllocateScratch(scratch_bytes);
    PRISM_CHECK(scratch.ok()) << scratch.status();
    scratch_.push_back(*scratch);
    reclaim_.push_back(std::make_unique<core::ReclaimClient>(
        fabric, self, &cluster->replica(i).prism(),
        cluster->options().reclaim_batch));
  }
}

void PrismRsClient::FlushReclaim() {
  for (auto& r : reclaim_) r->Flush();
}

sim::Task<PrismRsClient::ReadPhaseResult> PrismRsClient::ReadPhase(
    uint64_t block, obs::Ctx ctx) {
  const bool variable = cluster_->options().variable_block_size;
  const uint64_t read_len = 8 + cluster_->options().block_size;
  struct Shared {
    Tag max_tag;
    Bytes max_value;
    bool any = false;
    int replies = 0;
    int with_max_tag = 0;
  };
  sim::FanOut<Shared> reads(fabric_->sim(), cluster_->quorum(),
                            cluster_->n());
  for (int i = 0; i < cluster_->n(); ++i) {
    PrismRsReplica* replica = &cluster_->replica(i);
    // One indirect READ per replica: dereference the addr field of the
    // metadata element and return the [tag|value] buffer atomically. In
    // variable mode the pointer is a ⟨ptr,bound⟩ pair, so the READ is
    // bounded and returns exactly the stored length (§7.3 extension).
    reads.Spawn([this, replica, block, read_len, variable,
                 ctx](Shared& shared) -> sim::Task<bool> {
      Op read = Op::IndirectRead(replica->rkey(),
                                 replica->meta_addr(block) + 8, read_len,
                                 /*bounded=*/variable);
      auto r = co_await prism_.ExecuteOne(&replica->prism(), std::move(read),
                                          ctx);
      round_trips_++;
      if (!r.ok() || !r->status.ok() || r->data.size() < 8) co_return false;
      Tag tag = Tag::FromPacked(LoadU64(r->data.data()));
      shared.replies++;
      if (!shared.any || shared.max_tag < tag) {
        shared.any = true;
        shared.max_tag = tag;
        shared.max_value.assign(r->data.begin() + 8, r->data.end());
        shared.with_max_tag = 1;
      } else if (tag == shared.max_tag) {
        shared.with_max_tag++;
      }
      co_return true;
    });
  }
  ReadPhaseResult out;
  const bool reached = co_await reads.Wait();
  if (!reached) {
    out.status = Unavailable("read phase: no quorum");
    co_return out;
  }
  Shared& shared = reads.state();
  out.status = OkStatus();
  out.max_tag = shared.max_tag;
  out.max_value = std::move(shared.max_value);
  // Snapshot unanimity as the phase resumes on its quorum: at least f+1
  // replies all carrying the maximal tag.
  out.unanimous = shared.with_max_tag >= cluster_->quorum() &&
                  shared.with_max_tag == shared.replies;
  co_return out;
}

sim::Task<Status> PrismRsClient::WritePhase(uint64_t block, Tag tag,
                                            ByteView value, obs::Ctx ctx) {
  const bool variable = cluster_->options().variable_block_size;
  if (variable) {
    PRISM_CHECK_LE(value.size(), cluster_->options().block_size);
  } else {
    PRISM_CHECK_EQ(value.size(), cluster_->options().block_size);
  }
  sim::FanOut<> writes(fabric_->sim(), cluster_->quorum(), cluster_->n());
  // The buffer payload [tag | value], built once: every replica's ALLOCATE
  // shares it, and each chain's copy keeps it alive for a server body that
  // outlives this phase (DESIGN.md §5.15).
  SmallBytes payload(8 + value.size());
  StoreU64(payload.mutable_data(), tag.Packed());
  if (!value.empty()) {  // a variable-size value may be empty (and null)
    std::memcpy(payload.mutable_data() + 8, value.data(), value.size());
  }

  for (int i = 0; i < cluster_->n(); ++i) {
    PrismRsReplica* replica = &cluster_->replica(i);
    const rdma::Addr tmp = scratch_[i];
    writes.Spawn([this, replica, block, tag, tmp, i, variable, payload,
                  ctx]() -> sim::Task<bool> {
      // The §7.3 write chain. In variable mode the scratch holds 24 bytes
      // [tag' | addr' | bound'] — tag and bound written in one WRITE, the
      // ALLOCATE redirecting its address into the gap — and the CAS swaps
      // the whole 24-byte metadata element.
      const uint64_t width = variable ? 24 : 16;
      Chain chain;
      chain.reserve(3);
      if (variable) {
        SmallBytes tag_and_bound(24);
        StoreU64(tag_and_bound.mutable_data(), tag.Packed());
        StoreU64(tag_and_bound.mutable_data() + 16, payload.size());
        chain.push_back(Op::Write(replica->rkey(), tmp,
                                  std::move(tag_and_bound)));     // 1. tag'+bound'
      } else {
        const SmallBytes tag_bytes = SmallBytes::OfU64(tag.Packed());
        chain.push_back(Op::Write(replica->rkey(), tmp, tag_bytes));  // 1. tag'
      }
      chain.push_back(Op::Allocate(replica->rkey(), replica->freelist(),
                                   payload)
                          .RedirectTo(tmp + 8)
                          .Conditional());                        // 2. addr'
      Op install;                                                 // 3. CAS_GT
      install.code = OpCode::kCas;
      install.rkey = replica->rkey();
      install.addr = replica->meta_addr(block);
      install.data = SmallBytes::OfU64(tmp);
      install.data_indirect = true;  // operand = *tmp
      install.cmp_mask = FieldMask(width, 0, 8);     // compare tag field (GT)
      install.swap_mask = FieldMask(width, 0, width);  // install all fields
      install.cas_mode = rdma::CasCompare::kGreater;
      install.conditional = true;
      chain.push_back(std::move(install));

      auto r =
          co_await prism_.Execute(&replica->prism(), std::move(chain), ctx);
      round_trips_++;
      if (!r.ok()) co_return false;
      const core::OpResult& alloc = (*r)[1];
      const core::OpResult& cas = (*r)[2];
      if (!alloc.executed || !alloc.status.ok() || !cas.executed ||
          !cas.status.ok()) {
        co_return false;
      }
      if (cas.cas_swapped) {
        // Old buffer displaced; recycle it (the initial shared buffer at
        // tag 0 is never recycled — it is identified by old tag == 0).
        const uint64_t old_tag = LoadU64(cas.data.data());
        const rdma::Addr old_addr = LoadU64(cas.data.data() + 8);
        if (old_tag != 0) {
          reclaim_[static_cast<size_t>(i)]->Free(replica->freelist(),
                                                 old_addr, ctx);
        }
      } else {
        // Replica already has a newer tag: our buffer is orphaned. The ABD
        // phase still counts as acknowledged.
        reclaim_[static_cast<size_t>(i)]->Free(replica->freelist(),
                                               alloc.resolved_addr, ctx);
      }
      co_return true;
    });
  }
  const bool reached = co_await writes.Wait();
  if (!reached) co_return Unavailable("write phase: no quorum");
  co_return OkStatus();
}

sim::Task<Result<Bytes>> PrismRsClient::Get(uint64_t block, Tag* out_tag) {
  const obs::Ctx ctx = fabric_->obs().entry();
  size_t hid = 0;
  if (history_ != nullptr) {
    hid = history_->Begin(client_id_, block, check::OpType::kRead);
  }
  ReadPhaseResult read = co_await ReadPhase(block, ctx);
  if (!read.status.ok()) {
    // A failed GET returned nothing: it constrains no history.
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return read.status;
  }
  if (cluster_->options().skip_unanimous_writeback && read.unanimous) {
    // The quorum itself witnessed the tag at f+1 replicas: the write-back
    // would be a no-op, so the GET completes in one round.
    writebacks_skipped_++;
    if (out_tag != nullptr) *out_tag = read.max_tag;
    if (history_ != nullptr) {
      history_->End(hid, check::Outcome::kOk, check::IdOf(read.max_value));
    }
    co_return std::move(read.max_value);
  }
  // Write-back phase: ensure f+1 replicas are at least as new as what we
  // are about to return (required for linearizability).
  Status wb = co_await WritePhase(block, read.max_tag, read.max_value, ctx);
  if (!wb.ok()) {
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return wb;
  }
  if (out_tag != nullptr) *out_tag = read.max_tag;
  if (history_ != nullptr) {
    history_->End(hid, check::Outcome::kOk, check::IdOf(read.max_value));
  }
  co_return std::move(read.max_value);
}

sim::Task<Status> PrismRsClient::Put(uint64_t block, Bytes value,
                                     Tag* out_tag) {
  const obs::Ctx ctx = fabric_->obs().entry();
  size_t hid = 0;
  if (history_ != nullptr) {
    hid = history_->Begin(client_id_, block, check::OpType::kWrite,
                          check::IdOf(value));
  }
  if (cluster_->options().variable_block_size) {
    if (value.size() > cluster_->options().block_size) {
      if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
      co_return InvalidArgument("value exceeds maximum block size");
    }
  } else if (value.size() != cluster_->options().block_size) {
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return InvalidArgument("value must be exactly block_size");
  }
  ReadPhaseResult read = co_await ReadPhase(block, ctx);
  if (!read.status.ok()) {
    // The write phase never started: the value was definitely not installed.
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return read.status;
  }
  Tag tag{read.max_tag.ts + 1, client_id_};
  Status st = co_await WritePhase(block, tag, value, ctx);
  if (!st.ok()) {
    // No quorum, but some replicas may have installed the value: a later
    // read may legally observe it (or not) — indeterminate.
    if (history_ != nullptr) {
      history_->End(hid, check::Outcome::kIndeterminate);
    }
    co_return st;
  }
  if (out_tag != nullptr) *out_tag = tag;
  if (history_ != nullptr) history_->End(hid, check::Outcome::kOk);
  co_return OkStatus();
}

}  // namespace prism::rs
