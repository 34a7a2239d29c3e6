#include "src/tx/prism_tx.h"

#include <algorithm>

#include "src/common/hash.h"

namespace prism::tx {

using core::Chain;
using core::Op;
using core::OpCode;

PrismTxShard::PrismTxShard(net::Fabric* fabric, net::HostId host,
                           PrismTxOptions opts)
    : opts_(opts) {
  PRISM_CHECK_GT(opts.buffers_per_shard, opts.keys_per_shard);
  const uint64_t meta_bytes = opts.keys_per_shard * 32;
  const uint64_t buf_size = 16 + opts.value_size;  // [C | key | value]
  const uint64_t pool_bytes = opts.buffers_per_shard * buf_size;
  mem_ = std::make_unique<rdma::AddressSpace>(
      meta_bytes + pool_bytes + core::PrismServer::kOnNicBytes + (1 << 20));
  prism_ = std::make_unique<core::PrismServer>(fabric, host, opts.deployment,
                                               mem_.get());
  auto region =
      mem_->CarveAndRegister(meta_bytes + pool_bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  meta_base_ = region_.base;
  pool_base_ = region_.base + meta_bytes;
  freelist_ = prism_->freelists().CreateQueue(buf_size);
  // Buffers [0, keys_per_shard) are reserved for the bulk-load phase; the
  // rest feed ALLOCATE.
  std::vector<rdma::Addr> buffers;
  buffers.reserve(opts.buffers_per_shard - opts.keys_per_shard);
  for (uint64_t i = opts.keys_per_shard; i < opts.buffers_per_shard; ++i) {
    buffers.push_back(pool_base_ + i * buf_size);
  }
  prism_->PostBuffers(freelist_, std::move(buffers));
}

Status PrismTxShard::LoadKey(uint64_t slot, uint64_t key, ByteView value) {
  if (slot >= opts_.keys_per_shard) return OutOfRange("slot out of range");
  if (value.size() > opts_.value_size) return InvalidArgument("value size");
  if (mem_->LoadWord(ptr_addr(slot)) != 0) {
    return AlreadyExists("slot already loaded");
  }
  const uint64_t buf_size = 16 + opts_.value_size;
  PRISM_CHECK_LT(next_load_buffer_, opts_.keys_per_shard);
  rdma::Addr buf = pool_base_ + next_load_buffer_++ * buf_size;
  // Load version: timestamp 1 (clients start their clocks above it).
  const uint64_t c0 = Timestamp{1, 0}.Packed();
  mem_->StoreWord(buf, c0);
  mem_->StoreWord(buf + 8, key);
  mem_->Store(buf + 16, value);
  mem_->StoreWord(pr_addr(slot), c0);
  mem_->StoreWord(pw_addr(slot), c0);
  mem_->StoreWord(c_addr(slot), c0);
  mem_->StoreWord(ptr_addr(slot), buf);
  return OkStatus();
}

PrismTxCluster::PrismTxCluster(net::Fabric* fabric, int n_shards,
                               PrismTxOptions opts)
    : opts_(opts) {
  for (int i = 0; i < n_shards; ++i) {
    net::HostId host = fabric->AddHost("tx-shard-" + std::to_string(i));
    shards_.push_back(std::make_unique<PrismTxShard>(fabric, host, opts));
  }
}

std::pair<int, uint64_t> PrismTxCluster::Locate(uint64_t key) const {
  // Dense keys (the YCSB setup) map collision-free: shard by low bits, slot
  // by the quotient — the paper's "collisionless hash function" (§6.2).
  const int shard = static_cast<int>(key % shards_.size());
  const uint64_t slot = (key / shards_.size()) % opts_.keys_per_shard;
  return {shard, slot};
}

Status PrismTxCluster::LoadKey(uint64_t key, ByteView value) {
  auto [shard, slot] = Locate(key);
  return shards_[static_cast<size_t>(shard)]->LoadKey(slot, key, value);
}

PrismTxClient::PrismTxClient(net::Fabric* fabric, net::HostId self,
                             PrismTxCluster* cluster, uint16_t client_id)
    : fabric_(fabric),
      self_(self),
      cluster_(cluster),
      prism_(fabric, self),
      client_id_(client_id) {
  for (int i = 0; i < cluster->n_shards(); ++i) {
    auto scratch =
        cluster->shard(i).prism().AllocateScratch(16 * kScratchSlots);
    PRISM_CHECK(scratch.ok()) << scratch.status();
    scratch_.push_back(*scratch);
    reclaim_.push_back(std::make_unique<core::ReclaimClient>(
        fabric, self, &cluster->shard(i).prism(),
        cluster->options().reclaim_batch));
  }
}

void PrismTxClient::FlushReclaim() {
  for (auto& r : reclaim_) r->Flush();
}

sim::Task<Result<Bytes>> PrismTxClient::Read(Transaction& txn, uint64_t key) {
  PRISM_CHECK(txn.active);
  // Read-your-writes from the local write buffer.
  for (const auto& w : txn.write_set) {
    if (w.key == key) {
      Bytes copy = w.value;
      co_return copy;
    }
  }
  auto [shard_idx, slot] = cluster_->Locate(key);
  PrismTxShard& shard = cluster_->shard(shard_idx);
  const uint64_t read_len = 16 + cluster_->options().value_size;
  // One round trip, two chained ops: read the [C|addr] metadata window, then
  // indirect-read the buffer. RC = max(slot C, buffer C): after an abort the
  // slot C is bumped past the stalled PW ("update C to TS", §8.2), and
  // taking the slot C as the read version is what unsticks later
  // validations (RC == PW again). The value is still the latest committed
  // version as of that RC — the bump happened precisely because no install
  // occurred.
  Chain chain;
  chain.reserve(2);
  chain.push_back(Op::Read(shard.rkey(), shard.c_addr(slot), 16));
  chain.push_back(Op::IndirectRead(shard.rkey(), shard.ptr_addr(slot),
                                   read_len));
  auto r = co_await prism_.Execute(&shard.prism(), std::move(chain), txn.ctx);
  if (!r.ok()) co_return r.status();
  const bool record = history_ != nullptr &&
                      txn.history_id != Transaction::kNoHistory;
  const core::OpResult& meta = (*r)[0];
  const core::OpResult& buf = (*r)[1];
  if (!meta.status.ok() || !buf.status.ok()) {
    if (record) history_->RecordRead(txn.history_id, key, check::kAbsent);
    co_return NotFound("key not loaded");
  }
  if (buf.data.size() < 16 || LoadU64(buf.data.data() + 8) != key) {
    if (record) history_->RecordRead(txn.history_id, key, check::kAbsent);
    co_return NotFound("slot holds a different key");
  }
  const uint64_t slot_c = LoadU64(meta.data.data());
  const uint64_t buffer_c = LoadU64(buf.data.data());
  const uint64_t rc = std::max(slot_c, buffer_c);
  logical_clock_ =
      std::max(logical_clock_, Timestamp::FromPacked(rc).time);
  txn.read_set.push_back({key, rc});
  Bytes value(buf.data.begin() + 16, buf.data.end());
  if (record) history_->RecordRead(txn.history_id, key, check::IdOf(value));
  co_return std::move(value);
}

void PrismTxClient::Write(Transaction& txn, uint64_t key, Bytes value) {
  PRISM_CHECK(txn.active);
  PRISM_CHECK_LE(value.size(), cluster_->options().value_size);
  for (auto& w : txn.write_set) {
    if (w.key == key) {
      w.value = std::move(value);
      return;
    }
  }
  txn.write_set.push_back({key, std::move(value)});
}

sim::Task<Status> PrismTxClient::AbortCleanup(
    const std::vector<WritePrep>& preps, Timestamp ts, obs::Ctx ctx) {
  // §8.2: leave PR/PW conservatively high, but bump C for keys whose write
  // check passed, so concurrent readers are not blocked waiting on RC == PW.
  int pending = 0;
  for (const auto& p : preps) pending += p.valid ? 1 : 0;
  sim::FanOut<> bumps(fabric_->sim(), pending, pending);
  for (const auto& p : preps) {
    if (!p.valid) continue;
    auto [shard_idx, slot] = cluster_->Locate(p.key);
    PrismTxShard* shard = &cluster_->shard(shard_idx);
    const uint64_t key_slot = slot;
    const uint64_t packed = ts.Packed();
    bumps.Spawn([this, shard, key_slot, packed, ctx]() -> sim::Task<bool> {
      // CAS_GT on the [C|addr] window, swapping only C.
      Op bump = Op::MaskedCas(shard->rkey(), shard->c_addr(key_slot),
                              SmallBytes::OfU64Pair(packed, 0),
                              FieldMask(16, 0, 8), FieldMask(16, 0, 8),
                              rdma::CasCompare::kGreater);
      auto r =
          co_await prism_.ExecuteOne(&shard->prism(), std::move(bump), ctx);
      co_return r.ok();
    });
  }
  co_await bumps.Wait();
  co_return OkStatus();
}

sim::Task<Status> PrismTxClient::Commit(Transaction& txn) {
  PRISM_CHECK(txn.active);
  txn.active = false;
  const obs::Ctx ctx = txn.ctx;
  const bool record = history_ != nullptr &&
                      txn.history_id != Transaction::kNoHistory;
  if (record) {
    for (const auto& w : txn.write_set) {
      history_->RecordWrite(txn.history_id, w.key, check::IdOf(w.value));
    }
  }
  if (txn.write_set.empty() && txn.read_set.empty()) {
    commits_++;
    if (record) history_->EndTxn(txn.history_id, check::TxOutcome::kCommitted);
    co_return OkStatus();
  }

  // Choose TS > every RC observed (§8.2 / Meerkat).
  logical_clock_++;
  for (const auto& r : txn.read_set) {
    logical_clock_ = std::max(logical_clock_,
                              Timestamp::FromPacked(r.rc).time + 1);
  }
  const Timestamp ts{logical_clock_, client_id_};
  const uint64_t packed_ts = ts.Packed();

  // Partition keys: a key both read and written gets a single *combined*
  // validation CAS (below); read-only keys get read validation; write-only
  // keys get plain write validation.
  std::map<uint64_t, uint64_t> rmw_rc;  // write-set keys that were read
  for (const auto& w : txn.write_set) {
    for (const auto& r : txn.read_set) {
      if (r.key == w.key) rmw_rc[w.key] = r.rc;
    }
  }

  // ---- prepare: read validation (one CAS per read-only key, parallel) ----
  std::vector<Transaction::ReadEntry> read_only;
  for (const auto& r : txn.read_set) {
    if (rmw_rc.find(r.key) == rmw_rc.end()) read_only.push_back(r);
  }
  // Each round's state is its verdict, cleared by any target that fails. A
  // round with no targets is decided at once: its Wait does not suspend.
  const int n_reads = static_cast<int>(read_only.size());
  sim::FanOut<bool> checks(fabric_->sim(), n_reads, n_reads);
  checks.state() = true;
  for (const auto& entry : read_only) {
    auto [shard_idx, slot] = cluster_->Locate(entry.key);
    PrismTxShard* shard = &cluster_->shard(shard_idx);
    const uint64_t rc = entry.rc;
    const uint64_t key_slot = slot;
    checks.Spawn([this, shard, key_slot, rc, packed_ts,
                  ctx](bool& valid) -> sim::Task<bool> {
      // Window [PR|PW] at pr_addr. Compare (RC|TS) > (PW|PR): PW (offset
      // 8) is most significant, so this is RC==PW && TS>PR (RC>PW cannot
      // happen). Swap PR := TS.
      Op cas = Op::MaskedCas(shard->rkey(), shard->pr_addr(key_slot),
                             SmallBytes::OfU64Pair(packed_ts, rc),
                             FieldMask(16, 0, 16),   // compare both fields
                             FieldMask(16, 0, 8),    // swap PR only
                             rdma::CasCompare::kGreater);
      auto r =
          co_await prism_.ExecuteOne(&shard->prism(), std::move(cas), ctx);
      if (!r.ok() || !r->status.ok()) {
        valid = false;
        co_return true;
      }
      if (!r->cas_swapped) {
        // Distinguish benign "PR already ≥ TS" from a conflicting
        // prepared writer via the returned old value (§8.2).
        const uint64_t old_pw = LoadU64(r->data.data() + 8);
        if (old_pw != rc) valid = false;  // prepared/committed writer
      }
      co_return true;
    });
  }
  co_await checks.Wait();
  if (!checks.state()) {
    aborts_++;
    // Validation failure precedes any install: no write is visible.
    if (record) history_->EndTxn(txn.history_id, check::TxOutcome::kAborted);
    co_return Aborted("read validation failed");
  }

  // ---- prepare: write validation ----
  const int n_writes = static_cast<int>(txn.write_set.size());
  sim::FanOut<std::vector<WritePrep>> prepare(fabric_->sim(), n_writes,
                                              n_writes);
  std::vector<WritePrep>& preps = prepare.state();
  preps.reserve(txn.write_set.size());
  for (const auto& w : txn.write_set) preps.push_back({w.key, false, false});
  for (size_t i = 0; i < txn.write_set.size(); ++i) {
    auto [shard_idx, slot] = cluster_->Locate(txn.write_set[i].key);
    PrismTxShard* shard = &cluster_->shard(shard_idx);
    const uint64_t key_slot = slot;
    auto rmw_it = rmw_rc.find(txn.write_set[i].key);
    const bool is_rmw = rmw_it != rmw_rc.end();
    const uint64_t rc = is_rmw ? rmw_it->second : 0;
    prepare.Spawn([this, shard, key_slot, packed_ts, i, is_rmw, rc,
                   ctx](std::vector<WritePrep>& out) -> sim::Task<bool> {
      Op cas;
      if (is_rmw) {
        // Combined read+write validation for a key both read and written:
        // compare (RC|TS) > (PW|PR) — i.e. RC == PW (no prepared writer
        // since our read) and TS > PR — and swap both PR and PW to TS.
        // Needs the separate compare/swap operand form: the compare wants
        // RC in the PW position while the swap writes TS there.
        cas = Op::CompareSwapCas(shard->rkey(), shard->pr_addr(key_slot),
                                 /*compare=*/SmallBytes::OfU64Pair(packed_ts,
                                                                   rc),
                                 /*swap=*/SmallBytes::OfU64Pair(packed_ts,
                                                                packed_ts),
                                 FieldMask(16, 0, 16),  // compare both
                                 FieldMask(16, 0, 16),  // swap both
                                 rdma::CasCompare::kGreater);
      } else {
        // Blind write: compare TS > PW (PW field only), swap PW := TS.
        // The returned old value carries PR, checked below (§8.2 notes
        // the optimistic PW bump is safe).
        cas = Op::MaskedCas(shard->rkey(), shard->pr_addr(key_slot),
                            SmallBytes::OfU64Pair(0, packed_ts),
                            FieldMask(16, 8, 8),  // compare PW only (GT)
                            FieldMask(16, 8, 8),  // swap PW only
                            rdma::CasCompare::kGreater);
      }
      auto r =
          co_await prism_.ExecuteOne(&shard->prism(), std::move(cas), ctx);
      if (r.ok() && r->status.ok() && r->cas_swapped) {
        out[i].pw_bumped = true;
        if (is_rmw) {
          out[i].valid = true;  // TS > PR is part of the compare
        } else {
          const uint64_t old_pr = LoadU64(r->data.data());
          out[i].valid = packed_ts > old_pr;
        }
      }
      co_return true;
    });
  }
  co_await prepare.Wait();
  bool all_valid = true;
  for (const auto& p : preps) all_valid = all_valid && p.valid;
  if (!all_valid) {
    aborts_++;
    co_await AbortCleanup(preps, ts, ctx);
    // PR/PW/C bumps never expose a value: no write is visible.
    if (record) history_->EndTxn(txn.history_id, check::TxOutcome::kAborted);
    co_return Aborted("write validation failed");
  }

  // ---- commit: install every write with the PRISM-RS chain ----
  sim::FanOut<bool> installs(fabric_->sim(), n_writes, n_writes);
  installs.state() = true;
  std::map<int, uint64_t> scratch_used;  // per-shard slot cursor
  for (const auto& w : txn.write_set) {
    auto [shard_idx, slot] = cluster_->Locate(w.key);
    PrismTxShard* shard = &cluster_->shard(shard_idx);
    const uint64_t scratch_slot = scratch_used[shard_idx]++;
    PRISM_CHECK_LT(scratch_slot, kScratchSlots)
        << "too many writes to one shard in a single transaction";
    const rdma::Addr tmp =
        scratch_[static_cast<size_t>(shard_idx)] + 16 * scratch_slot;
    const size_t reclaim_idx = static_cast<size_t>(shard_idx);
    // Buffer payload [TS | key | value], built once; the chain's ALLOCATE
    // shares it (DESIGN.md §5.15).
    SmallBytes payload(16 + w.value.size());
    StoreU64(payload.mutable_data(), packed_ts);
    StoreU64(payload.mutable_data() + 8, w.key);
    std::memcpy(payload.mutable_data() + 16, w.value.data(), w.value.size());
    const uint64_t key_slot = slot;
    installs.Spawn([this, shard, key_slot, packed_ts, tmp, payload,
                    reclaim_idx, ctx](bool& installed) -> sim::Task<bool> {
      Chain chain;
      chain.reserve(3);
      chain.push_back(
          Op::Write(shard->rkey(), tmp, SmallBytes::OfU64(packed_ts)));
      chain.push_back(Op::Allocate(shard->rkey(), shard->freelist(),
                                   payload)
                          .RedirectTo(tmp + 8)
                          .Conditional());
      Op install;
      install.code = OpCode::kCas;
      install.rkey = shard->rkey();
      install.addr = shard->c_addr(key_slot);
      install.data = SmallBytes::OfU64(tmp);
      install.data_indirect = true;     // operand = [TS | addr'] at tmp
      install.cmp_mask = FieldMask(16, 0, 8);   // compare C (GT)
      install.swap_mask = FieldMask(16, 0, 16);  // swap C and addr
      install.cas_mode = rdma::CasCompare::kGreater;
      install.conditional = true;
      chain.push_back(std::move(install));
      auto r =
          co_await prism_.Execute(&shard->prism(), std::move(chain), ctx);
      if (!r.ok()) {
        installed = false;
        co_return true;
      }
      const core::OpResult& alloc = (*r)[1];
      const core::OpResult& cas = (*r)[2];
      if (!alloc.executed || !alloc.status.ok() || !cas.executed ||
          !cas.status.ok()) {
        installed = false;
        co_return true;
      }
      if (cas.cas_swapped) {
        // Recycle the displaced buffer. Bulk-load buffers are per-key and
        // the same size class, so they re-enter the pool too — without
        // this, every first overwrite would permanently consume a pool
        // buffer and ALLOCATE would starve once enough distinct keys had
        // been written.
        const rdma::Addr old_addr = LoadU64(cas.data.data() + 8);
        reclaim_[reclaim_idx]->Free(shard->freelist(), old_addr, ctx);
      } else {
        // A committed writer with a higher TS already installed: our
        // write is absorbed (Thomas write rule) — still a commit.
        reclaim_[reclaim_idx]->Free(shard->freelist(), alloc.resolved_addr,
                                    ctx);
      }
      co_return true;
    });
  }
  co_await installs.Wait();
  if (!installs.state()) {
    aborts_++;
    // Some install chains may have landed before the failure: the writes
    // are possibly (partially) visible.
    if (record) {
      history_->EndTxn(txn.history_id, check::TxOutcome::kIndeterminate);
    }
    co_return Aborted("commit install failed");
  }
  commits_++;
  if (record) history_->EndTxn(txn.history_id, check::TxOutcome::kCommitted);
  co_return OkStatus();
}

}  // namespace prism::tx
