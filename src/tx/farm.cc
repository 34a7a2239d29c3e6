#include "src/tx/farm.h"

#include <algorithm>

namespace prism::tx {

FarmShard::FarmShard(net::Fabric* fabric, net::HostId host, FarmOptions opts)
    : opts_(opts), fabric_(fabric) {
  const uint64_t slot_bytes = opts.keys_per_shard * 16;
  const uint64_t obj_bytes = opts.keys_per_shard * (16 + opts.value_size);
  mem_ = std::make_unique<rdma::AddressSpace>(slot_bytes + obj_bytes +
                                              (1 << 20));
  auto region =
      mem_->CarveAndRegister(slot_bytes + obj_bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  slot_base_ = region_.base;
  obj_base_ = region_.base + slot_bytes;
  lock_holder_.assign(opts.keys_per_shard, 0);
  rdma_ = std::make_unique<rdma::RdmaService>(fabric, host, opts.backend,
                                              mem_.get());
  rpc_ = std::make_unique<rpc::RpcServer>(fabric, host);
  rpc_->Register(kLockMethod,
                 [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
                   auto resp = co_await HandleLock(m.As<LockRequest>());
                   co_return resp;
                 });
  rpc_->Register(kUpdateMethod,
                 [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
                   auto resp = co_await HandleUpdate(m.As<UpdateRequest>());
                   co_return resp;
                 });
  rpc_->Register(kUnlockMethod,
                 [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
                   auto resp = co_await HandleUnlock(m.As<UnlockRequest>());
                   co_return resp;
                 });
}

Status FarmShard::LoadKey(uint64_t slot, uint64_t key, ByteView value) {
  if (slot >= opts_.keys_per_shard) return OutOfRange("slot");
  if (value.size() > opts_.value_size) return InvalidArgument("value size");
  const rdma::Addr obj = object_addr(slot);
  mem_->StoreWord(obj, 1);  // version 1, unlocked
  mem_->StoreWord(obj + 8, key);
  mem_->Store(obj + 16, value);
  mem_->StoreWord(slot_addr(slot), obj);
  return OkStatus();
}

sim::Task<rpc::MessagePtr> FarmShard::HandleLock(const LockRequest& req) {
  LockResponse out;
  out.ok = true;
  // Check all versions first, then lock — all within this handler event, so
  // the lock acquisition over the request's keys is atomic server-side.
  std::vector<rdma::Addr> objs;
  for (size_t i = 0; i < req.slots.size(); ++i) {
    const rdma::Addr obj = object_addr(req.slots[i]);
    const uint64_t version = mem_->LoadWord(obj);
    if ((version & kLockBit) != 0 ||
        version != req.expected_versions[i]) {
      out.ok = false;
      break;
    }
    objs.push_back(obj);
  }
  if (out.ok) {
    for (size_t i = 0; i < req.slots.size(); ++i) {
      mem_->StoreWord(objs[i], req.expected_versions[i] | kLockBit);
      lock_holder_[req.slots[i]] = req.client;
    }
  }
  co_return rpc::Message::Of(out, 8);
}

sim::Task<rpc::MessagePtr> FarmShard::HandleUpdate(const UpdateRequest& req) {
  LockResponse out;
  out.ok = true;
  for (size_t i = 0; i < req.slots.size(); ++i) {
    const uint64_t slot = req.slots[i];
    PRISM_CHECK_EQ(lock_holder_[slot], req.client)
        << "update without holding the lock";
    const rdma::Addr obj = object_addr(slot);
    const uint64_t version = mem_->LoadWord(obj) & ~kLockBit;
    // In-place update while locked. The value write and the version bump
    // happen in separate events — execution-phase readers may observe the
    // torn state and must retry via the version check.
    mem_->Store(obj + 16, req.values[i]);
    co_await sim::Yield(fabric_->sim());
    mem_->StoreWord(obj, version + 1);  // bump + unlock
    lock_holder_[slot] = 0;
  }
  co_return rpc::Message::Of(out, 8);
}

sim::Task<rpc::MessagePtr> FarmShard::HandleUnlock(const UnlockRequest& req) {
  LockResponse out;
  out.ok = true;
  for (uint64_t slot : req.slots) {
    if (lock_holder_[slot] != req.client) continue;
    const rdma::Addr obj = object_addr(slot);
    mem_->StoreWord(obj, mem_->LoadWord(obj) & ~kLockBit);
    lock_holder_[slot] = 0;
  }
  co_return rpc::Message::Of(out, 8);
}

FarmCluster::FarmCluster(net::Fabric* fabric, int n_shards, FarmOptions opts)
    : opts_(opts) {
  for (int i = 0; i < n_shards; ++i) {
    net::HostId host = fabric->AddHost("farm-shard-" + std::to_string(i));
    shards_.push_back(std::make_unique<FarmShard>(fabric, host, opts));
  }
}

std::pair<int, uint64_t> FarmCluster::Locate(uint64_t key) const {
  const int shard = static_cast<int>(key % shards_.size());
  const uint64_t slot = (key / shards_.size()) % opts_.keys_per_shard;
  return {shard, slot};
}

Status FarmCluster::LoadKey(uint64_t key, ByteView value) {
  auto [shard, slot] = Locate(key);
  return shards_[static_cast<size_t>(shard)]->LoadKey(slot, key, value);
}

FarmClient::FarmClient(net::Fabric* fabric, net::HostId self,
                       FarmCluster* cluster, uint16_t client_id)
    : fabric_(fabric),
      self_(self),
      cluster_(cluster),
      rdma_(fabric, self),
      rpc_(fabric, self),
      client_id_(client_id) {}

sim::Task<Result<Bytes>> FarmClient::Read(Transaction& txn, uint64_t key) {
  PRISM_CHECK(txn.active);
  for (const auto& w : txn.write_set) {
    if (w.key == key) {
      Bytes copy = w.value;
      co_return copy;
    }
  }
  auto [shard_idx, slot] = cluster_->Locate(key);
  FarmShard& shard = cluster_->shard(shard_idx);
  const uint64_t obj_len = 16 + cluster_->options().value_size;
  for (int attempt = 0; attempt < cluster_->options().max_read_retries;
       ++attempt) {
    // READ 1: the slot (object pointer) — as in Pilaf (§8.1).
    auto slot_read = co_await rdma_.Read(&shard.rdma(), shard.rkey(),
                                         shard.slot_addr(slot), 16, txn.ctx);
    if (!slot_read.ok()) co_return slot_read.status();
    const rdma::Addr obj = LoadU64(slot_read->data());
    if (obj == 0) co_return NotFound("key not loaded");
    // READ 2: the object [version | key | value].
    auto obj_read = co_await rdma_.Read(&shard.rdma(), shard.rkey(), obj,
                                        obj_len, txn.ctx);
    if (!obj_read.ok()) co_return obj_read.status();
    const uint64_t version = LoadU64(obj_read->data());
    if ((version & FarmShard::kLockBit) != 0) {
      // Locked by a committing writer: back off briefly and retry.
      co_await sim::SleepFor(fabric_->sim(), sim::Micros(2));
      continue;
    }
    if (LoadU64(obj_read->data() + 8) != key) {
      co_return NotFound("slot holds a different key");
    }
    txn.read_set.push_back({key, version});
    co_return Bytes(obj_read->begin() + 16, obj_read->end());
  }
  co_return Aborted("object locked too long");
}

void FarmClient::Write(Transaction& txn, uint64_t key, Bytes value) {
  PRISM_CHECK(txn.active);
  for (auto& w : txn.write_set) {
    if (w.key == key) {
      w.value = std::move(value);
      return;
    }
  }
  txn.write_set.push_back({key, std::move(value)});
}

sim::Task<Status> FarmClient::Commit(Transaction& txn) {
  PRISM_CHECK(txn.active);
  txn.active = false;
  if (txn.write_set.empty() && txn.read_set.empty()) {
    commits_++;
    co_return OkStatus();
  }

  // One target per write key, in ascending shard order and, within a shard,
  // in write-set order: the order of the lock, unlock and update RPCs and of
  // the slots in each. A key's expected version comes from the read set (its
  // last read): YCSB-T RMW transactions always read before writing, so
  // require it (mirrors FaRM's object-buffer model).
  struct Target {
    int shard;
    uint64_t slot;
    uint64_t version;
    Transaction::WriteEntry* write;
  };
  std::vector<Target> targets;
  targets.reserve(txn.write_set.size());
  for (Transaction::WriteEntry& w : txn.write_set) {
    auto r = std::find_if(
        txn.read_set.rbegin(), txn.read_set.rend(),
        [&w](const Transaction::ReadEntry& e) { return e.key == w.key; });
    if (r == txn.read_set.rend()) {
      aborts_++;
      co_return FailedPrecondition("blind writes unsupported: read first");
    }
    auto [shard_idx, slot] = cluster_->Locate(w.key);
    const Target t{shard_idx, slot, r->rc, &w};
    // After every target of the same shard: write-set order within it.
    targets.insert(std::upper_bound(targets.begin(), targets.end(), t,
                                    [](const Target& a, const Target& b) {
                                      return a.shard < b.shard;
                                    }),
                   t);
  }
  // One shard's targets are the run [first, run_end(first)).
  auto run_end = [&targets](size_t first) {
    size_t last = first;
    const int shard = targets[first].shard;
    while (last < targets.size() && targets[last].shard == shard) ++last;
    return last;
  };
  auto slots_of = [&targets](size_t first, size_t last) {
    std::vector<uint64_t> slots;
    slots.reserve(last - first);
    for (size_t i = first; i < last; ++i) slots.push_back(targets[i].slot);
    return slots;
  };

  // ---- phase 1: LOCK (RPC per shard with write keys) ----
  // targets[0, locked) belong to the shards locked so far.
  size_t locked = 0;
  while (locked < targets.size()) {
    const size_t last = run_end(locked);
    FarmShard::LockRequest request{slots_of(locked, last), {}, client_id_};
    request.expected_versions.reserve(last - locked);
    for (size_t i = locked; i < last; ++i) {
      request.expected_versions.push_back(targets[i].version);
    }
    const size_t wire = 24 + 16 * request.slots.size();
    rpc::MessagePtr msg = rpc::Message::Of(std::move(request), wire);
    FarmShard& shard = cluster_->shard(targets[locked].shard);
    auto resp = co_await rpc_.Call(&shard.rpc(), FarmShard::kLockMethod, msg,
                                   txn.ctx);
    if (!resp.ok() || !(*resp)->As<FarmShard::LockResponse>().ok) break;
    locked = last;
  }
  const char* failed = locked < targets.size() ? "lock phase failed" : nullptr;

  // ---- phase 2: VALIDATE ----
  // §8.1: "they reread all objects in the read set to verify that they have
  // not been concurrently modified" — one one-sided READ per read-set key,
  // including keys we just locked (whose versions must match modulo our own
  // lock bit).
  for (size_t k = 0; failed == nullptr && k < txn.read_set.size(); ++k) {
    const Transaction::ReadEntry& r = txn.read_set[k];
    bool is_written = false;
    for (const auto& w : txn.write_set) is_written |= (w.key == r.key);
    auto [shard_idx, slot] = cluster_->Locate(r.key);
    FarmShard& shard = cluster_->shard(shard_idx);
    auto slot_read = co_await rdma_.Read(&shard.rdma(), shard.rkey(),
                                         shard.slot_addr(slot), 16, txn.ctx);
    if (!slot_read.ok()) {
      failed = "validation failed";
      break;
    }
    const rdma::Addr obj = LoadU64(slot_read->data());
    auto version_read =
        co_await rdma_.Read(&shard.rdma(), shard.rkey(), obj, 8, txn.ctx);
    if (!version_read.ok()) {
      failed = "validation failed";
      break;
    }
    const uint64_t version = LoadU64(version_read->data());
    const uint64_t expected =
        is_written ? (r.rc | FarmShard::kLockBit) : r.rc;
    if (version != expected) {
      // Changed (or locked by someone else) since we read it.
      failed = "validation failed";
    }
  }
  if (failed != nullptr) {
    // Unlock whatever we locked, then abort.
    for (size_t first = 0; first < locked;) {
      const size_t last = run_end(first);
      FarmShard::UnlockRequest request{slots_of(first, last), client_id_};
      const size_t wire = 16 + 8 * request.slots.size();
      rpc::MessagePtr msg = rpc::Message::Of(std::move(request), wire);
      FarmShard& shard = cluster_->shard(targets[first].shard);
      (void)co_await rpc_.Call(&shard.rpc(), FarmShard::kUnlockMethod, msg,
                               txn.ctx);
      first = last;
    }
    aborts_++;
    co_return Aborted(failed);
  }

  // ---- phase 3: UPDATE + UNLOCK (RPC per shard) ----
  // The transaction is spent: its values move into the requests.
  for (size_t first = 0; first < targets.size();) {
    const size_t last = run_end(first);
    FarmShard::UpdateRequest request{slots_of(first, last), {}, client_id_};
    request.values.reserve(last - first);
    size_t wire = 24;
    for (size_t i = first; i < last; ++i) {
      wire += 16 + targets[i].write->value.size();
      request.values.push_back(std::move(targets[i].write->value));
    }
    rpc::MessagePtr msg = rpc::Message::Of(std::move(request), wire);
    FarmShard& shard = cluster_->shard(targets[first].shard);
    auto resp = co_await rpc_.Call(&shard.rpc(), FarmShard::kUpdateMethod, msg,
                                   txn.ctx);
    if (!resp.ok()) {
      aborts_++;
      co_return resp.status();
    }
    first = last;
  }
  commits_++;
  co_return OkStatus();
}

}  // namespace prism::tx
