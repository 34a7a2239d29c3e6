#include "src/kv/prism_kv.h"

#include <algorithm>

#include "src/common/hash.h"

namespace prism::kv {

using core::BoundedPtr;
using core::Chain;
using core::Op;
using core::OpCode;

void EncodeRecordInto(uint8_t* out, ByteView key, ByteView value) {
  StoreU32(out, static_cast<uint32_t>(key.size()));
  StoreU32(out + 4, static_cast<uint32_t>(value.size()));
  // memcpy from an empty view's null pointer is undefined even for 0 bytes.
  if (!key.empty()) std::memcpy(out + 8, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(out + 8 + key.size(), value.data(), value.size());
  }
}

SmallBytes EncodeRecord(ByteView key, ByteView value) {
  SmallBytes record(8 + key.size() + value.size());
  EncodeRecordInto(record.mutable_data(), key, value);
  return record;
}

Result<DecodedRecord> DecodeRecord(ByteView record) {
  if (record.size() < 8) return InvalidArgument("record too short");
  const uint32_t klen = LoadU32(record.data());
  const uint32_t vlen = LoadU32(record.data() + 4);
  if (record.size() < 8 + static_cast<size_t>(klen) + vlen) {
    return InvalidArgument("record truncated");
  }
  DecodedRecord out;
  out.key.assign(record.begin() + 8, record.begin() + 8 + klen);
  out.value.assign(record.begin() + 8 + klen,
                   record.begin() + 8 + klen + vlen);
  return out;
}

PrismKvServer::PrismKvServer(net::Fabric* fabric, net::HostId host,
                             PrismKvOptions opts)
    : opts_(opts) {
  std::vector<uint64_t> classes = opts.size_classes;
  if (classes.empty()) classes.push_back(opts.buffer_size);
  const uint64_t table_bytes = opts.n_buckets * kSlotSize;
  uint64_t pool_bytes = 0;
  for (uint64_t size : classes) pool_bytes += opts.n_buffers * size;
  const uint64_t capacity =
      table_bytes + pool_bytes + core::PrismServer::kOnNicBytes + (1 << 20);
  mem_ = std::make_unique<rdma::AddressSpace>(capacity);
  prism_ = std::make_unique<core::PrismServer>(fabric, host, opts.deployment,
                                               mem_.get());
  // One region covers the table and every buffer pool so indirect operations
  // stay within a single rkey (§3.1's security rule).
  auto region = mem_->CarveAndRegister(table_bytes + pool_bytes,
                                       rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  table_base_ = region_.base;
  // Buffer 0 of the first class is the shared tombstone marker
  // (klen = 0xffffffff, vlen = 0).
  rdma::Addr next = region_.base + table_bytes;
  tombstone_addr_ = next;
  StoreU32(mem_->RawAt(tombstone_addr_, 8), 0xffffffffu);
  StoreU32(mem_->RawAt(tombstone_addr_, 8) + 4, 0);
  bool first_class = true;
  for (uint64_t size : classes) {
    uint32_t queue = prism_->freelists().CreateQueue(size);
    if (first_class) freelist_ = queue;
    std::vector<rdma::Addr> buffers;
    buffers.reserve(opts.n_buffers);
    for (uint64_t i = first_class ? 1 : 0; i < opts.n_buffers; ++i) {
      buffers.push_back(next + i * size);
    }
    prism_->PostBuffers(queue, std::move(buffers));
    next += opts.n_buffers * size;
    first_class = false;
  }
}

namespace {
bool IsTombstoneRecord(ByteView record) {
  return record.size() >= 4 && LoadU32(record.data()) == 0xffffffffu;
}
}  // namespace

PrismKvClient::PrismKvClient(net::Fabric* fabric, net::HostId self,
                             PrismKvServer* server)
    : fabric_(fabric),
      server_(server),
      prism_(fabric, self),
      reclaim_(fabric, self, &server->prism(),
               server->options().reclaim_batch) {
  auto scratch = server->prism().AllocateScratch(16);
  PRISM_CHECK(scratch.ok()) << scratch.status();
  scratch_free_.push_back(*scratch);
}

rdma::Addr PrismKvClient::AcquireScratch() {
  if (scratch_free_.empty()) {
    auto scratch = server_->prism().AllocateScratch(16);
    PRISM_CHECK(scratch.ok()) << scratch.status();
    return *scratch;
  }
  rdma::Addr addr = scratch_free_.back();
  scratch_free_.pop_back();
  return addr;
}

uint64_t PrismKvServer::HashBucket(const Bytes& key) const {
  if (opts_.dense_key_hash && key.size() == 8) {
    return LoadU64(key.data()) % opts_.n_buckets;
  }
  return Fnv1a64(ByteView(key)) % opts_.n_buckets;
}

Status PrismKvServer::LoadKey(const Bytes& key, ByteView value) {
  const uint64_t h = HashBucket(key);
  for (int probe = 0; probe < opts_.max_probes; ++probe) {
    const uint64_t bucket = (h + static_cast<uint64_t>(probe)) %
                            opts_.n_buckets;
    const BoundedPtr held =
        BoundedPtr::Load(mem_->RawAt(slot_addr(bucket), kSlotSize));
    if (held.ptr != 0) {
      // Occupied, by a record or the tombstone marker: a record holding
      // this key means it is already loaded.
      const uint64_t head = 8 + key.size();
      if (held.bound >= head) {
        const uint8_t* record = mem_->RawAt(held.ptr, head);
        if (LoadU32(record) == key.size() &&
            std::equal(key.begin(), key.end(), record + 8)) {
          return AlreadyExists("key already loaded");
        }
      }
      continue;
    }
    const uint64_t size = 8 + key.size() + value.size();
    PRISM_ASSIGN_OR_RETURN(uint32_t queue,
                           prism_->freelists().QueueFor(size));
    PRISM_ASSIGN_OR_RETURN(rdma::Addr buf,
                           prism_->freelists().Pop(queue, size));
    EncodeRecordInto(mem_->RawAt(buf, size), key, value);
    BoundedPtr{buf, size}.Store(mem_->RawAt(slot_addr(bucket), kSlotSize));
    return OkStatus();
  }
  return ResourceExhausted("no free slot in probe range");
}

uint64_t PrismKvClient::HashBucket(const Bytes& key) const {
  return server_->HashBucket(key);
}

sim::Task<PrismKvClient::ProbeOutcome> PrismKvClient::Probe(
    std::shared_ptr<const Bytes> key, bool for_write, obs::Ctx ctx) {
  const PrismKvOptions& opts = server_->options();
  const uint64_t h = HashBucket(*key);
  ProbeOutcome out;
  bool have_tombstone = false;
  // A write probe only needs the record header + key to identify the slot
  // (the CAS compares the resolved address); requesting just those bytes
  // keeps PUT's first round trip cheap on the wire — without it a 50/50
  // workload wastes a full value transfer per PUT.
  const uint64_t probe_len =
      for_write ? 8 + key->size() : opts.buffer_size;
  for (int probe = 0; probe < opts.max_probes; ++probe) {
    const uint64_t bucket = (h + static_cast<uint64_t>(probe)) %
                            opts.n_buckets;
    Op read = Op::IndirectRead(server_->rkey(), server_->slot_addr(bucket),
                               probe_len, /*bounded=*/true);
    auto r =
        co_await prism_.ExecuteOne(&server_->prism(), std::move(read), ctx);
    round_trips_++;
    if (!r.ok()) {
      out.status = r.status();
      co_return out;
    }
    if (!r->status.ok()) {
      // NACK dereferencing the slot: a null pointer, i.e. a never-used slot.
      // That ends the probe chain: a miss for readers, the insertion point
      // for writers (unless an earlier tombstone is reusable).
      if (for_write) {
        if (!have_tombstone) {
          out.bucket = bucket;
          out.old_ptr = 0;
        }
        out.found_key = false;
        out.status = OkStatus();
      } else {
        out.status = NotFound("key not present");
      }
      co_return out;
    }
    if (IsTombstoneRecord(r->data)) {
      // Deleted slot: readers keep probing; writers remember the first one
      // as a reusable insertion point but must keep scanning for the key.
      if (for_write && !have_tombstone) {
        have_tombstone = true;
        out.bucket = bucket;
        out.old_ptr = r->resolved_addr;  // tombstone marker address
      }
      continue;
    }
    if (for_write) {
      // Truncated record: header + key prefix is enough for a match check.
      if (r->data.size() >= 8) {
        const uint32_t klen = LoadU32(r->data.data());
        if (klen == key->size() && r->data.size() >= 8 + klen &&
            std::memcmp(r->data.data() + 8, key->data(), klen) == 0) {
          out.bucket = bucket;
          out.old_ptr = r->resolved_addr;
          out.found_key = true;
          out.status = OkStatus();
          co_return out;
        }
      }
      continue;  // different key: keep probing
    }
    auto record = DecodeRecord(r->data);
    if (!record.ok()) {
      out.status = record.status();
      co_return out;
    }
    if (record->key == *key) {
      out.bucket = bucket;
      out.old_ptr = r->resolved_addr;
      out.record = std::move(r->data);
      out.found_key = true;
      out.status = OkStatus();
      co_return out;
    }
    // Hash collision: keep probing.
  }
  probe_overflows_++;
  out.status = for_write ? ResourceExhausted("probe limit hit (table full?)")
                         : NotFound("key not present (probe limit)");
  co_return out;
}

sim::Task<Result<Bytes>> PrismKvClient::Get(const std::string& key) {
  const obs::Ctx ctx = fabric_->obs().entry();
  auto key_ptr = std::make_shared<const Bytes>(BytesOfString(key));
  size_t hid = 0;
  if (history_ != nullptr) {
    hid = history_->Begin(history_client_, check::IdOf(*key_ptr),
                          check::OpType::kRead);
  }
  ProbeOutcome probe = co_await Probe(key_ptr, /*for_write=*/false, ctx);
  if (!probe.status.ok()) {
    if (history_ != nullptr) {
      // NotFound is a successful observation of absence; anything else
      // returned no information.
      if (probe.status.code() == Code::kNotFound) {
        history_->End(hid, check::Outcome::kOk, check::kAbsent);
      } else {
        history_->End(hid, check::Outcome::kFailed);
      }
    }
    co_return probe.status;
  }
  if (!probe.found_key) {
    if (history_ != nullptr) {
      history_->End(hid, check::Outcome::kOk, check::kAbsent);
    }
    co_return NotFound("key not present");
  }
  auto record = DecodeRecord(probe.record);
  if (!record.ok()) {
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return record.status();
  }
  if (history_ != nullptr) {
    history_->End(hid, check::Outcome::kOk, check::IdOf(record->value));
  }
  co_return std::move(record->value);
}

sim::Task<Status> PrismKvClient::Put(const std::string& key, Bytes value) {
  const obs::Ctx ctx = fabric_->obs().entry();
  const PrismKvOptions& opts = server_->options();
  auto key_ptr = std::make_shared<const Bytes>(BytesOfString(key));
  size_t hid = 0;
  if (history_ != nullptr) {
    hid = history_->Begin(history_client_, check::IdOf(*key_ptr),
                          check::OpType::kWrite, check::IdOf(value));
  }
  if (value.size() > opts.max_value_size) {
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return InvalidArgument("value exceeds max_value_size");
  }
  // Built once; every attempt's ALLOCATE shares it.
  const SmallBytes record = EncodeRecord(*key_ptr, value);
  const uint64_t new_bound = record.size();
  // Pick the smallest size class that fits (Â§3.2). The class table is
  // static server configuration the client knows.
  auto queue = server_->QueueForRecord(record.size());
  if (!queue.ok()) {
    if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
    co_return queue.status();
  }

  // One scratch slot per in-flight PUT: concurrent PUTs on this client
  // interleave their RT2 chains op-by-op, so sharing a slot would let one
  // chain's CAS read the other's staged ⟨ptr,bound⟩.
  const rdma::Addr scratch = AcquireScratch();
  struct ScratchLease {
    std::vector<rdma::Addr>* pool;
    rdma::Addr addr;
    ~ScratchLease() { pool->push_back(addr); }
  } lease{&scratch_free_, scratch};

  for (int attempt = 0; attempt < opts.max_retries; ++attempt) {
    // RT1: probe for the slot and learn the old buffer address (§6.2: "one
    // indirect READ to identify the correct hash table slot").
    ProbeOutcome probe = co_await Probe(key_ptr, /*for_write=*/true, ctx);
    if (!probe.status.ok()) {
      // Every earlier attempt saw its install CAS fail: nothing installed.
      if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
      co_return probe.status;
    }

    // RT2: the §3.5 chain — WRITE bound to scratch, ALLOCATE+redirect the
    // record, CAS-install ⟨ptr,bound⟩ iff the old pointer is unchanged.
    Chain chain;
    chain.reserve(3);
    chain.push_back(Op::Write(server_->rkey(), scratch + 8,
                              SmallBytes::OfU64(new_bound)));
    chain.push_back(Op::Allocate(server_->rkey(), *queue, record)
                        .RedirectTo(scratch)
                        .Conditional());
    Op install = Op::CompareSwapCas(
        server_->rkey(), server_->slot_addr(probe.bucket),
        /*compare=*/SmallBytes::OfU64Pair(probe.old_ptr, 0),
        /*swap=*/SmallBytes::OfU64(scratch),
        /*cmp_mask=*/FieldMask(16, 0, 8),   // compare the pointer field only
        /*swap_mask=*/FieldMask(16, 0, 16));  // install pointer + bound
    install.data_indirect = true;  // swap operand = 16 B at scratch
    install.conditional = true;
    chain.push_back(std::move(install));

    auto r = co_await prism_.Execute(&server_->prism(), std::move(chain), ctx);
    round_trips_++;
    if (!r.ok()) {
      // The chain was sent but its response never came back: the install
      // CAS may or may not have landed.
      if (history_ != nullptr) {
        history_->End(hid, check::Outcome::kIndeterminate);
      }
      co_return r.status();
    }
    const core::OpResult& alloc = (*r)[1];
    const core::OpResult& cas = (*r)[2];
    if (!alloc.executed || !alloc.status.ok()) {
      if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
      co_return alloc.executed ? alloc.status
                               : FailedPrecondition("allocate skipped");
    }
    if (cas.executed && cas.cas_swapped) {
      // Success: retire the displaced buffer (if any) to its size class's
      // free list. The CAS returns the old â¨ptr,boundâ©; the bound equals
      // the old record size, which identifies the class it was popped from.
      if (probe.old_ptr != 0 && probe.old_ptr != server_->tombstone_addr()) {
        const uint64_t old_bound = LoadU64(cas.data.data() + 8);
        auto old_queue = server_->QueueForRecord(old_bound);
        if (old_queue.ok()) {
          reclaim_.Free(*old_queue, probe.old_ptr, ctx);
        }
      }
      if (history_ != nullptr) history_->End(hid, check::Outcome::kOk);
      co_return OkStatus();
    }
    // Lost the race: a concurrent writer changed the slot after our probe.
    // Reclaim the buffer we allocated and retry from the probe.
    cas_failures_++;
    reclaim_.Free(*queue, alloc.resolved_addr, ctx);
  }
  // Every CAS response came back unswapped: the value was never installed.
  if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
  co_return Aborted("put lost too many CAS races");
}

sim::Task<Status> PrismKvClient::Delete(const std::string& key) {
  const obs::Ctx ctx = fabric_->obs().entry();
  const PrismKvOptions& opts = server_->options();
  auto key_ptr = std::make_shared<const Bytes>(BytesOfString(key));
  size_t hid = 0;
  if (history_ != nullptr) {
    hid = history_->Begin(history_client_, check::IdOf(*key_ptr),
                          check::OpType::kWrite, check::kAbsent);
  }
  for (int attempt = 0; attempt < opts.max_retries; ++attempt) {
    ProbeOutcome probe = co_await Probe(key_ptr, /*for_write=*/false, ctx);
    if (!probe.status.ok()) {
      if (history_ != nullptr) {
        if (probe.status.code() == Code::kNotFound) {
          history_->EndAsRead(hid, check::Outcome::kOk, check::kAbsent);
        } else {
          history_->End(hid, check::Outcome::kFailed);
        }
      }
      co_return probe.status;
    }
    if (!probe.found_key) {
      if (history_ != nullptr) {
        history_->EndAsRead(hid, check::Outcome::kOk, check::kAbsent);
      }
      co_return NotFound("key not present");
    }
    // CAS the slot to the tombstone marker iff the pointer is still ours.
    Op cas = Op::CompareSwapCas(
        server_->rkey(), server_->slot_addr(probe.bucket),
        /*compare=*/SmallBytes::OfU64Pair(probe.old_ptr, 0),
        /*swap=*/SmallBytes::OfU64Pair(server_->tombstone_addr(),
                                       PrismKvServer::kTombstoneBound),
        /*cmp_mask=*/FieldMask(16, 0, 8),
        /*swap_mask=*/FieldMask(16, 0, 16));
    auto r =
        co_await prism_.ExecuteOne(&server_->prism(), std::move(cas), ctx);
    round_trips_++;
    if (!r.ok()) {
      // The tombstone CAS may have landed without us seeing the response.
      if (history_ != nullptr) {
        history_->End(hid, check::Outcome::kIndeterminate);
      }
      co_return r.status();
    }
    if (r->cas_swapped) {
      const uint64_t old_bound = LoadU64(r->data.data() + 8);
      auto old_queue = server_->QueueForRecord(old_bound);
      if (old_queue.ok()) {
        reclaim_.Free(*old_queue, probe.old_ptr, ctx);
      }
      if (history_ != nullptr) history_->End(hid, check::Outcome::kOk);
      co_return OkStatus();
    }
    cas_failures_++;  // concurrent update; re-probe
  }
  if (history_ != nullptr) history_->End(hid, check::Outcome::kFailed);
  co_return Aborted("delete lost too many CAS races");
}

}  // namespace prism::kv
