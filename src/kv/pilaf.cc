#include "src/kv/pilaf.h"

#include "src/common/hash.h"

namespace prism::kv {

namespace {
constexpr uint32_t kEmpty = 0;
constexpr uint32_t kValid = 1;
constexpr uint32_t kTombstone = 2;

// The size limits of every stored record, loaded or PUT: a record (key,
// value and 4-byte CRC) larger than an extent would spill into the next one.
Status CheckRecordSize(const PilafOptions& opts, size_t klen, size_t vlen) {
  if (vlen > opts.max_value_size) return InvalidArgument("value too large");
  if (klen + vlen + 4 > opts.extent_size) {
    return InvalidArgument("record exceeds extent size");
  }
  return OkStatus();
}
}  // namespace

PilafServer::Entry PilafServer::ParseEntry(ByteView bucket_bytes) {
  PRISM_CHECK_GE(bucket_bytes.size(), kEntrySize);
  Entry e;
  e.flags = LoadU32(bucket_bytes.data());
  e.klen = LoadU32(bucket_bytes.data() + 4);
  e.vlen = LoadU32(bucket_bytes.data() + 8);
  e.seq = LoadU32(bucket_bytes.data() + 12);
  e.ptr = LoadU64(bucket_bytes.data() + 16);
  const uint32_t stored_crc = LoadU32(bucket_bytes.data() + 28);
  e.crc_ok = stored_crc == Crc32(bucket_bytes.data(), 28);
  return e;
}

void PilafServer::WriteEntry(uint8_t* dst, uint32_t flags, uint32_t klen,
                             uint32_t vlen, uint32_t seq, rdma::Addr ptr) {
  StoreU32(dst, flags);
  StoreU32(dst + 4, klen);
  StoreU32(dst + 8, vlen);
  StoreU32(dst + 12, seq);
  StoreU64(dst + 16, ptr);
  StoreU64(dst + 24, 0);  // overwritten below: bytes 24..27 pad, 28..31 crc
  StoreU32(dst + 28, Crc32(dst, 28));
}

PilafServer::PilafServer(net::Fabric* fabric, net::HostId host,
                         PilafOptions opts)
    : opts_(opts), fabric_(fabric) {
  const uint64_t table_bytes = opts.n_buckets * kBucketSize;
  const uint64_t extents_bytes = opts.n_extents * opts.extent_size;
  mem_ = std::make_unique<rdma::AddressSpace>(table_bytes + extents_bytes +
                                              (1 << 20));
  auto region =
      mem_->CarveAndRegister(table_bytes + extents_bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  table_base_ = region_.base;
  extents_base_ = region_.base + table_bytes;
  for (uint64_t i = 0; i < opts.n_extents; ++i) {
    free_extents_.push_back(extents_base_ + i * opts.extent_size);
  }
  // Initialize bucket CRCs so clients never see an uninitialized entry.
  for (uint64_t b = 0; b < opts.n_buckets; ++b) {
    WriteEntry(mem_->RawAt(bucket_addr(b), kEntrySize), kEmpty, 0, 0, 0, 0);
  }
  rdma_ = std::make_unique<rdma::RdmaService>(fabric, host, opts.backend,
                                              mem_.get());
  rpc_ = std::make_unique<rpc::RpcServer>(fabric, host);
  rpc_->Register(kPutMethod,
                 [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
                   auto resp = co_await HandlePut(m.As<PutRequest>());
                   co_return resp;
                 });
  rpc_->Register(kDeleteMethod,
                 [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
                   auto resp = co_await HandleDelete(m.As<Bytes>());
                   co_return resp;
                 });
}

uint64_t PilafServer::HashBucket(const Bytes& key) const {
  if (opts_.dense_key_hash && key.size() == 8) {
    return LoadU64(key.data()) % opts_.n_buckets;
  }
  return Fnv1a64(ByteView(key)) % opts_.n_buckets;
}

Status PilafServer::LoadKey(const Bytes& key, ByteView value) {
  PRISM_RETURN_IF_ERROR(CheckRecordSize(opts_, key.size(), value.size()));
  bool exists = false;
  int64_t bucket = FindBucket(key, &exists);
  if (bucket < 0) return ResourceExhausted("table full");
  if (exists) return AlreadyExists("key already loaded");
  if (free_extents_.empty()) return ResourceExhausted("out of extents");
  rdma::Addr extent_addr = free_extents_.front();
  free_extents_.pop_front();
  uint8_t* extent = mem_->RawAt(extent_addr, key.size() + value.size() + 4);
  std::memcpy(extent, key.data(), key.size());
  std::memcpy(extent + key.size(), value.data(), value.size());
  StoreU32(extent + key.size() + value.size(),
           Crc32(extent, key.size() + value.size()));
  WriteEntry(mem_->RawAt(bucket_addr(static_cast<uint64_t>(bucket)),
                         kEntrySize),
             kValid, static_cast<uint32_t>(key.size()),
             static_cast<uint32_t>(value.size()), 1, extent_addr);
  return OkStatus();
}

int64_t PilafServer::FindBucket(const Bytes& key, bool* exists) const {
  const uint64_t h = HashBucket(key);
  int64_t first_free = -1;
  for (int probe = 0; probe < opts_.max_probes; ++probe) {
    const uint64_t b = (h + static_cast<uint64_t>(probe)) % opts_.n_buckets;
    Entry e = ParseEntry(
        ByteView(mem_->RawAt(bucket_addr(b), kEntrySize), kEntrySize));
    if (e.flags == kEmpty) {
      *exists = false;
      return first_free >= 0 ? first_free : static_cast<int64_t>(b);
    }
    if (e.flags == kTombstone) {
      if (first_free < 0) first_free = static_cast<int64_t>(b);
      continue;
    }
    // Valid: compare the key stored at the extent head.
    if (e.klen == key.size() &&
        std::memcmp(mem_->RawAt(e.ptr, e.klen), key.data(), e.klen) == 0) {
      *exists = true;
      return static_cast<int64_t>(b);
    }
  }
  *exists = false;
  return first_free;  // may be -1: table full along this probe chain
}

sim::Task<rpc::MessagePtr> PilafServer::HandlePut(const PutRequest& request) {
  const Bytes& key = request.key;
  const Bytes& value = request.value;
  PutResponse out;
  out.status = CheckRecordSize(opts_, key.size(), value.size());
  if (!out.status.ok()) co_return rpc::Message::Of(out, 8);
  bool exists = false;
  int64_t bucket = FindBucket(key, &exists);
  if (bucket < 0) {
    out.status = ResourceExhausted("hash table full");
    co_return rpc::Message::Of(out, 8);
  }
  uint8_t* entry_raw =
      mem_->RawAt(bucket_addr(static_cast<uint64_t>(bucket)), kEntrySize);
  Entry entry = ParseEntry(ByteView(entry_raw, kEntrySize));

  if (exists && entry.vlen == value.size()) {
    // In-place extent update: the classic Pilaf hazard. Write the value in
    // two halves with a scheduling point between them — a concurrent READ
    // can observe the torn extent and must catch it via the extent CRC.
    uint8_t* extent = mem_->RawAt(entry.ptr, entry.klen + entry.vlen + 4);
    const size_t half = value.size() / 2;
    std::memcpy(extent + entry.klen, value.data(), half);
    co_await sim::Yield(fabric_->sim());
    std::memcpy(extent + entry.klen + half, value.data() + half,
                value.size() - half);
    uint32_t crc = Crc32(extent, entry.klen + entry.vlen);
    StoreU32(extent + entry.klen + entry.vlen, crc);
    // Bump seq so bucket-entry readers can tell something changed.
    WriteEntry(entry_raw, kValid, entry.klen, entry.vlen, entry.seq + 1,
               entry.ptr);
    puts_served_++;
    out.status = OkStatus();
    co_return rpc::Message::Of(out, 8);
  }

  // New key or size change: allocate a fresh extent, fill it completely,
  // then swing the bucket entry (readers of the old extent stay consistent).
  const uint64_t need = key.size() + value.size() + 4;
  if (free_extents_.empty()) {
    out.status = ResourceExhausted("out of extents");
    co_return rpc::Message::Of(out, 8);
  }
  rdma::Addr extent_addr = free_extents_.front();
  free_extents_.pop_front();
  uint8_t* extent = mem_->RawAt(extent_addr, need);
  std::memcpy(extent, key.data(), key.size());
  std::memcpy(extent + key.size(), value.data(), value.size());
  StoreU32(extent + key.size() + value.size(),
           Crc32(extent, key.size() + value.size()));
  rdma::Addr old_ptr = exists ? entry.ptr : 0;
  WriteEntry(entry_raw, kValid, static_cast<uint32_t>(key.size()),
             static_cast<uint32_t>(value.size()), entry.seq + 1, extent_addr);
  if (old_ptr != 0) free_extents_.push_back(old_ptr);
  puts_served_++;
  out.status = OkStatus();
  co_return rpc::Message::Of(out, 8);
}

sim::Task<rpc::MessagePtr> PilafServer::HandleDelete(const Bytes& key) {
  PutResponse out;
  bool exists = false;
  int64_t bucket = FindBucket(key, &exists);
  if (!exists) {
    out.status = NotFound("no such key");
    co_return rpc::Message::Of(out, 8);
  }
  uint8_t* entry_raw =
      mem_->RawAt(bucket_addr(static_cast<uint64_t>(bucket)), kEntrySize);
  Entry entry = ParseEntry(ByteView(entry_raw, kEntrySize));
  WriteEntry(entry_raw, kTombstone, 0, 0, entry.seq + 1, 0);
  free_extents_.push_back(entry.ptr);
  out.status = OkStatus();
  co_return rpc::Message::Of(out, 8);
}

PilafClient::PilafClient(net::Fabric* fabric, net::HostId self,
                         PilafServer* server)
    : fabric_(fabric),
      self_(self),
      server_(server),
      rdma_(fabric, self),
      rpc_(fabric, self) {}

sim::Task<Result<Bytes>> PilafClient::Get(const std::string& key) {
  const PilafOptions& opts = server_->options();
  const Bytes key_bytes = BytesOfString(key);
  const uint64_t h = server_->HashBucket(key_bytes);
  const obs::Ctx ctx = fabric_->obs().entry();

  for (int attempt = 0; attempt < opts.max_torn_retries; ++attempt) {
    bool torn = false;
    for (int probe = 0; probe < opts.max_probes && !torn; ++probe) {
      const uint64_t b = (h + static_cast<uint64_t>(probe)) % opts.n_buckets;
      // READ 1: the 64 B bucket.
      auto bucket_read = co_await rdma_.Read(
          &server_->rdma(), server_->rkey(), server_->bucket_addr(b),
          PilafServer::kBucketSize, ctx);
      reads_issued_++;
      if (!bucket_read.ok()) co_return bucket_read.status();
      co_await sim::SleepFor(fabric_->sim(),
                             fabric_->cost().app_crc_check);
      PilafServer::Entry entry = PilafServer::ParseEntry(*bucket_read);
      if (!entry.crc_ok) {
        torn = true;  // entry being rewritten under us; retry from scratch
        break;
      }
      if (entry.flags == kEmpty) co_return NotFound("key not present");
      if (entry.flags == kTombstone) continue;
      // READ 2: the extent (key + value + CRC).
      const uint64_t extent_len = entry.klen + entry.vlen + 4;
      auto extent_read = co_await rdma_.Read(&server_->rdma(),
                                             server_->rkey(), entry.ptr,
                                             extent_len, ctx);
      reads_issued_++;
      if (!extent_read.ok()) co_return extent_read.status();
      co_await sim::SleepFor(fabric_->sim(),
                             fabric_->cost().app_crc_check);
      const Bytes& extent = *extent_read;
      const uint32_t stored_crc = LoadU32(extent.data() + entry.klen +
                                          entry.vlen);
      if (stored_crc != Crc32(extent.data(), entry.klen + entry.vlen)) {
        torn = true;  // in-place update raced us; CRC caught it
        break;
      }
      if (entry.klen != key_bytes.size() ||
          std::memcmp(extent.data(), key_bytes.data(), entry.klen) != 0) {
        continue;  // hash collision; probe on
      }
      co_return Bytes(extent.begin() + entry.klen,
                      extent.begin() + entry.klen + entry.vlen);
    }
    if (!torn) co_return NotFound("key not present (probe limit)");
    torn_retries_++;
  }
  co_return Aborted("too many torn-read retries");
}

sim::Task<Status> PilafClient::Put(const std::string& key, Bytes value) {
  PilafServer::PutRequest request;
  request.key = BytesOfString(key);
  request.value = std::move(value);
  const size_t wire = 16 + request.key.size() + request.value.size();
  rpc::MessagePtr msg = rpc::Message::Of(std::move(request), wire);
  auto resp = co_await rpc_.Call(&server_->rpc(), PilafServer::kPutMethod,
                                 msg, fabric_->obs().entry());
  if (!resp.ok()) co_return resp.status();
  co_return (*resp)->As<PilafServer::PutResponse>().status;
}

sim::Task<Status> PilafClient::Delete(const std::string& key) {
  rpc::MessagePtr msg = rpc::Message::Of(BytesOfString(key), 16 + key.size());
  auto resp = co_await rpc_.Call(&server_->rpc(), PilafServer::kDeleteMethod,
                                 msg, fabric_->obs().entry());
  if (!resp.ok()) co_return resp.status();
  co_return (*resp)->As<PilafServer::PutResponse>().status;
}

}  // namespace prism::kv
