#include "src/sync/sync.h"

#include <algorithm>
#include <utility>

namespace prism::sync {

namespace {

using core::Op;
using core::OpCode;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Lease word: ⟨expiry µs << 16 | owner⟩.
uint64_t PackLease(uint16_t owner, uint64_t expiry_us) {
  return (expiry_us << 16) | owner;
}
sim::TimePoint LeaseExpiryNs(uint64_t word) {
  return static_cast<sim::TimePoint>(word >> 16) * 1000;
}

}  // namespace

std::string_view SchemeName(SyncScheme scheme) {
  switch (scheme) {
    case SyncScheme::kSpinlock:
      return "spinlock";
    case SyncScheme::kOptimistic:
      return "optimistic";
    case SyncScheme::kLease:
      return "lease";
    case SyncScheme::kPrismNative:
      return "prism";
    case SyncScheme::kUnfencedBuggy:
      return "unfenced_buggy";
  }
  return "unknown";
}

Bytes MakeValue(uint64_t seed, int client, int op) {
  const uint64_t tag = (static_cast<uint64_t>(client) << 32) |
                       static_cast<uint32_t>(op);
  const uint64_t base = Mix64(seed) ^ Mix64(tag);
  Bytes v(kValueSize);
  StoreU64(v.data(), Mix64(base ^ 0xA11CEull));
  StoreU64(v.data() + 8, Mix64(base ^ 0xB0Bull));
  return v;
}

Bytes InitialValue() { return Bytes(kValueSize, 0xA5); }

// ---- server ----

SyncIndexServer::SyncIndexServer(net::Fabric* fabric, net::HostId host,
                                 SyncOptions opts)
    : opts_(opts), host_(host) {
  PRISM_CHECK_GT(opts_.n_slots, 0u);
  PRISM_CHECK_EQ(opts_.n_slots & (opts_.n_slots - 1), 0u)
      << "n_slots must be a power of two";
  const uint64_t table_bytes = opts_.n_slots * kSlotStride;
  mem_ = std::make_unique<rdma::AddressSpace>(
      table_bytes + core::PrismServer::kOnNicBytes + (1 << 20));
  auto region = mem_->CarveAndRegister(table_bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  rdma_ = std::make_unique<rdma::RdmaService>(fabric, host, opts_.backend,
                                              mem_.get());
  prism_ = std::make_unique<core::PrismServer>(fabric, host, opts_.deployment,
                                               mem_.get());
}

uint64_t SyncIndexServer::HashSlot(uint64_t key) const {
  return Mix64(key) & (opts_.n_slots - 1);
}

Status SyncIndexServer::LoadKey(uint64_t key, ByteView value) {
  if (key == 0) return InvalidArgument("keys must be nonzero");
  if (value.size() != kValueSize) return InvalidArgument("bad value size");
  const uint64_t home = HashSlot(key);
  for (int p = 0; p < opts_.max_probes; ++p) {
    const rdma::Addr addr = slot_addr((home + p) & (opts_.n_slots - 1));
    const uint64_t resident = mem_->LoadWord(addr + kKeyOff);
    if (resident != 0 && resident != key) continue;
    mem_->StoreWord(addr + kLockOff, 0);
    mem_->StoreWord(addr + kKeyOff, key);
    mem_->StoreWord(addr + kVersionOff, 0);
    mem_->StoreWord(addr + kValueOff, LoadU64(value.data()));
    mem_->StoreWord(addr + kValueOff + 8, LoadU64(value.data() + 8));
    return OkStatus();
  }
  return ResourceExhausted("probe window full for key");
}

Result<uint64_t> SyncIndexServer::SlotOf(uint64_t key) const {
  const uint64_t home = HashSlot(key);
  for (int p = 0; p < opts_.max_probes; ++p) {
    const uint64_t slot = (home + p) & (opts_.n_slots - 1);
    const uint64_t resident = mem_->LoadWord(slot_addr(slot) + kKeyOff);
    if (resident == key) return slot;
    if (resident == 0) break;
  }
  return NotFound("key not loaded");
}

check::ValueId SyncIndexServer::FinalValue(uint64_t key) const {
  auto slot = SlotOf(key);
  if (!slot.ok()) return check::kAbsent;
  Bytes v(kValueSize);
  const rdma::Addr addr = slot_addr(*slot);
  StoreU64(v.data(), mem_->LoadWord(addr + kValueOff));
  StoreU64(v.data() + 8, mem_->LoadWord(addr + kValueOff + 8));
  return check::IdOf(v);
}

Bytes SyncIndexServer::ValueBytes(uint64_t key) const {
  auto slot = SlotOf(key);
  PRISM_CHECK(slot.ok()) << slot.status();
  Bytes v(kValueSize);
  const rdma::Addr addr = slot_addr(*slot);
  StoreU64(v.data(), mem_->LoadWord(addr + kValueOff));
  StoreU64(v.data() + 8, mem_->LoadWord(addr + kValueOff + 8));
  return v;
}

uint64_t SyncIndexServer::LockWord(uint64_t key) const {
  auto slot = SlotOf(key);
  PRISM_CHECK(slot.ok()) << slot.status();
  return mem_->LoadWord(slot_addr(*slot) + kLockOff);
}

uint64_t SyncIndexServer::VersionWord(uint64_t key) const {
  auto slot = SlotOf(key);
  PRISM_CHECK(slot.ok()) << slot.status();
  return mem_->LoadWord(slot_addr(*slot) + kVersionOff);
}

// ---- client ----

SyncClient::SyncClient(net::Fabric* fabric, net::HostId self,
                       SyncIndexServer* server, SyncScheme scheme,
                       uint16_t client_id, uint64_t rng_seed)
    : fabric_(fabric),
      self_(self),
      server_(server),
      scheme_(scheme),
      id_(client_id),
      rng_(rng_seed ^ (0x5CEB00Dull * client_id)),
      rdma_(fabric, self),
      prism_(fabric, self) {
  PRISM_CHECK_GT(client_id, 0);  // 0 is the free lock word
}

void SyncClient::Prewarm(uint64_t key) {
  auto slot = server_->SlotOf(key);
  if (slot.ok()) slot_cache_[key] = *slot;
}

obs::TransportTally SyncClient::tally() const {
  return rdma_.tally() + prism_.tally();
}

sim::Task<void> SyncClient::Backoff(int attempt, obs::Ctx ctx) {
  sim::Duration d = std::min<sim::Duration>(
      server_->options().backoff_cap,
      server_->options().backoff_base << std::min(attempt, 6));
  d += static_cast<sim::Duration>(
      rng_.NextBelow(static_cast<uint64_t>(d) / 2 + 1));
  obs::SwitchOp(ctx.op, obs::Phase::kSyncSpin, fabric_->sim()->Now());
  co_await sim::SleepFor(fabric_->sim(), d);
  obs::SwitchOp(ctx.op, obs::Phase::kApp, fabric_->sim()->Now());
}

sim::Task<Result<uint64_t>> SyncClient::LocateSlot(uint64_t key, obs::Ctx ctx) {
  auto it = slot_cache_.find(key);
  if (it != slot_cache_.end()) co_return it->second;
  // Branch, don't ternary: co_await inside a conditional expression
  // miscompiles on GCC 12 (the discarded branch's temporary is destroyed
  // twice, corrupting the coroutine frame).
  Result<uint64_t> slot = NotFound("unprobed");
  if (scheme_ == SyncScheme::kPrismNative) {
    slot = co_await ProbeChain(key, ctx);
  } else {
    slot = co_await ProbeVerbs(key, ctx);
  }
  if (slot.ok()) slot_cache_[key] = *slot;
  co_return slot;
}

sim::Task<Result<uint64_t>> SyncClient::ProbeVerbs(uint64_t key, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  const uint64_t home = server_->HashSlot(key);
  for (int p = 0; p < opts.max_probes; ++p) {
    const uint64_t slot = (home + p) & (opts.n_slots - 1);
    probe_rounds_++;
    auto r = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                 server_->slot_addr(slot) + kKeyOff, 8, ctx);
    round_trips_++;
    if (!r.ok()) co_return r.status();
    const uint64_t resident = LoadU64(r->data());
    if (resident == key) co_return slot;
    if (resident == 0) break;
  }
  co_return NotFound("key not in index");
}

// PRISM probe: one chain READs every candidate key word of the linear-probe
// window in a single round trip.
sim::Task<Result<uint64_t>> SyncClient::ProbeChain(uint64_t key, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  const uint64_t home = server_->HashSlot(key);
  core::Chain chain;
  for (int p = 0; p < opts.max_probes; ++p) {
    const uint64_t slot = (home + p) & (opts.n_slots - 1);
    chain.push_back(Op::Read(server_->rkey(),
                             server_->slot_addr(slot) + kKeyOff, 8));
  }
  probe_rounds_++;
  auto r = co_await prism_.Execute(&server_->prism(), std::move(chain), ctx);
  round_trips_++;
  if (!r.ok()) co_return r.status();
  for (int p = 0; p < opts.max_probes; ++p) {
    const core::OpResult& res = (*r)[static_cast<size_t>(p)];
    if (!res.status.ok() || res.data.size() != 8) continue;
    const uint64_t resident = LoadU64(res.data.data());
    if (resident == key) co_return (home + p) & (opts.n_slots - 1);
    if (resident == 0) break;
  }
  co_return NotFound("key not in index");
}

// ---- spinlock-word helpers ----

sim::Task<Result<uint64_t>> SyncClient::AcquireSpin(rdma::Addr slot,
                                                   obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    // The first CAS is the acquisition any scheme would pay (wire); every
    // retry is remote lock polling, so its whole round trip bills to
    // sync_spin: stamp the phase and run the verb untimed.
    obs::Ctx verb = ctx;
    if (attempt > 0) {
      obs::SwitchOp(ctx.op, obs::Phase::kSyncSpin, fabric_->sim()->Now());
      verb = ctx.Untimed();
    }
    auto old = co_await rdma_.CompareSwap(&server_->rdma(), server_->rkey(),
                                          slot + kLockOff, 0, id_, verb);
    round_trips_++;
    if (old.ok() && *old == 0) co_return static_cast<uint64_t>(id_);
    if (old.ok()) lock_conflicts_++;
    co_await Backoff(attempt, ctx);
  }
  co_return Aborted("spinlock: could not acquire");
}

sim::Task<void> SyncClient::ReleaseSpin(rdma::Addr slot, obs::Ctx ctx) {
  (void)co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                             slot + kLockOff, SmallBytes::OfU64(0), ctx);
  round_trips_++;
}

sim::Task<Result<uint64_t>> SyncClient::AcquireLease(rdma::Addr slot,
                                                     obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  const uint64_t term_us =
      static_cast<uint64_t>(opts.lease_term) / 1000;
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    const uint64_t now_us =
        static_cast<uint64_t>(fabric_->sim()->Now()) / 1000;
    const uint64_t mine = PackLease(id_, now_us + term_us);
    // Same attribution rule as AcquireSpin: first attempt is wire, retries
    // (including their steal CASes) are lock polling billed to sync_spin.
    obs::Ctx verb = ctx;
    if (attempt > 0) {
      obs::SwitchOp(ctx.op, obs::Phase::kSyncSpin, fabric_->sim()->Now());
      verb = ctx.Untimed();
    }
    auto old = co_await rdma_.CompareSwap(&server_->rdma(), server_->rkey(),
                                          slot + kLockOff, 0, mine, verb);
    round_trips_++;
    if (old.ok() && *old == 0) co_return mine;
    if (old.ok() && *old != 0) {
      const uint64_t seen = *old;
      if (fabric_->sim()->Now() > LeaseExpiryNs(seen)) {
        // Expired: steal with a CAS conditioned on the exact stale word, so
        // concurrent stealers can't both win.
        auto stolen = co_await rdma_.CompareSwap(
            &server_->rdma(), server_->rkey(), slot + kLockOff, seen, mine,
            verb);
        round_trips_++;
        if (stolen.ok() && *stolen == seen) {
          lease_steals_++;
          co_return mine;
        }
      }
      lock_conflicts_++;
    }
    co_await Backoff(attempt, ctx);
  }
  co_return Aborted("lease: could not acquire");
}

sim::Task<void> SyncClient::ReleaseLease(rdma::Addr slot, uint64_t lease_word,
                                         obs::Ctx ctx) {
  // CAS, not WRITE: if the lease was stolen after expiry the release must
  // fail harmlessly instead of clobbering the successor's lease.
  (void)co_await rdma_.CompareSwap(&server_->rdma(), server_->rkey(),
                                   slot + kLockOff, lease_word, 0, ctx);
  round_trips_++;
}

// ---- per-scheme updates ----

sim::Task<SyncClient::UpdateOutcome> SyncClient::UpdateLocked(
    rdma::Addr slot, Bytes value, obs::Ctx ctx) {
  Status acq = (co_await AcquireSpin(slot, ctx)).status();
  if (!acq.ok()) co_return UpdateOutcome{acq, Applied::kNo};
  if (critical_stall_ > 0) {
    co_await sim::SleepFor(fabric_->sim(), critical_stall_);
  }
  Status s = co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                                  slot + kValueOff, std::move(value), ctx);
  round_trips_++;
  co_await ReleaseSpin(slot, ctx);
  if (s.ok()) co_return UpdateOutcome{OkStatus(), Applied::kYes};
  co_return UpdateOutcome{
      s, s.code() == Code::kUnavailable ? Applied::kNo : Applied::kMaybe};
}

sim::Task<SyncClient::UpdateOutcome> SyncClient::UpdateLease(
    rdma::Addr slot, Bytes value, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  // A fencing abort is a failed attempt: release (if still ours) and retry
  // with a fresh lease.
  for (int round = 0; round < 4; ++round) {
    auto lease = co_await AcquireLease(slot, ctx);
    if (!lease.ok()) co_return UpdateOutcome{lease.status(), Applied::kNo};
    if (critical_stall_ > 0) {
      co_await sim::SleepFor(fabric_->sim(), critical_stall_);
    }
    // Self-fencing: only post the value write while safely inside the
    // lease. A holder that stalled past (expiry - guard) must assume a
    // successor stole the lease and may already be writing.
    if (fabric_->sim()->Now() + opts.lease_guard >=
        LeaseExpiryNs(*lease)) {
      fencing_aborts_++;
      co_await ReleaseLease(slot, *lease, ctx);
      continue;
    }
    Status s = co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                                    slot + kValueOff, value, ctx);
    round_trips_++;
    co_await ReleaseLease(slot, *lease, ctx);
    if (s.ok()) co_return UpdateOutcome{OkStatus(), Applied::kYes};
    co_return UpdateOutcome{
        s, s.code() == Code::kUnavailable ? Applied::kNo : Applied::kMaybe};
  }
  co_return UpdateOutcome{Aborted("lease: fenced out"), Applied::kNo};
}

sim::Task<SyncClient::UpdateOutcome> SyncClient::UpdateOptimistic(
    rdma::Addr slot, Bytes value, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    auto vr = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                  slot + kVersionOff, 8, ctx);
    round_trips_++;
    if (!vr.ok()) {
      co_await Backoff(attempt, ctx);
      continue;
    }
    const uint64_t v = LoadU64(vr->data());
    if (v & 1) {  // writer in progress
      lock_conflicts_++;
      co_await Backoff(attempt, ctx);
      continue;
    }
    auto cas = co_await rdma_.CompareSwap(&server_->rdma(), server_->rkey(),
                                          slot + kVersionOff, v, v + 1, ctx);
    round_trips_++;
    if (!cas.ok()) {
      // The CAS may have landed (response lost): the slot could now be odd
      // under our name, but the value was never written — no effect.
      co_return UpdateOutcome{cas.status(), Applied::kNo};
    }
    if (*cas != v) {
      lock_conflicts_++;
      co_await Backoff(attempt, ctx);
      continue;
    }
    if (critical_stall_ > 0) {
      co_await sim::SleepFor(fabric_->sim(), critical_stall_);
    }
    Status s = co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                                    slot + kValueOff, std::move(value), ctx);
    round_trips_++;
    if (!s.ok()) {
      co_return UpdateOutcome{
          s, s.code() == Code::kUnavailable ? Applied::kNo : Applied::kMaybe};
    }
    (void)co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                               slot + kVersionOff, SmallBytes::OfU64(v + 2),
                               ctx);
    round_trips_++;
    co_return UpdateOutcome{OkStatus(), Applied::kYes};
  }
  co_return UpdateOutcome{Aborted("optimistic: version race"), Applied::kNo};
}

// PRISM-native: lock + write + unlock fused into one conditional chain —
// one round trip per attempt, vs the spinlock's three.
sim::Task<SyncClient::UpdateOutcome> SyncClient::UpdatePrism(
    rdma::Addr slot, Bytes value, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    core::Chain chain;
    chain.push_back(Op::CompareSwapCas(
        server_->rkey(), slot + kLockOff, /*compare=*/SmallBytes::OfU64(0),
        /*swap=*/SmallBytes::OfU64(id_), SmallBytes(8, 0xff),
        SmallBytes(8, 0xff)));
    chain.push_back(
        Op::Write(server_->rkey(), slot + kValueOff, value).Conditional());
    chain.push_back(
        Op::Write(server_->rkey(), slot + kLockOff, SmallBytes::OfU64(0))
            .Conditional());
    auto r = co_await prism_.Execute(&server_->prism(), std::move(chain), ctx);
    round_trips_++;
    if (!r.ok()) co_return UpdateOutcome{r.status(), Applied::kMaybe};
    if ((*r)[0].Successful(OpCode::kCas)) {
      if ((*r)[1].Successful(OpCode::kWrite)) {
        co_return UpdateOutcome{OkStatus(), Applied::kYes};
      }
      co_return UpdateOutcome{(*r)[1].status, Applied::kMaybe};
    }
    lock_conflicts_++;
    co_await Backoff(attempt, ctx);
  }
  co_return UpdateOutcome{Aborted("prism: could not acquire"), Applied::kNo};
}

// The guideline violation: value-lo, value-hi, and the unlock are posted
// back-to-back with no completion fences between them ("the QP executes in
// order, why wait?"). The canonical schedule does execute them in post
// order; a bounded reordering that delays one half past the unlock lets the
// next lock holder interleave with the torn write.
sim::Task<SyncClient::UpdateOutcome> SyncClient::UpdateUnfenced(
    rdma::Addr slot, Bytes value, obs::Ctx ctx) {
  Status acq = (co_await AcquireSpin(slot, ctx)).status();
  if (!acq.ok()) co_return UpdateOutcome{acq, Applied::kNo};
  if (critical_stall_ > 0) {
    co_await sim::SleepFor(fabric_->sim(), critical_stall_);
  }
  struct Pipelined {
    Status lo, hi;
  };
  sim::FanOut<Pipelined> all(fabric_->sim(), 3, 3);
  const uint64_t lo = LoadU64(value.data());
  const uint64_t hi = LoadU64(value.data() + 8);
  // The pipelined verbs run concurrently against ONE op timeline, so phase
  // attribution is last-stamp-wins here — the telescoping sum stays exact
  // regardless.
  all.Spawn([this, slot, lo, ctx](Pipelined& st) -> sim::Task<bool> {
    st.lo = co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                                 slot + kValueOff, SmallBytes::OfU64(lo), ctx);
    round_trips_++;
    co_return true;
  });
  co_await sim::SleepFor(fabric_->sim(), sim::Nanos(80));
  all.Spawn([this, slot, hi, ctx](Pipelined& st) -> sim::Task<bool> {
    st.hi = co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                                 slot + kValueOff + 8, SmallBytes::OfU64(hi),
                                 ctx);
    round_trips_++;
    co_return true;
  });
  co_await sim::SleepFor(fabric_->sim(), sim::Nanos(80));
  all.Spawn([this, slot, ctx]() -> sim::Task<bool> {
    (void)co_await rdma_.Write(&server_->rdma(), server_->rkey(),
                               slot + kLockOff, SmallBytes::OfU64(0), ctx);
    round_trips_++;
    co_return true;
  });
  co_await all.Wait();
  const Pipelined& st = all.state();
  if (st.lo.ok() && st.hi.ok()) {
    co_return UpdateOutcome{OkStatus(), Applied::kYes};
  }
  const bool definitely_not =
      st.lo.code() == Code::kUnavailable && st.hi.code() == Code::kUnavailable;
  co_return UpdateOutcome{st.lo.ok() ? st.hi : st.lo,
                          definitely_not ? Applied::kNo : Applied::kMaybe};
}

// ---- per-scheme reads ----

sim::Task<Result<Bytes>> SyncClient::ReadLocked(rdma::Addr slot, obs::Ctx ctx) {
  Status acq = (co_await AcquireSpin(slot, ctx)).status();
  if (!acq.ok()) co_return acq;
  if (critical_stall_ > 0) {
    co_await sim::SleepFor(fabric_->sim(), critical_stall_);
  }
  auto r = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                               slot + kValueOff, kValueSize, ctx);
  round_trips_++;
  co_await ReleaseSpin(slot, ctx);
  co_return r;
}

sim::Task<Result<Bytes>> SyncClient::ReadLease(rdma::Addr slot, obs::Ctx ctx) {
  auto lease = co_await AcquireLease(slot, ctx);
  if (!lease.ok()) co_return lease.status();
  if (critical_stall_ > 0) {
    co_await sim::SleepFor(fabric_->sim(), critical_stall_);
  }
  auto r = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                               slot + kValueOff, kValueSize, ctx);
  round_trips_++;
  co_await ReleaseLease(slot, *lease, ctx);
  co_return r;
}

sim::Task<Result<Bytes>> SyncClient::ReadOptimistic(rdma::Addr slot,
                                                    obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    auto v1r = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                   slot + kVersionOff, 8, ctx);
    round_trips_++;
    if (!v1r.ok()) {
      co_await Backoff(attempt, ctx);
      continue;
    }
    const uint64_t v1 = LoadU64(v1r->data());
    if (v1 & 1) {
      optimistic_retries_++;
      co_await Backoff(attempt, ctx);
      continue;
    }
    if (critical_stall_ > 0) {
      co_await sim::SleepFor(fabric_->sim(), critical_stall_);
    }
    auto val = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                   slot + kValueOff, kValueSize, ctx);
    round_trips_++;
    if (!val.ok()) {
      co_await Backoff(attempt, ctx);
      continue;
    }
    auto v2r = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                   slot + kVersionOff, 8, ctx);
    round_trips_++;
    if (v2r.ok() && LoadU64(v2r->data()) == v1) co_return val;
    optimistic_retries_++;
  }
  co_return Aborted("optimistic: read validation kept failing");
}

sim::Task<Result<Bytes>> SyncClient::ReadPrism(rdma::Addr slot, obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    core::Chain chain;
    chain.push_back(Op::CompareSwapCas(
        server_->rkey(), slot + kLockOff, /*compare=*/SmallBytes::OfU64(0),
        /*swap=*/SmallBytes::OfU64(id_), SmallBytes(8, 0xff),
        SmallBytes(8, 0xff)));
    chain.push_back(Op::Read(server_->rkey(), slot + kValueOff, kValueSize)
                        .Conditional());
    chain.push_back(
        Op::Write(server_->rkey(), slot + kLockOff, SmallBytes::OfU64(0))
            .Conditional());
    auto r = co_await prism_.Execute(&server_->prism(), std::move(chain), ctx);
    round_trips_++;
    if (!r.ok()) co_return r.status();
    if ((*r)[0].Successful(OpCode::kCas)) {
      if ((*r)[1].Successful(OpCode::kRead)) {
        co_return (*r)[1].data.ToBytes();
      }
      co_return (*r)[1].status;
    }
    lock_conflicts_++;
    co_await Backoff(attempt, ctx);
  }
  co_return Aborted("prism: could not acquire");
}

// Buggy read path — the literal "unfenced read-after-lock" from the
// guidelines study: the lock CAS and both value reads are posted in one
// doorbell batch, and the CAS outcome is only inspected after everything
// completes ("the QP executes them in order, the reads are covered").
// In-order execution does make every canonical schedule clean: if the CAS
// succeeded the reads executed right behind it under the lock, and if it
// failed the reads are discarded. But the reads are NOT fenced on the CAS,
// so a bounded reordering can slide them around it — and around a previous
// holder's still-unfenced value writes — observing torn values.
sim::Task<Result<Bytes>> SyncClient::ReadUnfenced(rdma::Addr slot,
                                                  obs::Ctx ctx) {
  const SyncOptions& opts = server_->options();
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    struct Pipelined {
      Result<uint64_t> cas = Aborted("pending");
      Result<Bytes> lo = Aborted("pending");
      Result<Bytes> hi = Aborted("pending");
    };
    sim::FanOut<Pipelined> all(fabric_->sim(), 3, 3);
    all.Spawn([this, slot, ctx](Pipelined& st) -> sim::Task<bool> {
      st.cas = co_await rdma_.CompareSwap(&server_->rdma(), server_->rkey(),
                                          slot + kLockOff, 0, id_, ctx);
      round_trips_++;
      co_return true;
    });
    co_await sim::SleepFor(fabric_->sim(), sim::Nanos(80));
    all.Spawn([this, slot, ctx](Pipelined& st) -> sim::Task<bool> {
      st.lo = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                  slot + kValueOff, 8, ctx);
      round_trips_++;
      co_return true;
    });
    co_await sim::SleepFor(fabric_->sim(), sim::Nanos(80));
    all.Spawn([this, slot, ctx](Pipelined& st) -> sim::Task<bool> {
      st.hi = co_await rdma_.Read(&server_->rdma(), server_->rkey(),
                                  slot + kValueOff + 8, 8, ctx);
      round_trips_++;
      co_return true;
    });
    co_await all.Wait();
    const Pipelined& st = all.state();
    if (st.cas.ok() && *st.cas == 0) {
      co_await ReleaseSpin(slot, ctx);
      if (st.lo.ok() && st.hi.ok()) {
        Bytes v(kValueSize);
        StoreU64(v.data(), LoadU64(st.lo->data()));
        StoreU64(v.data() + 8, LoadU64(st.hi->data()));
        co_return v;
      }
      co_return st.lo.ok() ? st.hi.status() : st.lo.status();
    }
    if (st.cas.ok()) lock_conflicts_++;
    // Aggressive retry (part of the scheme's "optimization"): a short
    // jittered pause instead of the exponential backoff the fenced
    // schemes use. Still acquisition spin for attribution purposes.
    obs::SwitchOp(ctx.op, obs::Phase::kSyncSpin, fabric_->sim()->Now());
    co_await sim::SleepFor(
        fabric_->sim(),
        sim::Nanos(500 + static_cast<sim::Duration>(rng_.NextBelow(1500))));
    obs::SwitchOp(ctx.op, obs::Phase::kApp, fabric_->sim()->Now());
  }
  co_return Aborted("unfenced: could not acquire");
}

// ---- public ops with history recording ----

sim::Task<Result<Bytes>> SyncClient::Read(uint64_t key) {
  const obs::Ctx ctx = fabric_->obs().entry();
  check::HistoryRecorder* h = history_;
  size_t hid = 0;
  if (h != nullptr) {
    hid = h->Begin(history_client_, key, check::OpType::kRead);
  }
  Result<Bytes> r = Aborted("unreachable");
  auto slot = co_await LocateSlot(key, ctx);
  if (!slot.ok()) {
    r = slot.status();
  } else {
    const rdma::Addr addr = server_->slot_addr(*slot);
    switch (scheme_) {
      case SyncScheme::kSpinlock:
        r = co_await ReadLocked(addr, ctx);
        break;
      case SyncScheme::kOptimistic:
        r = co_await ReadOptimistic(addr, ctx);
        break;
      case SyncScheme::kLease:
        r = co_await ReadLease(addr, ctx);
        break;
      case SyncScheme::kPrismNative:
        r = co_await ReadPrism(addr, ctx);
        break;
      case SyncScheme::kUnfencedBuggy:
        r = co_await ReadUnfenced(addr, ctx);
        break;
    }
  }
  if (h != nullptr) {
    // A failed read observed nothing and had no effect: kFailed is sound.
    if (r.ok()) {
      h->End(hid, check::Outcome::kOk, check::IdOf(*r));
    } else {
      h->End(hid, check::Outcome::kFailed);
    }
  }
  co_return r;
}

sim::Task<Status> SyncClient::Update(uint64_t key, Bytes value) {
  PRISM_CHECK_EQ(value.size(), kValueSize);
  const obs::Ctx ctx = fabric_->obs().entry();
  check::HistoryRecorder* h = history_;
  size_t hid = 0;
  if (h != nullptr) {
    hid = h->Begin(history_client_, key, check::OpType::kWrite,
                   check::IdOf(value));
  }
  UpdateOutcome out{Aborted("unreachable"), Applied::kNo};
  auto slot = co_await LocateSlot(key, ctx);
  if (!slot.ok()) {
    out.status = slot.status();
  } else {
    const rdma::Addr addr = server_->slot_addr(*slot);
    switch (scheme_) {
      case SyncScheme::kSpinlock:
        out = co_await UpdateLocked(addr, std::move(value), ctx);
        break;
      case SyncScheme::kOptimistic:
        out = co_await UpdateOptimistic(addr, std::move(value), ctx);
        break;
      case SyncScheme::kLease:
        out = co_await UpdateLease(addr, std::move(value), ctx);
        break;
      case SyncScheme::kPrismNative:
        out = co_await UpdatePrism(addr, std::move(value), ctx);
        break;
      case SyncScheme::kUnfencedBuggy:
        out = co_await UpdateUnfenced(addr, std::move(value), ctx);
        break;
    }
  }
  if (h != nullptr) {
    switch (out.applied) {
      case Applied::kYes:
        h->End(hid, check::Outcome::kOk);
        break;
      case Applied::kNo:
        h->End(hid, check::Outcome::kFailed);
        break;
      case Applied::kMaybe:
        h->End(hid, check::Outcome::kIndeterminate);
        break;
    }
  }
  co_return out.status;
}

}  // namespace prism::sync
