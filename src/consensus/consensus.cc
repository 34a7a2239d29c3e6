#include "src/consensus/consensus.h"

#include <algorithm>
#include <map>
#include <utility>

namespace prism::consensus {

namespace {

using core::Op;
using core::OpCode;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

constexpr size_t kGrantReqBytes = 24;
size_t GrantRespBytes(const GrantResponse& r) {
  return 56 + static_cast<size_t>(r.n_entries) * 40;
}

// How many repair writes ride in one chain during catch-up healing.
constexpr size_t kRepairBatch = 16;

}  // namespace

Bytes MakeValue(uint64_t seed, int client, int op) {
  const uint64_t tag =
      (static_cast<uint64_t>(client) << 32) | static_cast<uint32_t>(op);
  const uint64_t base = Mix64(seed) ^ Mix64(tag);
  Bytes v(kValueSize);
  StoreU64(v.data(), Mix64(base ^ 0xC0115ull));
  StoreU64(v.data() + 8, Mix64(base ^ 0x5E45ull));
  return v;
}

// ---- replica ----

ConsensusReplica::ConsensusReplica(net::Fabric* fabric, net::HostId host,
                                   ConsensusOptions opts)
    : opts_(opts), host_(host) {
  PRISM_CHECK_GT(opts_.log_capacity, 0u);
  const uint64_t bytes = kCtrlBytes + opts_.log_capacity * kSlotStride;
  mem_ = std::make_unique<rdma::AddressSpace>(
      bytes + core::PrismServer::kOnNicBytes + (1 << 20));
  auto region = mem_->CarveAndRegister(bytes, rdma::kRemoteAll);
  PRISM_CHECK(region.ok()) << region.status();
  region_ = *region;
  rdma_ = std::make_unique<rdma::RdmaService>(fabric, host, opts_.backend,
                                              mem_.get());
  prism_ = std::make_unique<core::PrismServer>(fabric, host, opts_.deployment,
                                               mem_.get());
  rpc_ = std::make_unique<rpc::RpcServer>(fabric, host);
  rpc_->Register(
      kRevokeGrantMethod,
      [this](const rpc::Message& m) -> sim::Task<rpc::MessagePtr> {
        GrantResponse resp = Grant(m.As<GrantRequest>());
        co_return rpc::Message::Of<GrantResponse>(resp, GrantRespBytes(resp));
      });
}

GrantResponse ConsensusReplica::Grant(const GrantRequest& req) {
  GrantResponse resp;
  const uint64_t cur_epoch = epoch();
  const uint64_t cur_leader = leader();
  if (req.epoch < cur_epoch ||
      (req.epoch == cur_epoch && req.candidate != cur_leader)) {
    resp.granted = false;
    resp.epoch = cur_epoch;
    return resp;
  }
  if (req.epoch > cur_epoch) {
    // Revocation: drop the old registration and mint a fresh rkey. Anything
    // the deposed leader still has in flight against the old rkey NACKs
    // kPermissionDenied at validation-on-delivery.
    PRISM_CHECK(mem_->Deregister(region_.rkey).ok());
    auto region =
        mem_->Register(region_.base, region_.length, rdma::kRemoteAll);
    PRISM_CHECK(region.ok()) << region.status();
    region_ = *region;
    revocations_++;
    mem_->StoreWord(ctrl_addr() + kEpochOff, req.epoch);
    mem_->StoreWord(ctrl_addr() + kLeaderOff, req.candidate);
  }
  grants_served_++;
  resp.granted = true;
  resp.epoch = req.epoch;
  resp.rkey = region_.rkey;
  resp.commit_seq = commit_seq();
  uint64_t tail = 0;
  for (uint64_t s = 1; s <= opts_.log_capacity; ++s) {
    const uint64_t hdr = mem_->LoadWord(slot_addr(s) + kHdrOff);
    if (hdr == 0) continue;
    tail = s;
    if (s > req.from_seq && resp.n_entries < kMaxCatchupEntries) {
      LogEntryWire& e = resp.entries[resp.n_entries++];
      e.seq = s;
      e.hdr = hdr;
      e.key = mem_->LoadWord(slot_addr(s) + kSlotKeyOff);
      e.v_lo = mem_->LoadWord(slot_addr(s) + kSlotValueOff);
      e.v_hi = mem_->LoadWord(slot_addr(s) + kSlotValueOff + 8);
    }
  }
  resp.write_seq = tail;
  return resp;
}

void ConsensusReplica::LocalAppend(uint64_t seq, uint64_t hdr, uint64_t key,
                                   ByteView value) {
  PRISM_CHECK_LE(seq, opts_.log_capacity);
  PRISM_CHECK_EQ(value.size(), kValueSize);
  const rdma::Addr slot = slot_addr(seq);
  mem_->StoreWord(slot + kHdrOff, hdr);
  mem_->StoreWord(slot + kSlotKeyOff, key);
  mem_->StoreWord(slot + kSlotValueOff, LoadU64(value.data()));
  mem_->StoreWord(slot + kSlotValueOff + 8, LoadU64(value.data() + 8));
}

void ConsensusReplica::SetCommit(uint64_t seq) {
  mem_->StoreWord(ctrl_addr() + kCommitOff, seq);
}

uint64_t ConsensusReplica::write_seq() const {
  uint64_t tail = 0;
  for (uint64_t s = 1; s <= opts_.log_capacity; ++s) {
    if (mem_->LoadWord(slot_addr(s) + kHdrOff) != 0) tail = s;
  }
  return tail;
}

bool ConsensusReplica::EntryAt(uint64_t seq, LogEntryWire* out) const {
  const rdma::Addr slot = slot_addr(seq);
  const uint64_t hdr = mem_->LoadWord(slot + kHdrOff);
  if (hdr == 0) return false;
  out->seq = seq;
  out->hdr = hdr;
  out->key = mem_->LoadWord(slot + kSlotKeyOff);
  out->v_lo = mem_->LoadWord(slot + kSlotValueOff);
  out->v_hi = mem_->LoadWord(slot + kSlotValueOff + 8);
  return true;
}

check::ValueId ConsensusReplica::FinalValue(uint64_t key) const {
  const uint64_t commit = commit_seq();
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool found = false;
  for (uint64_t s = 1; s <= commit && s <= opts_.log_capacity; ++s) {
    LogEntryWire e;
    if (!EntryAt(s, &e) || e.key != key) continue;
    lo = e.v_lo;
    hi = e.v_hi;
    found = true;
  }
  if (!found) return check::kAbsent;
  Bytes v(kValueSize);
  StoreU64(v.data(), lo);
  StoreU64(v.data() + 8, hi);
  return check::IdOf(v);
}

// ---- node ----

ConsensusNode::ConsensusNode(net::Fabric* fabric, ConsensusCluster* cluster,
                             int id)
    : fabric_(fabric),
      cluster_(cluster),
      id_(id),
      host_(cluster->replica(id).host()),
      rpc_(fabric, host_),
      prism_(fabric, host_),
      mu_(fabric->sim()) {
  granted_.assign(static_cast<size_t>(cluster->n()), false);
  rkeys_.assign(static_cast<size_t>(cluster->n()), 0);
}

bool ConsensusNode::LocalPermissionValid() const {
  const ConsensusReplica& r = cluster_->replica(id_);
  return r.epoch() == epoch_ && r.leader() == static_cast<uint64_t>(id_);
}

int ConsensusNode::granted_count() const {
  int n = 0;
  for (bool g : granted_) n += g ? 1 : 0;
  return n;
}

int ConsensusNode::CommitNeed() const {
  if (cluster_->options().require_revoke_quorum) return cluster_->quorum();
  // Buggy positive control: commit against whatever subset has granted.
  return std::min(cluster_->quorum(), std::max(1, granted_count()));
}

// ---- election ----

struct ConsensusNode::Elect {
  uint64_t target_epoch = 0;
  uint64_t from_seq = 0;  // colocated replica's commit word
  bool gathering = true;
  std::vector<bool> granted;
  std::vector<rdma::RKey> rkeys;
  // Highest-epoch entry per slot across the grant quorum (the Paxos read
  // phase); merged against the colocated replica's log.
  std::map<uint64_t, LogEntryWire> pool;
  uint64_t max_commit = 0;
  uint64_t max_write = 0;
  uint64_t reject_epoch = 0;
  obs::Ctx ctx;
};

void ConsensusNode::Adopt(Elect& st, int r, const GrantResponse& resp) {
  st.granted[static_cast<size_t>(r)] = true;
  st.rkeys[static_cast<size_t>(r)] = static_cast<rdma::RKey>(resp.rkey);
  st.max_commit = std::max(st.max_commit, resp.commit_seq);
  st.max_write = std::max(st.max_write, resp.write_seq);
  for (uint32_t i = 0; i < resp.n_entries; ++i) {
    const LogEntryWire& e = resp.entries[i];
    auto it = st.pool.find(e.seq);
    if (it == st.pool.end() || HdrEpoch(it->second.hdr) < HdrEpoch(e.hdr)) {
      st.pool[e.seq] = e;
    }
  }
}

sim::Task<bool> ConsensusNode::AskGrant(Elect& st, int r) {
  GrantRequest req;
  req.epoch = st.target_epoch;
  req.candidate = static_cast<uint32_t>(id_);
  req.from_seq = st.from_seq;
  while (true) {
    auto m = co_await rpc_.Call(
        &cluster_->replica(r).rpc(), kRevokeGrantMethod,
        rpc::Message::Of<GrantRequest>(req, kGrantReqBytes), st.ctx);
    if (!m.ok()) co_return false;
    const GrantResponse& resp = (*m)->As<GrantResponse>();
    if (!resp.granted) {
      st.reject_epoch = std::max(st.reject_epoch, resp.epoch);
      co_return false;
    }
    if (!st.gathering) {
      // The quorum closed without us. The replica still revoked the old
      // reign when it granted, so bring it into the membership through the
      // same replay path a background re-grant would use.
      if (leading_ && epoch_ == st.target_epoch &&
          !granted_[static_cast<size_t>(r)]) {
        co_await HealReplica(r, static_cast<rdma::RKey>(resp.rkey),
                             resp.commit_seq, resp.write_seq, st.ctx);
      }
      co_return false;
    }
    Adopt(st, r, resp);
    // Page through a long tail (idempotent same-epoch re-asks).
    if (resp.n_entries == kMaxCatchupEntries &&
        resp.entries[resp.n_entries - 1].seq < resp.write_seq) {
      req.from_seq = resp.entries[resp.n_entries - 1].seq;
      continue;
    }
    co_return true;
  }
}

sim::Task<Result<uint64_t>> ConsensusNode::BecomeLeader(obs::Ctx ctx) {
  co_await mu_.Lock();
  Status last = Unavailable("election never attempted");
  for (int attempt = 0; attempt < cluster_->options().max_election_attempts;
       ++attempt) {
    if (attempt > 0) {
      co_await sim::SleepFor(
          fabric_->sim(),
          cluster_->options().election_backoff * attempt);
    }
    const ConsensusReplica& local = cluster_->replica(id_);
    uint64_t base = std::max(last_seen_epoch_, local.epoch());
    base = std::max(base, epoch_);
    const int need = cluster_->options().require_revoke_quorum
                         ? cluster_->quorum()
                         : 1;
    const int need_remote = need - 1;
    sim::FanOut<Elect> grants(fabric_->sim(), need_remote, cluster_->n() - 1);
    Elect& st = grants.state();
    st.target_epoch = base + 1;
    st.ctx = ctx;
    st.granted.assign(static_cast<size_t>(cluster_->n()), false);
    st.rkeys.assign(static_cast<size_t>(cluster_->n()), 0);

    // Colocated replica first: its grant is synchronous and its log is the
    // free bulk of catch-up (the leader writes every entry locally, so only
    // the in-flight window above its commit word needs remote comparison).
    GrantRequest lreq;
    lreq.epoch = st.target_epoch;
    lreq.candidate = static_cast<uint32_t>(id_);
    lreq.from_seq = ~uint64_t{0};  // tail info only; log read directly below
    GrantResponse lresp = cluster_->replica(id_).Grant(lreq);
    if (!lresp.granted) {
      last_seen_epoch_ = std::max(last_seen_epoch_, lresp.epoch);
      last = Aborted("colocated replica rejected the grant");
      continue;
    }
    st.granted[static_cast<size_t>(id_)] = true;
    st.rkeys[static_cast<size_t>(id_)] = static_cast<rdma::RKey>(lresp.rkey);
    st.from_seq = lresp.commit_seq;
    st.max_commit = lresp.commit_seq;
    st.max_write = lresp.write_seq;

    for (int r = 0; r < cluster_->n(); ++r) {
      if (r == id_) continue;
      grants.Spawn(AskGrant(st, r), &cluster_->tracker());
    }
    const bool won = co_await grants.Wait();  // need 0: decided at once
    st.gathering = false;
    if (!won) {
      elections_lost_++;
      last_seen_epoch_ = std::max(last_seen_epoch_, st.reject_epoch);
      last = Aborted("revoke quorum not reached");
      continue;
    }
    auto done = co_await FinishElection(st, ctx);
    if (done.ok()) {
      elections_won_++;
      cluster_->set_leader_hint(id_);
      mu_.Unlock();
      co_return st.target_epoch;
    }
    elections_lost_++;
    last = done;
  }
  mu_.Unlock();
  co_return last;
}

Status ConsensusNode::BuildView(Elect& st,
                                std::map<uint64_t, LogEntryWire>* view) {
  const ConsensusReplica& local = cluster_->replica(id_);
  for (uint64_t s = 1; s <= st.max_write; ++s) {
    LogEntryWire e;
    if (local.EntryAt(s, &e)) (*view)[s] = e;
  }
  for (const auto& [seq, e] : st.pool) {
    auto it = view->find(seq);
    if (it == view->end() || HdrEpoch(it->second.hdr) < HdrEpoch(e.hdr)) {
      (*view)[seq] = e;
    }
  }
  return OkStatus();
}

sim::Task<Status> ConsensusNode::FinishElection(Elect& st,
                                                obs::Ctx ctx) {
  // Merge the colocated log with the grant-quorum pool: highest epoch per
  // slot wins.
  std::map<uint64_t, LogEntryWire> view;
  BuildView(st, &view);
  const uint64_t tip =
      std::max(st.max_write,
               view.empty() ? 0 : view.rbegin()->first);

  // A committed slot missing everywhere we looked lives on some granted
  // replica past the catch-up window or under a local hole — fetch it
  // point-wise. Commit quorums intersect grant quorums, so in the correct
  // protocol this always finds the committed copy.
  for (uint64_t s = 1; s <= st.max_commit; ++s) {
    if (view.count(s) != 0) continue;
    for (int r = 0; r < cluster_->n(); ++r) {
      if (r == id_ || !st.granted[static_cast<size_t>(r)]) continue;
      GrantRequest req;
      req.epoch = st.target_epoch;
      req.candidate = static_cast<uint32_t>(id_);
      req.from_seq = s - 1;
      auto m = co_await rpc_.Call(
          &cluster_->replica(r).rpc(), kRevokeGrantMethod,
          rpc::Message::Of<GrantRequest>(req, kGrantReqBytes), ctx);
      if (!m.ok()) continue;
      const GrantResponse& resp = (*m)->As<GrantResponse>();
      if (!resp.granted) continue;
      for (uint32_t i = 0; i < resp.n_entries; ++i) {
        const LogEntryWire& e = resp.entries[i];
        if (e.seq != s) continue;
        auto it = view.find(s);
        if (it == view.end() || HdrEpoch(it->second.hdr) < HdrEpoch(e.hdr)) {
          view[s] = e;
        }
      }
    }
  }

  // Re-commit the adopted suffix under the new epoch before serving (the
  // Paxos write-back): everything above the colocated commit word.
  const int need = cluster_->options().require_revoke_quorum
                       ? cluster_->quorum()
                       : std::min<int>(cluster_->quorum(),
                                       [&] {
                                         int g = 0;
                                         for (bool b : st.granted) g += b;
                                         return g;
                                       }());
  for (auto& [seq, e] : view) {
    if (seq <= st.from_seq) continue;
    e.hdr = PackHdr(st.target_epoch, seq);
    Bytes value(kValueSize);
    StoreU64(value.data(), e.v_lo);
    StoreU64(value.data() + 8, e.v_hi);
    cluster_->replica(id_).LocalAppend(seq, e.hdr, e.key, value);
    entries_adopted_++;
    int successes = 1;  // the colocated write above
    for (int r = 0; r < cluster_->n(); ++r) {
      if (r == id_ || !st.granted[static_cast<size_t>(r)]) continue;
      const bool ok = co_await RepairOne(
          r, st.rkeys[static_cast<size_t>(r)], e, st.from_seq, ctx);
      if (ok) successes++;
    }
    if (successes < need) {
      co_return Aborted("adopted-entry re-commit lost its quorum");
    }
  }

  // Install the new reign.
  epoch_ = st.target_epoch;
  last_seen_epoch_ = st.target_epoch;
  leading_ = true;
  granted_ = st.granted;
  rkeys_ = st.rkeys;
  next_seq_ = tip + 1;
  committed_seq_ = tip;
  cluster_->replica(id_).SetCommit(committed_seq_);
  applied_.clear();
  for (const auto& [seq, e] : view) {
    applied_[e.key] = {e.v_lo, e.v_hi};
  }
  co_return OkStatus();
}

sim::Task<bool> ConsensusNode::RepairOne(int r, rdma::RKey rkey,
                                         const LogEntryWire& e,
                                         uint64_t commit,
                                         obs::Ctx ctx) {
  // Exclusive write permission makes repair a plain overwrite: the whole
  // 32-byte slot in one WRITE, the commit word piggybacked behind it.
  Bytes slot(kSlotStride);
  StoreU64(slot.data() + kHdrOff, e.hdr);
  StoreU64(slot.data() + kSlotKeyOff, e.key);
  StoreU64(slot.data() + kSlotValueOff, e.v_lo);
  StoreU64(slot.data() + kSlotValueOff + 8, e.v_hi);
  core::Chain chain;
  chain.push_back(
      Op::Write(rkey, cluster_->replica(r).slot_addr(e.seq), std::move(slot)));
  chain.push_back(Op::Write(rkey, cluster_->replica(r).ctrl_addr() + kCommitOff,
                            SmallBytes::OfU64(commit)));
  auto res = co_await prism_.Execute(&cluster_->replica(r).prism(), chain, ctx);
  if (!res.ok()) co_return false;
  for (const core::OpResult& o : *res) {
    if (o.status.code() == Code::kPermissionDenied) {
      MarkDeposed(r);
      co_return false;
    }
  }
  co_return core::ChainFullySucceeded(chain, *res);
}

void ConsensusNode::MarkDeposed(int r) {
  if (granted_[static_cast<size_t>(r)]) {
    granted_[static_cast<size_t>(r)] = false;
    rkeys_[static_cast<size_t>(r)] = 0;
    deposals_observed_++;
  }
}

// ---- data path ----

sim::Task<ConsensusNode::PutOutcome> ConsensusNode::SubmitPut(
    core::PrismClient* pc, uint64_t key, Bytes value, obs::Ctx ctx) {
  co_await mu_.Lock();
  PutOutcome out;
  if (!leading_ || !LocalPermissionValid()) {
    leading_ = false;
    out.status = FailedPrecondition("not the leader");
    mu_.Unlock();
    co_return out;
  }
  if (cluster_->options().require_revoke_quorum &&
      granted_count() < cluster_->quorum()) {
    leading_ = false;
    out.status = Unavailable("write-permission majority lost");
    mu_.Unlock();
    co_return out;
  }
  if (next_seq_ > cluster_->options().log_capacity) {
    out.status = ResourceExhausted("consensus log full");
    mu_.Unlock();
    co_return out;
  }

  const uint64_t seq = next_seq_++;
  const uint64_t hdr = PackHdr(epoch_, seq);
  const uint64_t prev_commit = committed_seq_;
  // Colocated leg: free — the leader IS one replica. Snapshot the appended
  // entry now, before any await: a usurper's heal may wipe this slot while
  // the quorum wait is in flight (and `value` moves into the commit round).
  cluster_->replica(id_).LocalAppend(seq, hdr, key, value);
  LogEntryWire self;
  PRISM_CHECK(cluster_->replica(id_).EntryAt(seq, &self));

  std::vector<int> targets;
  for (int r = 0; r < cluster_->n(); ++r) {
    if (r != id_ && granted_[static_cast<size_t>(r)]) targets.push_back(r);
  }
  const int need_remote = CommitNeed() - 1;
  bool committed = true;
  if (need_remote > 0) {
    // The round's state is the value every chain copies before it suspends.
    sim::FanOut<Bytes> appends(fabric_->sim(), need_remote,
                               static_cast<int>(targets.size()));
    appends.state() = std::move(value);
    for (int r : targets) {
      appends.Spawn(AppendChain(pc, r, seq, hdr, key, prev_commit,
                                appends.state(), ctx),
                    &cluster_->tracker());
    }
    committed = co_await appends.Wait();
  }
  if (committed) {
    committed_seq_ = std::max(committed_seq_, seq);
    cluster_->replica(id_).SetCommit(committed_seq_);
    applied_[key] = {self.v_lo, self.v_hi};
    out.status = OkStatus();
    out.applied = Applied::kYes;
    if (granted_count() < cluster_->n() && !regrant_inflight_ &&
        committed_seq_ % cluster_->options().regrant_interval == 0) {
      regrant_inflight_ = true;
      regrants_++;
      sim::Spawn(TryRegrant(ctx), &cluster_->tracker());
    }
  } else {
    // The entry is in the colocated log and possibly on some remotes; a
    // future election may adopt it, so the write may yet take effect.
    leading_ = false;
    out.status = Unavailable("commit quorum lost");
    out.applied = Applied::kMaybe;
  }
  mu_.Unlock();
  co_return out;
}

sim::Task<bool> ConsensusNode::AppendChain(core::PrismClient* pc, int r,
                                           uint64_t seq, uint64_t hdr,
                                           uint64_t key, uint64_t prev_commit,
                                           const Bytes& value,
                                           obs::Ctx ctx) {
  const rdma::RKey rkey = rkeys_[static_cast<size_t>(r)];
  const rdma::Addr slot = cluster_->replica(r).slot_addr(seq);
  Bytes payload(8 + kValueSize);
  StoreU64(payload.data(), key);
  std::copy(value.begin(), value.end(), payload.begin() + 8);
  core::Chain chain;
  // Locate (client-computed slot address) + compare (slot must be empty) +
  // write (payload, then the piggybacked commit index) — one round trip.
  chain.push_back(Op::CompareSwapCas(
      rkey, slot + kHdrOff, SmallBytes::OfU64(0), SmallBytes::OfU64(hdr),
      SmallBytes(8, 0xff), SmallBytes(8, 0xff)));
  chain.push_back(
      Op::Write(rkey, slot + kSlotKeyOff, std::move(payload)).Conditional());
  chain.push_back(Op::Write(rkey,
                            cluster_->replica(r).ctrl_addr() + kCommitOff,
                            SmallBytes::OfU64(prev_commit))
                      .Conditional());
  auto res = co_await pc->Execute(&cluster_->replica(r).prism(), chain, ctx);
  if (!res.ok()) co_return false;
  for (const core::OpResult& o : *res) {
    if (o.status.code() == Code::kPermissionDenied) {
      // The replica revoked our rkey: we have been deposed.
      MarkDeposed(r);
      co_return false;
    }
  }
  co_return core::ChainFullySucceeded(chain, *res);
}

sim::Task<Result<Bytes>> ConsensusNode::SubmitGet(core::PrismClient* pc,
                                                  uint64_t key,
                                                  obs::Ctx ctx) {
  co_await mu_.Lock();
  if (!leading_ || !LocalPermissionValid()) {
    leading_ = false;
    mu_.Unlock();
    co_return FailedPrecondition("not the leader");
  }
  if (cluster_->options().require_revoke_quorum &&
      granted_count() < cluster_->quorum()) {
    leading_ = false;
    mu_.Unlock();
    co_return Unavailable("write-permission majority lost");
  }
  std::vector<int> targets;
  for (int r = 0; r < cluster_->n(); ++r) {
    if (r != id_ && granted_[static_cast<size_t>(r)]) targets.push_back(r);
  }
  const int need_remote = CommitNeed() - 1;
  if (need_remote > 0) {
    sim::FanOut<> confirms(fabric_->sim(), need_remote,
                           static_cast<int>(targets.size()));
    for (int r : targets) {
      confirms.Spawn(ConfirmChain(pc, r, ctx), &cluster_->tracker());
    }
    const bool confirmed = co_await confirms.Wait();
    if (!confirmed) {
      leading_ = false;
      mu_.Unlock();
      co_return Unavailable("permission confirmation lost its quorum");
    }
  }
  auto it = applied_.find(key);
  if (it == applied_.end()) {
    mu_.Unlock();
    co_return NotFound("key never committed");
  }
  Bytes v(kValueSize);
  StoreU64(v.data(), it->second.first);
  StoreU64(v.data() + 8, it->second.second);
  mu_.Unlock();
  co_return v;
}

sim::Task<bool> ConsensusNode::ConfirmChain(core::PrismClient* pc, int r,
                                            obs::Ctx ctx) {
  // Permission check by construction: write our heartbeat word under the
  // granted rkey. A replica that revoked us NACKs — that IS the failure
  // detector reading.
  const rdma::RKey rkey = rkeys_[static_cast<size_t>(r)];
  core::Chain chain;
  chain.push_back(Op::Write(rkey,
                            cluster_->replica(r).ctrl_addr() + kHeartbeatOff,
                            SmallBytes::OfU64(epoch_)));
  auto res = co_await pc->Execute(&cluster_->replica(r).prism(), chain, ctx);
  if (!res.ok()) co_return false;
  if ((*res)[0].status.code() == Code::kPermissionDenied) {
    MarkDeposed(r);
    co_return false;
  }
  co_return core::ChainFullySucceeded(chain, *res);
}

// ---- healing ----

sim::Task<bool> ConsensusNode::HealReplica(int r, rdma::RKey rkey,
                                           uint64_t their_commit,
                                           uint64_t their_write,
                                           obs::Ctx ctx) {
  const uint64_t snap_epoch = epoch_;
  const uint64_t snap_commit = committed_seq_;
  bool ok = true;
  // Wipe any stale tail the replica accumulated under an older reign — a
  // stale slot above our commit word would otherwise block the CAS append
  // or poison a future election's adoption.
  if (their_write > snap_commit) {
    core::Chain wipe;
    wipe.push_back(
        Op::Write(rkey, cluster_->replica(r).slot_addr(snap_commit + 1),
                  Bytes((their_write - snap_commit) * kSlotStride, 0)));
    auto w = co_await prism_.Execute(&cluster_->replica(r).prism(), wipe, ctx);
    ok = w.ok() && core::ChainFullySucceeded(wipe, *w);
  }
  // Replay the committed range it is missing from the colocated log (an
  // adopted hole replays as zeros — consistently absent everywhere).
  uint64_t s = their_commit + 1;
  while (ok && s <= snap_commit) {
    core::Chain chain;
    for (size_t b = 0; b < kRepairBatch && s <= snap_commit; ++b, ++s) {
      LogEntryWire e;
      Bytes slot(kSlotStride, 0);
      if (cluster_->replica(id_).EntryAt(s, &e)) {
        StoreU64(slot.data() + kHdrOff, e.hdr);
        StoreU64(slot.data() + kSlotKeyOff, e.key);
        StoreU64(slot.data() + kSlotValueOff, e.v_lo);
        StoreU64(slot.data() + kSlotValueOff + 8, e.v_hi);
      }
      chain.push_back(Op::Write(rkey, cluster_->replica(r).slot_addr(s),
                                std::move(slot)));
    }
    auto res =
        co_await prism_.Execute(&cluster_->replica(r).prism(), chain, ctx);
    ok = res.ok() && core::ChainFullySucceeded(chain, *res);
  }
  if (ok) {
    core::Chain fin;
    fin.push_back(Op::Write(
        rkey, cluster_->replica(r).ctrl_addr() + kCommitOff,
        SmallBytes::OfU64(snap_commit)));
    auto res = co_await prism_.Execute(&cluster_->replica(r).prism(), fin, ctx);
    ok = res.ok() && core::ChainFullySucceeded(fin, *res);
  }
  if (ok && leading_ && epoch_ == snap_epoch &&
      !granted_[static_cast<size_t>(r)]) {
    granted_[static_cast<size_t>(r)] = true;
    rkeys_[static_cast<size_t>(r)] = rkey;
    co_return true;
  }
  co_return false;
}

sim::Task<void> ConsensusNode::TryRegrant(obs::Ctx ctx) {
  const uint64_t snap_epoch = epoch_;
  for (int r = 0; r < cluster_->n(); ++r) {
    if (!leading_ || epoch_ != snap_epoch) break;
    if (r == id_ || granted_[static_cast<size_t>(r)]) continue;
    GrantRequest req;
    req.epoch = snap_epoch;
    req.candidate = static_cast<uint32_t>(id_);
    req.from_seq = ~uint64_t{0};  // tail info only
    auto m = co_await rpc_.Call(
        &cluster_->replica(r).rpc(), kRevokeGrantMethod,
        rpc::Message::Of<GrantRequest>(req, kGrantReqBytes), ctx);
    if (!m.ok()) continue;
    const GrantResponse& resp = (*m)->As<GrantResponse>();
    if (!resp.granted) {
      // A higher epoch exists; our next data-path op will find out too.
      last_seen_epoch_ = std::max(last_seen_epoch_, resp.epoch);
      continue;
    }
    (void)co_await HealReplica(r, static_cast<rdma::RKey>(resp.rkey),
                               resp.commit_seq, resp.write_seq, ctx);
  }
  regrant_inflight_ = false;
  co_return;
}

// ---- cluster ----

ConsensusCluster::ConsensusCluster(net::Fabric* fabric,
                                   std::vector<net::HostId> hosts,
                                   ConsensusOptions opts)
    : opts_(opts), fabric_(fabric), elect_mu_(fabric->sim()) {
  PRISM_CHECK_EQ(static_cast<int>(hosts.size()), opts_.n_replicas);
  PRISM_CHECK_GE(opts_.n_replicas, 1);
  for (net::HostId h : hosts) {
    replicas_.push_back(std::make_unique<ConsensusReplica>(fabric, h, opts_));
  }
  for (int i = 0; i < opts_.n_replicas; ++i) {
    nodes_.push_back(std::make_unique<ConsensusNode>(fabric, this, i));
  }
}

sim::Task<Result<uint64_t>> ConsensusCluster::Failover(int candidate,
                                                       obs::Ctx ctx) {
  PRISM_CHECK_GE(candidate, 0);
  PRISM_CHECK_LT(candidate, n());
  const uint64_t gen = elect_generation_;
  co_await elect_mu_.Lock();
  if (elect_generation_ != gen) {
    // Someone else completed an election while we queued; if it produced a
    // live leader, don't depose it again.
    ConsensusNode& cur = *nodes_[static_cast<size_t>(leader_hint_)];
    if (cur.leading() && cur.LocalPermissionValid()) {
      const uint64_t e = cur.epoch();
      elect_mu_.Unlock();
      co_return e;
    }
  }
  auto won =
      co_await nodes_[static_cast<size_t>(candidate)]->BecomeLeader(ctx);
  if (won.ok()) {
    elect_generation_++;
    failovers_++;
  }
  elect_mu_.Unlock();
  co_return won;
}

bool ConsensusCluster::CommittedPrefixesAgree(std::string* error) const {
  for (int a = 0; a < n(); ++a) {
    for (int b = a + 1; b < n(); ++b) {
      const uint64_t upto =
          std::min(replica(a).commit_seq(), replica(b).commit_seq());
      for (uint64_t s = 1; s <= upto; ++s) {
        LogEntryWire ea, eb;
        if (!replica(a).EntryAt(s, &ea) || !replica(b).EntryAt(s, &eb)) {
          continue;
        }
        if (ea.key != eb.key || ea.v_lo != eb.v_lo || ea.v_hi != eb.v_hi) {
          *error = "replicas " + std::to_string(a) + " and " +
                   std::to_string(b) + " diverge at committed seq " +
                   std::to_string(s);
          return false;
        }
      }
    }
  }
  return true;
}

// ---- session ----

ConsensusSession::ConsensusSession(ConsensusCluster* cluster)
    : cluster_(cluster) {
  for (int i = 0; i < cluster->n(); ++i) {
    clients_.push_back(std::make_unique<core::PrismClient>(
        cluster->fabric(), cluster->replica(i).host()));
  }
}

void ConsensusSession::set_batcher(rdma::VerbBatcher* b) {
  for (auto& c : clients_) c->set_batcher(b);
}

obs::TransportTally ConsensusSession::tally() const {
  obs::TransportTally t;
  for (const auto& c : clients_) t += c->tally();
  return t;
}

// ---- client ----

ConsensusClient::ConsensusClient(ConsensusCluster* cluster, uint16_t client_id,
                                 uint64_t rng_seed)
    : cluster_(cluster),
      id_(client_id),
      rng_(Mix64(rng_seed) ^ Mix64(client_id)),
      session_(cluster) {}

sim::Task<void> ConsensusClient::RecoverLeadership(int failed_leader,
                                                   obs::Ctx ctx) {
  failovers_triggered_++;
  int candidate = failed_leader;
  if (cluster_->n() > 1) {
    candidate = (failed_leader + 1 +
                 static_cast<int>(rng_.NextBelow(
                     static_cast<uint64_t>(cluster_->n() - 1)))) %
                cluster_->n();
  }
  auto r = co_await cluster_->Failover(candidate, ctx);
  (void)r;  // the caller re-reads the hint; failures surface on retry
}

sim::Task<Status> ConsensusClient::Put(uint64_t key, Bytes value) {
  const obs::Ctx ctx = cluster_->fabric()->obs().entry();
  const check::ValueId written = check::IdOf(value);
  size_t h = 0;
  if (history_ != nullptr) {
    h = history_->Begin(history_client_, key, check::OpType::kWrite, written);
  }
  Status last = Unavailable("no attempt made");
  bool maybe = false;
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (attempt > 0) retries_++;
    const int leader = cluster_->leader_hint();
    ConsensusNode::PutOutcome out =
        co_await session_.PutOn(leader, key, value, ctx);
    if (out.status.ok()) {
      if (history_ != nullptr) history_->End(h, check::Outcome::kOk);
      co_return OkStatus();
    }
    last = out.status;
    if (out.applied == ConsensusNode::Applied::kMaybe) {
      // The write may sit in a minority log and be adopted later; retrying
      // could apply it twice. Give up as indeterminate.
      maybe = true;
      break;
    }
    if (attempt + 1 < max_attempts_) {
      co_await RecoverLeadership(leader, ctx);
    }
  }
  if (history_ != nullptr) {
    history_->End(h, maybe ? check::Outcome::kIndeterminate
                           : check::Outcome::kFailed);
  }
  co_return last;
}

sim::Task<Result<Bytes>> ConsensusClient::Get(uint64_t key) {
  const obs::Ctx ctx = cluster_->fabric()->obs().entry();
  size_t h = 0;
  if (history_ != nullptr) {
    h = history_->Begin(history_client_, key, check::OpType::kRead);
  }
  Status last = Unavailable("no attempt made");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    if (attempt > 0) retries_++;
    const int leader = cluster_->leader_hint();
    auto r = co_await session_.GetOn(leader, key, ctx);
    if (r.ok()) {
      if (history_ != nullptr) {
        history_->End(h, check::Outcome::kOk, check::IdOf(*r));
      }
      co_return r;
    }
    if (r.status().code() == Code::kNotFound) {
      if (history_ != nullptr) {
        history_->End(h, check::Outcome::kOk, check::kAbsent);
      }
      co_return r.status();
    }
    last = r.status();
    if (attempt + 1 < max_attempts_) {
      co_await RecoverLeadership(leader, ctx);
    }
  }
  if (history_ != nullptr) history_->End(h, check::Outcome::kFailed);
  co_return last;
}

}  // namespace prism::consensus
