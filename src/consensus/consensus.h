// Permission-guarded consensus over registered replica memory.
//
// A leader-based consensus log in the style of Protected Memory Paxos
// (Aguilera et al., "The Impact of RDMA on Agreement"): the replicas are
// passive registered-memory servers, and RDMA permissions double as the
// failure detector. A candidate becomes leader by having a quorum of
// replicas REVOKE the previous leader's rkey and grant a fresh one
// (Deregister + Register bumps the permission epoch); from then on every
// in-flight or future write posted by a deposed leader NACKs with
// kPermissionDenied at validation time — the revoke-NACK path already
// modeled by src/rdma. Leader change is therefore a memory-management
// operation, and the common-case commit needs no replica CPU at all.
//
// Data path (the leader is colocated with one replica):
//   * Put: allocate the next log slot, apply it to the colocated replica's
//     memory directly (free), and push it to every granted remote replica
//     with ONE PRISM chain each — locate (client-computed slot address) +
//     compare (CAS the slot header 0 → ⟨epoch,seq⟩) + write (payload, then
//     the piggybacked commit index), all conditional on the CAS. The chain
//     is a single round trip per remote replica, so an n=3 commit costs
//     exactly 2 round trips in the complexity tally.
//   * Get: the leader confirms it still holds write permission by writing
//     its heartbeat word on a quorum of replicas (1-op chain per remote —
//     a revoked rkey NACKs), then serves from its applied state. Same 2-RT
//     profile at n=3.
//
// Control plane (leader change only — CPU off the critical path is fine):
//   * RevokeGrant RPC (src/rpc): the replica checks the proposed epoch,
//     deregisters the old region and re-registers it (fresh rkey), records
//     the new ⟨epoch, leader⟩, and returns the rkey plus its log tail above
//     the candidate's known sequence. The candidate adopts the
//     highest-epoch entry per slot across a quorum of grants and re-commits
//     the adopted suffix before serving — the classic Paxos read phase,
//     expressed as memory grants.
//
// The deliberately buggy variant (require_revoke_quorum = false) is the
// positive control for the checkers: a candidate proceeds as soon as its
// OWN colocated replica grants (revocation without a quorum), and commits
// against whatever subset has granted so far. Quorum intersection is gone,
// so a deposed-but-alive leader and the usurper can both acknowledge
// writes — a split brain that surfaces as stale reads / divergent logs
// under schedule perturbation (src/explore), while every canonical
// schedule stays clean.
//
// Every client op records an invocation/response entry in an optional
// check::HistoryRecorder, so src/check's Wing–Gong linearizability checker
// applies directly; replicas expose quiescent log accessors for the
// cross-replica log-safety oracle.
#ifndef PRISM_SRC_CONSENSUS_CONSENSUS_H_
#define PRISM_SRC_CONSENSUS_CONSENSUS_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/check/history.h"
#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace prism::consensus {

struct ConsensusOptions {
  int n_replicas = 3;
  // Log capacity in slots; a Put past the end fails kResourceExhausted
  // (tests and benches are sized to never wrap).
  uint64_t log_capacity = 4096;
  // Correct protocol: a candidate needs grants from a majority before
  // leading, and a commit needs a majority of replica writes. false is the
  // buggy positive control: the candidate proceeds on its colocated
  // replica's grant alone and commits against the granted subset.
  bool require_revoke_quorum = true;
  int max_election_attempts = 8;
  sim::Duration election_backoff = sim::Micros(20);
  // A Put spawns a background re-grant probe for missing replicas every
  // `regrant_interval` committed ops (heals membership after restarts).
  uint64_t regrant_interval = 64;
  rdma::Backend backend = rdma::Backend::kHardwareNic;
  core::Deployment deployment = core::Deployment::kHardwareProjected;
};

// Values are fixed 16-byte two-word payloads (both words unique per
// (seed, client, op), as in src/sync — fingerprints of mixed halves never
// collide with a recorded write).
inline constexpr uint64_t kValueSize = 16;

// Replica memory layout: a control block followed by the log.
//   ctrl: [epoch u64][commit u64][heartbeat u64][leader u64][pad 32 B]
//   slot: [hdr u64][key u64][value lo u64][value hi u64]   (32 B stride)
// hdr packs ⟨epoch, seq⟩; 0 = empty slot. Sequences are 1-based.
inline constexpr uint64_t kCtrlBytes = 64;
inline constexpr uint64_t kEpochOff = 0;
inline constexpr uint64_t kCommitOff = 8;
inline constexpr uint64_t kHeartbeatOff = 16;
inline constexpr uint64_t kLeaderOff = 24;
inline constexpr uint64_t kSlotStride = 32;
inline constexpr uint64_t kHdrOff = 0;
inline constexpr uint64_t kSlotKeyOff = 8;
inline constexpr uint64_t kSlotValueOff = 16;

inline constexpr uint64_t PackHdr(uint64_t epoch, uint64_t seq) {
  return (epoch << 40) | seq;
}
inline constexpr uint64_t HdrEpoch(uint64_t hdr) { return hdr >> 40; }
inline constexpr uint64_t HdrSeq(uint64_t hdr) {
  return hdr & ((uint64_t{1} << 40) - 1);
}

Bytes MakeValue(uint64_t seed, int client, int op);

// ---- control-plane wire types (RevokeGrant RPC) ----

inline constexpr rpc::MethodId kRevokeGrantMethod = 0x52474E54;  // "RGNT"
inline constexpr uint32_t kMaxCatchupEntries = 32;

struct LogEntryWire {
  uint64_t seq = 0;
  uint64_t hdr = 0;
  uint64_t key = 0;
  uint64_t v_lo = 0;
  uint64_t v_hi = 0;
};

struct GrantRequest {
  uint64_t epoch = 0;
  uint32_t candidate = 0;
  // Entries with seq > from_seq are returned (up to kMaxCatchupEntries per
  // response; the candidate loops until caught up).
  uint64_t from_seq = 0;
};

struct GrantResponse {
  bool granted = false;
  uint64_t epoch = 0;  // replica's current epoch (the higher one on reject)
  uint64_t rkey = 0;
  uint64_t commit_seq = 0;
  uint64_t write_seq = 0;  // highest nonempty slot
  uint32_t n_entries = 0;
  LogEntryWire entries[kMaxCatchupEntries];
};

class ConsensusCluster;

// One passive replica: registered control+log memory plus the control-plane
// grant handler. The data path never touches its CPU.
class ConsensusReplica {
 public:
  ConsensusReplica(net::Fabric* fabric, net::HostId host,
                   ConsensusOptions opts);

  net::HostId host() const { return host_; }
  rdma::RdmaService& rdma() { return *rdma_; }
  core::PrismServer& prism() { return *prism_; }
  rpc::RpcServer& rpc() { return *rpc_; }

  rdma::Addr ctrl_addr() const { return region_.base; }
  rdma::Addr slot_addr(uint64_t seq) const {
    return region_.base + kCtrlBytes + (seq - 1) * kSlotStride;
  }

  // The control-plane grant: epoch > current revokes the old registration
  // (fresh rkey) and records the new leader; epoch == current from the
  // incumbent is an idempotent catch-up read. Synchronous — the RPC handler
  // and the colocated leader both call it directly.
  GrantResponse Grant(const GrantRequest& req);

  // Colocated-leader fast path (same host, plain memory): append one entry
  // and advance the durable commit word.
  void LocalAppend(uint64_t seq, uint64_t hdr, uint64_t key, ByteView value);
  void SetCommit(uint64_t seq);

  // ---- quiescent accessors (tests / oracles / local leader checks) ----
  uint64_t epoch() const { return mem_->LoadWord(ctrl_addr() + kEpochOff); }
  uint64_t leader() const { return mem_->LoadWord(ctrl_addr() + kLeaderOff); }
  uint64_t commit_seq() const {
    return mem_->LoadWord(ctrl_addr() + kCommitOff);
  }
  uint64_t write_seq() const;
  // false when the slot is empty.
  bool EntryAt(uint64_t seq, LogEntryWire* out) const;
  // Folds the committed prefix (holes skipped) for one key; kAbsent when
  // the key was never committed.
  check::ValueId FinalValue(uint64_t key) const;

  rdma::RKey rkey() const { return region_.rkey; }
  uint64_t grants_served() const { return grants_served_; }
  uint64_t revocations() const { return revocations_; }

 private:
  ConsensusOptions opts_;
  net::HostId host_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<rdma::RdmaService> rdma_;
  std::unique_ptr<core::PrismServer> prism_;
  std::unique_ptr<rpc::RpcServer> rpc_;
  rdma::MemoryRegion region_;
  uint64_t grants_served_ = 0;
  uint64_t revocations_ = 0;
};

// A leader candidate, colocated with replica `id`. Holds the leadership
// state (epoch, per-replica rkeys, applied KV state) and the commit logic;
// per-client verbs issue through ConsensusSession's own PrismClient so the
// complexity tally stays per-class.
class ConsensusNode {
 public:
  ConsensusNode(net::Fabric* fabric, ConsensusCluster* cluster, int id);

  int id() const { return id_; }
  net::HostId host() const { return host_; }
  bool leading() const { return leading_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t committed_seq() const { return committed_seq_; }
  int granted_count() const;

  // Runs the revoke-quorum election + catch-up + adopted-suffix re-commit.
  // Returns the won epoch. Control-plane traffic (RPCs, repair chains) is
  // charged to this node's own clients, not to any session.
  sim::Task<Result<uint64_t>> BecomeLeader(obs::Ctx ctx);

  // ---- stats ----
  uint64_t elections_won() const { return elections_won_; }
  uint64_t elections_lost() const { return elections_lost_; }
  uint64_t deposals_observed() const { return deposals_observed_; }
  uint64_t entries_adopted() const { return entries_adopted_; }
  uint64_t regrants() const { return regrants_; }
  // Control-plane complexity (election RPCs + repair chains).
  obs::TransportTally control_tally() const {
    return rpc_.tally() + prism_.tally();
  }

  enum class Applied { kNo, kYes, kMaybe };
  struct PutOutcome {
    Status status;
    Applied applied = Applied::kNo;
  };

 private:
  friend class ConsensusSession;
  friend class ConsensusCluster;

  // True while this node's epoch is still the one its colocated replica
  // granted — the free local leg of every permission check.
  bool LocalPermissionValid() const;
  int CommitNeed() const;

  sim::Task<PutOutcome> SubmitPut(core::PrismClient* pc, uint64_t key,
                                  Bytes value, obs::Ctx ctx);
  sim::Task<Result<Bytes>> SubmitGet(core::PrismClient* pc, uint64_t key,
                                     obs::Ctx ctx);

  // One commit chain to remote replica r: CAS slot hdr 0→⟨epoch,seq⟩, then
  // conditional payload + piggybacked commit-index writes; true on success.
  sim::Task<bool> AppendChain(core::PrismClient* pc, int r, uint64_t seq,
                              uint64_t hdr, uint64_t key, uint64_t prev_commit,
                              const Bytes& value, obs::Ctx ctx);
  sim::Task<bool> ConfirmChain(core::PrismClient* pc, int r,
                               obs::Ctx ctx);

  // Unconditional repair write (exclusive permission): used for adopted
  // entries and re-grant healing.
  sim::Task<bool> RepairOne(int r, rdma::RKey rkey, const LogEntryWire& e,
                            uint64_t commit, obs::Ctx ctx);

  // A kPermissionDenied NACK from replica r means it revoked our rkey.
  void MarkDeposed(int r);

  // Wipe-stale-tail + replay-committed-range + commit-word write for a
  // replica that just (re-)granted; marks it granted on success. Shared by
  // the background probe and a late post-quorum grant.
  sim::Task<bool> HealReplica(int r, rdma::RKey rkey, uint64_t their_commit,
                              uint64_t their_write, obs::Ctx ctx);
  // Background probe: re-grant + repair replicas missing from granted_.
  sim::Task<void> TryRegrant(obs::Ctx ctx);

  // Ingests one grant into the election scratch state.
  struct Elect;
  sim::Task<bool> AskGrant(Elect& st, int r);
  void Adopt(Elect& st, int r, const GrantResponse& resp);
  Status BuildView(Elect& st, std::map<uint64_t, LogEntryWire>* view);
  // Catch-up (point-fetch of committed holes), adopted-suffix re-commit
  // under the new epoch, and reign installation.
  sim::Task<Status> FinishElection(Elect& st, obs::Ctx ctx);

  net::Fabric* fabric_;
  ConsensusCluster* cluster_;
  int id_;
  net::HostId host_;
  rpc::RpcClient rpc_;
  core::PrismClient prism_;
  sim::Mutex mu_;

  bool leading_ = false;
  uint64_t epoch_ = 0;
  uint64_t last_seen_epoch_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t committed_seq_ = 0;
  std::vector<bool> granted_;
  std::vector<rdma::RKey> rkeys_;
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> applied_;
  bool regrant_inflight_ = false;

  uint64_t elections_won_ = 0;
  uint64_t elections_lost_ = 0;
  uint64_t deposals_observed_ = 0;
  uint64_t entries_adopted_ = 0;
  uint64_t regrants_ = 0;
};

// The replica group plus its leader candidates. Owns the failover
// serialization (one election at a time) and the leader hint clients start
// from.
class ConsensusCluster {
 public:
  ConsensusCluster(net::Fabric* fabric, std::vector<net::HostId> hosts,
                   ConsensusOptions opts);

  int n() const { return static_cast<int>(replicas_.size()); }
  int quorum() const { return n() / 2 + 1; }
  const ConsensusOptions& options() const { return opts_; }
  net::Fabric* fabric() { return fabric_; }
  ConsensusReplica& replica(int i) { return *replicas_[i]; }
  const ConsensusReplica& replica(int i) const { return *replicas_[i]; }
  ConsensusNode& node(int i) { return *nodes_[i]; }

  int leader_hint() const { return leader_hint_; }
  void set_leader_hint(int i) { leader_hint_ = i; }

  // Elects `candidate` (serialized across callers). A concurrent election
  // that already produced a newer leader short-circuits.
  sim::Task<Result<uint64_t>> Failover(int candidate, obs::Ctx ctx);

  // Spawned protocol tasks (laggard chains, background re-grants) register
  // here so runs can assert a clean drain.
  sim::TaskTracker& tracker() { return tracker_; }
  uint64_t failovers() const { return failovers_; }

  // Cross-replica log safety: below both commit words, two replicas that
  // both hold a slot hold the same key/value. Holes are legal (indeterminate
  // ops that never landed), and header epochs may lag until healing rewrites
  // them. On divergence returns false and names the slot in `error`.
  bool CommittedPrefixesAgree(std::string* error) const;

 private:
  ConsensusOptions opts_;
  net::Fabric* fabric_;
  std::vector<std::unique_ptr<ConsensusReplica>> replicas_;
  std::vector<std::unique_ptr<ConsensusNode>> nodes_;
  sim::Mutex elect_mu_;
  sim::TaskTracker tracker_;
  int leader_hint_ = 0;
  uint64_t elect_generation_ = 0;
  uint64_t failovers_ = 0;
};

// Per-logical-client data-path handle: one PrismClient per node so chains
// issue from the current leader's host and the complexity tally is
// attributable to this client's op class.
class ConsensusSession {
 public:
  explicit ConsensusSession(ConsensusCluster* cluster);

  // Executes on node `leader` under the caller's op ctx; no retry — the
  // caller owns that policy.
  sim::Task<ConsensusNode::PutOutcome> PutOn(int leader, uint64_t key,
                                             Bytes value, obs::Ctx ctx) {
    return cluster_->node(leader).SubmitPut(clients_[leader].get(), key,
                                            std::move(value), ctx);
  }
  sim::Task<Result<Bytes>> GetOn(int leader, uint64_t key, obs::Ctx ctx) {
    return cluster_->node(leader).SubmitGet(clients_[leader].get(), key, ctx);
  }

  void set_batcher(rdma::VerbBatcher* b);
  obs::TransportTally tally() const;
  uint64_t round_trips() const { return tally().round_trips; }

 private:
  friend class ConsensusClient;
  ConsensusCluster* cluster_;
  std::vector<std::unique_ptr<core::PrismClient>> clients_;
};

// Linearizable register/KV client: leader discovery, failover triggering,
// bounded retries, and src/check history recording. A Put is retried only
// while it definitely has not taken effect; the first maybe-applied outcome
// ends it as kIndeterminate (retrying could double-apply).
class ConsensusClient {
 public:
  ConsensusClient(ConsensusCluster* cluster, uint16_t client_id,
                  uint64_t rng_seed);

  sim::Task<Status> Put(uint64_t key, Bytes value);
  sim::Task<Result<Bytes>> Get(uint64_t key);

  void set_history(check::HistoryRecorder* history, int client_id) {
    history_ = history;
    history_client_ = client_id;
  }
  void set_batcher(rdma::VerbBatcher* b) { session_.set_batcher(b); }
  // Retries per op before giving up (each failed attempt may trigger a
  // failover to the next candidate).
  void set_max_attempts(int n) { max_attempts_ = n; }

  ConsensusSession& session() { return session_; }
  uint64_t failovers_triggered() const { return failovers_triggered_; }
  uint64_t retries() const { return retries_; }

 private:
  sim::Task<void> RecoverLeadership(int failed_leader, obs::Ctx ctx);

  ConsensusCluster* cluster_;
  uint16_t id_;
  Rng rng_;
  ConsensusSession session_;
  check::HistoryRecorder* history_ = nullptr;
  int history_client_ = 0;
  int max_attempts_ = 8;
  uint64_t failovers_triggered_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace prism::consensus

#endif  // PRISM_SRC_CONSENSUS_CONSENSUS_H_
