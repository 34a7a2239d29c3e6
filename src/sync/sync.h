// One-sided synchronization schemes over a remotely-traversed hash index.
//
// The index is a fixed-geometry open-addressing (linear probe) hash table
// living in ONE host's registered memory; clients on other hosts traverse
// and mutate it purely with one-sided verbs (src/rdma) or PRISM chains
// (src/prism) — the server CPU never touches requests. This reproduces the
// scheme spectrum of the SIGMOD 2023 synchronization-guidelines study
// (SNIPPETS.md): schemes differ wildly in round trips per op, and subtly
// wrong ones corrupt data only under rare interleavings.
//
// Slot layout (64 B stride, offsets from slot base):
//   [lock u64][key u64][version u64][value lo u64][value hi u64][pad 24 B]
//
//   lock     spinlock/buggy/PRISM: 0 = free, else the holder's client id.
//            lease scheme: packed ⟨expiry µs << 16 | owner⟩, 0 = free.
//   key      0 = empty slot (keys are nonzero); ends a probe chain.
//   version  seqlock word for the optimistic scheme: even = stable,
//            odd = writer in progress. Other schemes leave it 0.
//   value    fixed 16-byte value as two words. Two words (not one) on
//            purpose: torn values — one word from each of two writes —
//            are how unfenced schemes corrupt, and the linearizability
//            checker sees a torn value as an unwritten ValueId.
//
// The scheme spectrum (all operate on the same slots):
//   kSpinlock     CAS(lock, 0→id) + exponential backoff; READ/WRITE the
//                 value under the lock; WRITE(lock=0) to release. Every
//                 step awaits the previous one's completion (fenced).
//   kOptimistic   seqlock-style: readers are lock-free (read version,
//                 read value, re-read version, retry on mismatch/odd);
//                 writers CAS the version even→odd, write, write even.
//   kLease        lock word carries ⟨owner, expiry⟩; an expired lease can
//                 be stolen with CAS(seen→mine). Holders self-fence: a
//                 value write is only posted while now + guard < expiry,
//                 so a stalled holder aborts instead of scribbling over a
//                 successor. Sound while guard exceeds the post→effect
//                 latency bound (see DESIGN.md §5.7 admissibility notes).
//   kPrismNative  PRISM conditional chains fuse lock+op+unlock into ONE
//                 round trip: [CAS(lock,0→id); cond WRITE/READ(value);
//                 cond WRITE(lock,0)]. Chain ops interleave with other
//                 chains at op granularity, so the CAS still excludes.
//   kUnfencedBuggy  the positive control, violating the study's fencing
//                 guideline: after acquiring the lock it posts the two
//                 value-word verbs AND the unlock concurrently (doorbell-
//                 pipelined, no completion fences), trusting in-order
//                 execution. The canonical schedule delivers and executes
//                 them in post order — every unperturbed seed is clean —
//                 but bounded reordering (src/explore) can land the unlock
//                 or a reader's verbs between the halves, producing torn
//                 values that only the checkers catch.
//
// Every client op records an invocation/response entry in an optional
// check::HistoryRecorder, so src/check's linearizability checker and the
// differential final-state oracle apply to all schemes uniformly.
#ifndef PRISM_SRC_SYNC_SYNC_H_
#define PRISM_SRC_SYNC_SYNC_H_

#include <memory>
#include <string_view>
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
#include "src/sim/task.h"

namespace prism::sync {

enum class SyncScheme {
  kSpinlock,
  kOptimistic,
  kLease,
  kPrismNative,
  kUnfencedBuggy,
};

std::string_view SchemeName(SyncScheme scheme);

struct SyncOptions {
  uint64_t n_slots = 64;  // power of two
  int max_probes = 8;     // linear-probe cap before kNotFound
  int max_attempts = 24;  // lock/CAS/read-validate attempts before kAborted
  sim::Duration backoff_base = sim::Micros(2);
  sim::Duration backoff_cap = sim::Micros(128);
  // Lease scheme: term granted per acquire, and the self-fencing guard — a
  // holder refuses to post a value write within `lease_guard` of expiry.
  sim::Duration lease_term = sim::Micros(400);
  sim::Duration lease_guard = sim::Micros(80);
  rdma::Backend backend = rdma::Backend::kHardwareNic;
  core::Deployment deployment = core::Deployment::kHardwareProjected;
};

// Values are fixed 16-byte two-word payloads.
inline constexpr uint64_t kValueSize = 16;
inline constexpr uint64_t kSlotStride = 64;
inline constexpr uint64_t kLockOff = 0;
inline constexpr uint64_t kKeyOff = 8;
inline constexpr uint64_t kVersionOff = 16;
inline constexpr uint64_t kValueOff = 24;

// A 16-byte value whose BOTH words are unique to (seed, client, op): torn
// combinations of two such values fingerprint to a ValueId no writer ever
// recorded. (The chaos_test-style UniqueValue keeps its first word constant
// per run, which would make tears invisible.)
Bytes MakeValue(uint64_t seed, int client, int op);
// The value every key is preloaded with (same bytes for all keys, so one
// initial ValueId covers the whole history).
Bytes InitialValue();

class SyncIndexServer {
 public:
  SyncIndexServer(net::Fabric* fabric, net::HostId host, SyncOptions opts);

  net::HostId host() const { return host_; }
  const SyncOptions& options() const { return opts_; }
  rdma::RdmaService& rdma() { return *rdma_; }
  core::PrismServer& prism() { return *prism_; }
  rdma::RKey rkey() const { return region_.rkey; }
  rdma::Addr slot_addr(uint64_t slot) const {
    return region_.base + slot * kSlotStride;
  }
  uint64_t HashSlot(uint64_t key) const;

  // Setup-time bulk load (server-local, models the load phase). Keys must
  // be nonzero.
  Status LoadKey(uint64_t key, ByteView value);
  // Server-local probe; kNotFound when absent.
  Result<uint64_t> SlotOf(uint64_t key) const;

  // Direct (quiescent) reads for the final-state oracle and tests.
  check::ValueId FinalValue(uint64_t key) const;
  Bytes ValueBytes(uint64_t key) const;
  uint64_t LockWord(uint64_t key) const;
  uint64_t VersionWord(uint64_t key) const;

 private:
  SyncOptions opts_;
  net::HostId host_;
  std::unique_ptr<rdma::AddressSpace> mem_;
  std::unique_ptr<rdma::RdmaService> rdma_;
  std::unique_ptr<core::PrismServer> prism_;
  rdma::MemoryRegion region_;
};

class SyncClient {
 public:
  SyncClient(net::Fabric* fabric, net::HostId self, SyncIndexServer* server,
             SyncScheme scheme, uint16_t client_id, uint64_t rng_seed);

  SyncScheme scheme() const { return scheme_; }

  // Reads the key's 16-byte value. kAborted after max_attempts lost races.
  sim::Task<Result<Bytes>> Read(uint64_t key);
  // Overwrites the key's value (must be kValueSize bytes).
  sim::Task<Status> Update(uint64_t key, Bytes value);

  // When set, every Read/Update records an invocation/response entry for
  // offline linearizability checking.
  void set_history(check::HistoryRecorder* history, int client_id) {
    history_ = history;
    history_client_ = client_id;
  }

  // Routes verb/chain posting through a shared per-host batcher.
  void set_batcher(rdma::VerbBatcher* b) {
    rdma_.set_batcher(b);
    prism_.set_batcher(b);
  }

  // Pre-populates the key→slot cache from the server's loaded geometry
  // (models clients learning the table layout at connection setup). Without
  // it the first op on a key pays the remote probe round trips.
  void Prewarm(uint64_t key);

  // Test knob: sleep this long inside every critical section, between
  // acquiring the lock/version and posting the value write. Drives the
  // lease-expiry/fencing and optimistic-retry tests. Ignored by
  // kPrismNative (its critical section lives inside one chain).
  void set_critical_stall(sim::Duration d) { critical_stall_ = d; }

  // ---- stats ----
  uint64_t round_trips() const { return round_trips_; }
  uint64_t lock_conflicts() const { return lock_conflicts_; }
  uint64_t optimistic_retries() const { return optimistic_retries_; }
  uint64_t lease_steals() const { return lease_steals_; }
  uint64_t fencing_aborts() const { return fencing_aborts_; }
  uint64_t probe_rounds() const { return probe_rounds_; }
  // Combined transport tally (verbs + chains) for complexity accounting.
  obs::TransportTally tally() const;

 private:
  enum class Applied { kNo, kYes, kMaybe };
  struct UpdateOutcome {
    Status status;
    Applied applied = Applied::kNo;
  };
  struct ReadOutcome {
    Result<Bytes> value;
    explicit ReadOutcome(Result<Bytes> v) : value(std::move(v)) {}
  };

  // Latency attribution (src/obs/timeline.h): a sync op is a composite of
  // many verbs/chains with suspensions between them, so Read/Update take
  // the op's ctx once at entry and every helper passes it to its verbs.
  // Backoff and the unfenced scheme's jittered retry pause stamp
  // Phase::kSyncSpin; the verbs themselves stamp batch_wait/wire/responder
  // as usual. All of it is inert (null op) outside a timed workload.
  sim::Task<Result<uint64_t>> LocateSlot(uint64_t key, obs::Ctx ctx);
  sim::Task<Result<uint64_t>> ProbeVerbs(uint64_t key, obs::Ctx ctx);
  sim::Task<Result<uint64_t>> ProbeChain(uint64_t key, obs::Ctx ctx);

  // Lock-word helpers (spinlock / buggy / lease).
  sim::Task<Result<uint64_t>> AcquireSpin(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<Result<uint64_t>> AcquireLease(rdma::Addr slot,
                                           obs::Ctx ctx);  // → lease
  sim::Task<void> ReleaseSpin(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<void> ReleaseLease(rdma::Addr slot, uint64_t lease_word,
                               obs::Ctx ctx);

  sim::Task<UpdateOutcome> UpdateLocked(rdma::Addr slot, Bytes value,
                                        obs::Ctx ctx);
  sim::Task<UpdateOutcome> UpdateLease(rdma::Addr slot, Bytes value,
                                       obs::Ctx ctx);
  sim::Task<UpdateOutcome> UpdateOptimistic(rdma::Addr slot, Bytes value,
                                            obs::Ctx ctx);
  sim::Task<UpdateOutcome> UpdatePrism(rdma::Addr slot, Bytes value,
                                       obs::Ctx ctx);
  sim::Task<UpdateOutcome> UpdateUnfenced(rdma::Addr slot, Bytes value,
                                          obs::Ctx ctx);

  sim::Task<Result<Bytes>> ReadLocked(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<Result<Bytes>> ReadLease(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<Result<Bytes>> ReadOptimistic(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<Result<Bytes>> ReadPrism(rdma::Addr slot, obs::Ctx ctx);
  sim::Task<Result<Bytes>> ReadUnfenced(rdma::Addr slot, obs::Ctx ctx);

  sim::Task<void> Backoff(int attempt, obs::Ctx ctx);

  net::Fabric* fabric_;
  net::HostId self_;
  SyncIndexServer* server_;
  SyncScheme scheme_;
  uint16_t id_;  // nonzero; doubles as the lock owner word
  Rng rng_;
  rdma::RdmaClient rdma_;
  core::PrismClient prism_;
  std::unordered_map<uint64_t, uint64_t> slot_cache_;
  check::HistoryRecorder* history_ = nullptr;
  int history_client_ = 0;
  sim::Duration critical_stall_ = 0;

  uint64_t round_trips_ = 0;
  uint64_t lock_conflicts_ = 0;
  uint64_t optimistic_retries_ = 0;
  uint64_t lease_steals_ = 0;
  uint64_t fencing_aborts_ = 0;
  uint64_t probe_rounds_ = 0;
};

}  // namespace prism::sync

#endif  // PRISM_SRC_SYNC_SYNC_H_
