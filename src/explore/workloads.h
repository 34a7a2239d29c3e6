// The stack table, and the one seeded runner that drives its stacks.
//
// Every system stack is defined once, in workloads.cc, behind Stack: it
// builds the system on a fabric, names its crashable and partitionable
// hosts, builds clients, and issues one seeded op from its mix. The table
// (StackTable) lists the registry's seeded stacks (PRISM-RS, PRISM-KV,
// PRISM-TX, the five one-sided sync schemes, consensus) and the baselines
// (Pilaf, ABD-LOCK, FaRM). Consumers that only drive load, such as the
// open-loop phase and span-parentage cells (tests/stack_cell_test.cc), take
// any row. A seeded stack also records a history, runs a quiescent final
// probe, and gives its initial value and checkers; the baselines record no
// history, so they are not Workloads.
//
// RunWorkload builds the simulator (installing the schedule hook FIRST,
// before any event exists), fabric, seeded stack, chaos schedule (with
// selected fault windows disabled) and clients; runs to completion; then
// runs the final probe and every checker plus the differential final-state
// oracle (oracle.h).
//
// Both of its callers are rows of this one registry. The explorer runs the
// kExplore size row: it multiplies each (workload, seed) point by N
// perturbed schedules and the shrinker re-runs it dozens more times, so the
// row is small. The 100-seed chaos sweeps (chaos_test, consensus_test) run
// the kSweep row with hook == nullptr. toy and consensus_buggy are bespoke
// scripts, not stacks.
//
// Determinism: RunWorkload is a pure function of (kind, size, seed, hook
// decisions, disabled windows). With hook == nullptr the production engine
// runs untouched; with an IdentityHook the event order — and therefore
// executed_events and history_fingerprint — is bit-identical to that
// (explore_test pins this down).
#ifndef PRISM_SRC_EXPLORE_WORKLOADS_H_
#define PRISM_SRC_EXPLORE_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/net/fabric.h"
#include "src/obs/obs.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace prism::explore {

// ---- the stack table ----

// What a stack is built from, for one run.
struct StackEnv {
  sim::Simulator* sim;
  net::Fabric* fabric;
  uint64_t seed;
  uint64_t keys;  // key space of the op mix
};

// One system stack built on a fabric: its servers, its clients and its op
// mix. Ops take their obs ctx from the hub's entry register, as every app
// op does (src/obs/obs.h).
class Stack {
 public:
  explicit Stack(const StackEnv& env) : env_(env) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  virtual ~Stack() = default;

  // Builds client `c` on `host`.
  virtual void AddClient(net::HostId host, int c) = 0;
  // Issues op `i` of client `c`'s seeded mix and returns its status.
  virtual sim::Task<Status> Op(int c, int i, Rng& rng) = 0;

  // False where a client's ops issue from another host's NIC (consensus:
  // the leader's), not from the host the client was added on.
  virtual bool issues_from_client_host() const { return true; }
  // The app-phase time the ops issued so far carry in total, where the
  // protocol fixes it (Pilaf: one CRC check per READ); nullopt elsewhere.
  virtual std::optional<sim::Duration> app_ns() const { return std::nullopt; }

  // The server hosts chaos may crash and partition.
  const std::vector<net::HostId>& servers() const { return servers_; }

 protected:
  net::HostId AddServer(const std::string& name) {
    servers_.push_back(env_.fabric->AddHost(name));
    return servers_.back();
  }

  StackEnv env_;
  std::vector<net::HostId> servers_;
};

// One row of the stack table.
struct StackDef {
  const char* name;
  uint64_t keys;  // key space of an open-loop cell (a Workload's explore row)
  std::function<std::unique_ptr<Stack>(const StackEnv&)> make;
};

// Every system stack: the seeded ones in Workload order, then the
// history-free baselines pilaf, abd_lock and farm.
std::vector<StackDef> StackTable();

// ---- the seeded runner ----

enum class Workload {
  kToy,  // buggy primary/backup register (toy_replica.h) — no chaos
  kRs,   // PRISM-RS: 3-replica ABD under chaos
  kKv,   // PRISM-KV: single server under chaos
  kTx,   // PRISM-TX: 2 shards under chaos, read-committed
  // One-sided synchronization schemes over the remote hash index
  // (src/sync). Chaos-free: the interesting failure surface is schedule
  // reordering, and fault-free runs keep shrunk reproducers perturbation-
  // only. sync_buggy is the positive control — canonical schedules are
  // clean, bounded reordering tears its unfenced critical sections.
  kSyncSpin,
  kSyncOpt,
  kSyncLease,
  kSyncPrism,
  kSyncBuggy,
  // Permission-guarded consensus (src/consensus). `consensus` is the
  // correct protocol under compressed chaos (crashes, partitions, loss) —
  // linearizability plus the cross-replica log-safety oracle must hold on
  // every schedule. `consensus_buggy` is the positive control: revocation
  // without a quorum (require_revoke_quorum = false) run chaos-free through
  // a scripted leader takeover whose split brain only surfaces when the
  // schedule reorders the deposed leader's commit chain ahead of the
  // usurper's revoke at the shared replica.
  kConsensus,
  kConsensusBuggy,
};

// Every registered workload, in enum order.
std::vector<Workload> AllWorkloads();

// True for the stacks that carry a kSweep size row: the chaos-capable ones,
// which the chaos sweeps run.
bool HasSweepSize(Workload kind);

// The enabled-window width a workload's races need. The sync schemes race
// verbs that are several fabric events apart, so they want a wider window
// than the toy's nanosecond-scale bug; tools/explore_main uses this as the
// per-workload default when --delta is not given.
sim::Duration DefaultDelta(Workload kind);

// Perturbed runs per seed. The sync schemes' races live in short effect
// clusters scattered across the schedule — each run's perturbation burst
// covers one position, so they need more runs than the chaos workloads,
// whose fault windows already stretch across the whole execution;
// tools/explore_main uses this when --explore is not given.
int DefaultRuns(Workload kind);

const char* WorkloadName(Workload kind);
bool WorkloadFromName(std::string_view name, Workload* out);

// Globally unique value bytes: encodes (seed, client, op) so fingerprint
// equality is value equality across a whole sweep. Requires size >= 11,
// client < 256 and op < 65536.
Bytes UniqueValue(size_t size, uint64_t seed, int client, int op);

// How big one run is. kExplore: 2 clients, 20–120 µs think times and a
// chaos schedule compressed to overlap the short run. kSweep: 3 clients,
// 100–600 µs think times, the default chaos timing, and more keys and ops.
enum class Size { kExplore, kSweep };

struct RunOutcome {
  bool ok = true;
  std::string check_name;  // failing check: linearizability | final-state |
                           // read-committed | log-safety | hang
  std::string error;       // witness from the failing check
  int fault_windows = 0;       // windows in this seed's chaos schedule
  std::string fault_schedule;  // ChaosMonkey::Describe() for the banner
  int faults_injected = 0;     // fault events the chaos monkey fired
  uint64_t ok_ops = 0;         // workload ops that returned ok
  uint64_t failovers = 0;      // leader changes during the workload
  uint64_t executed_events = 0;
  uint64_t history_fingerprint = 0;  // FNV over every recorded op
};

struct WorkloadOptions {
  Workload kind = Workload::kToy;
  uint64_t seed = 1;
  Size size = Size::kExplore;  // kSweep only for HasSweepSize stacks
  // Schedule hook to install (not owned); nullptr = production engine.
  sim::ScheduleHook* hook = nullptr;
  // Chaos fault windows to drop (see ChaosMonkey::SetWindowDisabled).
  const std::vector<int>* disabled_windows = nullptr;
  // Observability for a stack run (not owned): `tracer` is attached to the
  // fabric; host_names and (with want_metrics) the metrics snapshot are
  // filled in when the run ends.
  obs::PointObs* obs = nullptr;
};

RunOutcome RunWorkload(const WorkloadOptions& opts);

}  // namespace prism::explore

#endif  // PRISM_SRC_EXPLORE_WORKLOADS_H_
