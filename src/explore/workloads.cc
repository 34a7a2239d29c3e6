#include "src/explore/workloads.h"

#include <memory>
#include <optional>
#include <utility>

#include "src/chaos/chaos.h"
#include "src/check/checker.h"
#include "src/check/history.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/consensus/consensus.h"
#include "src/explore/oracle.h"
#include "src/explore/toy_replica.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"
#include "src/sync/sync.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"

namespace prism::explore {

namespace {

using sim::Task;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

uint64_t HistoryFingerprint(const std::vector<check::Op>& ops) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const check::Op& op : ops) {
    h = HashCombine(h, static_cast<uint64_t>(op.client));
    h = HashCombine(h, op.key);
    h = HashCombine(h, static_cast<uint64_t>(op.type));
    h = HashCombine(h, op.value);
    h = HashCombine(h, static_cast<uint64_t>(op.invoke));
    h = HashCombine(h, static_cast<uint64_t>(op.done ? op.response : -1));
    h = HashCombine(h, static_cast<uint64_t>(op.outcome));
  }
  return h;
}

uint64_t TxFingerprint(const std::vector<check::TxnRecord>& txns) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const check::TxnRecord& t : txns) {
    h = HashCombine(h, static_cast<uint64_t>(t.client));
    h = HashCombine(h, static_cast<uint64_t>(t.outcome));
    h = HashCombine(h, static_cast<uint64_t>(t.begin));
    h = HashCombine(h, static_cast<uint64_t>(t.done ? t.end : -1));
    for (const auto& [k, v] : t.reads) {
      h = HashCombine(h, k);
      h = HashCombine(h, v);
    }
    for (const auto& [k, v] : t.writes) {
      h = HashCombine(h, k);
      h = HashCombine(h, v);
    }
  }
  return h;
}

check::ValueId KvKeyId(const std::string& key) {
  return check::IdOf(ByteView(
      reinterpret_cast<const uint8_t*>(key.data()), key.size()));
}

// Chaos schedule compressed to the explorer row's shorter runtime.
chaos::ChaosOptions ExploreChaosOptions() {
  chaos::ChaosOptions copts;
  copts.start = sim::Micros(20);
  copts.horizon = sim::Millis(1);
  copts.min_downtime = sim::Micros(50);
  copts.max_downtime = sim::Micros(400);
  copts.min_partition = sim::Micros(50);
  copts.max_partition = sim::Micros(400);
  return copts;
}

void Fail(RunOutcome* out, const char* check_name, std::string error) {
  out->ok = false;
  out->check_name = check_name;
  out->error = std::move(error);
}

// ---- the seeded stacks ----

// A stack whose clients record a history (AddClient wires it in). The
// runner adds the client hosts, arms chaos, drives every client's ops, then
// runs the final probe and the checks.
class SeededStack : public Stack {
 public:
  using Stack::Stack;

  // Quiescent final probe, once the workload drained and every fault has
  // healed by the chaos horizon.
  virtual Task<void> FinalProbe() = 0;
  // Protocol tasks the stack spawns on its own (consensus heals, re-grants).
  virtual bool BackgroundLive() { return false; }
  virtual uint64_t Failovers() const { return 0; }
  virtual uint64_t Fingerprint() const = 0;
  // Runs the stack's checkers; records the first failure in `out`.
  virtual void Check(RunOutcome* out) const = 0;
};

// A key-value register stack: linearizability, then (for consensus) log
// safety, then the differential final-state oracle over the probe's reads.
class RegisterStack : public SeededStack {
 public:
  uint64_t Fingerprint() const override {
    return HistoryFingerprint(history_.ops());
  }

  void Check(RunOutcome* out) const override {
    check::CheckResult lin = check::CheckLinearizable(history_.ops(), initial_);
    if (!lin.ok) return Fail(out, "linearizability", std::move(lin.error));
    std::string log_error;
    if (!LogSafe(&log_error)) {
      return Fail(out, "log-safety", std::move(log_error));
    }
    check::CheckResult diff = DiffFinalState(history_.ops(), finals_, initial_);
    if (!diff.ok) Fail(out, "final-state", std::move(diff.error));
  }

 protected:
  RegisterStack(const StackEnv& env, check::ValueId initial)
      : SeededStack(env), history_(env.sim), initial_(initial) {}

  virtual bool LogSafe(std::string*) const { return true; }

  check::HistoryRecorder history_;
  const check::ValueId initial_;
  // Filled by the final probe. The probe's own reads are not recorded, so
  // the checkers see exactly the workload's history.
  std::vector<FinalRead> finals_;
};

// PRISM-RS: 3-replica ABD (f = 1). Chaos never wipes memory, matching
// ABD's fault model.
class RsStack : public RegisterStack {
 public:
  static constexpr uint64_t kBlockSize = 64;

  explicit RsStack(const StackEnv& env)
      : RegisterStack(env, check::IdOf(Bytes(kBlockSize, 0))),
        cluster_(env.fabric, 3,
                 {.n_blocks = env.keys,
                  .block_size = kBlockSize,
                  .buffers_per_replica = 512}) {
    servers_ = {0, 1, 2};
  }

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<rs::PrismRsClient>(
        env_.fabric, host, &cluster_, static_cast<uint16_t>(c + 1)));
    clients_.back()->set_history(&history_);
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    const uint64_t block = rng.NextBelow(env_.keys);
    if (rng.NextBool(0.5)) {
      co_return co_await clients_[c]->Put(
          block, UniqueValue(kBlockSize, env_.seed, c, i));
    }
    co_return (co_await clients_[c]->Get(block)).status();
  }

  Task<void> FinalProbe() override {
    clients_[0]->set_history(nullptr);
    for (uint64_t b = 0; b < env_.keys; ++b) {
      auto got = co_await clients_[0]->Get(b);
      if (got.ok()) finals_.push_back({b, check::IdOf(got.value())});
    }
  }

 private:
  rs::PrismRsCluster cluster_;
  std::vector<std::unique_ptr<rs::PrismRsClient>> clients_;
};

// PRISM-KV: a single server that crash/restarts (durable DRAM), plus
// partitions and wire trouble between it and the clients.
class KvStack : public RegisterStack {
 public:
  static constexpr size_t kValueSize = 32;

  explicit KvStack(const StackEnv& env)
      : RegisterStack(env, check::kAbsent),
        server_(env.fabric, AddServer("server"), Options()) {}

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(
        std::make_unique<kv::PrismKvClient>(env_.fabric, host, &server_));
    clients_.back()->set_history(&history_, c + 1);
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    std::string key = "key-" + std::to_string(rng.NextBelow(env_.keys));
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      co_return co_await clients_[c]->Put(
          key, UniqueValue(kValueSize, env_.seed, c, i));
    }
    if (dice < 0.85) co_return (co_await clients_[c]->Get(key)).status();
    co_return co_await clients_[c]->Delete(key);
  }

  Task<void> FinalProbe() override {
    clients_[0]->set_history(nullptr, 0);
    for (uint64_t k = 0; k < env_.keys; ++k) {
      std::string key = "key-" + std::to_string(k);
      auto got = co_await clients_[0]->Get(key);
      if (got.ok()) {
        finals_.push_back({KvKeyId(key), check::IdOf(got.value())});
      } else if (got.code() == Code::kNotFound) {
        finals_.push_back({KvKeyId(key), check::kAbsent});
      }  // other errors: no conclusion about this key
    }
  }

 private:
  static kv::PrismKvOptions Options() {
    kv::PrismKvOptions opts;
    opts.n_buckets = 64;
    opts.n_buffers = 256;
    return opts;
  }

  kv::PrismKvServer server_;
  std::vector<std::unique_ptr<kv::PrismKvClient>> clients_;
};

// PRISM-TX: 2 shards, durable crash/restart, read-committed. Transactions
// that straddle a fault abort or time out; every read a transaction DID
// observe must be explainable by a committed (or indeterminately-committed)
// write.
class TxStack : public SeededStack {
 public:
  static constexpr size_t kValueSize = 32;

  explicit TxStack(const StackEnv& env)
      : SeededStack(env),
        cluster_(env.fabric, 2,
                 {.keys_per_shard = 16,
                  .value_size = kValueSize,
                  .buffers_per_shard = 256}),
        history_(env.sim) {
    servers_ = {0, 1};
    for (uint64_t k = 0; k < env.keys; ++k) {
      Bytes v(kValueSize, 0);
      v[0] = static_cast<uint8_t>(0xB0 + k);  // distinct, nonzero values
      PRISM_CHECK(cluster_.LoadKey(k, v).ok());
      initial_.emplace_back(k, check::IdOf(v));
    }
  }

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<tx::PrismTxClient>(
        env_.fabric, host, &cluster_, static_cast<uint16_t>(c + 1)));
    clients_.back()->set_history(&history_);
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    tx::PrismTxClient& client = *clients_[c];
    tx::Transaction txn = client.Begin();
    const uint64_t rk = rng.NextBelow(env_.keys);
    const uint64_t wk = rng.NextBelow(env_.keys);
    auto read = co_await client.Read(txn, rk);
    (void)read;
    // Writes are full-size: IndirectRead is unbounded in fixed mode, so a
    // shorter value would expose stale tail bytes.
    client.Write(txn, wk, UniqueValue(kValueSize, env_.seed, c, i));
    co_return co_await client.Commit(txn);
  }

  // One more read-only transaction over every key. It is a real transaction
  // recorded in the same history, so CheckReadCommitted validates the final
  // state for free.
  Task<void> FinalProbe() override {
    tx::Transaction txn = clients_[0]->Begin();
    for (uint64_t k = 0; k < env_.keys; ++k) {
      auto read = co_await clients_[0]->Read(txn, k);
      (void)read;
    }
    (void)co_await clients_[0]->Commit(txn);
  }

  uint64_t Fingerprint() const override {
    return TxFingerprint(history_.txns());
  }

  void Check(RunOutcome* out) const override {
    check::CheckResult rc =
        check::CheckReadCommitted(history_.txns(), initial_);
    if (!rc.ok) Fail(out, "read-committed", std::move(rc.error));
  }

 private:
  tx::PrismTxCluster cluster_;
  check::TxHistoryRecorder history_;
  std::vector<std::pair<uint64_t, check::ValueId>> initial_;
  std::vector<std::unique_ptr<tx::PrismTxClient>> clients_;
};

// The one-sided synchronization schemes over the remote hash index.
// Chaos-free: the failure surface under study is schedule reordering.
class SyncStack : public RegisterStack {
 public:
  SyncStack(const StackEnv& env, sync::SyncScheme scheme)
      : RegisterStack(env, check::IdOf(sync::InitialValue())),
        scheme_(scheme),
        server_(env.fabric, env.fabric->AddHost("index"), {.n_slots = 16}) {
    for (uint64_t k = 1; k <= env.keys; ++k) {
      PRISM_CHECK(server_.LoadKey(k, sync::InitialValue()).ok());
    }
  }

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<sync::SyncClient>(
        env_.fabric, host, &server_, scheme_,
        static_cast<uint16_t>(c + 1),
        env_.seed * 131 + static_cast<uint64_t>(c)));
    clients_.back()->set_history(&history_, c + 1);
    // Steady-state geometry (the cold probe path is covered by sync_test's
    // ProbeTest and the bench): every perturbation-budget step lands on the
    // contended path.
    for (uint64_t k = 1; k <= env_.keys; ++k) clients_.back()->Prewarm(k);
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    // Skewed contention: most ops collide on key 1, immediately.
    const uint64_t key = rng.NextBool(0.75) ? 1 : 1 + rng.NextBelow(env_.keys);
    if (rng.NextBool(0.6)) {
      co_return co_await clients_[c]->Update(key,
                                             sync::MakeValue(env_.seed, c, i));
    }
    co_return (co_await clients_[c]->Read(key)).status();
  }

  // The index lives in one AddressSpace and the sim has drained, so
  // server-local loads ARE the quiescent final state — no extra reads.
  Task<void> FinalProbe() override {
    for (uint64_t k = 1; k <= env_.keys; ++k) {
      finals_.push_back({k, server_.FinalValue(k)});
    }
    co_return;
  }

 private:
  const sync::SyncScheme scheme_;
  sync::SyncIndexServer server_;
  std::vector<std::unique_ptr<sync::SyncClient>> clients_;
};

// The permission-guarded leader log: 3 replicas (f = 1) whose memory
// survives crashes — the PMP memory-server model — and clients retrying
// with client-triggered failovers.
class ConsensusStack : public RegisterStack {
 public:
  explicit ConsensusStack(const StackEnv& env)
      : RegisterStack(env, check::kAbsent),
        cluster_(env.fabric, AddReplicas(), consensus::ConsensusOptions{}) {}

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<consensus::ConsensusClient>(
        &cluster_, static_cast<uint16_t>(c + 1),
        env_.seed * 131 + static_cast<uint64_t>(c)));
    clients_.back()->set_history(&history_, c + 1);
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    const uint64_t key = 1 + rng.NextBelow(env_.keys);
    if (rng.NextBool(0.5)) {
      co_return co_await clients_[c]->Put(
          key, consensus::MakeValue(env_.seed, c, i));
    }
    co_return (co_await clients_[c]->Get(key)).status();
  }

  // Reads through the linearizable Get path.
  Task<void> FinalProbe() override {
    clients_[0]->set_history(nullptr, 0);
    for (uint64_t k = 1; k <= env_.keys; ++k) {
      auto got = co_await clients_[0]->Get(k);
      if (got.ok()) {
        finals_.push_back({k, check::IdOf(*got)});
      } else if (got.code() == Code::kNotFound) {
        finals_.push_back({k, check::kAbsent});
      }  // other errors: no conclusion about this key
    }
  }

  // Every op issues its chains from the leader's host.
  bool issues_from_client_host() const override { return false; }
  bool BackgroundLive() override { return cluster_.tracker().live() > 0; }
  uint64_t Failovers() const override { return cluster_.failovers(); }

 private:
  std::vector<net::HostId> AddReplicas() {
    for (int i = 0; i < consensus::ConsensusOptions{}.n_replicas; ++i) {
      AddServer("replica" + std::to_string(i));
    }
    return servers_;
  }

  bool LogSafe(std::string* error) const override {
    return cluster_.CommittedPrefixesAgree(error);
  }

  consensus::ConsensusCluster cluster_;
  std::vector<std::unique_ptr<consensus::ConsensusClient>> clients_;
};

// ---- the baselines: system only, no history ----

// Pilaf: a GET READs the bucket, then the extent it points to, with a CRC
// check after each READ; a PUT is an RPC to the server CPU, which updates
// the extent in place. Dense keys: a key's 8 bytes are its bucket.
class PilafStack : public Stack {
 public:
  static constexpr size_t kValueSize = 32;

  explicit PilafStack(const StackEnv& env)
      : Stack(env),
        server_(env.fabric, AddServer("pilaf-server"),
                {.n_buckets = 64, .n_extents = 256, .dense_key_hash = true}) {
    for (uint64_t k = 0; k < env.keys; ++k) {
      PRISM_CHECK(
          server_.LoadKey(BytesOfString(Key(k)), Bytes(kValueSize, 1)).ok());
    }
  }

  void AddClient(net::HostId host, int) override {
    clients_.push_back(
        std::make_unique<kv::PilafClient>(env_.fabric, host, &server_));
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    const std::string key = Key(rng.NextBelow(env_.keys));
    if (rng.NextBool(0.3)) {
      co_return co_await clients_[c]->Put(
          key, UniqueValue(kValueSize, env_.seed, c, i));
    }
    // kAborted: ran out of torn-read retries.
    co_return (co_await clients_[c]->Get(key)).status();
  }

  std::optional<sim::Duration> app_ns() const override {
    uint64_t reads = 0;
    for (const auto& client : clients_) reads += client->reads_issued();
    return static_cast<sim::Duration>(reads) *
           env_.fabric->cost().app_crc_check;
  }

 private:
  static std::string Key(uint64_t k) {
    std::string key(8, '\0');
    StoreU64(reinterpret_cast<uint8_t*>(key.data()), k);
    return key;
  }

  kv::PilafServer server_;
  std::vector<std::unique_ptr<kv::PilafClient>> clients_;
};

// ABD-LOCK: 3 replicas; lock, read and write quorum rounds, with backoff
// between lock attempts.
class AbdLockStack : public Stack {
 public:
  static constexpr uint64_t kBlockSize = 64;

  explicit AbdLockStack(const StackEnv& env)
      : Stack(env),
        cluster_(env.fabric, 3,
                 {.n_blocks = env.keys, .block_size = kBlockSize}) {
    servers_ = {0, 1, 2};
  }

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<rs::AbdLockClient>(
        env_.fabric, host, &cluster_, static_cast<uint16_t>(c + 1),
        env_.seed * 131 + static_cast<uint64_t>(c)));
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    const uint64_t block = rng.NextBelow(env_.keys);
    if (rng.NextBool(0.5)) {
      co_return co_await clients_[c]->Put(
          block, UniqueValue(kBlockSize, env_.seed, c, i));
    }
    // kAborted: lost the locks.
    co_return (co_await clients_[c]->Get(block)).status();
  }

 private:
  rs::AbdLockCluster cluster_;
  std::vector<std::unique_ptr<rs::AbdLockClient>> clients_;
};

// FaRM: 2 shards; a read-modify-write transaction READs its object
// one-sidedly (retrying a locked one), then locks, validates and updates
// over RPC and READs.
class FarmStack : public Stack {
 public:
  static constexpr size_t kValueSize = 64;

  explicit FarmStack(const StackEnv& env)
      : Stack(env),
        cluster_(env.fabric, 2,
                 {.keys_per_shard = 16, .value_size = kValueSize}) {
    servers_ = {0, 1};
    for (uint64_t k = 0; k < env.keys; ++k) {
      PRISM_CHECK(cluster_.LoadKey(k, Bytes(kValueSize, 1)).ok());
    }
  }

  void AddClient(net::HostId host, int c) override {
    clients_.push_back(std::make_unique<tx::FarmClient>(
        env_.fabric, host, &cluster_, static_cast<uint16_t>(c + 1)));
  }

  Task<Status> Op(int c, int i, Rng& rng) override {
    tx::FarmClient& client = *clients_[c];
    tx::Transaction txn = client.Begin();
    // FaRM writes only keys the transaction has read.
    const uint64_t key = rng.NextBelow(env_.keys);
    auto read = co_await client.Read(txn, key);
    if (!read.ok()) co_return read.status();
    client.Write(txn, key, UniqueValue(kValueSize, env_.seed, c, i));
    co_return co_await client.Commit(txn);  // kAborted under contention
  }

 private:
  tx::FarmCluster cluster_;
  std::vector<std::unique_ptr<tx::FarmClient>> clients_;
};

// ---- the registry ----

// One size row of a stack.
struct Row {
  uint64_t keys;
  int ops;  // per client
  uint64_t think_min_us;
  uint64_t think_max_us;
};

template <typename S, typename Base = SeededStack>
std::unique_ptr<Base> Make(const StackEnv& env) {
  return std::make_unique<S>(env);
}

template <sync::SyncScheme kScheme>
std::unique_ptr<SeededStack> MakeSync(const StackEnv& env) {
  return std::make_unique<SyncStack>(env, kScheme);
}

struct Entry {
  const char* name;
  sim::Duration delta;  // DefaultDelta
  int runs;             // DefaultRuns
  // The stack; nullptr for the bespoke toy and consensus_buggy scripts.
  std::unique_ptr<SeededStack> (*make)(const StackEnv&);
  Row explore;
  // Chaos stacks run under a chaos schedule in both rows and carry a sweep
  // row; chaos-free stacks (sync) have ops == 0 here.
  Row sweep;
};

// Sync races span a few fabric hops (post → deliver → NIC → effect), each a
// distinct event: a ~µs window lets a handful of reorder decisions compound
// across one critical-section handoff. Each run's perturbation burst probes
// one position in the schedule (see ExploreSeed); critical-section handoffs
// are narrow, so the burst gets more positions per seed. Think times are
// near zero so ops collide immediately.
constexpr sim::Duration kSyncDelta = sim::Micros(2);
constexpr int kSyncRuns = 32;
constexpr Row kSyncRow{2, 6, 0, 6};
constexpr Row kNoSweep{0, 0, 0, 0};

const Entry kRegistry[] = {
    {"toy", sim::Nanos(1000), 8, nullptr, {}, kNoSweep},
    {"rs", sim::Nanos(1000), 8, Make<RsStack>, {3, 6, 20, 120},
     {4, 10, 100, 600}},
    {"kv", sim::Nanos(1000), 8, Make<KvStack>, {3, 8, 20, 120},
     {4, 12, 100, 600}},
    {"tx", sim::Nanos(1000), 8, Make<TxStack>, {6, 6, 20, 120},
     {8, 8, 100, 600}},
    {"sync_spin", kSyncDelta, kSyncRuns, MakeSync<sync::SyncScheme::kSpinlock>,
     kSyncRow, kNoSweep},
    {"sync_opt", kSyncDelta, kSyncRuns,
     MakeSync<sync::SyncScheme::kOptimistic>, kSyncRow, kNoSweep},
    {"sync_lease", kSyncDelta, kSyncRuns, MakeSync<sync::SyncScheme::kLease>,
     kSyncRow, kNoSweep},
    {"sync_prism", kSyncDelta, kSyncRuns,
     MakeSync<sync::SyncScheme::kPrismNative>, kSyncRow, kNoSweep},
    {"sync_buggy", kSyncDelta, kSyncRuns,
     MakeSync<sync::SyncScheme::kUnfencedBuggy>, kSyncRow, kNoSweep},
    {"consensus", sim::Nanos(1000), 8, Make<ConsensusStack>, {2, 5, 20, 120},
     {3, 10, 100, 600}},
    // The revoke-vs-chain delivery race at the shared replica: the two
    // deliveries sit ~0.5 µs apart, so a 2 µs window can swap them. The
    // split-brain window is one delivery swap near the end of the scripted
    // schedule — a narrower target than the sync races (tuned with
    // tools/explore_main: 128 sliding-burst runs find it on every seed in
    // [1, 100]; 32 miss ~3 in 10).
    {"consensus_buggy", sim::Micros(2), 128, nullptr, {}, kNoSweep},
};
constexpr int kWorkloadCount =
    static_cast<int>(sizeof(kRegistry) / sizeof(kRegistry[0]));

const Entry& EntryOf(Workload kind) {
  return kRegistry[static_cast<int>(kind)];
}

// The one seeded runner for every registered stack.
RunOutcome RunStack(const Entry& entry, const WorkloadOptions& o) {
  const bool sweep = o.size == Size::kSweep;
  PRISM_CHECK(!sweep || entry.sweep.ops > 0)
      << entry.name << " has no sweep row";
  const Row& row = sweep ? entry.sweep : entry.explore;
  const int n_clients = sweep ? 3 : 2;
  const bool chaos = entry.sweep.ops > 0;

  sim::Simulator sim;
  if (o.hook != nullptr) sim.SetScheduleHook(o.hook);
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(),
                     /*loss_seed=*/o.seed);
  if (o.obs != nullptr) fabric.AttachTracer(o.obs->tracer);
  std::unique_ptr<SeededStack> stack =
      entry.make(StackEnv{&sim, &fabric, o.seed, row.keys});

  std::vector<net::HostId> client_hosts;
  for (int c = 0; c < n_clients; ++c) {
    client_hosts.push_back(fabric.AddHost("client" + std::to_string(c)));
    stack->AddClient(client_hosts.back(), c);
  }
  std::optional<chaos::ChaosMonkey> monkey;
  if (chaos) {
    chaos::ChaosOptions copts =
        sweep ? chaos::ChaosOptions{} : ExploreChaosOptions();
    copts.seed = o.seed;
    // max_concurrent_crashes stays 1 = f: quorums stay live.
    copts.crashable = stack->servers();
    copts.partition_hosts = stack->servers();
    copts.partition_hosts.insert(copts.partition_hosts.end(),
                                 client_hosts.begin(), client_hosts.end());
    monkey.emplace(&fabric, copts);
    if (o.disabled_windows != nullptr) {
      for (int w : *o.disabled_windows) {
        if (w >= 0 && w < monkey->window_count()) {
          monkey->SetWindowDisabled(w, true);
        }
      }
    }
    monkey->Arm();
  }

  RunOutcome out;
  sim::TaskTracker tracker;
  for (int c = 0; c < n_clients; ++c) {
    sim::Spawn(
        [&, c]() -> Task<void> {
          Rng rng(o.seed * 977 + static_cast<uint64_t>(c));
          for (int i = 0; i < row.ops; ++i) {
            if ((co_await stack->Op(c, i, rng)).ok()) ++out.ok_ops;
            co_await sim::SleepFor(
                &sim, sim::Micros(rng.NextInRange(row.think_min_us,
                                                  row.think_max_us)));
          }
        },
        &tracker);
  }
  sim.Run();

  if (monkey.has_value()) {
    out.fault_windows = monkey->window_count();
    out.fault_schedule = monkey->Describe();
    out.faults_injected =
        monkey->crashes_injected() + monkey->partitions_injected() +
        monkey->loss_bursts_injected() + monkey->latency_spikes_injected();
  }
  out.failovers = stack->Failovers();
  if (tracker.live() > 0 || stack->BackgroundLive()) {
    Fail(&out, "hang",
         std::string(entry.name) + " clients still live after the sim drained");
  } else {
    sim::TaskTracker probe_tracker;
    sim::Spawn([&]() -> Task<void> { co_await stack->FinalProbe(); },
               &probe_tracker);
    sim.Run();
    out.history_fingerprint = stack->Fingerprint();
    if (probe_tracker.live() > 0 || stack->BackgroundLive()) {
      Fail(&out, "hang",
           std::string(entry.name) +
               " final probe still live after the sim drained");
    } else {
      stack->Check(&out);
    }
  }
  out.executed_events = sim.executed_events();
  if (o.obs != nullptr) {
    o.obs->host_names = fabric.HostNames();
    if (o.obs->want_metrics) {
      o.obs->snapshot = fabric.obs().metrics().Snapshot();
    }
  }
  return out;
}

// ---- bespoke scripts ----

// ---- toy: buggy primary/backup register, no chaos ----

RunOutcome RunToy(uint64_t seed, sim::ScheduleHook* hook) {
  sim::Simulator sim;
  if (hook != nullptr) sim.SetScheduleHook(hook);
  check::HistoryRecorder history(&sim);
  ToyReplica toy(&sim, &history, ToyReplica::Options{});
  sim::TaskTracker tracker;
  toy.SpawnClients(seed, &tracker);
  sim.Run();

  RunOutcome out;
  out.executed_events = sim.executed_events();
  out.history_fingerprint = HistoryFingerprint(history.ops());
  if (tracker.live() > 0) {
    Fail(&out, "hang", "toy clients still live after the sim drained");
    return out;
  }
  check::CheckResult lin =
      check::CheckLinearizable(history.ops(), ToyReplica::kInitial);
  if (!lin.ok) {
    Fail(&out, "linearizability", std::move(lin.error));
    return out;
  }
  std::vector<FinalRead> finals;
  for (uint64_t k = 0; k < toy.keys(); ++k) {
    finals.push_back({k, toy.FinalValue(k)});
  }
  check::CheckResult diff =
      DiffFinalState(history.ops(), finals, ToyReplica::kInitial);
  if (!diff.ok) Fail(&out, "final-state", std::move(diff.error));
  return out;
}

// The positive control: revocation without a quorum. Chaos-free scripted
// takeover — leader 0 commits a baseline write, then a second write races a
// buggy election on node 2 (which proceeds on its own colocated grant
// alone, then heals the other replicas toward its shorter adopted log).
//
// On the canonical schedule the usurper's revoke reaches the shared replica
// ~0.5 µs before the deposed leader's commit chain (the chain is posted one
// sleep later), so the chain NACKs, the write ends indeterminate, and the
// trailing read is legal. Reordering the two deliveries flips the race: the
// chain commits on a quorum and is acknowledged, the late revoke deposes
// the leader anyway, the usurper's heal wipes the acknowledged entry, and
// the read returns the overwritten value — a lost update the Wing–Gong
// checker flags. Quorum intersection is exactly what rules this out in the
// correct protocol.
RunOutcome RunConsensusBuggy(uint64_t seed, sim::ScheduleHook* hook) {
  sim::Simulator sim;
  if (hook != nullptr) sim.SetScheduleHook(hook);
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G(),
                     /*loss_seed=*/seed);
  consensus::ConsensusOptions opts;
  opts.require_revoke_quorum = false;  // the seeded protocol bug
  std::vector<net::HostId> hosts;
  for (int i = 0; i < opts.n_replicas; ++i) {
    hosts.push_back(fabric.AddHost("replica" + std::to_string(i)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts, opts);

  check::HistoryRecorder history(&sim);
  consensus::ConsensusClient writer(&cluster, 1, seed * 131 + 1);
  consensus::ConsensusClient reader(&cluster, 2, seed * 131 + 2);
  writer.set_history(&history, 1);
  reader.set_history(&history, 2);
  // The overwrite must be issued BY the deposed leader, so it bypasses
  // client-side leader discovery (which would dutifully follow the hint to
  // the usurper) and goes straight to node 0's data path.
  consensus::ConsensusSession deposed(&cluster);

  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> Task<void> {
        // Node 0 leads; the late remote grants heal membership to 3/3.
        (void)co_await cluster.Failover(0, {});
        co_await sim::SleepFor(&sim, sim::Micros(60));
        (void)co_await writer.Put(1, consensus::MakeValue(seed, 0, 0));
        co_await sim::SleepFor(&sim, sim::Micros(20));
        // The race: the buggy takeover starts now; the overwrite is posted
        // one beat later, so its chain canonically loses the delivery race
        // at the shared replicas; the read probes well after both settle.
        sim::Spawn(
            [&]() -> Task<void> {
              (void)co_await cluster.Failover(2, {});
              co_await sim::SleepFor(&sim, sim::Micros(20));
              (void)co_await reader.Get(1);
            },
            &tracker);
        sim::Spawn(
            [&]() -> Task<void> {
              co_await sim::SleepFor(&sim, sim::Nanos(500));
              const Bytes v = consensus::MakeValue(seed, 0, 1);
              const size_t h = history.Begin(1, 1, check::OpType::kWrite,
                                             check::IdOf(v));
              auto out = co_await deposed.PutOn(0, 1, v, {});
              history.End(h, out.status.ok()
                                 ? check::Outcome::kOk
                                 : out.applied ==
                                           consensus::ConsensusNode::Applied::
                                               kMaybe
                                       ? check::Outcome::kIndeterminate
                                       : check::Outcome::kFailed);
            },
            &tracker);
      },
      &tracker);
  sim.Run();

  RunOutcome out;
  out.executed_events = sim.executed_events();
  out.history_fingerprint = HistoryFingerprint(history.ops());
  if (tracker.live() > 0 || cluster.tracker().live() > 0) {
    Fail(&out, "hang", "consensus tasks still live after the sim drained");
    return out;
  }
  check::CheckResult lin =
      check::CheckLinearizable(history.ops(), check::kAbsent);
  if (!lin.ok) Fail(&out, "linearizability", std::move(lin.error));
  return out;
}

}  // namespace

std::vector<StackDef> StackTable() {
  std::vector<StackDef> table;
  for (const Entry& e : kRegistry) {
    if (e.make != nullptr) table.push_back({e.name, e.explore.keys, e.make});
  }
  table.push_back({"pilaf", 8, Make<PilafStack, Stack>});
  table.push_back({"abd_lock", 8, Make<AbdLockStack, Stack>});
  table.push_back({"farm", 6, Make<FarmStack, Stack>});
  return table;
}

std::vector<Workload> AllWorkloads() {
  std::vector<Workload> all;
  for (int i = 0; i < kWorkloadCount; ++i) {
    all.push_back(static_cast<Workload>(i));
  }
  return all;
}

bool HasSweepSize(Workload kind) { return EntryOf(kind).sweep.ops > 0; }

sim::Duration DefaultDelta(Workload kind) { return EntryOf(kind).delta; }

int DefaultRuns(Workload kind) { return EntryOf(kind).runs; }

const char* WorkloadName(Workload kind) { return EntryOf(kind).name; }

bool WorkloadFromName(std::string_view name, Workload* out) {
  for (int i = 0; i < kWorkloadCount; ++i) {
    if (name == kRegistry[i].name) {
      *out = static_cast<Workload>(i);
      return true;
    }
  }
  return false;
}

Bytes UniqueValue(size_t size, uint64_t seed, int client, int op) {
  PRISM_CHECK_GE(size, 11u) << "too short for (seed, client, op)";
  PRISM_CHECK(client >= 0 && client < 256) << "client " << client;
  PRISM_CHECK(op >= 0 && op < 65536) << "op " << op;
  Bytes v(size, 0);
  for (int i = 0; i < 8; ++i) v[i] = static_cast<uint8_t>(seed >> (8 * i));
  v[8] = static_cast<uint8_t>(client);
  v[9] = static_cast<uint8_t>(op);
  v[10] = static_cast<uint8_t>(op >> 8);
  return v;
}

RunOutcome RunWorkload(const WorkloadOptions& opts) {
  switch (opts.kind) {
    case Workload::kToy:
      return RunToy(opts.seed, opts.hook);
    case Workload::kConsensusBuggy:
      return RunConsensusBuggy(opts.seed, opts.hook);
    default:
      return RunStack(EntryOf(opts.kind), opts);
  }
}

}  // namespace prism::explore
