// Characterisation of the request/response round trip every transport op
// runs (src/rdma/exchange.h): each RDMA verb on both backends, a PRISM chain
// on all three deployments, and an RPC call, each run four ways:
//
//   completed  — the response arrives;
//   dropped    — the server host is down, so the request is dropped;
//   timed out  — the server crash-restarts while the request is in flight,
//                purging it, so only the 5 ms deadline ends the op;
//   late       — propagation is stretched past the deadline and the CQ poll
//                to 1 ms, so the server runs the op and replies while the
//                client is already completing it as timed out.
//
// Every run pins the op's status, the exact TransportTally delta and the
// sequence of latency phases the op's timeline passed through. The rows
// assert the src/obs/complexity.h rule "a dropped or timed-out op
// contributes its request but no round trip", and the late rows pin that a
// server result arriving after the deadline never overrides kTimedOut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <tuple>

#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"

// Counts global allocations for the per-op allocation ceilings below. The
// default operator new[] forwards here, so scalar overrides cover both forms.
namespace {
uint64_t g_new_calls = 0;
}  // namespace

// Kept out of line: inlined, GCC 12 pairs these malloc/free calls with the
// pool's ::operator new/delete and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace prism {
namespace {

using sim::Task;

enum class Kind { kRead, kWrite, kCas, kFaa, kChain, kCall };
enum class Mode { kCompleted, kDropped, kTimedOut, kLate };

struct Row {
  const char* name;
  Kind kind;
  rdma::Backend backend;        // RDMA verb rows
  core::Deployment deployment;  // PRISM chain rows
  uint64_t bytes_out;           // request payload
  uint64_t bytes_in;            // response payload
  bool cpu;                     // server (or SmartNIC) CPU involved
};

const char* const kModeNames[] = {"Completed", "Dropped", "TimedOut", "Late"};

// Keeps test names and failure messages readable.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }
void PrintTo(Mode mode, std::ostream* os) {
  *os << kModeNames[static_cast<int>(mode)];
}

constexpr rdma::Backend kHw = rdma::Backend::kHardwareNic;
constexpr rdma::Backend kSw = rdma::Backend::kSoftwareStack;
constexpr core::Deployment kAnyDeployment = core::Deployment::kSoftware;

// Request/response bytes: READ 16 / len; WRITE 16 + data / 0; CAS 32 / 8;
// FAA 24 / 8. The chain is WRITE 8 B +
// READ 64 B: 2 + (28 + 8) + 28 out, (4) + (4 + 64) back. The RPC sends
// 40 B and its handler answers 100 B.
const Row kRows[] = {
    {"ReadHw", Kind::kRead, kHw, kAnyDeployment, 16, 64, false},
    {"ReadSw", Kind::kRead, kSw, kAnyDeployment, 16, 64, true},
    {"WriteHw", Kind::kWrite, kHw, kAnyDeployment, 80, 0, false},
    {"WriteSw", Kind::kWrite, kSw, kAnyDeployment, 80, 0, true},
    {"CasHw", Kind::kCas, kHw, kAnyDeployment, 32, 8, false},
    {"CasSw", Kind::kCas, kSw, kAnyDeployment, 32, 8, true},
    {"FaaHw", Kind::kFaa, kHw, kAnyDeployment, 24, 8, false},
    {"FaaSw", Kind::kFaa, kSw, kAnyDeployment, 24, 8, true},
    {"ChainSoftware", Kind::kChain, kHw, core::Deployment::kSoftware, 66, 72,
     true},
    {"ChainHardwareProjected", Kind::kChain, kHw,
     core::Deployment::kHardwareProjected, 66, 72, false},
    {"ChainBlueField", Kind::kChain, kHw, core::Deployment::kBlueField, 66, 72,
     true},
    {"Call", Kind::kCall, kHw, kAnyDeployment, 40, 100, true},
};

// One server host offering every transport, one client host with one client
// per transport, on the calibrated 40 GbE cluster.
struct Env {
  explicit Env(const Row& row)
      : fabric(&sim, net::CostModel::EvalCluster40G()),
        server(fabric.AddHost("server")),
        client(fabric.AddHost("client")),
        mem(1 << 20),
        region(*mem.CarveAndRegister(4096, rdma::kRemoteAll)),
        rdma_svc(&fabric, server, row.backend, &mem),
        prism_svc(&fabric, server, row.deployment, &mem),
        rpc_svc(&fabric, server),
        rdma(&fabric, client),
        prism(&fabric, client),
        rpc(&fabric, client) {
    rpc_svc.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
      co_return rpc::Message::Empty(100);
    });
  }

  const obs::TransportTally& tally(Kind kind) const {
    if (kind == Kind::kChain) return prism.tally();
    if (kind == Kind::kCall) return rpc.tally();
    return rdma.tally();
  }

  sim::Simulator sim;
  net::Fabric fabric;
  net::HostId server;
  net::HostId client;
  rdma::AddressSpace mem;
  rdma::MemoryRegion region;
  rdma::RdmaService rdma_svc;
  core::PrismServer prism_svc;
  rpc::RpcServer rpc_svc;
  rdma::RdmaClient rdma;
  core::PrismClient prism;
  rpc::RpcClient rpc;
};

// Issues the row's op under `ctx` and reduces its outcome to a status code.
Task<Code> Issue(Env* env, const Row* row, obs::Ctx ctx) {
  const rdma::RKey rkey = env->region.rkey;
  const rdma::Addr base = env->region.base;
  switch (row->kind) {
    case Kind::kRead: {
      auto r = co_await env->rdma.Read(&env->rdma_svc, rkey, base, 64, ctx);
      co_return r.code();
    }
    case Kind::kWrite: {
      Bytes data(64, 0x5a);
      Status s = co_await env->rdma.Write(&env->rdma_svc, rkey, base,
                                          std::move(data), ctx);
      co_return s.code();
    }
    case Kind::kCas: {
      auto r =
          co_await env->rdma.CompareSwap(&env->rdma_svc, rkey, base, 0, 1, ctx);
      co_return r.code();
    }
    case Kind::kFaa: {
      auto r = co_await env->rdma.FetchAdd(&env->rdma_svc, rkey, base, 1, ctx);
      co_return r.code();
    }
    case Kind::kChain: {
      core::Chain chain;
      chain.push_back(core::Op::Write(rkey, base + 128, Bytes(8, 0x07)));
      chain.push_back(core::Op::Read(rkey, base, 64));
      auto r =
          co_await env->prism.Execute(&env->prism_svc, std::move(chain), ctx);
      co_return r.code();
    }
    case Kind::kCall: {
      rpc::MessagePtr req = rpc::Message::Empty(40);
      auto r = co_await env->rpc.Call(&env->rpc_svc, 1, req, ctx);
      co_return r.code();
    }
  }
  co_return Code::kInternal;
}

class ExchangeCharacterisationTest
    : public ::testing::TestWithParam<std::tuple<Row, Mode>> {};

TEST_P(ExchangeCharacterisationTest, StatusTallyAndPhases) {
  const auto& [row, mode] = GetParam();
  Env env(row);
  if (mode == Mode::kDropped) env.fabric.SetHostUp(env.server, false);
  if (mode == Mode::kTimedOut) {
    // After the 350 ns client post, before the request's ~1 µs delivery.
    env.sim.Schedule(sim::Nanos(500), [&env] {
      env.fabric.SetHostUp(env.server, false);
      env.fabric.SetHostUp(env.server, true);
    });
  }
  if (mode == Mode::kLate) {
    env.fabric.mutable_cost().completion = sim::Millis(1);
    env.fabric.mutable_cost().propagation = sim::Micros(5200);
  }

  obs::TimelineStore store;
  obs::OpTimeline* timeline = store.StartOp(store.EnsureClass("op"), 0);
  Code code = Code::kInternal;
  bool finished = false;
  sim::Spawn([&]() -> Task<void> {
    timeline->Switch(obs::Phase::kApp, env.sim.Now());
    const Code c = co_await Issue(&env, &row, obs::Ctx{0, timeline});
    timeline->Finish(env.sim.Now());
    code = c;
    finished = true;
  });

  // A segment closes at its first stamp inside an event (later stamps in the
  // same event add 0 ns), so diffing the per-phase totals after every event
  // recovers the sequence of phases the op spent time in.
  std::string phases;
  int64_t seen[obs::kNumPhases] = {};
  while (env.sim.Step()) {
    for (int p = 0; p < obs::kNumPhases; ++p) {
      if (timeline->phase_ns(p) == seen[p]) continue;
      seen[p] = timeline->phase_ns(p);
      if (!phases.empty()) phases += ' ';
      phases += obs::PhaseName(p);
    }
  }
  ASSERT_TRUE(finished);

  const bool completed = mode == Mode::kCompleted;
  switch (mode) {
    case Mode::kCompleted: EXPECT_EQ(code, Code::kOk); break;
    case Mode::kDropped: EXPECT_EQ(code, Code::kUnavailable); break;
    case Mode::kTimedOut: EXPECT_EQ(code, Code::kTimedOut); break;
    case Mode::kLate: EXPECT_EQ(code, Code::kTimedOut); break;
  }

  const obs::TransportTally& t = env.tally(row.kind);
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.bytes_out, row.bytes_out);
  EXPECT_EQ(t.bytes_in, completed ? row.bytes_in : 0u);
  EXPECT_EQ(t.round_trips, completed ? 1u : 0u);
  EXPECT_EQ(t.cpu_actions, row.cpu ? 1u : 0u);
  EXPECT_EQ(t.doorbells, 1u);
  EXPECT_EQ(t.cq_polls, 1u);

  // Post path and CQ poll are batch_wait; flight and NIC-resident server
  // time are wire; CPU-involved server time is responder. A failed op has
  // no response delivery to switch it back to batch_wait, so its CQ poll
  // stays in wire; a late server reply still stamps the (unfinished)
  // timeline, but its response lands after the op returned.
  std::string want;
  switch (mode) {
    case Mode::kCompleted:
      want = row.cpu ? "batch_wait wire responder wire batch_wait"
                     : "batch_wait wire wire batch_wait";
      break;
    case Mode::kDropped:
    case Mode::kTimedOut:
      want = "batch_wait wire";
      break;
    case Mode::kLate:
      want = row.cpu ? "batch_wait wire responder wire" : "batch_wait wire wire";
      break;
  }
  EXPECT_EQ(phases, want);
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<Row, Mode>>& info) {
  return std::string(std::get<0>(info.param).name) + "_" +
         kModeNames[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, ExchangeCharacterisationTest,
    ::testing::Combine(::testing::ValuesIn(kRows),
                       ::testing::Values(Mode::kCompleted, Mode::kDropped,
                                         Mode::kTimedOut, Mode::kLate)),
    CaseName);

// ---------- no deadline work outlives its op ----------

// One row per client type: an RDMA read, a PRISM chain and an RPC call.
const Row* const kOneRowPerClient[] = {&kRows[0], &kRows[8], &kRows[11]};

TEST(ExchangeLifetimeTest, CompletedOpLeavesNothingPending) {
  for (const Row* row : kOneRowPerClient) {
    SCOPED_TRACE(row->name);
    Env env(*row);
    Code code = Code::kInternal;
    bool idle_at_return = false;
    sim::TimePoint returned_at = -1;
    sim::Spawn([&]() -> Task<void> {
      code = co_await Issue(&env, row, {});
      idle_at_return = env.sim.idle();
      returned_at = env.sim.Now();
    });
    env.sim.Run();
    EXPECT_EQ(code, Code::kOk);
    // The op's deadline was cancelled when the response decided it: no event
    // is left behind, and Run() ends where the op did, not 5 ms later.
    EXPECT_TRUE(idle_at_return);
    EXPECT_EQ(env.sim.Now(), returned_at);
    EXPECT_EQ(env.sim.stats().cancelled_timers, 1u);
  }
}

TEST(ExchangeLifetimeTest, TimedOutOpIsDecidedExactlyAtItsDeadline) {
  for (const Row* row : kOneRowPerClient) {
    SCOPED_TRACE(row->name);
    Env env(*row);
    // The kTimedOut recipe: purge the in-flight request by crash-restart.
    env.sim.Schedule(sim::Nanos(500), [&env] {
      env.fabric.SetHostUp(env.server, false);
      env.fabric.SetHostUp(env.server, true);
    });
    Code code = Code::kInternal;
    sim::TimePoint returned_at = -1;
    sim::Spawn([&]() -> Task<void> {
      code = co_await Issue(&env, row, {});
      returned_at = env.sim.Now();
    });
    env.sim.Run();
    EXPECT_EQ(code, Code::kTimedOut);
    // The deadline is armed once the post completes and fires at exactly
    // that time + 5 ms; the CQ poll follows.
    const net::CostModel& cost = env.fabric.cost();
    EXPECT_EQ(returned_at,
              cost.client_post + rdma::Exchange::kDeadline + cost.completion);
    EXPECT_EQ(env.sim.Now(), returned_at);
    EXPECT_EQ(env.sim.stats().cancelled_timers, 0u);  // it fired instead
  }
}

// An Exchange whose one op hands the test a weak_ptr to its op state.
class ProbeClient : public rdma::Exchange {
 public:
  ProbeClient(net::Fabric* fabric, net::HostId self)
      : Exchange(fabric, self, "probe") {}

  Task<Status> Ping(net::HostId server, std::weak_ptr<void>* state) {
    return Run<Status>("probe.ping", server, 8, /*cpu_involved=*/false,
                       [state](Reply<Status> reply) -> Task<void> {
                         *state = reply.op;
                         reply(OkStatus(), 8);
                         co_return;
                       },
                       {});
  }
};

TEST(ExchangeLifetimeTest, OpStateIsReleasedWhenTheOpReturns) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  const net::HostId server = fabric.AddHost("server");
  ProbeClient probe(&fabric, fabric.AddHost("client"));
  std::weak_ptr<void> state;
  bool held_during_op = false;
  bool expired_at_return = false;
  Status status = Internal("unset");
  sim::Spawn([&]() -> Task<void> {
    status = co_await probe.Ping(server, &state);
    expired_at_return = state.expired();
  });
  // Step until the server body has run: the op state is alive mid-op.
  while (state.expired() && sim.Step()) {
  }
  held_during_op = !state.expired();
  sim.Run();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_TRUE(held_during_op);
  // Nothing (least of all a pending deadline) holds the op state past the
  // op's return.
  EXPECT_TRUE(expired_at_return);
  EXPECT_TRUE(sim.idle());
}

// A free list of 528 B buffers in the row's region and a 16 B scratch slot:
// what the PRISM-RS write chain (§7.3) needs on its replica.
struct RsReplicaParts {
  explicit RsReplicaParts(Env& env)
      : queue(env.prism_svc.freelists().CreateQueue(528)),
        scratch(*env.prism_svc.AllocateScratch(16)) {
    env.prism_svc.PostBuffers(queue, {env.region.base + 1024,
                                      env.region.base + 1024 + 528});
  }
  uint32_t queue;
  rdma::Addr scratch;
};

// The PRISM-RS write chain for one replica: WRITE the 8 B tag to scratch,
// ALLOCATE the shared payload with its address redirected next to it, then
// CAS_GT the 16 B ⟨tag,addr⟩ at `meta` from scratch.
core::Chain RsWriteChain(const Env& env, const RsReplicaParts& parts,
                         const SmallBytes& payload) {
  const rdma::RKey rkey = env.region.rkey;
  core::Chain chain;
  chain.reserve(3);
  chain.push_back(core::Op::Write(rkey, parts.scratch, SmallBytes::OfU64(1)));
  chain.push_back(core::Op::Allocate(rkey, parts.queue, payload)
                      .RedirectTo(parts.scratch + 8)
                      .Conditional());
  core::Op install = core::Op::MaskedCas(
      rkey, env.region.base + 256, SmallBytes::OfU64(parts.scratch),
      FieldMask(16, 0, 8), FieldMask(16, 0, 16), rdma::CasCompare::kGreater);
  install.data_indirect = true;
  install.conditional = true;
  chain.push_back(std::move(install));
  return chain;
}

// The *_Late recipe's stretched propagation on an ALLOCATE chain: the
// request reaches the server after the deadline, so the op is decided and
// returns before the server body runs, and the client's payload is gone
// before the request is even posted. The body still stores the payload:
// the chain's copy in the body holds the shared block.
TEST(ExchangeLifetimeTest, LateAllocateStoresFromItsSharedPayload) {
  Env env(kRows[10]);  // ChainBlueField
  env.fabric.mutable_cost().propagation = sim::Micros(5200);
  const RsReplicaParts parts(env);
  auto start_write = [&env, &parts] {
    const SmallBytes payload(Bytes(520, 0x77));
    return env.prism.Execute(&env.prism_svc,
                             RsWriteChain(env, parts, payload));
  };  // the client's payload dies here; only the chain's copy is left
  Code code = Code::kInternal;
  bool delivered_after_return = false;
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await start_write();
    code = r.code();
    delivered_after_return = env.prism_svc.chains_executed() == 0;
  });
  env.sim.Run();
  EXPECT_EQ(code, Code::kTimedOut);
  EXPECT_TRUE(delivered_after_return);
  ASSERT_EQ(env.prism_svc.chains_executed(), 1u);
  const rdma::Addr stored = env.mem.LoadWord(parts.scratch + 8);
  EXPECT_EQ(env.mem.Load(stored, 520), Bytes(520, 0x77));
}

// ---------- heap allocations per op ----------

// Heap allocations of one op end to end (issue, both messages, server work,
// completion), once warm-up ops have filled the coroutine-frame cache and
// the event pool. Warm-up runs two deadlines' worth of simulated time: a
// cancelled deadline's ref can sit in a timing-wheel slot until the clock
// reaches it, so the slot vectors reach their steady size only then.
// `issue` returns the op's Task; its result must be ok.
template <typename Issue>
uint64_t AllocsOfWarmedOp(sim::Simulator* sim, const Issue& issue) {
  auto once = [&] {
    const uint64_t before = g_new_calls;
    bool ok = false;
    sim::Spawn([&]() -> Task<void> {
      auto r = co_await issue();
      ok = r.ok();
    });
    sim->Run();
    EXPECT_TRUE(ok);
    return g_new_calls - before;
  };
  while (sim->Now() < 2 * rdma::Exchange::kDeadline) once();
  return once();
}

// Frames and op state are recycled, so all that is left is the op's data.
TEST(ExchangeAllocationTest, RdmaReadAllocatesOnlyItsPayload) {
  Env env(kRows[0]);  // ReadHw
  const uint64_t allocs = AllocsOfWarmedOp(&env.sim, [&env] {
    return env.rdma.Read(&env.rdma_svc, env.region.rkey, env.region.base, 64);
  });
  EXPECT_LE(allocs, 1u);  // the 64 B read
}

TEST(ExchangeAllocationTest, OneOpPrismReadChainAllocatesOnlyItsData) {
  Env env(kRows[8]);  // ChainSoftware
  const uint64_t allocs = AllocsOfWarmedOp(&env.sim, [&env] {
    return env.prism.ExecuteOne(
        &env.prism_svc,
        core::Op::Read(env.region.rkey, env.region.base, 64));
  });
  EXPECT_EQ(allocs, 1u);  // the 64 B read; a one-op chain is the op itself
}

// Runs the chain, then returns its buffer to the free list so warm-up can
// repeat it without draining the list.
Task<Status> WriteAndRecycle(Env* env, const RsReplicaParts* parts,
                             const SmallBytes* payload) {
  core::Chain chain = RsWriteChain(*env, *parts, *payload);
  auto r = co_await env->prism.Execute(&env->prism_svc, std::move(chain));
  if (!r.ok()) co_return r.status();
  if (!(*r)[1].status.ok()) co_return (*r)[1].status;
  env->prism_svc.PostBuffer(parts->queue, (*r)[1].resolved_addr);
  co_return OkStatus();
}

// The whole chain shares one payload block and keeps every operand, mask
// and result inline: only the chain and result vectors are allocated.
TEST(ExchangeAllocationTest, PrismRsWriteChainAllocatesOnlyItsVectors) {
  Env env(kRows[8]);  // ChainSoftware
  const RsReplicaParts parts(env);
  const SmallBytes payload(520, 0x3c);
  const uint64_t allocs = AllocsOfWarmedOp(&env.sim, [&] {
    return WriteAndRecycle(&env, &parts, &payload);
  });
  EXPECT_EQ(allocs, 2u);  // the chain and its results
}

TEST(ExchangeAllocationTest, RpcCallAllocatesOnlyItsMessages) {
  Env env(kRows[11]);  // Call
  const uint64_t allocs = AllocsOfWarmedOp(&env.sim, [&env] {
    return env.rpc.Call(&env.rpc_svc, 1, rpc::Message::Empty(40));
  });
  EXPECT_LE(allocs, 2u);  // the request and the response message
}

}  // namespace
}  // namespace prism
