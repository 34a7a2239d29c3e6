// Every row of the stack table (src/explore/workloads.h), seeds 1..20: one
// open-loop cell per (stack, seed), two client hosts of four workers each.
// Every cell is checked for the phase-sum identity and the store
// aggregates, and the cells of even seeds, which run traced, for span
// parentage (tests/stack_cell.h has both invariants). The offered rate
// sweeps with the seed from light load into contention, so backlog,
// sync-spin, backoff and lock-retry phases all get populated.
//
// The rows fall into one group per system (the five sync schemes are one
// group), and each group has two tests: PhaseInvariantTest.<System>Stack
// runs the group's odd-seed cells, untraced, and SpanParentageTest.<System>
// runs its even-seed cells, traced. Each cell thus runs once, and every
// cell gets the phase checks.
//
// Where a stack fixes its ops' app time (Stack::app_ns: Pilaf's CRC check
// after each READ), the app phase summed over every op must equal it
// exactly: work issued under any other op's ctx would leave an op holding
// that work's time as app.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/explore/workloads.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workload/open_loop.h"
#include "tests/stack_cell.h"

namespace prism {
namespace {

using sim::Task;

constexpr uint64_t kSeeds = 20;
constexpr int kHosts = 2;

// One group per system, so the cells run under the per-system test names
// of the phase and span suites this file replaced. A group is a row name,
// or a name prefix ending in '_' for a family.
constexpr std::array<std::string_view, 8> kGroups = {
    "kv", "rs", "pilaf", "tx", "sync_", "abd_lock", "farm", "consensus"};

bool InGroup(std::string_view row, std::string_view group) {
  return group.ends_with('_') ? row.starts_with(group) : row == group;
}

// One cell of `def` at `seed`, with a span tracer iff `traced`.
void RunStackCell(const explore::StackDef& def, uint64_t seed, bool traced) {
  const std::string what =
      std::string(def.name) + " seed=" + std::to_string(seed);
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  std::unique_ptr<explore::Stack> stack =
      def.make({&sim, &fabric, seed, def.keys});
  obs::TimelineStore store;
  obs::Tracer tracer;
  std::vector<int> issued(kHosts, 0);  // ops per client
  uint64_t ok_ops = 0;
  uint64_t failed = 0;  // ops that failed other than by a miss or a lost race
  Status first_failure;
  stack_cell::RunCell(
      sim, fabric,
      {.what = what,
       .rate = 1e5 + 1.5e4 * static_cast<double>(seed),
       .seed = seed,
       .hosts = kHosts,
       .host_rule = stack->issues_from_client_host()},
      store, traced ? &tracer : nullptr,
      [&](workload::OpenLoopPool& pool, net::HostId host, int h) {
        stack->AddClient(host, h);
        pool.AddClass(def.name, 1.0,
                      [&, h](uint64_t draw, obs::OpTimeline*) -> Task<void> {
                        Rng rng(draw);
                        Status s = co_await stack->Op(h, issued[h]++, rng);
                        if (s.ok()) {
                          ++ok_ops;
                        } else if (s.code() != Code::kNotFound &&
                                   s.code() != Code::kAborted &&
                                   failed++ == 0) {
                          first_failure = std::move(s);
                        }
                      });
      });
  EXPECT_GT(ok_ops, 20u) << what;
  // A cell is fault-free: a get or delete may miss and a lock, CAS or
  // transaction may lose a race, but nothing times out or is unavailable.
  EXPECT_EQ(failed, 0u) << what << ": e.g. " << first_failure;
  if (const auto app_ns = stack->app_ns()) {
    int64_t sum = 0;
    for (const obs::OpTimeline& t : store.timelines()) {
      sum += t.phase_ns(obs::Phase::kApp);
    }
    EXPECT_EQ(sum, *app_ns) << what << ": app time is not exactly the "
                            << "stack's own client-side work";
  }
}

// The cells of every row in `group`: the even seeds, traced, or the odd
// seeds, untraced. Every row must be in exactly one group, so that the
// group tests below run every row's cells.
void RunGroup(std::string_view group, bool traced) {
  ASSERT_EQ(std::ranges::count(kGroups, group), 1) << group;
  int rows = 0;
  for (const explore::StackDef& def : explore::StackTable()) {
    ASSERT_EQ(std::ranges::count_if(
                  kGroups, [&](auto g) { return InGroup(def.name, g); }),
              1)
        << def.name << " is not in exactly one of kGroups";
    if (!InGroup(def.name, group)) continue;
    ++rows;
    for (uint64_t seed = traced ? 2 : 1; seed <= kSeeds; seed += 2) {
      RunStackCell(def, seed, traced);
    }
  }
  EXPECT_GT(rows, 0) << group << " names no row of the stack table";
}

TEST(PhaseInvariantTest, KvStack) { RunGroup("kv", false); }
TEST(PhaseInvariantTest, RsStack) { RunGroup("rs", false); }
TEST(PhaseInvariantTest, PilafStack) { RunGroup("pilaf", false); }
TEST(PhaseInvariantTest, TxStack) { RunGroup("tx", false); }
TEST(PhaseInvariantTest, SyncStack) { RunGroup("sync_", false); }
TEST(PhaseInvariantTest, AbdLockStack) { RunGroup("abd_lock", false); }
TEST(PhaseInvariantTest, FarmStack) { RunGroup("farm", false); }
TEST(PhaseInvariantTest, ConsensusStack) { RunGroup("consensus", false); }

TEST(SpanParentageTest, PrismKv) { RunGroup("kv", true); }
TEST(SpanParentageTest, PrismRs) { RunGroup("rs", true); }
TEST(SpanParentageTest, Pilaf) { RunGroup("pilaf", true); }
TEST(SpanParentageTest, PrismTx) { RunGroup("tx", true); }
TEST(SpanParentageTest, SyncSchemes) { RunGroup("sync_", true); }
TEST(SpanParentageTest, AbdLock) { RunGroup("abd_lock", true); }
TEST(SpanParentageTest, Farm) { RunGroup("farm", true); }
TEST(SpanParentageTest, Consensus) { RunGroup("consensus", true); }

}  // namespace
}  // namespace prism
