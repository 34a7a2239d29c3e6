// One open-loop cell and the two invariants checked on it, shared by
// stack_cell_test (every row of the stack table) and sync_test's cold-probe
// client.
//
// A cell is multi-client and fault-free: each client host runs its own
// open-loop pool of four workers, so ops interleave at event granularity,
// with phase timelines attached and, optionally, a span tracer.
//
// Phase sums (src/obs/timeline.h, DESIGN.md §5.9). The telescoping-sum
// construction lands every nanosecond between an op's arrival and its
// completion in exactly one phase, so for every op, on every stack, under
// every interleaving,
//
//     sum over phases of phase_ns == end_ns - start_ns     (exactly)
//
//  * each timeline is finished, each phase is non-negative, phases sum to
//    the op's total;
//  * the store's exact per-class phase_total_ns equals the sum recomputed
//    over measured ops (window predicate: arrival >= start, completion <=
//    end), which is what tools/latency_report consumes;
//  * started/measured op counters match; every exemplar satisfies the same
//    identity.
//
// Span parentage (src/obs/obs.h, DESIGN.md §5.4). A span parented through
// anything but its own op's ctx would start a tree of its own or land in a
// sibling op's tree. For every finished span, following its parent links:
//
//  * no transport, server or fabric span (rdma, prism, rpc, net) is a root;
//  * its chain ends at an app-op span, and it starts inside that op's
//    interval. Work the op leaves behind (a quorum straggler's reclamation
//    flight) may start after the op ends, but only once its own parent has
//    ended too;
//  * its recorded root is that op, so Perfetto draws it on the op's track
//    and the op's exemplar tree includes it, left-behind work too;
//  * where clients issue from their pool's host (Cell::host_rule), a span
//    the app op parents directly runs on the op's own host.
#ifndef PRISM_TESTS_STACK_CELL_H_
#define PRISM_TESTS_STACK_CELL_H_

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workload/open_loop.h"

namespace prism::stack_cell {

struct Cell {
  std::string what;  // names the cell in failure messages
  double rate;       // Poisson arrivals per second, per pool
  uint64_t seed;     // seeds the pools
  int hosts = 2;     // client hosts, one pool each
  bool host_rule = true;
};

// Phase sums over one run's store, measured over [win_start, win_end].
inline void CheckPhaseSums(const obs::TimelineStore& st, int64_t win_start,
                           int64_t win_end, const std::string& what) {
  std::vector<std::array<int64_t, obs::kNumPhases>> totals(st.n_classes());
  for (auto& t : totals) t.fill(0);

  uint64_t done = 0;
  uint64_t measured = 0;
  for (const obs::OpTimeline& t : st.timelines()) {
    ASSERT_TRUE(t.done()) << what << ": op never finished";
    int64_t sum = 0;
    for (int p = 0; p < obs::kNumPhases; ++p) {
      ASSERT_GE(t.phase_ns(p), 0)
          << what << ": negative " << obs::PhaseName(p) << " time";
      sum += t.phase_ns(p);
    }
    ASSERT_EQ(sum, t.total_ns())
        << what << ": phases sum to " << sum << " but the op took "
        << t.total_ns() << " ns — a handoff point lost or double-counted "
        << "an interval";
    ++done;
    if (t.start_ns() >= win_start && t.end_ns() <= win_end) {
      ++measured;
      for (int p = 0; p < obs::kNumPhases; ++p) {
        totals[t.cls()][p] += t.phase_ns(p);
      }
    }
  }
  EXPECT_GT(done, 0u) << what;
  EXPECT_GT(measured, 0u) << what;
  EXPECT_EQ(st.started_ops(), done) << what;
  EXPECT_EQ(st.measured_ops(), measured) << what;

  // The store's exact aggregates are the same sums, computed op by op.
  for (size_t c = 0; c < st.n_classes(); ++c) {
    for (int p = 0; p < obs::kNumPhases; ++p) {
      EXPECT_EQ(st.phase_total_ns(c, p), totals[c][p])
          << what << ": class " << st.class_name(c) << " phase "
          << obs::PhaseName(p);
    }
    for (const obs::TimelineStore::Exemplar& e : st.exemplars(c)) {
      int64_t esum = 0;
      for (int p = 0; p < obs::kNumPhases; ++p) esum += e.phase_ns[p];
      EXPECT_EQ(esum, e.total_ns())
          << what << ": exemplar seq=" << e.seq << " of " << st.class_name(c);
    }
  }
}

// Span parentage over every span `tracer` kept.
inline void CheckSpanParentage(const obs::Tracer& tracer, bool host_rule,
                               const std::string& what) {
  ASSERT_EQ(tracer.dropped_count(), 0u) << what;
  ASSERT_EQ(tracer.open_count(), 0u) << what;
  std::unordered_map<obs::SpanId, const obs::SpanRecord*> by_id;
  for (const obs::SpanRecord& s : tracer.finished()) by_id[s.id] = &s;

  // The app op at the top of a span's parent chain; null if the chain is
  // broken or ends elsewhere.
  auto op_of = [&](const obs::SpanRecord& s) -> const obs::SpanRecord* {
    const obs::SpanRecord* at = &s;
    while (at->parent != 0) {
      auto it = by_id.find(at->parent);
      if (it == by_id.end()) return nullptr;
      at = it->second;
    }
    return at->cat == "app" ? at : nullptr;
  };

  // Offending spans of one kind: how many, and the first one's name.
  struct Offenders {
    uint64_t count = 0;
    std::string example;
  };
  uint64_t ops = 0, spans = 0;
  Offenders roots, foreign, outside, misrooted, off_host;
  auto note = [](Offenders* o, const obs::SpanRecord& s) {
    if (o->count++ == 0) {
      o->example = s.name + " on host " + std::to_string(s.host);
    }
  };
  for (const obs::SpanRecord& s : tracer.finished()) {
    if (s.cat == "app") {
      EXPECT_EQ(s.parent, 0u) << what << ": app span " << s.name;
      ++ops;
      continue;
    }
    ++spans;
    if (s.parent == 0) {
      note(&roots, s);
      continue;
    }
    const obs::SpanRecord* op = op_of(s);
    if (op == nullptr) {
      note(&foreign, s);
      continue;
    }
    if (s.root != op->id) note(&misrooted, s);
    const bool left_behind = by_id[s.parent]->end_ns <= s.start_ns;
    if (s.start_ns < op->start_ns ||
        (s.start_ns > op->end_ns && !left_behind)) {
      note(&outside, s);
    }
    if (host_rule && s.parent == op->id && s.host != op->host) {
      note(&off_host, s);
    }
  }
  EXPECT_GT(ops, 20u) << what;
  EXPECT_GT(spans, ops) << what;
  EXPECT_EQ(roots.count, 0u) << what << ": transport/server/net spans "
                             << "that are roots, e.g. " << roots.example;
  EXPECT_EQ(foreign.count, 0u) << what << ": spans whose parent chain does "
                               << "not end at an app op, e.g. "
                               << foreign.example;
  EXPECT_EQ(outside.count, 0u) << what << ": spans that start outside "
                               << "their op's interval, e.g. "
                               << outside.example;
  EXPECT_EQ(misrooted.count, 0u) << what << ": spans whose recorded root "
                                 << "is not their op, e.g. "
                                 << misrooted.example;
  EXPECT_EQ(off_host.count, 0u) << what << ": op children on another "
                                << "client host, e.g. " << off_host.example;
}

// Adds cell.hosts client hosts to `fabric`, `add(pool, host, h)` registering
// the op class of host h's pool; runs the cell to quiescence over a 200 µs
// arrival window; then checks the phase sums in `store` and, with `tracer`
// non-null (attached here), the span parentage.
template <typename Add>
void RunCell(sim::Simulator& sim, net::Fabric& fabric, const Cell& cell,
             obs::TimelineStore& store, obs::Tracer* tracer, const Add& add) {
  if (tracer != nullptr) {
    fabric.AttachTracer(tracer);
    store.SetTracer(tracer);
  }
  std::vector<std::unique_ptr<workload::OpenLoopPool>> pools;
  for (int h = 0; h < cell.hosts; ++h) {
    const net::HostId host = fabric.AddHost("client" + std::to_string(h));
    pools.push_back(std::make_unique<workload::OpenLoopPool>(
        &sim, workload::ArrivalSpec::Poisson(cell.rate), 8,
        Rng(cell.seed * 100 + static_cast<uint64_t>(h)),
        workload::PoolOptions{.workers = 4}));
    add(*pools.back(), host, h);
    pools.back()->set_timelines(&store, &fabric.obs(), host);
  }
  const sim::TimePoint start = sim.Now() + sim::Micros(10);
  const sim::TimePoint end = start + sim::Micros(200);
  for (auto& pool : pools) pool->Start(start, end);
  sim.Run();
  for (auto& pool : pools) pool->CheckDrained();

  CheckPhaseSums(store, start, end, cell.what);
  if (tracer != nullptr) CheckSpanParentage(*tracer, cell.host_rule, cell.what);
}

}  // namespace prism::stack_cell

#endif  // PRISM_TESTS_STACK_CELL_H_
