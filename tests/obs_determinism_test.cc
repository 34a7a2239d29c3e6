// Observability determinism regression: running a figure sweep point with
// tracing enabled must reproduce the run with tracing disabled exactly —
// identical (when,seq) event replay (asserted through the simulator's event
// counts and lane classification in the metrics snapshot) and identical
// bench outputs (every LoadPoint field, including the protocol-complexity
// rows). This is the test that keeps the tracer "pure recording": any
// instrumentation that schedules an event, perturbs an allocation the
// replay depends on, or changes an RNG draw shows up here as a diff.
//
// Also asserted: the Table-1 acceptance numbers — PRISM-KV reads take one
// round trip per op while Pilaf reads take two (§4.3 / Table 1), visible in
// the per-op accounting that BENCH_figs.json carries.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/kv_bench_lib.h"
#include "src/consensus/consensus.h"
#include "src/explore/hooks.h"
#include "src/explore/workloads.h"
#include "src/net/fabric.h"
#include "src/obs/trace.h"

namespace prism::bench {
namespace {

// Everything a point run can observably produce, for whole-run comparison.
struct PointResult {
  workload::LoadPoint point;
  obs::MetricsSnapshot snapshot;
};

void ExpectSamePoint(const workload::LoadPoint& a,
                     const workload::LoadPoint& b) {
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.tput_mops, b.tput_mops);
  EXPECT_EQ(a.mean_us, b.mean_us);
  EXPECT_EQ(a.p50_us, b.p50_us);
  EXPECT_EQ(a.p99_us, b.p99_us);
  EXPECT_EQ(a.abort_rate, b.abort_rate);
  EXPECT_EQ(a.sim_events, b.sim_events);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_TRUE(a.ops[i] == b.ops[i]) << "op row " << a.ops[i].op;
  }
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  ObsDeterminismTest() { setenv("PRISM_BENCH_FAST", "1", 1); }
};

TEST_F(ObsDeterminismTest, TracingDoesNotPerturbPrismKvPoint) {
  const BenchWindows windows = BenchWindows::Default();
  constexpr int kClients = 4;
  constexpr uint64_t kSeed = 3004;

  // Baseline: no tracer, metrics snapshot only (the snapshot itself carries
  // sim.executed_events / zero_delay / timer / overflow / heap_callables /
  // pool_blocks, i.e. the full (when,seq) replay fingerprint).
  obs::PointObs base;
  base.want_metrics = true;
  PointResult off;
  off.point = RunPrismKvPoint(kClients, 1.0, windows, kSeed, &base);
  off.snapshot = base.snapshot;

  // Same point, tracer attached.
  obs::Tracer tracer;
  obs::PointObs traced;
  traced.tracer = &tracer;
  traced.want_metrics = true;
  PointResult on;
  on.point = RunPrismKvPoint(kClients, 1.0, windows, kSeed, &traced);
  on.snapshot = traced.snapshot;

  ExpectSamePoint(off.point, on.point);
  EXPECT_TRUE(off.snapshot == on.snapshot)
      << "tracing changed the metrics snapshot:\n--- off ---\n"
      << off.snapshot.ToText() << "--- on ---\n" << on.snapshot.ToText();

  // The traced run must actually have traced something, spanning the app,
  // transport, server and fabric layers.
  EXPECT_GT(tracer.finished_count(), 0u);
  bool saw_app = false, saw_prism = false, saw_chain = false, saw_net = false;
  for (const obs::SpanRecord& s : tracer.finished()) {
    if (s.name == "kv.get") saw_app = true;
    if (s.name == "prism.execute") saw_prism = true;
    if (s.name == "prism.chain") saw_chain = true;
    if (s.name == "net.flight") saw_net = true;
  }
  EXPECT_TRUE(saw_app && saw_prism && saw_chain && saw_net)
      << "app=" << saw_app << " prism=" << saw_prism
      << " chain=" << saw_chain << " net=" << saw_net;
  // And the point runner filled in the Perfetto process labels.
  EXPECT_FALSE(traced.host_names.empty());
}

TEST_F(ObsDeterminismTest, RerunIsBitIdentical) {
  // Two identical runs (as a --jobs worker would execute them) must agree
  // on every output bit — the property that makes per-point snapshots safe
  // to collect under any fan-out.
  const BenchWindows windows = BenchWindows::Default();
  obs::PointObs a, b;
  a.want_metrics = b.want_metrics = true;
  workload::LoadPoint pa = RunPilafPoint(2, 1.0, rdma::Backend::kHardwareNic,
                                         windows, 1001, &a);
  workload::LoadPoint pb = RunPilafPoint(2, 1.0, rdma::Backend::kHardwareNic,
                                         windows, 1001, &b);
  ExpectSamePoint(pa, pb);
  EXPECT_TRUE(a.snapshot == b.snapshot);
}

TEST_F(ObsDeterminismTest, ScheduleHookOffLeavesBenchPointUntouched) {
  // The exploration hook added to the simulator is strictly opt-in: a bench
  // point (which never installs one) must produce the same outputs as ever.
  // Guarded two ways — an uninstrumented rerun is bit-identical (above, and
  // re-asserted here against a fresh run), and the sim's event accounting
  // in the snapshot shows the production lanes executed every event.
  const BenchWindows windows = BenchWindows::Default();
  obs::PointObs a, b;
  a.want_metrics = b.want_metrics = true;
  workload::LoadPoint pa = RunPrismKvPoint(3, 1.0, windows, 2024, &a);
  workload::LoadPoint pb = RunPrismKvPoint(3, 1.0, windows, 2024, &b);
  ExpectSamePoint(pa, pb);
  EXPECT_TRUE(a.snapshot == b.snapshot);
}

TEST_F(ObsDeterminismTest, IdentityScheduleHookIsBitIdentical) {
  // The determinism contract extended to the exploration lane: a hook that
  // always picks the front of the enabled window replays the production
  // (when, seq) order exactly, for every registered workload. Any diff here
  // means the hooked lane reorders, drops, or re-times events even when
  // asked not to — the soundness bug that would invalidate every explorer
  // verdict.
  namespace ex = prism::explore;
  for (ex::Workload w : ex::AllWorkloads()) {
    for (uint64_t seed : {11ull, 42ull}) {
      const ex::WorkloadOptions plain{.kind = w, .seed = seed};
      const ex::RunOutcome base = ex::RunWorkload(plain);

      ex::IdentityHook hook(sim::Nanos(1000));
      ex::WorkloadOptions hooked = plain;
      hooked.hook = &hook;
      const ex::RunOutcome same = ex::RunWorkload(hooked);

      EXPECT_EQ(same.ok, base.ok) << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.executed_events, base.executed_events)
          << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.history_fingerprint, base.history_fingerprint)
          << ex::WorkloadName(w) << " " << seed;
      EXPECT_EQ(same.fault_schedule, base.fault_schedule)
          << ex::WorkloadName(w) << " " << seed;
    }
  }
}

// ---- consensus: complexity accounting ----

// The §5.10 accountant: with the leader elected and every replica granted,
// a consensus commit at n=3 is exactly two round trips (one PRISM chain per
// remote replica), and so is the permission-confirmed read. Lossless
// network, so the session tally is an exact multiple — any extra verb,
// retry, or regrant probe on the data path shows up as a diff here.
TEST_F(ObsDeterminismTest, ConsensusCommitIsTwoRoundTripsAtNThree) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  std::vector<net::HostId> hosts;
  for (int r = 0; r < 3; ++r) {
    hosts.push_back(fabric.AddHost("cons-r" + std::to_string(r)));
  }
  consensus::ConsensusCluster cluster(&fabric, hosts,
                                      consensus::ConsensusOptions{});
  consensus::ConsensusSession session(&cluster);
  constexpr int kOps = 8;
  sim::TaskTracker tracker;
  sim::Spawn(
      [&]() -> sim::Task<void> {
        auto won = co_await cluster.Failover(0, {});
        PRISM_CHECK(won.ok()) << won.status();
        // Let the election's heal chains finish so all three replicas are
        // granted (else a put would tally fewer than two remote chains).
        co_await sim::SleepFor(&sim, sim::Micros(100));
        PRISM_CHECK_EQ(cluster.node(0).granted_count(), 3);
        for (int i = 0; i < kOps; ++i) {
          auto put = co_await session.PutOn(0, 1 + (i % 2),
                                            consensus::MakeValue(5, 0, i),
                                            {});
          PRISM_CHECK(put.status.ok()) << put.status;
        }
        for (int i = 0; i < kOps; ++i) {
          auto got = co_await session.GetOn(0, 1 + (i % 2), {});
          PRISM_CHECK(got.ok()) << got.status();
        }
      },
      &tracker);
  sim.Run();
  ASSERT_EQ(tracker.live(), 0u);
  ASSERT_EQ(cluster.tracker().live(), 0u);
  // 2 RTs per put (commit chains) + 2 per get (heartbeat confirms); the
  // election's control traffic is charged to the node, not the session.
  EXPECT_EQ(session.round_trips(), static_cast<uint64_t>(2 * 2 * kOps));
  // One message exchange per chain — nothing else on the session (the
  // election's grant RPCs and heal chains tally on the node).
  EXPECT_EQ(session.tally().messages, static_cast<uint64_t>(2 * 2 * kOps));
  EXPECT_GT(cluster.node(0).control_tally().round_trips, 0u)
      << "election control plane should have done work";
}

TEST_F(ObsDeterminismTest, Table1RoundTripsPrismVsPilaf) {
  const BenchWindows windows = BenchWindows::Default();
  workload::LoadPoint prism_point =
      RunPrismKvPoint(2, 1.0, windows, 42, nullptr);
  workload::LoadPoint pilaf_point = RunPilafPoint(
      2, 1.0, rdma::Backend::kHardwareNic, windows, 42, nullptr);

  auto get_row = [](const workload::LoadPoint& p) -> const obs::OpStats* {
    for (const obs::OpStats& os : p.ops) {
      if (os.op == "kv.get") return &os;
    }
    return nullptr;
  };
  const obs::OpStats* prism_get = get_row(prism_point);
  const obs::OpStats* pilaf_get = get_row(pilaf_point);
  ASSERT_NE(prism_get, nullptr);
  ASSERT_NE(pilaf_get, nullptr);
  ASSERT_GT(prism_get->count, 0u);
  ASSERT_GT(pilaf_get->count, 0u);

  // Table 1: a PRISM KV read is one indirect-read round trip; Pilaf chases
  // the hash-table pointer with two RDMA READs. Lossless network, so the
  // totals are exact multiples.
  EXPECT_EQ(prism_get->totals.round_trips, prism_get->count);
  EXPECT_EQ(pilaf_get->totals.round_trips, 2 * pilaf_get->count);
  // Hardware-NIC verbs burn no host CPU; the default PRISM-KV deployment is
  // software, so each chain costs one (SmartNIC-class) cpu action.
  EXPECT_EQ(prism_get->totals.cpu_actions, prism_get->count);
  EXPECT_EQ(pilaf_get->totals.cpu_actions, 0u);
}

}  // namespace
}  // namespace prism::bench
