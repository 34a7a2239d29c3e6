// Unit tests for the observability subsystem (src/obs): metrics-registry
// semantics, span parenting/causality in the tracer, the protocol-complexity
// accountant, and end-to-end span trees + Table-1 counting rules over real
// traced RPC / RDMA / PRISM operations.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/net/fabric.h"
#include "src/obs/obs.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"

namespace prism::obs {
namespace {

using sim::Task;

// ---- metrics registry ----

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  Gauge* g = reg.AddGauge("net", "depth");
  HistogramMetric* h = reg.AddHistogram("rpc", "latency");
  c->Add();
  c->Add(4);
  g->Set(7);
  g->Add(-2);
  h->Record(1000);
  h->Record(3000);

  MetricsSnapshot s = reg.Snapshot();
  const MetricValue* cv = s.Find("net", "msgs");
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->kind, MetricValue::Kind::kCounter);
  EXPECT_EQ(cv->counter, 5u);
  const MetricValue* gv = s.Find("net", "depth");
  ASSERT_NE(gv, nullptr);
  EXPECT_EQ(gv->gauge, 5);
  const MetricValue* hv = s.Find("rpc", "latency");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->count, 2);
  EXPECT_DOUBLE_EQ(hv->mean_ns, 2000.0);
  EXPECT_EQ(hv->max_ns, 3000);
}

TEST(MetricsTest, SnapshotSortedByComponentNameHost) {
  MetricsRegistry reg;
  // Registered deliberately out of order.
  reg.AddCounter("rpc", "calls", "hostB")->Add(1);
  reg.AddCounter("net", "msgs")->Add(2);
  reg.AddCounter("rpc", "calls", "hostA")->Add(3);
  reg.AddCounter("prism", "chains")->Add(4);
  MetricsSnapshot s = reg.Snapshot();
  ASSERT_EQ(s.values.size(), 4u);
  EXPECT_EQ(s.values[0].component, "net");
  EXPECT_EQ(s.values[1].component, "prism");
  EXPECT_EQ(s.values[2].host, "hostA");
  EXPECT_EQ(s.values[3].host, "hostB");
}

TEST(MetricsTest, DisabledRegistryHandsOutSinksAndSnapshotsEmpty) {
  MetricsRegistry reg;
  reg.SetEnabled(false);
  Counter* a = reg.AddCounter("x", "a");
  Counter* b = reg.AddCounter("x", "b");
  EXPECT_EQ(a, b);  // shared sink slot: hot paths write one dead cache line
  a->Add(100);
  EXPECT_TRUE(reg.Snapshot().values.empty());
  EXPECT_EQ(reg.slot_count(), 0u);
}

TEST(MetricsTest, ResetZeroesOwnedSlots) {
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  HistogramMetric* h = reg.AddHistogram("rpc", "lat");
  c->Add(9);
  h->Record(500);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(s.Find("net", "msgs")->counter, 0u);
  EXPECT_EQ(s.Find("rpc", "lat")->count, 0);
}

TEST(MetricsTest, ProvidersAppendAtSnapshotTime) {
  MetricsRegistry reg;
  int calls = 0;
  reg.AddProvider([&](MetricsSnapshot& out) {
    calls++;
    out.AddCounterValue("sim", "events", "", 42);
  });
  EXPECT_EQ(calls, 0);
  MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(calls, 1);
  ASSERT_NE(s.Find("sim", "events"), nullptr);
  EXPECT_EQ(s.Find("sim", "events")->counter, 42u);
}

TEST(MetricsTest, SnapshotsAreIsolatedValueCopies) {
  // The sweep stores one snapshot per point; later activity in the same
  // registry must not leak backwards into an already-taken snapshot.
  MetricsRegistry reg;
  Counter* c = reg.AddCounter("net", "msgs");
  c->Add(1);
  MetricsSnapshot first = reg.Snapshot();
  c->Add(10);
  MetricsSnapshot second = reg.Snapshot();
  EXPECT_EQ(first.Find("net", "msgs")->counter, 1u);
  EXPECT_EQ(second.Find("net", "msgs")->counter, 11u);
  EXPECT_FALSE(first == second);
  EXPECT_TRUE(first == first);
}

TEST(MetricsTest, ToTextListsEveryValue) {
  MetricsRegistry reg;
  reg.AddCounter("net", "msgs", "srv")->Add(3);
  const std::string text = reg.Snapshot().ToText();
  EXPECT_NE(text.find("net.msgs"), std::string::npos) << text;
  EXPECT_NE(text.find("srv"), std::string::npos) << text;
  EXPECT_NE(text.find("3"), std::string::npos) << text;
}

// ---- tracer ----

TEST(TracerTest, BeginEndRecordsIntervalAndParentChain) {
  Tracer t;
  const SpanId root = t.Begin("kv.get", "app", 1, 100);
  const SpanId child = t.Begin("prism.execute", "prism", 1, 110, root);
  const SpanId grandchild = t.Begin("net.flight", "net", 1, 120, child);
  EXPECT_EQ(t.ParentOf(child), root);
  EXPECT_EQ(t.ParentOf(grandchild), child);
  t.End(grandchild, 130);
  t.End(child, 140);
  t.End(root, 150);
  ASSERT_EQ(t.finished_count(), 3u);
  EXPECT_EQ(t.open_count(), 0u);
  // Completion order; every span's root is the chain head.
  const auto& done = t.finished();
  EXPECT_EQ(done[0].name, "net.flight");
  EXPECT_EQ(done[2].name, "kv.get");
  for (const SpanRecord& s : done) EXPECT_EQ(s.root, root);
  EXPECT_EQ(done[0].start_ns, 120);
  EXPECT_EQ(done[0].end_ns, 130);
}

TEST(TracerTest, ParentOfClosedOrUnknownSpanIsZero) {
  Tracer t;
  const SpanId a = t.Begin("a", "app", 0, 0);
  const SpanId b = t.Begin("b", "app", 0, 0, a);
  t.End(b, 5);
  EXPECT_EQ(t.ParentOf(b), 0u);     // closed
  EXPECT_EQ(t.ParentOf(99999), 0u);  // never existed
  EXPECT_EQ(t.ParentOf(0), 0u);
}

// Work a finished op leaves behind (a quorum straggler's late flight) is
// parented to a span that has already ended; it must still join that
// span's tree, so CollectTree and the Perfetto track include it.
TEST(TracerTest, ChildOfClosedSpanKeepsItsRoot) {
  Tracer t;
  const SpanId op = t.Begin("rs.put", "app", 0, 0);
  const SpanId verb = t.Begin("prism.execute", "prism", 0, 5, op);
  t.End(verb, 10);
  t.End(op, 20);
  const SpanId late = t.Begin("prism.execute", "prism", 0, 30, verb);
  const SpanId flight = t.EmitComplete("net.flight", "net", 1, 31, 40, late);
  t.End(late, 45);
  std::vector<SpanRecord> tree;
  t.CollectTree(op, &tree);
  ASSERT_EQ(tree.size(), 4u);
  for (const SpanRecord& s : tree) EXPECT_EQ(s.root, op) << s.name;
  EXPECT_EQ(tree[2].id, flight);
  EXPECT_EQ(tree[3].id, late);
  // One Perfetto track: every async event carries the op's id.
  const Json doc = ParseJson(t.ToChromeJson());
  for (const Json& ev : doc.Arr("traceEvents")) {
    if (ev.Str("ph") != "M") {
      EXPECT_EQ(ev.Str("id"), "0x1") << ev.Str("name");
    }
  }
}

// Roots are kept for the last `cap` spans begun; a parent further back
// than that, and closed, no longer resolves, and its child roots itself.
TEST(TracerTest, ClosedParentRootsAreKeptForTheLastCapSpans) {
  Tracer t(/*max_finished_spans=*/2);
  const SpanId op = t.Begin("op", "app", 0, 0);
  const SpanId a = t.Begin("a", "rdma", 0, 1, op);
  t.End(a, 2);
  t.End(op, 3);
  const SpanId b = t.EmitComplete("b", "net", 0, 4, 5, a);  // a: 1 back
  const SpanId c = t.EmitComplete("c", "net", 0, 6, 7, a);  // 2 back
  const SpanId d = t.EmitComplete("d", "net", 0, 8, 9, a);  // 3 back
  std::map<SpanId, SpanId> root_of;
  for (const SpanRecord& s : t.finished()) root_of[s.id] = s.root;
  EXPECT_EQ(root_of.count(b), 0u);  // evicted by the cap of 2
  EXPECT_EQ(root_of[c], op);
  EXPECT_EQ(root_of[d], d);
}

TEST(TracerTest, CapDropsOldestFinishedSpans) {
  Tracer t(/*max_finished_spans=*/4);
  for (int i = 0; i < 10; ++i) {
    t.EmitComplete("s" + std::to_string(i), "app", 0, i, i + 1);
  }
  EXPECT_EQ(t.finished_count(), 4u);
  EXPECT_EQ(t.dropped_count(), 6u);
  // Survivors are the last window.
  EXPECT_EQ(t.finished().front().name, "s6");
  EXPECT_EQ(t.finished().back().name, "s9");
}

TEST(TracerTest, ChromeJsonHasAsyncPairsAndProcessNames) {
  Tracer t;
  const SpanId root = t.Begin("kv.get", "app", 1, 1500);
  t.EmitComplete("net.flight", "net", 0, 1600, 2600, root);
  t.End(root, 3000);
  const Json doc = ParseJson(t.ToChromeJson({"server", "client"}));
  EXPECT_EQ(doc.Num("droppedSpans"), 0);

  std::map<std::string, int> open;  // async id -> begins minus ends
  std::vector<std::string> begun;
  std::map<double, std::string> processes;  // pid -> name
  for (const Json& ev : doc.Arr("traceEvents")) {
    const std::string& ph = ev.Str("ph");
    if (ph == "M") {
      EXPECT_EQ(ev.Str("name"), "process_name");
      const std::string& name = ev.Require("args").Str("name");
      EXPECT_TRUE(processes.emplace(ev.Num("pid"), name).second);
    } else if (ph == "b") {
      EXPECT_EQ(ev.Require("args").Str("parent"),
                ev.Str("name") == "kv.get" ? "0x0" : "0x1");
      open[ev.Str("id")]++;
      begun.push_back(ev.Str("name"));
    } else {
      ASSERT_EQ(ph, "e");
      open[ev.Str("id")]--;
    }
  }
  for (const auto& [id, n] : open) EXPECT_EQ(n, 0) << "id " << id;
  EXPECT_EQ(open.size(), 1u);  // both spans share their root's async id
  EXPECT_EQ(begun, (std::vector<std::string>{"net.flight", "kv.get"}));
  EXPECT_EQ(processes,
            (std::map<double, std::string>{{0, "server"}, {1, "client"}}));
}

TEST(TracerTest, OpenSpansFlushAsZeroLength) {
  Tracer t;
  t.Begin("stuck", "app", 0, 700);
  const std::string json = t.ToChromeJson();
  EXPECT_NE(json.find("stuck"), std::string::npos);
  EXPECT_EQ(t.open_count(), 1u);  // flushing does not close the span
}

// ---- op accountant ----

TEST(OpAccountantTest, AggregatesPerOpSorted) {
  OpAccountant acc;
  TransportTally one_rt;
  one_rt.round_trips = 1;
  one_rt.messages = 1;
  one_rt.bytes_out = 32;
  one_rt.bytes_in = 512;
  acc.Record("kv.put", one_rt);
  acc.Record("kv.get", one_rt);
  acc.Record("kv.get", one_rt);
  std::vector<OpStats> rows = acc.Collect();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].op, "kv.get");  // sorted by op name
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].totals.round_trips, 2u);
  EXPECT_EQ(rows[0].totals.bytes_in, 1024u);
  EXPECT_EQ(rows[1].op, "kv.put");
  acc.Reset();
  EXPECT_TRUE(acc.empty());
}

TEST(OpAccountantTest, TallyArithmetic) {
  TransportTally a;
  a.round_trips = 3;
  a.messages = 5;
  a.cpu_actions = 2;
  TransportTally b;
  b.round_trips = 1;
  b.messages = 2;
  b.cpu_actions = 2;
  TransportTally d = a - b;
  EXPECT_EQ(d.round_trips, 2u);
  EXPECT_EQ(d.messages, 3u);
  EXPECT_EQ(d.cpu_actions, 0u);
  EXPECT_TRUE(a == b + d);
}

// ---- end-to-end: spans and tallies over real traced operations ----

struct PingReq {
  int x = 0;
};

// One traced RPC call: the client span must parent the server's serve span
// and at least one fabric flight; counting rules give it exactly one
// message, one round trip and one cpu action.
TEST(ObsEndToEndTest, RpcCallSpanTreeAndTally) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  Tracer tracer;
  fabric.obs().SetTracer(&tracer);
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rpc::RpcServer server(&fabric, server_host);
  rpc::RpcClient client(&fabric, client_host);
  server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(PingReq{7}, 64);
  });
  sim::Spawn([&]() -> Task<void> {
    const SpanId op = fabric.obs().StartSpan("app.ping", "app", client_host,
                                             sim.Now(), /*parent=*/0);
    rpc::MessagePtr msg = rpc::Message::Of(PingReq{1}, 32);
    auto resp = co_await client.Call(&server, 1, msg, Ctx{op, nullptr});
    EXPECT_TRUE(resp.ok());
    fabric.obs().FinishSpan(op, sim.Now());
  });
  sim.Run();

  // Index the finished spans by name.
  std::map<std::string, const SpanRecord*> by_name;
  SpanId app_id = 0;
  SpanId call_id = 0;
  for (const SpanRecord& s : tracer.finished()) {
    by_name[s.name] = &s;
    if (s.name == "app.ping") app_id = s.id;
    if (s.name == "rpc.call") call_id = s.id;
  }
  ASSERT_NE(by_name.count("app.ping"), 0u);
  ASSERT_NE(by_name.count("rpc.call"), 0u);
  ASSERT_NE(by_name.count("rpc.serve"), 0u);
  ASSERT_NE(by_name.count("net.flight"), 0u);
  EXPECT_EQ(by_name["rpc.call"]->parent, app_id);
  EXPECT_EQ(by_name["rpc.serve"]->parent, call_id);
  EXPECT_EQ(by_name["rpc.serve"]->host, server_host);
  // Every span of the op belongs to the app.ping causal chain.
  for (const SpanRecord& s : tracer.finished()) {
    EXPECT_EQ(s.root, app_id) << s.name;
  }
  // net.flight spans carry real wire time (closed, positive duration).
  EXPECT_GT(by_name["net.flight"]->end_ns, by_name["net.flight"]->start_ns);

  const TransportTally t = client.tally();
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.round_trips, 1u);
  EXPECT_EQ(t.cpu_actions, 1u);  // RPC always burns server CPU
  EXPECT_GT(t.bytes_out, 0u);
  EXPECT_GT(t.bytes_in, 0u);
}

// Hardware-NIC RDMA read: one round trip, zero cpu actions; the software
// stack charges one cpu action for the same verb. PRISM chains likewise
// charge for software/BlueField but not for projected hardware — the
// Table-1 distinction the accounting exists to surface.
TEST(ObsEndToEndTest, CountingRulesByBackendAndDeployment) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 20);
  auto region = *mem.CarveAndRegister(1 << 16, rdma::kRemoteAll);
  rdma::RdmaService hw(&fabric, server_host, rdma::Backend::kHardwareNic,
                       &mem);
  rdma::RdmaService sw(&fabric, server_host, rdma::Backend::kSoftwareStack,
                       &mem);
  core::PrismServer psw(&fabric, server_host, core::Deployment::kSoftware,
                        &mem);
  core::PrismServer phw(&fabric, server_host,
                        core::Deployment::kHardwareProjected, &mem);
  rdma::RdmaClient rc(&fabric, client_host);
  core::PrismClient pc(&fabric, client_host);
  sim::Spawn([&]() -> Task<void> {
    auto r1 = co_await rc.Read(&hw, region.rkey, region.base, 64);
    EXPECT_TRUE(r1.ok());
    auto r2 = co_await rc.Read(&sw, region.rkey, region.base, 64);
    EXPECT_TRUE(r2.ok());
    auto r3 = co_await pc.ExecuteOne(
        &psw, core::Op::Read(region.rkey, region.base, 64));
    EXPECT_TRUE(r3.ok());
    auto r4 = co_await pc.ExecuteOne(
        &phw, core::Op::Read(region.rkey, region.base, 64));
    EXPECT_TRUE(r4.ok());
  });
  sim.Run();

  const TransportTally rt = rc.tally();
  EXPECT_EQ(rt.messages, 2u);
  EXPECT_EQ(rt.round_trips, 2u);
  EXPECT_EQ(rt.cpu_actions, 1u);  // only the software-stack verb

  const TransportTally pt = pc.tally();
  EXPECT_EQ(pt.messages, 2u);
  EXPECT_EQ(pt.round_trips, 2u);
  EXPECT_EQ(pt.cpu_actions, 1u);  // only the software deployment
}

// The fabric hub registers component metrics: after a traced RPC exchange
// the snapshot carries net totals, per-host counters and sim stats.
TEST(ObsEndToEndTest, FabricSnapshotCarriesCrossLayerMetrics) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rpc::RpcServer server(&fabric, server_host);
  rpc::RpcClient client(&fabric, client_host);
  server.Register(1, [](const rpc::Message&) -> Task<rpc::MessagePtr> {
    co_return rpc::Message::Of(PingReq{0}, 64);
  });
  sim::Spawn([&]() -> Task<void> {
    rpc::MessagePtr msg = rpc::Message::Of(PingReq{1}, 32);
    auto resp = co_await client.Call(&server, 1, msg);
    EXPECT_TRUE(resp.ok());
  });
  sim.Run();

  MetricsSnapshot s = fabric.obs().metrics().Snapshot();
  const MetricValue* total = s.Find("net", "total_messages");
  ASSERT_NE(total, nullptr);
  EXPECT_GE(total->counter, 2u);  // request + response at minimum
  const MetricValue* served = s.Find("rpc", "calls_served", "server");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->counter, 1u);
  const MetricValue* events = s.Find("sim", "executed_events");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->counter, 0u);
  EXPECT_EQ(events->counter, sim.executed_events());
}

}  // namespace
}  // namespace prism::obs
