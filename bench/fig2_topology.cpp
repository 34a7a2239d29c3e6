// Figure 2: indirect read latency vs network scale.
//
// Compares two chained RDMA READs (the only way to follow a pointer with
// the standard interface) against one PRISM indirect READ under the paper's
// three synthetic network tiers: rack (one ToR, 0.6 µs), cluster (three-tier
// network, 3 µs) and data center (reported RDMA latency, 24 µs).
//
// Paper shape: PRISM SW beats 2×RDMA at every tier — the deeper the
// network, the bigger the win — and even the BlueField wins once
// propagation dominates processing.
//
// Each (tier, deployment) cell is an independent simulation fanned out
// through the parallel sweep runner (--jobs=N).
#include <cstdio>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/harness/sweep.h"
#include "src/obs/timeline.h"
#include "src/prism/service.h"
#include "src/rdma/service.h"

namespace prism {
namespace {

using core::Deployment;
using core::Op;
using sim::Task;
using sim::ToMicros;

constexpr uint64_t kValue = 512;

struct Tier {
  const char* name;
  net::CostModel model;
};

// Times one `name` op that `client` issues from `client_host`: a root
// span, an op timeline when the point is traced (born directly in app, no
// backlog), the op body `op(ctx)` run under both, and the op's complexity
// row. Returns the point's row, its latency in every percentile.
template <typename Client, typename OpBody>
workload::LoadPoint MeasureOp(net::Fabric& fabric, net::HostId client_host,
                              Client& client, const char* name,
                              obs::PointObs* pobs, const OpBody& op) {
  sim::Simulator& sim = *fabric.sim();
  double us = 0;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim.Now();
    const obs::SpanId span = fabric.obs().StartSpan(
        name, "app", client_host, sim.Now(), /*parent=*/0);
    obs::OpTimeline* tl = nullptr;
    if (pobs != nullptr && pobs->timelines != nullptr) {
      obs::TimelineStore* st = pobs->timelines;
      tl = st->StartOp(st->EnsureClass(name), sim.Now());
      tl->Switch(obs::Phase::kApp, sim.Now());
      tl->set_root_span(span);
    }
    co_await op(obs::Ctx{span, tl});
    fabric.obs().FinishSpan(span, sim.Now());
    if (tl != nullptr) pobs->timelines->FinishOp(tl, sim.Now());
    fabric.obs().ops().Record(name, client.tally());
    us = ToMicros(sim.Now() - start);
  });
  sim.Run();
  workload::LoadPoint pt;
  pt.clients = 1;
  pt.mean_us = pt.p50_us = pt.p99_us = pt.p999_us = us;
  pt.sim_events = sim.executed_events();
  pt.ops = fabric.obs().ops().Collect();
  bench::HarvestPointObs(fabric, pobs);
  return pt;
}

workload::LoadPoint MeasureRdma2Reads(const net::CostModel& model,
                                      obs::PointObs* pobs) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, model);
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
  net::HostId server = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 21);
  auto region = *mem.CarveAndRegister(1 << 20, rdma::kRemoteAll);
  mem.StoreWord(region.base, region.base + 1024);
  mem.Store(region.base + 1024, Bytes(kValue, 1));
  rdma::RdmaService service(&fabric, server, rdma::Backend::kHardwareNic,
                            &mem);
  rdma::RdmaClient client(&fabric, client_host);
  return MeasureOp(fabric, client_host, client, "rdma.2reads", pobs,
                   [&](obs::Ctx ctx) -> Task<void> {
                     auto p = co_await client.Read(&service, region.rkey,
                                                   region.base, 8, ctx);
                     PRISM_CHECK(p.ok());
                     auto r = co_await client.Read(&service, region.rkey,
                                                   LoadU64(p->data()), kValue,
                                                   ctx);
                     PRISM_CHECK(r.ok());
                   });
}

workload::LoadPoint MeasurePrismIndirect(const net::CostModel& model,
                                         Deployment deployment,
                                         obs::PointObs* pobs) {
  sim::Simulator sim;
  net::Fabric fabric(&sim, model);
  if (pobs != nullptr) fabric.AttachTracer(pobs->tracer);
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");
  rdma::AddressSpace mem(1 << 21);
  core::PrismServer server(&fabric, server_host, deployment, &mem);
  auto region = *mem.CarveAndRegister(1 << 20, rdma::kRemoteAll);
  mem.StoreWord(region.base, region.base + 1024);
  mem.Store(region.base + 1024, Bytes(kValue, 1));
  core::PrismClient client(&fabric, client_host);
  return MeasureOp(fabric, client_host, client, "prism.indirect_read", pobs,
                   [&](obs::Ctx ctx) -> Task<void> {
                     auto r = co_await client.ExecuteOne(
                         &server,
                         Op::IndirectRead(region.rkey, region.base, kValue),
                         ctx);
                     PRISM_CHECK(r.ok());
                     PRISM_CHECK(r->status.ok());
                   });
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  using namespace prism;
  Tier tiers[] = {
      {"Rack (ToR, +0.6us)", net::CostModel::RackScale()},
      {"Cluster (3-tier, +3us)", net::CostModel::ClusterScale()},
      {"Data Center (+24us)", net::CostModel::DataCenterScale()},
  };
  const bench::ObsOptions obs_opts = bench::ObsFromArgs(argc, argv);
  bench::ObsRig rig(obs_opts, 12);
  std::vector<bench::SweepCell> cells;
  size_t slot = 0;
  for (size_t t = 0; t < 3; ++t) {
    const net::CostModel model = tiers[t].model;
    const double x = static_cast<double>(t);
    obs::PointObs* po_rdma = rig.at(slot++);
    cells.push_back(
        {"2x RDMA", [=] { return MeasureRdma2Reads(model, po_rdma); }, x});
    obs::PointObs* po_sw = rig.at(slot++);
    cells.push_back({"PRISM SW", [=] {
                       return MeasurePrismIndirect(
                           model, core::Deployment::kSoftware, po_sw);
                     },
                     x});
    obs::PointObs* po_bf = rig.at(slot++);
    cells.push_back({"PRISM BlueField", [=] {
                       return MeasurePrismIndirect(
                           model, core::Deployment::kBlueField, po_bf);
                     },
                     x});
    obs::PointObs* po_hw = rig.at(slot++);
    cells.push_back({"PRISM HW proj", [=] {
                       return MeasurePrismIndirect(
                           model, core::Deployment::kHardwareProjected,
                           po_hw);
                     },
                     x});
  }
  bench::FigureReporter reporter(
      "fig2_topology", "Figure 2: indirect read latency vs network scale");
  std::vector<workload::LoadPoint> rows = bench::RunFigureSweep(
      reporter, cells, harness::JobsFromArgs(argc, argv));
  std::printf(
      "== Figure 2: indirect read latency vs network scale (512 B) ==\n");
  std::printf("%-26s %12s %14s %18s %20s\n", "tier", "2x RDMA(us)",
              "PRISM SW(us)", "PRISM BlueField(us)", "PRISM HW proj(us)");
  for (size_t t = 0; t < 3; ++t) {
    std::printf("%-26s %12.1f %14.1f %18.1f %20.1f\n", tiers[t].name,
                rows[4 * t].mean_us, rows[4 * t + 1].mean_us,
                rows[4 * t + 2].mean_us, rows[4 * t + 3].mean_us);
  }
  reporter.WriteUnified();
  rig.Finish("fig2_topology", cells);
  return 0;
}
