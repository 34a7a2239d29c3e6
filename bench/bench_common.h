// Shared scaffolding for the figure-reproduction benchmarks: windows,
// client sweep, client hosts, observability flags and key encoding.
//
// Methodology (matching §5): closed-loop clients spread across up to 11
// client hosts (the paper's machine count), a warmup window discarded, and
// a measurement window over which completions and latencies are recorded.
// Sweeping the client count traces the throughput–latency curves. One
// sweep point, closed or open loop, is a bench::Point (bench/point.h).
//
// Scale substitution (see DESIGN.md §1): object count is reduced from the
// paper's 8 M to a fixed 65,536 keys (8,192 in fast mode; BenchKeyCount()
// in kv_bench_lib.h). No flag sets it yet; a --keys flag is ROADMAP item 2.
// Access distributions and object sizes are identical. Env var
// PRISM_BENCH_FAST=1 shrinks windows further for smoke runs.
#ifndef PRISM_BENCH_BENCH_COMMON_H_
#define PRISM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/net/fabric.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"
#include "src/workload/zipf.h"

namespace prism::bench {

inline bool FastMode() {
  const char* v = std::getenv("PRISM_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

struct BenchWindows {
  sim::Duration warmup = sim::Millis(0.5);
  sim::Duration measure = sim::Millis(3.0);

  static BenchWindows Default() {
    BenchWindows w;
    if (FastMode()) {
      w.warmup = sim::Millis(0.2);
      w.measure = sim::Millis(1.0);
    }
    return w;
  }
};

inline std::vector<int> DefaultClientSweep() {
  if (FastMode()) return {1, 8, 32, 96};
  return {1, 2, 4, 8, 16, 32, 48, 64, 96, 128, 192, 256};
}

// The paper's testbed: up to 11 client machines (§6.2). Client tasks are
// round-robined over these hosts so client-side link bandwidth is shared
// realistically.
constexpr int kClientHosts = 11;

inline std::vector<net::HostId> AddClientHosts(net::Fabric& fabric) {
  std::vector<net::HostId> hosts;
  for (int i = 0; i < kClientHosts; ++i) {
    hosts.push_back(fabric.AddHost("client-host-" + std::to_string(i)));
  }
  return hosts;
}

// Fills a point's observability slot once the point has run: the host
// labels for the trace writer when a tracer is attached, and the metrics
// snapshot when asked for.
inline void HarvestPointObs(net::Fabric& fabric, obs::PointObs* pobs) {
  if (pobs == nullptr) return;
  if (pobs->tracer != nullptr) pobs->host_names = fabric.HostNames();
  if (pobs->want_metrics) pobs->snapshot = fabric.obs().metrics().Snapshot();
}

// Observability flags shared by every figure driver (and the chaos
// harness): --trace=PATH attaches a span tracer to one sweep cell and
// writes Chrome trace-event JSON there; --metrics dumps a per-point
// metrics-registry snapshot to results/METRICS_<bench>.json. Both are off
// by default and — by construction, asserted in obs_determinism_test —
// perturb neither the (when,seq) event replay nor any bench output.
struct ObsOptions {
  std::string trace_path;  // empty = tracing off
  bool metrics = false;

  bool enabled() const { return metrics || !trace_path.empty(); }
};

inline ObsOptions ObsFromArgs(int argc, char** argv) {
  ObsOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--trace=", 0) == 0) {
      o.trace_path = std::string(arg.substr(8));
    } else if (arg == "--metrics") {
      o.metrics = true;
    }
  }
  return o;
}

// 8-byte dense key encoding used by all benches (the paper's 8-byte keys).
inline std::string KeyOf(uint64_t i) {
  std::string k(8, '\0');
  prism::StoreU64(reinterpret_cast<uint8_t*>(k.data()), i);
  return k;
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_BENCH_COMMON_H_
