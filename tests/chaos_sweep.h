// The 100-seed chaos sweep shared by chaos_test and consensus_test: one
// registered stack (src/explore/workloads.h) at its sweep size, seeds
// 1..100, through the same runner and checkers the explorer uses —
// linearizability or read-committed, consensus log safety, and the
// final-state oracle.
//
// Each seed is an independent single-threaded simulation, so the sweep fans
// out across the harness thread pool (--jobs=N, default all cores). Seeds
// run on worker threads and return plain data; every gtest assertion
// happens afterwards on the main thread, in seed order, so pass/fail and
// output are identical for any job count. A --seed=N replay is a one-point
// sweep, which the harness runs inline on the main thread.
#ifndef PRISM_TESTS_CHAOS_SWEEP_H_
#define PRISM_TESTS_CHAOS_SWEEP_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/explore/workloads.h"
#include "src/harness/sweep.h"
#include "src/obs/trace.h"

namespace prism::chaos_sweep {

struct Flags {
  int64_t replay_seed = -1;  // --seed=N: replay one seed instead of sweeping
  int jobs = 0;              // --jobs=N: worker threads (0 = DefaultJobs())
  // --trace=<path> / --metrics: each seed runs with its own tracer (worker
  // threads never share obs state); the dump is written only for a failing
  // seed — or unconditionally in --seed=N replay — so the sweep stays cheap
  // and its pass/fail output unchanged.
  std::string trace_path;
  bool metrics = false;
};

struct SeedRun {
  explore::RunOutcome outcome;
  std::string metrics;     // --metrics: snapshot text (failure or replay)
  std::string trace_path;  // --trace: where this seed's trace was written
};

inline SeedRun RunSeed(explore::Workload kind, uint64_t seed,
                       const Flags& flags) {
  obs::Tracer tracer;
  obs::PointObs pobs;
  if (!flags.trace_path.empty()) pobs.tracer = &tracer;
  pobs.want_metrics = flags.metrics;
  SeedRun r;
  r.outcome = explore::RunWorkload({.kind = kind,
                                    .seed = seed,
                                    .size = explore::Size::kSweep,
                                    .obs = &pobs});
  if (r.outcome.ok && flags.replay_seed < 0) return r;
  if (flags.metrics) r.metrics = pobs.snapshot.ToText();
  if (pobs.tracer != nullptr) {
    std::string path = flags.trace_path;
    const std::string kExt = ".json";
    if (path.size() >= kExt.size() &&
        path.compare(path.size() - kExt.size(), kExt.size(), kExt) == 0) {
      path.resize(path.size() - kExt.size());
    }
    path += ".seed" + std::to_string(seed) + ".json";
    if (tracer.WriteChromeJson(path, pobs.host_names)) r.trace_path = path;
  }
  return r;
}

struct Totals {
  int faults = 0;
  uint64_t failovers = 0;
  uint64_t ok_ops = 0;
};

// Sweeps `kind` from the running test and asserts every seed's verdict,
// stopping at the first failing seed, which prints its fault schedule and
// the command that replays it: `binary --seed=N --gtest_filter=<this test>`.
inline Totals Sweep(explore::Workload kind, const Flags& flags,
                    const char* binary) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::vector<uint64_t> seeds;
  if (flags.replay_seed >= 0) {
    seeds.push_back(static_cast<uint64_t>(flags.replay_seed));
  } else {
    for (uint64_t s = 1; s <= 100; ++s) seeds.push_back(s);
  }
  std::vector<harness::SweepPoint<SeedRun>> points;
  for (uint64_t seed : seeds) {
    points.push_back(
        [kind, seed, flags] { return RunSeed(kind, seed, flags); });
  }
  const std::vector<SeedRun> runs =
      harness::RunSweep(points, harness::SweepOptions{flags.jobs});
  Totals totals;
  for (size_t i = 0; i < seeds.size(); ++i) {
    const SeedRun& r = runs[i];
    totals.faults += r.outcome.faults_injected;
    totals.failovers += r.outcome.failovers;
    totals.ok_ops += r.outcome.ok_ops;
    if (r.outcome.ok) continue;
    std::ostringstream banner;
    banner << explore::WorkloadName(kind) << " chaos seed " << seeds[i]
           << " — replay with:\n    " << binary << " --seed=" << seeds[i]
           << " --gtest_filter=" << test->test_suite_name() << "."
           << test->name() << "\n"
           << r.outcome.fault_schedule << "\n";
    if (!r.trace_path.empty()) {
      banner << "trace written to " << r.trace_path << "\n";
    }
    if (!r.metrics.empty()) banner << "metrics at failure:\n" << r.metrics;
    ADD_FAILURE() << banner.str() << r.outcome.check_name << ": "
                  << r.outcome.error;
    break;
  }
  // The sweep must actually exercise faults, not a quiet network.
  if (flags.replay_seed < 0) {
    EXPECT_GT(totals.faults, 100);
  }
  return totals;
}

}  // namespace prism::chaos_sweep

#endif  // PRISM_TESTS_CHAOS_SWEEP_H_
