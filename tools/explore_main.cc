// prism-explore: schedule-space exploration driver.
//
// Explore mode (default): run every seed of a workload through N perturbed
// schedules, shrink the first violation per seed, and print a report.
//
//   explore_main --workload=toy --seeds=100 --explore=8 --delta=1000
//                --budget=8 --jobs=0 --repro-out=repro.txt
//
//   --workload=NAME           target stack (default toy): toy|rs|kv|tx, a
//                             sync scheme — sync_spin|sync_opt|sync_lease|
//                             sync_prism|sync_buggy (src/sync) — or the
//                             consensus log: consensus|consensus_buggy
//                             (src/consensus)
//   --seeds=N                 sweep workload seeds 1..N (default 20)
//   --seed=N                  explore exactly one seed
//   --explore=N               perturbed runs per seed (default: the
//                             workload's DefaultRuns — 8 for toy/rs/kv/tx/
//                             consensus, 32 for the sync schemes and 128 for
//                             consensus_buggy, whose races need more burst
//                             positions)
//   --delta=NS                enabled-window width in ns (default: the
//                             workload's DefaultDelta — 1000 for toy/rs/kv/
//                             tx/consensus, 2000 for the sync schemes and
//                             consensus_buggy)
//   --budget=N                max reorder decisions per run (default 8)
//   --rate=P                  per-step perturbation probability (default 0.3)
//   --jobs=N                  sweep worker threads (default: all cores)
//   --no-shrink               skip counterexample minimization
//   --repro-out=FILE          write the first minimized reproducer to FILE
//
// Replay mode: re-execute a reproducer artifact and report whether the
// recorded violation still reproduces.
//
//   explore_main --replay=repro.txt
//
// Exit codes: 0 = explored clean (or replay reproduced the violation),
// 1 = exploration found violations, 2 = replay did NOT reproduce,
// 64 = usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/explore/explore.h"
#include "src/harness/sweep.h"

namespace {

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prism;

  explore::Workload kind = explore::Workload::kToy;
  uint64_t n_seeds = 20;
  int64_t single_seed = -1;
  explore::ExploreOptions opts;
  opts.stop_on_failure = true;
  bool delta_set = false;
  bool runs_set = false;
  int jobs = 0;
  std::string repro_out;
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) {
      return arg.substr(std::string(prefix).size());
    };
    uint64_t u = 0;
    if (arg.rfind("--workload=", 0) == 0) {
      if (!explore::WorkloadFromName(value("--workload="), &kind)) {
        std::fprintf(stderr, "unknown workload: %s\n", arg.c_str());
        return 64;
      }
    } else if (arg.rfind("--seeds=", 0) == 0 && ParseU64(value("--seeds="), &u)) {
      n_seeds = u;
    } else if (arg.rfind("--seed=", 0) == 0 && ParseU64(value("--seed="), &u)) {
      single_seed = static_cast<int64_t>(u);
    } else if (arg.rfind("--explore=", 0) == 0 &&
               ParseU64(value("--explore="), &u)) {
      opts.runs = static_cast<int>(u);
      runs_set = true;
    } else if (arg.rfind("--delta=", 0) == 0 && ParseU64(value("--delta="), &u)) {
      opts.delta = static_cast<prism::sim::Duration>(u);
      delta_set = true;
    } else if (arg.rfind("--budget=", 0) == 0 &&
               ParseU64(value("--budget="), &u)) {
      opts.budget = static_cast<int>(u);
    } else if (arg.rfind("--rate=", 0) == 0) {
      opts.rate = std::atof(value("--rate=").c_str());
    } else if (arg.rfind("--jobs=", 0) == 0 && ParseU64(value("--jobs="), &u)) {
      jobs = static_cast<int>(u);
    } else if (arg == "--no-shrink") {
      opts.shrink = false;
    } else if (arg.rfind("--repro-out=", 0) == 0) {
      repro_out = value("--repro-out=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      replay_path = value("--replay=");
    } else {
      std::fprintf(stderr, "unrecognized argument: %s\n", arg.c_str());
      return 64;
    }
  }

  // ---- replay mode ----
  if (!replay_path.empty()) {
    explore::Reproducer repro;
    std::string err;
    if (!explore::LoadReproducerFile(replay_path, &repro, &err)) {
      std::fprintf(stderr, "cannot load reproducer: %s\n", err.c_str());
      return 64;
    }
    std::printf("replaying %s: workload=%s seed=%llu delta=%lld "
                "perturbations=%zu disabled-windows=%zu\n",
                replay_path.c_str(), explore::WorkloadName(repro.kind),
                static_cast<unsigned long long>(repro.seed),
                static_cast<long long>(repro.delta),
                repro.perturbations.size(), repro.disabled_windows.size());
    explore::RunOutcome o = explore::ReplayReproducer(repro);
    if (!o.ok) {
      std::printf("violation reproduced (%s):\n%s\n", o.check_name.c_str(),
                  o.error.c_str());
      return 0;
    }
    std::printf("violation did NOT reproduce\n");
    return 2;
  }

  // ---- explore mode ----
  if (!delta_set) opts.delta = explore::DefaultDelta(kind);
  if (!runs_set) opts.runs = explore::DefaultRuns(kind);
  std::vector<uint64_t> seeds;
  if (single_seed >= 0) {
    seeds.push_back(static_cast<uint64_t>(single_seed));
  } else {
    for (uint64_t s = 1; s <= n_seeds; ++s) seeds.push_back(s);
  }
  std::printf("exploring workload=%s seeds=%zu runs/seed=%d delta=%lld "
              "budget=%d rate=%.2f jobs=%d\n",
              explore::WorkloadName(kind), seeds.size(), opts.runs,
              static_cast<long long>(opts.delta), opts.budget, opts.rate,
              jobs > 0 ? jobs : harness::DefaultJobs());

  explore::SweepReport report = explore::ExploreSweep(kind, seeds, opts, jobs);

  bool wrote_repro = false;
  for (const explore::SeedReport& r : report.reports) {
    if (r.failures == 0) continue;
    std::printf("\nseed %llu: %d/%d runs violated %s",
                static_cast<unsigned long long>(r.seed), r.failures, r.runs,
                r.check_name.c_str());
    if (r.repro.has_value()) {
      std::printf(" — shrunk to %zu perturbations, %zu disabled windows "
                  "(%d shrink runs)",
                  r.repro->perturbations.size(),
                  r.repro->disabled_windows.size(), r.shrink_runs);
    }
    std::printf("\n%s\n", r.error.c_str());
    if (r.repro.has_value()) {
      std::printf("reproducer:\n%s",
                  explore::FormatReproducer(*r.repro).c_str());
      if (!repro_out.empty() && !wrote_repro) {
        std::string err;
        if (explore::SaveReproducerFile(repro_out, *r.repro, &err)) {
          std::printf("reproducer written to %s — replay with "
                      "--replay=%s\n",
                      repro_out.c_str(), repro_out.c_str());
          wrote_repro = true;
        } else {
          std::fprintf(stderr, "%s\n", err.c_str());
        }
      }
    }
  }

  std::printf("\n%d/%d seeds clean, %d total runs\n",
              report.seeds - report.failing_seeds, report.seeds,
              report.total_runs);
  return report.failing_seeds > 0 ? 1 : 0;
}
