#include "src/explore/explore.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/common/logging.h"
#include "src/harness/sweep.h"

namespace prism::explore {

namespace {

// SplitMix64-style combine for per-run hook seeds.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1) + 0xbf58476d1ce4e5b9ull * (c + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

ShrinkResult Shrink(const ShrinkRunner& runner,
                    std::vector<Perturbation> initial, int fault_windows) {
  ShrinkResult res;
  res.perturbations = std::move(initial);

  // The recorded decision list must reproduce the violation through a
  // ReplayHook before any minimization — replay fidelity is the invariant
  // the whole shrink rests on.
  RunOutcome witness;
  {
    RunOutcome o = runner(res.perturbations, res.disabled_windows);
    ++res.runs;
    PRISM_CHECK(!o.ok) << "replayed perturbations did not reproduce the "
                          "violation (replay fidelity broken)";
    witness = std::move(o);
  }

  // Greedy perturbation removal to a fixpoint. Singles pass: drop one
  // decision, keep the drop iff the violation persists; scan front-to-back
  // and restart until a full pass removes nothing (1-minimal). Then a pairs
  // pass: perturbations can be entangled — removing either of two decisions
  // alone shifts the schedule enough to mask the bug while removing both
  // still fails — so also try every pair, and on success drop both and
  // return to the singles pass. The result is 2-minimal and deterministic
  // (fixed scan order, first success taken).
  auto shrink_perturbations = [&] {
    for (bool changed = true; changed;) {
      changed = false;
      for (size_t i = 0; i < res.perturbations.size();) {
        std::vector<Perturbation> trial = res.perturbations;
        trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
        RunOutcome o = runner(trial, res.disabled_windows);
        ++res.runs;
        if (!o.ok) {
          res.perturbations = std::move(trial);
          witness = std::move(o);
          changed = true;
        } else {
          ++i;
        }
      }
      if (changed) continue;
      for (size_t i = 0; !changed && i + 1 < res.perturbations.size(); ++i) {
        for (size_t j = i + 1; j < res.perturbations.size(); ++j) {
          std::vector<Perturbation> trial = res.perturbations;
          trial.erase(trial.begin() + static_cast<ptrdiff_t>(j));
          trial.erase(trial.begin() + static_cast<ptrdiff_t>(i));
          RunOutcome o = runner(trial, res.disabled_windows);
          ++res.runs;
          if (!o.ok) {
            res.perturbations = std::move(trial);
            witness = std::move(o);
            changed = true;
            break;
          }
        }
      }
    }
  };
  shrink_perturbations();

  // Fault-schedule minimization at window granularity: disable one
  // surviving window at a time, keep it disabled iff the violation
  // persists. Windows are starts/stop pairs, so the surviving schedule
  // stays balanced (no crash without its restart).
  for (int w = 0; w < fault_windows; ++w) {
    std::vector<int> trial = res.disabled_windows;
    trial.push_back(w);
    RunOutcome o = runner(res.perturbations, trial);
    ++res.runs;
    if (!o.ok) {
      res.disabled_windows = std::move(trial);
      witness = std::move(o);
    }
  }

  // Removing faults can make more perturbations redundant; one more
  // perturbation pass picks those up.
  if (!res.disabled_windows.empty()) shrink_perturbations();

  res.check_name = witness.check_name;
  res.error = witness.error;
  return res;
}

SeedReport ExploreSeed(Workload kind, uint64_t seed,
                       const ExploreOptions& opts) {
  SeedReport rep;
  rep.seed = seed;
  std::optional<std::vector<Perturbation>> first_fail;
  int fault_windows = 0;
  // Step count of the first run, used to place later runs' perturbation
  // bursts. Budget and rate confine each run's perturbations to a window of
  // roughly budget/rate steps starting at the hook offset. Even-indexed
  // runs burst at the prefix (offset 0, where client start-up races
  // cluster); odd-indexed runs slide the burst to a seed-deterministic
  // position in [0, horizon), so races deep in the schedule — e.g. a
  // critical-section handoff thousands of events in — see the same
  // perturbation density as the prefix.
  uint64_t horizon = 0;
  for (int r = 0; r < opts.runs; ++r) {
    uint64_t offset = 0;
    if ((r % 2) == 1 && horizon > 0) {
      offset = MixSeed(opts.explore_seed ^ 0x62757273ull, seed,
                       static_cast<uint64_t>(r)) %
               horizon;
    }
    PerturbHook hook(MixSeed(opts.explore_seed, seed, static_cast<uint64_t>(r)),
                     opts.delta, opts.budget, opts.rate, offset);
    RunOutcome o = RunWorkload({.kind = kind, .seed = seed, .hook = &hook});
    ++rep.runs;
    if (r == 0) horizon = hook.steps();
    if (!o.ok) {
      ++rep.failures;
      if (!first_fail.has_value()) {
        first_fail = hook.applied();
        fault_windows = o.fault_windows;
        rep.check_name = o.check_name;
        rep.error = o.error;
      }
      if (opts.stop_on_failure) break;
    }
  }
  if (first_fail.has_value() && opts.shrink) {
    auto runner = [&](const std::vector<Perturbation>& p,
                      const std::vector<int>& disabled) {
      ReplayHook hook(opts.delta, p);
      return RunWorkload({.kind = kind,
                          .seed = seed,
                          .hook = &hook,
                          .disabled_windows = &disabled});
    };
    ShrinkResult s = Shrink(runner, *first_fail, fault_windows);
    rep.shrink_runs = s.runs;
    rep.check_name = s.check_name;
    rep.error = s.error;
    Reproducer repro;
    repro.kind = kind;
    repro.seed = seed;
    repro.delta = opts.delta;
    repro.perturbations = std::move(s.perturbations);
    repro.disabled_windows = std::move(s.disabled_windows);
    repro.check_name = s.check_name;
    rep.repro = std::move(repro);
  }
  return rep;
}

SweepReport ExploreSweep(Workload kind, const std::vector<uint64_t>& seeds,
                         const ExploreOptions& opts, int jobs) {
  std::vector<harness::SweepPoint<SeedReport>> points;
  points.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    points.push_back([kind, seed, opts] { return ExploreSeed(kind, seed, opts); });
  }
  harness::SweepOptions sopts;
  sopts.jobs = jobs;
  SweepReport report;
  report.reports = harness::RunSweep(points, sopts);
  report.seeds = static_cast<int>(seeds.size());
  for (const SeedReport& r : report.reports) {
    report.total_runs += r.runs + r.shrink_runs;
    if (r.failures > 0) ++report.failing_seeds;
  }
  return report;
}

RunOutcome ReplayReproducer(const Reproducer& repro) {
  ReplayHook hook(repro.delta, repro.perturbations);
  return RunWorkload({.kind = repro.kind,
                      .seed = repro.seed,
                      .hook = &hook,
                      .disabled_windows = &repro.disabled_windows});
}

std::string FormatReproducer(const Reproducer& repro) {
  std::ostringstream os;
  os << "prism-explore v1\n";
  os << "workload " << WorkloadName(repro.kind) << "\n";
  os << "seed " << repro.seed << "\n";
  os << "delta " << repro.delta << "\n";
  if (!repro.check_name.empty()) os << "check " << repro.check_name << "\n";
  for (int w : repro.disabled_windows) os << "disable-window " << w << "\n";
  for (const Perturbation& p : repro.perturbations) {
    os << "perturb " << p.step << " " << p.choice << "\n";
  }
  return os.str();
}

bool ParseReproducer(const std::string& text, Reproducer* out,
                     std::string* error) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "prism-explore v1") {
    if (error != nullptr) *error = "missing 'prism-explore v1' header";
    return false;
  }
  Reproducer repro;
  int lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string directive;
    ls >> directive;
    bool ok = true;
    if (directive == "workload") {
      std::string name;
      ls >> name;
      ok = !ls.fail() && WorkloadFromName(name, &repro.kind);
    } else if (directive == "seed") {
      ls >> repro.seed;
      ok = !ls.fail();
    } else if (directive == "delta") {
      ls >> repro.delta;
      ok = !ls.fail() && repro.delta >= 0;
    } else if (directive == "check") {
      ls >> repro.check_name;
      ok = !ls.fail();
    } else if (directive == "disable-window") {
      int w = -1;
      ls >> w;
      ok = !ls.fail() && w >= 0;
      if (ok) repro.disabled_windows.push_back(w);
    } else if (directive == "perturb") {
      Perturbation p;
      ls >> p.step >> p.choice;
      ok = !ls.fail();
      ok = ok && (repro.perturbations.empty() ||
                  repro.perturbations.back().step < p.step);
      if (ok) repro.perturbations.push_back(p);
    } else {
      ok = false;
    }
    if (!ok) {
      if (error != nullptr) {
        *error = "bad directive at line " + std::to_string(lineno) + ": " + line;
      }
      return false;
    }
  }
  *out = std::move(repro);
  return true;
}

bool SaveReproducerFile(const std::string& path, const Reproducer& repro,
                        std::string* error) {
  std::ofstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  f << FormatReproducer(repro);
  f.close();
  if (!f) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool LoadReproducerFile(const std::string& path, Reproducer* out,
                        std::string* error) {
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseReproducer(buf.str(), out, error);
}

}  // namespace prism::explore
