// Deterministic parallel sweep execution.
//
// Every experiment in this repo — the bench/ figure drivers, the chaos
// seed sweeps, the soak and property tests — is a set of *independent*
// simulations: each sweep point builds its own Simulator, Fabric, RNGs and
// workload, runs to completion, and reduces to a small result struct. The
// SweepRunner exploits exactly that independence (the SimBricks recipe):
// orthogonal simulator instances run concurrently on a fixed thread pool
// while each instance stays internally single-threaded and deterministic.
//
// Determinism contract: results are collected into a point-index-ordered
// vector, every point is always attempted, and a point's computation never
// observes anything outside its own factory closure. Output is therefore
// bit-identical for any job count, and --jobs=1 executes the points inline
// on the calling thread in index order — byte-identical to the historical
// serial loops.
//
// Failure contract: a throwing point fails *that point* (the exception is
// captured into its slot); the pool drains the remaining points and joins
// normally, so one bad seed cannot deadlock or poison a sweep. RunSweep()
// rethrows the lowest-index captured exception after the join; callers that
// want per-point outcomes use RunSweepNoThrow().
#ifndef PRISM_SRC_HARNESS_SWEEP_H_
#define PRISM_SRC_HARNESS_SWEEP_H_

#include <atomic>
#include <cstdlib>
#include <exception>

#include "src/common/logging.h"
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace prism::harness {

// Worker count resolution: PRISM_JOBS env var if set and positive, else
// std::thread::hardware_concurrency() (minimum 1). Command-line --jobs=N
// (see JobsFromArgs) takes precedence over both.
inline int DefaultJobs() {
  if (const char* env = std::getenv("PRISM_JOBS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Parses --jobs=N (or -j N / -jN is NOT supported; keep one spelling) out
// of argv. Unrecognized arguments are left alone so gtest/benchmark flags
// pass through. Returns DefaultJobs() when the flag is absent.
inline int JobsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0) {
      const int n = std::atoi(arg.c_str() + 7);
      if (n > 0) return n;
    }
  }
  return DefaultJobs();
}

struct SweepOptions {
  int jobs = 0;  // <= 0 resolves to DefaultJobs()

  // Optional early-stop token (RunSweepNoThrow only): a worker observing
  // `cancel` true stops claiming points; already-started points run to
  // completion. Unstarted points come back with neither value nor error
  // (PointResult::skipped()). The schedule-space explorer uses this to cut
  // a long sweep short once a counterexample is in hand; note that WHICH
  // points get skipped depends on timing and job count, so deterministic
  // callers must leave it null.
  const std::atomic<bool>* cancel = nullptr;
};

// Outcome slot for one sweep point: value, error, or skipped (the sweep was
// cancelled before the point started) once the sweep returns.
template <typename R>
struct PointResult {
  std::optional<R> value;
  std::exception_ptr error;

  bool ok() const { return value.has_value(); }
  bool skipped() const { return !value.has_value() && error == nullptr; }
};

// A sweep point: a self-contained factory that builds its simulation, runs
// it, and returns the extracted result. It must not touch state shared with
// other points (the per-point Simulator, Fabric, Rngs, histograms and any
// output buffers all live inside the closure).
template <typename R>
using SweepPoint = std::function<R()>;

template <typename R>
std::vector<PointResult<R>> RunSweepNoThrow(
    const std::vector<SweepPoint<R>>& points, const SweepOptions& opts = {}) {
  const size_t n = points.size();
  std::vector<PointResult<R>> results(n);
  auto run_point = [&](size_t i) {
    try {
      results[i].value.emplace(points[i]());
    } catch (...) {
      results[i].error = std::current_exception();
    }
  };

  auto cancelled = [&] {
    return opts.cancel != nullptr &&
           opts.cancel->load(std::memory_order_relaxed);
  };

  int jobs = opts.jobs > 0 ? opts.jobs : DefaultJobs();
  if (static_cast<size_t>(jobs) > n) jobs = static_cast<int>(n);
  if (jobs <= 1) {
    // Serial lane: inline, in index order, on the calling thread — exactly
    // the historical `for (point : sweep)` loop.
    for (size_t i = 0; i < n && !cancelled(); ++i) run_point(i);
    return results;
  }

  // Fixed pool: `jobs` workers pull the next unclaimed index. Each result
  // lands in its own pre-sized slot, so no synchronization beyond the
  // ticket counter and the joins is needed, and order is index order by
  // construction no matter which worker ran which point.
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(jobs));
  for (int w = 0; w < jobs; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        if (cancelled()) return;
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        run_point(i);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return results;
}

// Runs all points, then rethrows the lowest-index failure (if any). The
// rethrow happens after every point has been attempted and the pool has
// joined, so the surviving results are complete and the choice of failing
// exception is deterministic across job counts.
template <typename R>
std::vector<R> RunSweep(const std::vector<SweepPoint<R>>& points,
                        const SweepOptions& opts = {}) {
  PRISM_CHECK(opts.cancel == nullptr)
      << "cancel tokens require RunSweepNoThrow (skipped slots have no R)";
  std::vector<PointResult<R>> raw = RunSweepNoThrow(points, opts);
  std::vector<R> out;
  out.reserve(raw.size());
  for (PointResult<R>& r : raw) {
    if (r.error) std::rethrow_exception(r.error);
    out.push_back(std::move(*r.value));
  }
  return out;
}

// Convenience wrapper carrying a fixed job count, for call sites that
// resolve --jobs once and fan several sweeps through it.
class SweepRunner {
 public:
  explicit SweepRunner(int jobs = 0) { opts_.jobs = jobs; }
  explicit SweepRunner(const SweepOptions& opts) : opts_(opts) {}

  int jobs() const {
    return opts_.jobs > 0 ? opts_.jobs : DefaultJobs();
  }

  template <typename R>
  std::vector<R> Run(const std::vector<SweepPoint<R>>& points) const {
    return RunSweep(points, opts_);
  }

  template <typename R>
  std::vector<PointResult<R>> RunNoThrow(
      const std::vector<SweepPoint<R>>& points) const {
    return RunSweepNoThrow(points, opts_);
  }

 private:
  SweepOptions opts_;
};

}  // namespace prism::harness

#endif  // PRISM_SRC_HARNESS_SWEEP_H_
