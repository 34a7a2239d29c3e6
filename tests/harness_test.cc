// Tests for the parallel sweep harness (src/harness/sweep.h).
//
// The contract under test: a sweep over N self-contained points produces a
// result vector that is bit-identical for ANY job count — jobs=1 runs the
// points inline in index order (exact serial reproduction), jobs>1 fans
// them across a fixed thread pool with results landing in pre-sized
// index-addressed slots. Errors are captured per point and rethrown (the
// lowest-index one) only after the pool has joined, so a throwing point
// can never deadlock or poison its neighbours.
#include "src/harness/sweep.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace prism {
namespace {

// A miniature but real simulation: seeded rng drives a few coroutines that
// sleep and accumulate. Deterministic per seed; any cross-point leakage or
// result misplacement changes the fingerprint.
uint64_t SimFingerprint(uint64_t seed) {
  sim::Simulator sim;
  Rng rng(seed);
  uint64_t acc = seed * 0x9E3779B97F4A7C15ull;
  for (int c = 0; c < 3; ++c) {
    sim::Spawn([&, c]() -> sim::Task<void> {
      for (int i = 0; i < 8; ++i) {
        co_await sim::SleepFor(&sim, sim::Micros(rng.NextInRange(1, 50)));
        acc = acc * 6364136223846793005ull +
              static_cast<uint64_t>(sim.Now()) + static_cast<uint64_t>(c);
      }
    });
  }
  sim.Run();
  return acc ^ sim.executed_events();
}

std::vector<harness::SweepPoint<uint64_t>> FingerprintPoints(int n) {
  std::vector<harness::SweepPoint<uint64_t>> points;
  for (int i = 0; i < n; ++i) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(i);
    points.push_back([seed] { return SimFingerprint(seed); });
  }
  return points;
}

TEST(SweepHarnessTest, BitIdenticalAcrossJobCounts) {
  const auto points = FingerprintPoints(23);
  const std::vector<uint64_t> serial =
      harness::RunSweep(points, harness::SweepOptions{1});
  ASSERT_EQ(serial.size(), points.size());
  for (int jobs : {2, 8}) {
    const std::vector<uint64_t> parallel =
        harness::RunSweep(points, harness::SweepOptions{jobs});
    EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
  }
}

TEST(SweepHarnessTest, ResultsAreInPointIndexOrder) {
  // Each point returns its own index; the output must be 0..N-1 regardless
  // of which worker ran which point or in what order they finished.
  std::vector<harness::SweepPoint<int>> points;
  for (int i = 0; i < 64; ++i) {
    points.push_back([i] { return i; });
  }
  for (int jobs : {1, 2, 8}) {
    const std::vector<int> out =
        harness::RunSweep(points, harness::SweepOptions{jobs});
    ASSERT_EQ(out.size(), points.size());
    for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], i) << "jobs=" << jobs;
  }
}

TEST(SweepHarnessTest, ThrowingPointFailsWithoutDeadlock) {
  // One poisoned point among many; the sweep must join the pool, run every
  // other point to completion, and rethrow the failure.
  for (int jobs : {1, 2, 8}) {
    std::atomic<int> completed{0};
    std::vector<harness::SweepPoint<int>> points;
    for (int i = 0; i < 16; ++i) {
      if (i == 5) {
        points.push_back([]() -> int {
          throw std::runtime_error("poisoned point");
        });
      } else {
        points.push_back([i, &completed] {
          completed.fetch_add(1);
          return i;
        });
      }
    }
    EXPECT_THROW(harness::RunSweep(points, harness::SweepOptions{jobs}),
                 std::runtime_error)
        << "jobs=" << jobs;
    EXPECT_EQ(completed.load(), 15) << "jobs=" << jobs;
  }
}

TEST(SweepHarnessTest, NoThrowVariantReportsPerPointErrors) {
  std::vector<harness::SweepPoint<int>> points = {
      [] { return 7; },
      []() -> int { throw std::runtime_error("bad point"); },
      [] { return 9; },
  };
  const auto results =
      harness::RunSweepNoThrow(points, harness::SweepOptions{2});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_EQ(*results[0].value, 7);
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[1].error != nullptr);
  try {
    std::rethrow_exception(results[1].error);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "bad point");
  }
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(*results[2].value, 9);
}

TEST(SweepHarnessTest, RethrowsLowestIndexFailure) {
  // Two failures; RunSweep must surface the lowest-index one so replay
  // instructions are deterministic.
  std::vector<harness::SweepPoint<int>> points;
  for (int i = 0; i < 12; ++i) {
    if (i == 3 || i == 9) {
      points.push_back([i]() -> int {
        throw std::runtime_error("fail at " + std::to_string(i));
      });
    } else {
      points.push_back([i] { return i; });
    }
  }
  for (int jobs : {1, 4}) {
    try {
      harness::RunSweep(points, harness::SweepOptions{jobs});
      FAIL() << "expected throw, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "fail at 3") << "jobs=" << jobs;
    }
  }
}

TEST(SweepHarnessTest, EmptySweepAndOversizedPool) {
  const std::vector<harness::SweepPoint<int>> none;
  EXPECT_TRUE(harness::RunSweep(none, harness::SweepOptions{8}).empty());
  // More workers than points: pool is clamped, every point runs once.
  std::vector<harness::SweepPoint<int>> two = {[] { return 1; },
                                              [] { return 2; }};
  const auto out = harness::RunSweep(two, harness::SweepOptions{16});
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(SweepHarnessTest, ThrowInLastSlotStillJoinsAndRethrows) {
  // The poisoned point is the LAST index: the pool must not lose the
  // exception when workers are already draining, and every earlier point
  // still completes.
  for (int jobs : {1, 2, 8, 16}) {
    std::atomic<int> completed{0};
    std::vector<harness::SweepPoint<int>> points;
    for (int i = 0; i < 9; ++i) {
      points.push_back([i, &completed] {
        completed.fetch_add(1);
        return i;
      });
    }
    points.push_back([]() -> int {
      throw std::runtime_error("last slot");
    });
    try {
      harness::RunSweep(points, harness::SweepOptions{jobs});
      FAIL() << "expected throw, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "last slot") << "jobs=" << jobs;
    }
    EXPECT_EQ(completed.load(), 9) << "jobs=" << jobs;
  }
}

TEST(SweepHarnessTest, EmptyPointSetNeverDeadlocksOrThrows) {
  // Zero points with an oversized pool: the pool clamps to zero workers,
  // returns immediately, and there is no spurious rethrow from the empty
  // result scan — in both throwing and no-throw variants.
  const std::vector<harness::SweepPoint<int>> none;
  for (int jobs : {1, 4, 32}) {
    EXPECT_TRUE(harness::RunSweep(none, harness::SweepOptions{jobs}).empty())
        << "jobs=" << jobs;
    EXPECT_TRUE(
        harness::RunSweepNoThrow(none, harness::SweepOptions{jobs}).empty())
        << "jobs=" << jobs;
  }
}

TEST(SweepHarnessTest, ManyMoreJobsThanPointsIsBitIdentical) {
  // jobs far beyond the point count: the clamp means no worker spins on an
  // empty ticket range, and results match the serial lane exactly.
  const auto points = FingerprintPoints(3);
  const auto serial = harness::RunSweep(points, harness::SweepOptions{1});
  const auto flooded = harness::RunSweep(points, harness::SweepOptions{64});
  EXPECT_EQ(flooded, serial);
}

TEST(SweepHarnessTest, PreCancelledSweepSkipsEverything) {
  std::atomic<bool> cancel{true};
  std::atomic<int> ran{0};
  std::vector<harness::SweepPoint<int>> points;
  for (int i = 0; i < 8; ++i) {
    points.push_back([&ran] {
      ran.fetch_add(1);
      return 0;
    });
  }
  for (int jobs : {1, 4}) {
    harness::SweepOptions opts{jobs};
    opts.cancel = &cancel;
    const auto results = harness::RunSweepNoThrow(points, opts);
    ASSERT_EQ(results.size(), 8u);
    for (const auto& r : results) {
      EXPECT_TRUE(r.skipped());
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(r.error == nullptr);
    }
  }
  EXPECT_EQ(ran.load(), 0);
}

TEST(SweepHarnessTest, CancelMidSweepFinishesStartedPointsOnly) {
  // Serial lane, cancel raised by point 2: points 0..2 ran (a started point
  // always completes), everything after comes back skipped — and skipped
  // slots are distinguishable from errors.
  std::atomic<bool> cancel{false};
  std::vector<harness::SweepPoint<int>> points;
  for (int i = 0; i < 6; ++i) {
    points.push_back([i, &cancel] {
      if (i == 2) cancel.store(true);
      return i * 10;
    });
  }
  harness::SweepOptions opts{1};
  opts.cancel = &cancel;
  const auto results = harness::RunSweepNoThrow(points, opts);
  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(results[static_cast<size_t>(i)].ok()) << i;
    EXPECT_EQ(*results[static_cast<size_t>(i)].value, i * 10);
  }
  for (size_t i = 3; i < 6; ++i) EXPECT_TRUE(results[i].skipped()) << i;
}

TEST(SweepHarnessTest, SweepRunnerWrapsSameSemantics) {
  harness::SweepRunner runner(2);
  EXPECT_EQ(runner.jobs(), 2);
  const auto points = FingerprintPoints(5);
  EXPECT_EQ(runner.Run(points),
            harness::RunSweep(points, harness::SweepOptions{1}));
}

TEST(SweepHarnessTest, JobsResolutionPrecedence) {
  // Explicit --jobs=N beats everything.
  {
    const char* argv[] = {"bench", "--jobs=3", "other"};
    EXPECT_EQ(harness::JobsFromArgs(3, const_cast<char**>(argv)), 3);
  }
  // Then PRISM_JOBS, then hardware_concurrency (>= 1 either way).
  ::setenv("PRISM_JOBS", "5", 1);
  EXPECT_EQ(harness::DefaultJobs(), 5);
  {
    const char* argv[] = {"bench"};
    EXPECT_EQ(harness::JobsFromArgs(1, const_cast<char**>(argv)), 5);
  }
  ::unsetenv("PRISM_JOBS");
  EXPECT_GE(harness::DefaultJobs(), 1);
}

}  // namespace
}  // namespace prism
