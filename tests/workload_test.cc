// Tests for the workload generators and measurement harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/harness/sweep.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"
#include "src/workload/open_loop.h"
#include "src/workload/zipf.h"

namespace prism::workload {
namespace {

TEST(ZipfTest, ThetaZeroIsUniform) {
  ZipfGenerator zipf(100, 0.0);
  Rng rng(1);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(ZipfTest, RanksAreInRange) {
  for (double theta : {0.0, 0.5, 0.9, 0.99, 1.2, 1.6}) {
    ZipfGenerator zipf(1000, theta);
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
      EXPECT_LT(zipf.Next(rng), 1000u) << "theta " << theta;
    }
  }
}

TEST(ZipfTest, SkewIncreasesWithTheta) {
  Rng rng(3);
  double prev_top_share = 0;
  for (double theta : {0.2, 0.6, 0.9, 1.2}) {
    ZipfGenerator zipf(10000, theta);
    int top10 = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
      if (zipf.Next(rng) < 10) top10++;
    }
    double share = static_cast<double>(top10) / n;
    EXPECT_GT(share, prev_top_share) << "theta " << theta;
    prev_top_share = share;
  }
  // At theta 1.2 the hottest 10 of 10k keys dominate.
  EXPECT_GT(prev_top_share, 0.4);
}

TEST(ZipfTest, RankZeroIsHottest) {
  ZipfGenerator zipf(1000, 0.99);
  Rng rng(11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[zipf.Next(rng)]++;
  int max_count = 0;
  uint64_t max_rank = 0;
  for (auto& [rank, count] : counts) {
    if (count > max_count) {
      max_count = count;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 0u);
}

TEST(ZipfTest, HighThetaUsesCdfAndMatchesDistribution) {
  // theta = 1.4 (CDF path): P(rank 0) = 1/zeta(n,1.4).
  const uint64_t n = 1000;
  ZipfGenerator zipf(n, 1.4);
  Rng rng(13);
  int zeros = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) {
    if (zipf.Next(rng) == 0) zeros++;
  }
  double zeta = 0;
  for (uint64_t k = 1; k <= n; ++k) zeta += 1.0 / std::pow(k, 1.4);
  EXPECT_NEAR(static_cast<double>(zeros) / samples, 1.0 / zeta, 0.01);
}

TEST(KeyChooserTest, ScattersHotKeys) {
  // With scattering, the hottest keys must not be consecutive integers.
  KeyChooser chooser(10000, 0.99);
  Rng rng(5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[chooser.Next(rng)]++;
  std::vector<std::pair<int, uint64_t>> by_count;
  for (auto& [k, c] : counts) by_count.push_back({c, k});
  std::sort(by_count.rbegin(), by_count.rend());
  ASSERT_GE(by_count.size(), 3u);
  uint64_t hottest = by_count[0].second;
  uint64_t second = by_count[1].second;
  EXPECT_GT(hottest > second ? hottest - second : second - hottest, 1u);
}

TEST(RecorderTest, WarmupWindowExcluded) {
  sim::Simulator sim;
  Recorder recorder(&sim, sim::Micros(100), sim::Micros(200));
  // Op starting before the window: excluded.
  sim.RunUntil(sim::Micros(150));
  recorder.Record(sim::Micros(50));
  EXPECT_EQ(recorder.completed(), 0);
  // Op inside the window: counted.
  recorder.Record(sim::Micros(120));
  EXPECT_EQ(recorder.completed(), 1);
  // Op completing after the window: excluded.
  sim.RunUntil(sim::Micros(250));
  recorder.Record(sim::Micros(180));
  EXPECT_EQ(recorder.completed(), 1);
}

TEST(RecorderTest, ThroughputMath) {
  sim::Simulator sim;
  Recorder recorder(&sim, 0, sim::Millis(1));
  sim.RunUntil(sim::Micros(500));
  for (int i = 0; i < 1000; ++i) recorder.Record(sim.Now() - sim::Micros(5));
  // 1000 ops over a 1 ms window = 1 Mops.
  EXPECT_DOUBLE_EQ(recorder.ThroughputMops(), 1.0);
  auto point = MakeLoadPoint(4, recorder);
  EXPECT_EQ(point.clients, 4);
  EXPECT_DOUBLE_EQ(point.mean_us, 5.0);
}

TEST(RecorderTest, AbortRate) {
  sim::Simulator sim;
  Recorder recorder(&sim, 0, sim::Millis(1));
  sim.RunUntil(sim::Micros(10));
  for (int i = 0; i < 90; ++i) recorder.Record(sim.Now());
  for (int i = 0; i < 10; ++i) recorder.RecordAbort();
  auto point = MakeLoadPoint(1, recorder);
  EXPECT_DOUBLE_EQ(point.abort_rate, 0.1);
}

// ---------- Arrival processes ----------

// Simulates the process and returns per-window arrival counts.
std::vector<int> WindowCounts(ArrivalProcess* p, int n_windows,
                              int64_t window_ns) {
  std::vector<int> counts(n_windows, 0);
  const int64_t end = static_cast<int64_t>(n_windows) * window_ns;
  sim::TimePoint t = 0;
  while (true) {
    t += p->NextGap(t);
    if (t >= end) break;
    counts[static_cast<size_t>(t / window_ns)]++;
  }
  return counts;
}

double Mean(const std::vector<int>& v) {
  double s = 0;
  for (int x : v) s += x;
  return s / static_cast<double>(v.size());
}

double VarianceToMean(const std::vector<int>& v) {
  const double m = Mean(v);
  double ss = 0;
  for (int x : v) ss += (x - m) * (x - m);
  return ss / static_cast<double>(v.size() - 1) / m;
}

TEST(ArrivalTest, PoissonGapsAreExponential) {
  // λ = 1M ops/s → mean gap 1000 ns. Chi-squared goodness of fit against
  // Exp(1000 ns) with 10 equal-probability bins; χ²(9 df) < 27.9 accepts at
  // p = 0.001 (deterministic seed, so this never flakes).
  ArrivalProcess p(ArrivalSpec::Poisson(1e6), Rng(42));
  const int n = 20000;
  const double mean_ns = 1000.0;
  int bins[10] = {};
  double sum = 0;
  sim::TimePoint t = 0;
  for (int i = 0; i < n; ++i) {
    const sim::Duration gap = p.NextGap(t);
    t += gap;
    sum += static_cast<double>(gap);
    const double u = 1.0 - std::exp(-static_cast<double>(gap) / mean_ns);
    int b = static_cast<int>(u * 10.0);
    if (b > 9) b = 9;
    bins[b]++;
  }
  EXPECT_NEAR(sum / n, mean_ns, 0.03 * mean_ns);
  const double expected = n / 10.0;
  double chi2 = 0;
  for (int b : bins) chi2 += (b - expected) * (b - expected) / expected;
  EXPECT_LT(chi2, 27.9);
}

TEST(ArrivalTest, MmppKeepsMeanRateButOverdisperses) {
  const double rate = 1e6;
  ArrivalProcess mmpp(ArrivalSpec::Mmpp(rate), Rng(7));
  ArrivalProcess poisson(ArrivalSpec::Poisson(rate), Rng(7));

  // Derived two-state rates: burst = factor × base, and the dwell-weighted
  // mean equals the requested rate.
  const ArrivalSpec& spec = mmpp.spec();
  EXPECT_NEAR(mmpp.burst_rate() / mmpp.base_rate(), spec.burst_factor, 1e-9);
  const double mean_per_ns = (1.0 - spec.burst_fraction) * mmpp.base_rate() +
                             spec.burst_fraction * mmpp.burst_rate();
  EXPECT_NEAR(mean_per_ns * 1e9, rate, 1e-3);

  // Windowed counts over 0.2 s (2000 × 100 µs windows, matching the burst
  // dwell scale): MMPP's variance-to-mean ratio is far above the Poisson
  // value of ~1, at the same mean rate.
  const int64_t win = 100 * 1000;
  std::vector<int> cm = WindowCounts(&mmpp, 2000, win);
  std::vector<int> cp = WindowCounts(&poisson, 2000, win);
  EXPECT_NEAR(Mean(cm), 100.0, 5.0);
  EXPECT_NEAR(Mean(cp), 100.0, 5.0);
  EXPECT_GT(VarianceToMean(cm), 2.0);
  EXPECT_LT(VarianceToMean(cp), 1.5);
}

TEST(ArrivalTest, DiurnalKeepsMeanRateAndModulates) {
  ArrivalSpec spec = ArrivalSpec::Diurnal(1e6);
  ArrivalProcess p(spec, Rng(11));
  // 100 whole periods (2 ms each): rising half of the sinusoid vs falling
  // half. With A = 0.6 the analytic ratio is (1 + 2A/π)/(1 - 2A/π) ≈ 2.2.
  const int64_t period = spec.diurnal_period;
  const int64_t half = period / 2;
  const int periods = 100;
  int64_t first_half = 0, second_half = 0, total = 0;
  sim::TimePoint t = 0;
  const int64_t end = periods * period;
  while (true) {
    t += p.NextGap(t);
    if (t >= end) break;
    total++;
    if (t % period < half) {
      first_half++;
    } else {
      second_half++;
    }
  }
  const double seconds = sim::ToSeconds(end);
  EXPECT_NEAR(static_cast<double>(total) / seconds, 1e6, 0.05 * 1e6);
  EXPECT_GT(static_cast<double>(first_half),
            1.5 * static_cast<double>(second_half));
}

TEST(ArrivalTest, SeededReplayIsBitIdentical) {
  for (ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kMmpp, ArrivalKind::kDiurnal}) {
    ArrivalSpec spec;
    spec.kind = kind;
    spec.ops_per_sec = 3e6;
    ArrivalProcess a(spec, Rng(1234));
    ArrivalProcess b(spec, Rng(1234));
    ArrivalProcess c(spec, Rng(4321));
    sim::TimePoint ta = 0, tb = 0, tc = 0;
    bool differs = false;
    for (int i = 0; i < 10000; ++i) {
      const sim::Duration ga = a.NextGap(ta);
      const sim::Duration gb = b.NextGap(tb);
      const sim::Duration gc = c.NextGap(tc);
      ASSERT_EQ(ga, gb) << spec.KindName() << " draw " << i;
      if (ga != gc) differs = true;
      ta += ga;
      tb += gb;
      tc += gc;
    }
    EXPECT_TRUE(differs) << "different seeds should diverge";
  }
}

// ---------- Open-loop pools ----------

TEST(OpenLoopPoolTest, SyntheticOpsFlowThroughCompactSlots) {
  sim::Simulator sim;
  OpenLoopPool pool(&sim, ArrivalSpec::Poisson(1e6), 1000, Rng(5));
  pool.AddClass("fast", 3.0,
                [&sim](uint64_t, obs::OpTimeline*) -> sim::Task<void> {
                  co_await sim::SleepFor(&sim, sim::Micros(5));
                });
  pool.AddClass("slow", 1.0,
                [&sim](uint64_t, obs::OpTimeline*) -> sim::Task<void> {
                  co_await sim::SleepFor(&sim, sim::Micros(50));
                });
  pool.Start(sim::Micros(100), sim::Millis(2));
  sim.RunUntil(sim::Millis(3));
  sim.Run();
  pool.CheckDrained();

  // Open-loop arrivals land at the configured rate (1M/s × 2 ms ≈ 2000) and
  // every arrival completes once the drain window runs out.
  EXPECT_NEAR(static_cast<double>(pool.arrivals()), 2000.0, 150.0);
  EXPECT_EQ(pool.completions(), pool.arrivals());
  EXPECT_EQ(pool.class_completions(0) + pool.class_completions(1),
            pool.completions());
  // Weighted 3:1 class split over the population.
  EXPECT_GT(pool.class_completions(0), 2 * pool.class_completions(1));

  // Flat per-client state: exactly one 16-byte slot per logical client.
  EXPECT_EQ(pool.state_bytes(), 1000 * sizeof(ClientSlot));

  // Latency is measured from arrival, so it is bounded below by the service
  // time; at 6% worker utilization there is essentially no backlog wait.
  LatencyHistogram::Summary fast = pool.recorder(0).hist().Summarize();
  EXPECT_GE(fast.min_us, 5.0);
  EXPECT_LT(fast.p50_us, 7.0);
  LatencyHistogram::Summary slow = pool.recorder(1).hist().Summarize();
  EXPECT_GE(slow.min_us, 50.0);

  // Slot state machines come to rest: all issued ops finished.
  uint64_t issued = 0;
  for (uint64_t i = 0; i < pool.n_clients(); ++i) {
    issued += pool.client(i).issued;
    EXPECT_EQ(pool.client(i).outstanding, 0);
  }
  EXPECT_EQ(issued, pool.arrivals());
}

TEST(OpenLoopPoolTest, BacklogQueueingShowsUpInLatency) {
  // 4 workers × 100 µs service = 40k ops/s capacity against 200k ops/s
  // offered: the backlog grows and arrival-to-completion latency includes
  // the client-side queue wait — the overload signal fig_overload plots.
  sim::Simulator sim;
  PoolOptions opts;
  opts.workers = 4;
  OpenLoopPool pool(&sim, ArrivalSpec::Poisson(200e3), 100, Rng(9), opts);
  pool.AddClass("op", 1.0,
                [&sim](uint64_t, obs::OpTimeline*) -> sim::Task<void> {
                  co_await sim::SleepFor(&sim, sim::Micros(100));
                });
  pool.Start(0, sim::Millis(5));
  sim.RunUntil(sim::Millis(6));
  sim.Run();
  pool.CheckDrained();
  EXPECT_EQ(pool.completions(), pool.arrivals());
  EXPECT_GT(pool.peak_backlog(), 100u);
  LatencyHistogram::Summary s = pool.recorder(0).hist().Summarize();
  // Mean latency is dominated by queueing, far above the 100 µs service.
  EXPECT_GT(s.mean_us, 300.0);
}

// Folds every (draw, class) pair the op functions see, in call order, into
// one digest, and counts the population's clients per class.
struct PinnedRun {
  uint64_t digest = 0xcbf29ce484222325ull;
  uint64_t ops = 0;
  uint64_t slot_digest = 0xcbf29ce484222325ull;  // every slot, after the run
  std::vector<uint64_t> clients_per_class;
  size_t peak_backlog = 0;
};

PinnedRun RunPinnedPool(const std::vector<double>& weights, uint64_t n_clients,
                        int workers, double rate, sim::Duration service,
                        uint64_t seed) {
  sim::Simulator sim;
  PoolOptions opts;
  opts.workers = workers;
  OpenLoopPool pool(&sim, ArrivalSpec::Poisson(rate), n_clients, Rng(seed),
                    opts);
  PinnedRun run;
  for (size_t c = 0; c < weights.size(); ++c) {
    pool.AddClass("c" + std::to_string(c), weights[c],
                  [&sim, &run, c, service](uint64_t draw,
                                           obs::OpTimeline*) -> sim::Task<void> {
                    for (uint64_t word : {draw, uint64_t{c}}) {
                      run.digest = (run.digest ^ word) * 0x100000001b3ull;
                    }
                    run.ops++;
                    co_await sim::SleepFor(&sim, service);
                  });
  }
  pool.Start(0, sim::Millis(1));
  sim.RunUntil(sim::Millis(1));
  sim.Run();
  pool.CheckDrained();
  EXPECT_EQ(run.ops, pool.arrivals());
  run.clients_per_class.assign(weights.size(), 0);
  for (uint64_t i = 0; i < pool.n_clients(); ++i) {
    const ClientSlot& slot = pool.client(i);
    run.clients_per_class[slot.tag]++;
    for (uint64_t word :
         {slot.rng, uint64_t{slot.tag}, uint64_t{slot.issued}}) {
      run.slot_digest = (run.slot_digest ^ word) * 0x100000001b3ull;
    }
  }
  run.peak_backlog = pool.peak_backlog();
  return run;
}

// The pool's draws are pinned literally: which class each client gets and
// which key-space draw each op sees must not move under a change to how the
// slots are filled or when a draw is taken.
TEST(OpenLoopPoolTest, DrawsAndClassesArePinned) {
  // Three unequal classes, light load.
  PinnedRun mix = RunPinnedPool({0.1, 0.2, 0.7}, 1000, 64, 1e6,
                                sim::Micros(2), 17);
  EXPECT_EQ(mix.ops, 1005u);
  EXPECT_EQ(mix.digest, 0x160e281b8d285c82ull);
  EXPECT_EQ(mix.clients_per_class, (std::vector<uint64_t>{91, 206, 703}));

  // Two workers against 16 clients under backlog: the backlog outgrows the
  // population, so clients hold several pending arrivals at once.
  PinnedRun backlog = RunPinnedPool({1.0, 1.0}, 16, 2, 2e6,
                                    sim::Micros(3), 23);
  EXPECT_GT(backlog.peak_backlog, 16u);
  EXPECT_EQ(backlog.ops, 1987u);
  EXPECT_EQ(backlog.digest, 0xe53a3b9e56c83e04ull);
  EXPECT_EQ(backlog.clients_per_class, (std::vector<uint64_t>{8, 8}));
}

// A large pool, pinned the same way. Its four fill lanes start 50 000 draws
// apart, so each lane's start is reached by table jumps rather than steps;
// every slot's cursor and class, and the ops' draws, must still be what the
// one-stream fill wrote.
TEST(OpenLoopPoolTest, LargePoolDrawsAndClassesArePinned) {
  PinnedRun big = RunPinnedPool({0.25, 0.6, 0.15}, 100003, 64, 1e6,
                                sim::Micros(2), 29);
  EXPECT_EQ(big.ops, 1013u);
  EXPECT_EQ(big.digest, 0x4b1fa4186fcb200full);
  EXPECT_EQ(big.slot_digest, 0xb41ce4631083d59eull);
  EXPECT_EQ(big.clients_per_class,
            (std::vector<uint64_t>{24995, 60054, 14954}));
}

// Runs FillSlots down `path` on a fresh array and rng.
struct Filled {
  std::vector<ClientSlot> slots;
  Rng rng;
};
Filled FillWith(uint64_t n, const std::vector<double>& weights, uint64_t seed,
                internal::FillPath path) {
  Filled f{std::vector<ClientSlot>(n), Rng(seed)};
  internal::FillSlots(f.slots.data(), n, weights, &f.rng, path);
  return f;
}

// The four-lane AVX2 fill writes the scalar fill's bytes and leaves the rng
// where the scalar fill does, for every tail length (n mod 4) and for pools
// smaller than one slot per lane.
TEST(OpenLoopPoolTest, LaneFillMatchesScalarFill) {
  if (!internal::HasAvx2Fill()) GTEST_SKIP() << "no AVX2 on this CPU";
  std::vector<double> many;
  for (int c = 0; c < 256; ++c) many.push_back(1.0 + (c * 37 % 11) * 0.3);
  const std::vector<std::vector<double>> mixes = {
      {2.5}, {0.3, 0.7}, {0.1, 0.2, 0.7}, many};
  for (const std::vector<double>& weights : mixes) {
    for (uint64_t n : {1, 3, 4, 5, 4095, 4097, 95325}) {
      const uint64_t seed = n * 131 + weights.size();
      const Filled scalar =
          FillWith(n, weights, seed, internal::FillPath::kScalar);
      const Filled lanes =
          FillWith(n, weights, seed, internal::FillPath::kLanes);
      ASSERT_EQ(std::memcmp(scalar.slots.data(), lanes.slots.data(),
                            n * sizeof(ClientSlot)),
                0)
          << "n " << n << ", " << weights.size() << " classes";
      EXPECT_EQ(scalar.rng.state(), lanes.rng.state())
          << "n " << n << ", " << weights.size() << " classes";
      // And the scalar fill took exactly two draws per slot.
      Rng two_per_slot(seed);
      two_per_slot.Advance(2 * n);
      EXPECT_EQ(scalar.rng.state(), two_per_slot.state());
    }
  }
  // Every class is picked somewhere in the 256-class mix.
  const Filled wide = FillWith(95325, many, 3, internal::FillPath::kLanes);
  std::vector<bool> seen(256);
  for (const ClientSlot& s : wide.slots) {
    EXPECT_EQ(s.tag, s.hist);
    EXPECT_EQ(s.issued, 0u);
    EXPECT_EQ(s.outstanding, 0u);
    seen[s.tag] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), 256);
}

TEST(OpenLoopPoolTest, ClientIndexBeyondU32Dies) {
  // Backlog entries carry a 32-bit client index with 0xffffffff reserved
  // as the workers' stop signal; a larger population must not truncate.
  sim::Simulator sim;
  EXPECT_DEATH(OpenLoopPool(&sim, ArrivalSpec::Poisson(1e6),
                            uint64_t{1} << 32, Rng(1)),
               "n_clients");
  EXPECT_DEATH(OpenLoopPool(&sim, ArrivalSpec::Poisson(1e6), 0xffffffffull,
                            Rng(1)),
               "n_clients");
}

TEST(OpenLoopPoolTest, SweepIsBitIdenticalAcrossJobs) {
  // The same seeded points through the parallel sweep harness at --jobs=1
  // and --jobs=8 must produce byte-identical results: every draw comes off
  // explicit per-point rngs inside single-threaded simulations.
  auto make_point = [](uint64_t seed) -> harness::SweepPoint<std::vector<double>> {
    return [seed]() -> std::vector<double> {
      sim::Simulator sim;
      OpenLoopPool pool(&sim, ArrivalSpec::Mmpp(2e6), 10000, Rng(seed));
      pool.AddClass(
          "op", 1.0,
          [&sim](uint64_t draw, obs::OpTimeline*) -> sim::Task<void> {
            co_await sim::SleepFor(&sim, sim::Nanos(500 + (draw % 1000)));
          });
      pool.Start(sim::Micros(50), sim::Millis(1));
      sim.RunUntil(sim::Millis(1) + sim::Micros(200));
      sim.Run();
      pool.CheckDrained();
      LatencyHistogram::Summary s = pool.recorder(0).hist().Summarize();
      return {static_cast<double>(pool.arrivals()),
              static_cast<double>(pool.completions()),
              static_cast<double>(pool.peak_backlog()),
              static_cast<double>(sim.executed_events()),
              static_cast<double>(sim.Now()),
              s.mean_us,
              s.p50_us,
              s.p99_us,
              s.p999_us};
    };
  };
  std::vector<harness::SweepPoint<std::vector<double>>> points;
  for (uint64_t seed = 1; seed <= 8; ++seed) points.push_back(make_point(seed));
  harness::SweepOptions serial;
  serial.jobs = 1;
  harness::SweepOptions wide;
  wide.jobs = 8;
  std::vector<std::vector<double>> a = harness::RunSweep(points, serial);
  std::vector<std::vector<double>> b = harness::RunSweep(points, wide);
  EXPECT_EQ(a, b);
  EXPECT_GT(a[0][0], 1000.0);  // the points actually simulated load
}

}  // namespace
}  // namespace prism::workload
