// Ablation A6: microbenchmarks of the simulation substrate itself
// (google-benchmark, real wall-clock time). Documents the event-queue and
// coroutine costs that bound how big a simulated experiment can be.
//
// Besides the google-benchmark suite, main() runs four fixed-size
// throughput probes over the engine's lanes — zero-delay FIFO ring,
// calendar-queue timers, a mixed workload, and cancel churn (the deadline of
// every transport op) — and emits the results as
// results/BENCH_sim.json (events/sec, wall seconds, simulated time, and the
// engine's lane/allocation counters) for machine consumption.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/workload/zipf.h"

namespace prism {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1024; ++i) {
      sim.Schedule(i % 97, [] {});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The zero-delay ring lane: a self-sustaining cascade of Schedule(0) events,
// the shape of every Resume/Set/Push wakeup in the simulator.
void BM_ZeroDelayCascade(benchmark::State& state) {
  struct Chain {
    sim::Simulator* sim;
    int remaining;
    void operator()() {
      if (--remaining > 0) sim->Schedule(0, Chain{sim, remaining});
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 64; ++i) sim.Schedule(0, Chain{&sim, 256});
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 64 * 256);
}
BENCHMARK(BM_ZeroDelayCascade);

// Calendar-queue churn: a large pending set of timers, each rescheduling
// itself with a spread of delays (the steady state of a big simulation).
void BM_TimerWheelChurn(benchmark::State& state) {
  struct Timer {
    sim::Simulator* sim;
    uint64_t salt;
    int remaining;
    void operator()() {
      if (--remaining > 0) {
        salt = salt * 6364136223846793005ull + 1442695040888963407ull;
        sim->Schedule(1 + (salt >> 33) % 200'000, Timer{sim, salt, remaining});
      }
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 4096; ++i) {
      sim.Schedule(i % 997, Timer{&sim, 0x9E3779B9u * (i + 1), 8});
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 4096 * 8);
}
BENCHMARK(BM_TimerWheelChurn);

void BM_CoroutineSpawnResume(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int done = 0;
    for (int i = 0; i < 256; ++i) {
      sim::Spawn([&sim, &done]() -> sim::Task<void> {
        co_await sim::SleepFor(&sim, 10);
        co_await sim::SleepFor(&sim, 10);
        done++;
      });
    }
    sim.Run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * 256 * 2);
}
BENCHMARK(BM_CoroutineSpawnResume);

void BM_ServiceQueueContention(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::ServiceQueue cores(&sim, 16);
    for (int i = 0; i < 512; ++i) {
      sim::Spawn([&]() -> sim::Task<void> { co_await cores.Use(100); });
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_ServiceQueueContention);

void BM_ZipfSample(benchmark::State& state) {
  workload::ZipfGenerator zipf(1u << 20, 0.99);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void BM_ZipfSampleHighTheta(benchmark::State& state) {
  workload::ZipfGenerator zipf(1u << 16, 1.4);  // CDF-table path
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampleHighTheta);

// ---- JSON throughput probes ----------------------------------------------

struct ProbeResult {
  uint64_t events = 0;
  double wall_seconds = 0;
  sim::TimePoint simulated_ns = 0;
  sim::Simulator::Stats stats;
};

template <typename Setup>
ProbeResult RunProbe(Setup setup) {
  sim::Simulator sim;
  setup(sim);
  const auto t0 = std::chrono::steady_clock::now();
  sim.Run();
  const auto t1 = std::chrono::steady_clock::now();
  ProbeResult r;
  r.events = sim.executed_events();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.simulated_ns = sim.Now();
  r.stats = sim.stats();
  return r;
}

void EmitProbe(JsonWriter& json, const char* name,
               const ProbeResult& r) {
  const double rate = r.wall_seconds > 0 ? r.events / r.wall_seconds : 0;
  json.BeginObject(name)
      .Field("events", r.events)
      .Field("wall_seconds", r.wall_seconds)
      .Field("events_per_sec", rate)
      .Field("simulated_ns", static_cast<uint64_t>(r.simulated_ns))
      .BeginObject("engine_stats")
      .Field("zero_delay_events", r.stats.zero_delay_events)
      .Field("timer_events", r.stats.timer_events)
      .Field("overflow_events", r.stats.overflow_events)
      .Field("heap_callables", r.stats.heap_callables)
      .Field("pool_blocks", r.stats.pool_blocks)
      .Field("cancelled_timers", r.stats.cancelled_timers)
      .EndObject()
      .EndObject();
  std::printf("  %-12s %8.0f k events/s  (%llu events, %.3f s wall)\n", name,
              rate / 1e3, static_cast<unsigned long long>(r.events),
              r.wall_seconds);
}

void WriteSimThroughputJson() {
  const int scale = bench::FastMode() ? 1 : 8;

  // Zero-delay ring lane: 64 concurrent self-rescheduling cascades.
  ProbeResult zero = RunProbe([&](sim::Simulator& sim) {
    struct Chain {
      sim::Simulator* sim;
      int remaining;
      void operator()() {
        if (--remaining > 0) sim->Schedule(0, Chain{sim, remaining});
      }
    };
    for (int i = 0; i < 64; ++i) {
      sim.Schedule(0, Chain{&sim, 4000 * scale});
    }
  });

  // Calendar-queue lane: 50k concurrently pending self-rescheduling timers
  // with delays spread over ~200 µs (plus the occasional far-future hop that
  // lands in the overflow heap).
  ProbeResult timer = RunProbe([&](sim::Simulator& sim) {
    struct Timer {
      sim::Simulator* sim;
      uint64_t salt;
      int remaining;
      void operator()() {
        if (--remaining > 0) {
          salt = salt * 6364136223846793005ull + 1442695040888963407ull;
          const uint64_t draw = salt >> 33;
          const sim::Duration delay = (draw % 512 == 0)
                                          ? sim::Millis(2)  // overflow lane
                                          : 1 + draw % 200'000;
          sim->Schedule(delay, Timer{sim, salt, remaining});
        }
      }
    };
    for (int i = 0; i < 50'000; ++i) {
      sim.Schedule(i % 9973, Timer{&sim, 0x9E3779B9u * (i + 1), 5 * scale});
    }
  });

  // Mixed: coroutine wakeup traffic (ring) interleaved with sleep timers —
  // the shape of a real figure-reproduction run.
  ProbeResult mixed = RunProbe([&](sim::Simulator& sim) {
    struct Hop {
      sim::Simulator* sim;
      uint64_t salt;
      int remaining;
      void operator()() {
        if (--remaining > 0) {
          salt = salt * 6364136223846793005ull + 1442695040888963407ull;
          const sim::Duration delay =
              (salt >> 33) % 4 == 0 ? 1 + (salt >> 35) % 50'000 : 0;
          sim->Schedule(delay, Hop{sim, salt, remaining});
        }
      }
    };
    for (int i = 0; i < 2048; ++i) {
      sim.Schedule(i % 211, Hop{&sim, 0x517CC1B7u * (i + 1), 120 * scale});
    }
  });

  // Cancel churn: the transport-op shape. 1024 concurrent op chains; each
  // op arms a 5 ms deadline (an overflow-heap timer), completes 1-4 µs later,
  // cancels the deadline and issues the next op. Only completions fire.
  ProbeResult cancel = RunProbe([&](sim::Simulator& sim) {
    struct Complete {
      sim::Simulator* sim;
      sim::TimerId deadline;
      uint64_t salt;
      int remaining;
      void operator()() {
        sim->Cancel(deadline);
        if (--remaining > 0) Issue(sim, salt, remaining);
      }
      static void Issue(sim::Simulator* sim, uint64_t salt, int remaining) {
        salt = salt * 6364136223846793005ull + 1442695040888963407ull;
        const sim::TimerId deadline = sim->Schedule(sim::Millis(5), [] {});
        sim->Schedule(1000 + (salt >> 33) % 3000,
                      Complete{sim, deadline, salt, remaining});
      }
    };
    for (int i = 0; i < 1024; ++i) {
      Complete::Issue(&sim, 0x2545F491u * (i + 1), 250 * scale);
    }
  });

  JsonWriter json;
  json.BeginObject()
      .Field("bench", "abl_sim_micro")
      .Field("fast_mode", bench::FastMode());
  EmitProbe(json, "zero_delay", zero);
  EmitProbe(json, "timer_wheel", timer);
  EmitProbe(json, "mixed", mixed);
  EmitProbe(json, "cancel_churn", cancel);
  json.EndObject();
  const char* path = "results/BENCH_sim.json";
  if (json.WriteFile(path)) {
    std::printf("wrote %s\n", path);
  }
}

}  // namespace
}  // namespace prism

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\nengine throughput probes (results/BENCH_sim.json):\n");
  prism::WriteSimThroughputJson();
  return 0;
}
