// Tests for the discrete-event simulator and coroutine framework.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

// Global allocation counter for the zero-allocation and block-pool tests. The
// default operator new[] forwards here, so scalar overrides cover both forms.
namespace {
uint64_t g_new_calls = 0;
}  // namespace

// Kept out of line: inlined, GCC 12 pairs these malloc/free calls with the
// pool's ::operator new/delete and warns (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace prism::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(3), [&] { order.push_back(3); });
  sim.Schedule(Micros(1), [&] { order.push_back(1); });
  sim.Schedule(Micros(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Micros(3));
}

TEST(SimulatorTest, EqualTimestampsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  TimePoint inner_time = -1;
  sim.Schedule(Micros(1), [&] {
    sim.Schedule(Micros(2), [&] { inner_time = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(inner_time, Micros(3));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Micros(1), [&] { fired++; });
  sim.Schedule(Micros(10), [&] { fired++; });
  sim.RunUntil(Micros(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Micros(5));
  EXPECT_FALSE(sim.idle());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(TaskTest, SpawnRunsToCompletion) {
  Simulator sim;
  bool done = false;
  auto coro = [&]() -> Task<void> {
    co_await SleepFor(&sim, Micros(7));
    done = true;
  };
  Spawn(coro());
  EXPECT_FALSE(done);  // lazy until first event
  sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.Now(), Micros(7));
}

TEST(TaskTest, SpawnStartsSynchronouslyUntilFirstSuspend) {
  Simulator sim;
  bool started = false;
  auto coro = [&]() -> Task<void> {
    started = true;
    co_await SleepFor(&sim, Micros(1));
  };
  Spawn(coro());
  EXPECT_TRUE(started);
  sim.Run();
}

TEST(TaskTest, NestedAwaitPropagatesValue) {
  Simulator sim;
  auto inner = [&](int x) -> Task<int> {
    co_await SleepFor(&sim, Micros(2));
    co_return x * 2;
  };
  int result = 0;
  auto outer = [&]() -> Task<void> {
    int a = co_await inner(10);
    int b = co_await inner(a);
    result = b;
  };
  Spawn(outer());
  sim.Run();
  EXPECT_EQ(result, 40);
  EXPECT_EQ(sim.Now(), Micros(4));
}

TEST(TaskTest, DeeplyNestedTasks) {
  Simulator sim;
  // Recursion depth 200: verifies symmetric transfer does not blow the stack
  // and values propagate through every level.
  std::function<Task<int>(int)> chain = [&](int n) -> Task<int> {
    if (n == 0) {
      co_await SleepFor(&sim, Micros(1));
      co_return 1;
    }
    int v = co_await chain(n - 1);
    co_return v + 1;
  };
  int result = 0;
  Spawn([&]() -> Task<void> { result = co_await chain(200); });
  sim.Run();
  EXPECT_EQ(result, 201);
}

TEST(TaskTest, TrackerCountsLiveTasks) {
  Simulator sim;
  TaskTracker tracker;
  auto coro = [&](Duration d) -> Task<void> { co_await SleepFor(&sim, d); };
  Spawn(coro(Micros(1)), &tracker);
  Spawn(coro(Micros(5)), &tracker);
  EXPECT_EQ(tracker.live(), 2);
  sim.RunUntil(Micros(2));
  EXPECT_EQ(tracker.live(), 1);
  sim.Run();
  EXPECT_EQ(tracker.live(), 0);
}

TEST(TaskTest, ManyConcurrentTasksInterleave) {
  Simulator sim;
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    Spawn([&sim, &done, i]() -> Task<void> {
      co_await SleepFor(&sim, Micros(i % 17));
      co_await SleepFor(&sim, Micros(i % 5));
      done++;
    });
  }
  sim.Run();
  EXPECT_EQ(done, 1000);
}

TEST(EventTest, WaitersWakeOnSet) {
  Simulator sim;
  Event event(&sim);
  int woke = 0;
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<void> {
      co_await event.Wait();
      woke++;
    });
  }
  sim.Schedule(Micros(10), [&] { event.Set(); });
  sim.RunUntil(Micros(9));
  EXPECT_EQ(woke, 0);
  sim.Run();
  EXPECT_EQ(woke, 3);
}

TEST(EventTest, WaitOnSetEventIsImmediate) {
  Simulator sim;
  Event event(&sim);
  event.Set();
  bool done = false;
  Spawn([&]() -> Task<void> {
    co_await event.Wait();
    done = true;
  });
  EXPECT_TRUE(done);  // never suspended
}

TEST(FanOutTest, ReachesOnKSuccesses) {
  Simulator sim;
  FanOut<> quorum(&sim, 2, 3);
  bool result = false;
  bool finished = false;
  Spawn([&]() -> Task<void> {
    result = co_await quorum.Wait();
    finished = true;
  });
  sim.Schedule(Micros(1), [&] { quorum.Arrive(true); });
  sim.Schedule(Micros(2), [&] { quorum.Arrive(true); });
  sim.Run();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(result);
  EXPECT_EQ(sim.Now(), Micros(2));  // woke without waiting for the third
}

TEST(FanOutTest, FailsFastWhenUnreachable) {
  Simulator sim;
  FanOut<> quorum(&sim, 3, 3);
  bool result = true;
  Spawn([&]() -> Task<void> { result = co_await quorum.Wait(); });
  sim.Schedule(Micros(1), [&] { quorum.Arrive(false); });
  sim.Run();
  EXPECT_FALSE(result);  // 3-of-3 impossible after one failure
}

TEST(FanOutTest, DrivenTargetsFoldAndCountStragglers) {
  Simulator sim;
  FanOut<int> fan(&sim, 2, 3);
  for (int i = 1; i <= 3; ++i) {
    fan.Spawn([&sim, i](int& sum) -> Task<bool> {
      co_await SleepFor(&sim, Micros(i));
      sum += i;
      co_return i != 2;  // the second target fails
    });
  }
  bool reached = false;
  TimePoint woke = -1;
  Spawn([&]() -> Task<void> {
    reached = co_await fan.Wait();
    woke = sim.Now();
  });
  sim.Run();
  EXPECT_TRUE(reached);
  EXPECT_EQ(woke, Micros(3));  // decided by the third reply, not earlier
  EXPECT_EQ(fan.state(), 6);  // every target folded before the wake
  EXPECT_EQ(fan.stragglers(), 0);
  EXPECT_EQ(sim.stats().fanout_stragglers, 0u);
}

TEST(FanOutTest, StragglerAfterWaiterFinishedTouchesLiveBlock) {
  Simulator sim;
  bool reached = false;
  int seen_at_wake = -1;
  int seen_by_straggler = -1;
  Spawn([&]() -> Task<void> {
    FanOut<int> fan(&sim, 2, 3);
    for (int i = 1; i <= 3; ++i) {
      fan.Spawn([&sim, &seen_by_straggler, i](int& folded) -> Task<bool> {
        co_await SleepFor(&sim, Micros(i));
        ++folded;
        if (i == 3) seen_by_straggler = folded;
        co_return true;
      });
    }
    reached = co_await fan.Wait();
    seen_at_wake = fan.state();
    // The waiter's frame, and its FanOut, end here; the third target is
    // still out.
  });
  sim.RunUntil(Micros(2));
  EXPECT_TRUE(reached);
  EXPECT_EQ(seen_at_wake, 2);
  EXPECT_EQ(sim.stats().fanout_stragglers, 0u);
  sim.Run();
  // The straggler folded into the state the first two left behind, and was
  // counted exactly once.
  EXPECT_EQ(seen_by_straggler, 3);
  EXPECT_EQ(sim.stats().fanout_stragglers, 1u);
}

TEST(ChannelTest, PushPopOrdering) {
  Simulator sim;
  Channel<int> channel(&sim);
  std::vector<int> received;
  Spawn([&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      received.push_back(co_await channel.Pop());
    }
  });
  sim.Schedule(Micros(1), [&] { channel.Push(10); });
  sim.Schedule(Micros(2), [&] {
    channel.Push(20);
    channel.Push(30);
  });
  sim.Run();
  EXPECT_EQ(received, (std::vector<int>{10, 20, 30}));
}

TEST(ChannelTest, MultipleConsumersFifo) {
  Simulator sim;
  Channel<int> channel(&sim);
  std::vector<std::pair<int, int>> got;  // (consumer, item)
  for (int c = 0; c < 2; ++c) {
    Spawn([&, c]() -> Task<void> {
      int item = co_await channel.Pop();
      got.emplace_back(c, item);
    });
  }
  channel.Push(1);
  channel.Push(2);
  sim.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair<int, int>{0, 1}));
  EXPECT_EQ(got[1], (std::pair<int, int>{1, 2}));
}

TEST(MutexTest, MutualExclusionFifo) {
  Simulator sim;
  Mutex mutex(&sim);
  std::vector<int> order;
  int in_critical = 0;
  for (int i = 0; i < 5; ++i) {
    Spawn([&, i]() -> Task<void> {
      co_await mutex.Lock();
      EXPECT_EQ(in_critical, 0);
      in_critical++;
      co_await SleepFor(&sim, Micros(3));
      order.push_back(i);
      in_critical--;
      mutex.Unlock();
    });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(mutex.locked());
}

TEST(ServiceQueueTest, SingleServerSerializes) {
  Simulator sim;
  ServiceQueue q(&sim, 1);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 3; ++i) {
    Spawn([&]() -> Task<void> {
      co_await q.Use(Micros(10));
      completions.push_back(sim.Now());
    });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_EQ(completions[0], Micros(10));
  EXPECT_EQ(completions[1], Micros(20));
  EXPECT_EQ(completions[2], Micros(30));
}

TEST(ServiceQueueTest, ParallelServers) {
  Simulator sim;
  ServiceQueue q(&sim, 4);
  std::vector<TimePoint> completions;
  for (int i = 0; i < 8; ++i) {
    Spawn([&]() -> Task<void> {
      co_await q.Use(Micros(10));
      completions.push_back(sim.Now());
    });
  }
  sim.Run();
  ASSERT_EQ(completions.size(), 8u);
  // Two waves of four.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(completions[i], Micros(10));
  for (int i = 4; i < 8; ++i) EXPECT_EQ(completions[i], Micros(20));
}

TEST(ServiceQueueTest, UtilizationAccounting) {
  Simulator sim;
  ServiceQueue q(&sim, 2);
  for (int i = 0; i < 6; ++i) {
    Spawn([&]() -> Task<void> { co_await q.Use(Micros(5)); });
  }
  sim.Run();
  EXPECT_EQ(q.total_busy(), Micros(30));
  EXPECT_EQ(sim.Now(), Micros(15));  // 6 jobs / 2 servers * 5us
}

TEST(SimulatorTest, RingAndTimerMergeBySequence) {
  // A timer that lands at time T and a zero-delay event pushed *while the
  // simulator is at T* must interleave in global schedule order: the timer
  // was scheduled first (lower seq) so it fires first.
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Micros(1), [&] {
    order.push_back(1);
    sim.Schedule(0, [&] { order.push_back(3); });  // ring lane, seq > timer's
  });
  sim.Schedule(Micros(1), [&] { order.push_back(2); });  // timer, same when
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAtNowTakesRingLane) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(sim.Now(), [&] { fired++; });
  const uint64_t ring = sim.stats().zero_delay_events;
  EXPECT_EQ(ring, 1u);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, MoveOnlyCallables) {
  Simulator sim;
  int got = 0;
  auto payload = std::make_unique<int>(42);
  sim.Schedule(Micros(1), [&got, p = std::move(payload)] { got = *p; });
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(SimulatorTest, OversizedCaptureSpillsToHeapAndStillFires) {
  Simulator sim;
  struct Big {
    char bytes[96] = {};  // > EventRecord::kInlineBytes
  };
  Big big;
  big.bytes[95] = 7;
  int got = 0;
  int small = 0;
  sim.Schedule(Micros(1), [&got, big] { got = big.bytes[95]; });
  sim.Schedule(Micros(2), [&small] { small = 1; });  // fits inline
  EXPECT_EQ(sim.stats().heap_callables, 1u);
  sim.Run();
  EXPECT_EQ(got, 7);
  EXPECT_EQ(small, 1);
}

TEST(SimulatorTest, PendingEventsDisposedOnDestruction) {
  // Never-fired events (ring, wheel, and overflow) must release their
  // captured state when the simulator dies.
  auto token = std::make_shared<int>(1);
  {
    Simulator sim;
    sim.Schedule(0, [t = token] {});
    sim.Schedule(Micros(5), [t = token] {});
    sim.Schedule(Seconds(10), [t = token] {});  // far beyond wheel horizon
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorTest, FarFutureTimersOverflowAndMigrate) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Seconds(2), [&] { order.push_back(3); });
  sim.Schedule(Seconds(1), [&] { order.push_back(2); });
  sim.Schedule(Micros(1), [&] { order.push_back(1); });
  EXPECT_GE(sim.stats().overflow_events, 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Seconds(2));
}

// A pending zero-delay event comes before any timer in a later slot, so
// the engine must not open that slot yet. With the 5 ms slot left closed,
// the horizon stays ~262 µs past Now(), and a timer at 5.1 ms still lands
// in the overflow heap.
TEST(SimulatorTest, RingEventsDoNotOpenLaterSlots) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Millis(5), [&] { order.push_back(3); });
  sim.Schedule(0, [&] {
    order.push_back(1);
    sim.Schedule(Millis(5) + Micros(100), [&] { order.push_back(4); });
    sim.Schedule(Micros(1), [&] { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(sim.stats().overflow_events, 2u);
  EXPECT_EQ(sim.stats().timer_events, 1u);
}

TEST(SimulatorTest, StatsCountLanes) {
  Simulator sim;
  sim.Schedule(Micros(3), [] {});
  sim.Schedule(0, [] {});
  sim.Schedule(0, [] {});
  EXPECT_EQ(sim.stats().zero_delay_events, 2u);
  EXPECT_EQ(sim.stats().timer_events, 1u);
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(SimulatorTest, ZeroDelayFastPathAllocatesNothing) {
  Simulator sim;
  // Warm-up: grow the event pool and the ring to steady-state width, and let
  // coroutine frames etc. settle.
  constexpr int kWidth = 64;
  int warm = 0;
  for (int i = 0; i < kWidth; ++i) sim.Schedule(0, [&warm] { warm++; });
  sim.Run();
  EXPECT_EQ(warm, kWidth);

  // Measured phase: a self-sustaining zero-delay cascade. Every Schedule hit
  // must reuse pooled records with inline callable storage — zero heap
  // allocations end to end.
  int fired = 0;
  struct Chain {
    Simulator* sim;
    int* fired;
    int remaining;
    void operator()() {
      ++*fired;
      if (--remaining > 0) sim->Schedule(0, Chain{sim, fired, remaining});
    }
  };
  for (int i = 0; i < kWidth; ++i) {
    sim.Schedule(0, Chain{&sim, &fired, /*remaining=*/1000});
  }
  const uint64_t allocs_before = g_new_calls;
  sim.Run();
  const uint64_t allocs_during = g_new_calls - allocs_before;
  EXPECT_EQ(allocs_during, 0u);
  EXPECT_EQ(fired, kWidth * 1000);
}

// An exchange-shaped timer stream: 160 chains each re-arm themselves with
// a fixed delay of 1, 2, 4, 8 or 16 slots (0.256-4.096 µs) from a spread of
// start times, so about 60 timers share each 256 ns slot and the load
// repeats every 16 slots. Past the warm-up, the wheel turns over 4 times
// on the buffers of the few slots in the live window: a slot that gets its
// first timer takes a drained buffer rather than growing one of its own.
TEST(SimulatorTest, TimerStreamReusesWheelStorage) {
  Simulator sim;
  struct Rearm {
    Simulator* sim;
    Duration delay;
    uint64_t* fired;
    void operator()() const {
      ++*fired;
      sim->Schedule(delay, *this);
    }
  };
  uint64_t fired = 0;
  constexpr int kChains = 160;
  for (int i = 0; i < kChains; ++i) {
    const Duration delay = Nanos(256 << (i % 5));
    sim.Schedule(Nanos(1 + (i * 97) % 4096), Rearm{&sim, delay, &fired});
  }
  sim.RunFor(Micros(10));
  const uint64_t warm = fired;
  const uint64_t allocs_before = g_new_calls;
  sim.RunFor(Micros(1200));  // > 4 rotations of the 262 µs wheel
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  // 1200 µs of 32 chains at each of 256 ns .. 4096 ns.
  EXPECT_GT(fired - warm, 280'000u);
  EXPECT_EQ(sim.stats().overflow_events, 0u);
}

// ---------- coroutine-frame block pool ----------

Task<int> PoolLeaf(Simulator* sim, int v) {
  co_await Yield(sim);
  co_return v + 1;
}

Task<int> PoolMid(Simulator* sim, int v) {
  const int a = co_await PoolLeaf(sim, v);
  co_await Yield(sim);
  const int b = co_await PoolLeaf(sim, a);
  co_return b;
}

// One round: `width` spawned roots, each awaiting a small tree of tasks.
// Every suspension is a zero-delay ring event, so the only allocations left
// to count are the frames (TimerStreamReusesWheelStorage covers timed
// events).
void PoolRound(Simulator* sim, int width, int* sum) {
  for (int i = 0; i < width; ++i) {
    Spawn([sim, sum, i]() -> Task<void> {
      const int v = co_await PoolMid(sim, i);
      *sum += v;
    });
  }
  sim->Run();
}

TEST(BlockPoolTest, SteadyTaskCascadeAllocatesNothing) {
  Simulator sim;
  constexpr int kWidth = 64;
  int sum = 0;
  // Warm-up: the first round fills the frame cache, the event pool and the
  // ring.
  PoolRound(&sim, kWidth, &sum);
  PoolRound(&sim, kWidth, &sum);
  const uint64_t allocs_before = g_new_calls;
  for (int round = 0; round < 10; ++round) PoolRound(&sim, kWidth, &sum);
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  // Each root returns i + 2; twelve rounds of sum(i) + 2 * kWidth.
  EXPECT_EQ(sum, 12 * (kWidth * (kWidth - 1) / 2 + 2 * kWidth));
}

// One fan-out round: a root waits for 2 of 3 targets that fold into a
// state. Target i takes i + 1 ring hops, so the third is a straggler.
void FanOutRound(Simulator* sim, int* total) {
  Spawn([sim, total]() -> Task<void> {
    FanOut<int> fan(sim, 2, 3);
    for (int i = 0; i < 3; ++i) {
      fan.Spawn([sim, i](int& sum) -> Task<bool> {
        for (int hop = 0; hop <= i; ++hop) co_await Yield(sim);
        sum += i;
        co_return true;
      });
    }
    if (co_await fan.Wait()) *total += fan.state();
  });
  sim->Run();
}

TEST(BlockPoolTest, WarmFanOutAllocatesNothing) {
  Simulator sim;
  int total = 0;
  FanOutRound(&sim, &total);
  FanOutRound(&sim, &total);
  const uint64_t allocs_before = g_new_calls;
  for (int round = 0; round < 10; ++round) FanOutRound(&sim, &total);
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  // The waiter reads the first two folds (0 + 1); each round's third reply
  // lands after the outcome and is counted as a straggler.
  EXPECT_EQ(total, 12 * 1);
  EXPECT_EQ(sim.stats().fanout_stragglers, 12u);
}

TEST(BlockPoolTest, SimulatorDestructionReleasesCachedBlocks) {
  internal::BlockPool& pool = internal::BlockPool::Local();
  {
    Simulator sim;
    int sum = 0;
    PoolRound(&sim, 16, &sum);
    // Every frame of the round has been freed into this thread's cache.
    EXPECT_GT(pool.cached_blocks(), 0u);
  }
  EXPECT_EQ(pool.cached_blocks(), 0u);
}

TEST(BlockPoolTest, PoolAllocatorRecyclesBlocksBySizeClass) {
  Simulator sim;  // empties the cache when the test ends
  PoolAllocator<uint64_t> alloc;
  uint64_t* a = alloc.allocate(5);  // 40 B: the 48 B class
  alloc.deallocate(a, 5);
  const uint64_t allocs_before = g_new_calls;
  uint64_t* b = alloc.allocate(6);  // 48 B: same class, same block
  EXPECT_EQ(b, a);
  EXPECT_EQ(g_new_calls - allocs_before, 0u);
  uint64_t* c = alloc.allocate(7);  // 56 B: the next class, a new block
  EXPECT_NE(c, a);
  EXPECT_EQ(g_new_calls - allocs_before, 1u);
  alloc.deallocate(b, 6);
  alloc.deallocate(c, 7);
  EXPECT_EQ(internal::BlockPool::Local().cached_blocks(), 2u);
}

#if defined(__SANITIZE_ADDRESS__)
// Records the address of the awaiting coroutine's frame.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

Task<int> RecordFrame(void** out) {
  co_await FrameAddress{out};
  co_return 1;
}

// A destroyed frame sits poisoned in the cache, so ASan still reports a use
// of it; a block is unpoisoned when it is handed out again.
TEST(BlockPoolTest, CachedBlocksArePoisonedUntilReused) {
  Simulator sim;  // empties the cache when the test ends
  void* frame = nullptr;
  int got = 0;
  Spawn([&]() -> Task<void> { got = co_await RecordFrame(&frame); });
  ASSERT_EQ(got, 1);
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(frame));

  internal::BlockPool& pool = internal::BlockPool::Local();
  void* p = pool.Allocate(48);
  pool.Deallocate(p, 48);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  void* q = pool.Allocate(48);
  EXPECT_EQ(q, p);
  EXPECT_FALSE(__asan_address_is_poisoned(q));
  EXPECT_FALSE(__asan_address_is_poisoned(static_cast<char*>(q) + 47));
  pool.Deallocate(q, 48);
}
#endif

// ---------- timer cancellation ----------

// Counts live copies of itself, so a double destruction shows as a negative
// count and a leak as a positive one.
struct Counted {
  explicit Counted(int* live) : live(live) { ++*live; }
  Counted(const Counted& o) : live(o.live) { ++*live; }
  Counted(Counted&& o) noexcept : live(o.live) { ++*live; }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live; }
  int* live;
};

TEST(CancelTest, CancelledEventNeverFiresNorMovesTheClock) {
  Simulator sim;
  std::vector<int> fired;
  sim.Schedule(Micros(1), [&] { fired.push_back(1); });
  const TimerId wheel = sim.Schedule(Micros(2), [&] { fired.push_back(2); });
  const TimerId ring = sim.Schedule(0, [&] { fired.push_back(0); });
  const TimerId far = sim.Schedule(Millis(5), [&] { fired.push_back(5); });
  sim.Schedule(Micros(3), [&] { fired.push_back(3); });
  EXPECT_EQ(sim.pending_events(), 5u);
  sim.Cancel(wheel);
  sim.Cancel(ring);
  sim.Cancel(far);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.Now(), Micros(3));  // not 5 ms: the far timer is gone
  EXPECT_EQ(sim.executed_events(), 2u);
  EXPECT_EQ(sim.stats().cancelled_timers, 3u);
  EXPECT_EQ(sim.stats().overflow_events, 1u);  // counted at insert
  EXPECT_TRUE(sim.idle());
}

TEST(CancelTest, CancelFromAnotherEventBeforeItFires) {
  // The Exchange shape: the op completes first and cancels its deadline.
  Simulator sim;
  int deadline_fired = 0;
  const TimerId deadline =
      sim.Schedule(Millis(5), [&] { deadline_fired++; });
  sim.Schedule(Micros(4), [&] { sim.Cancel(deadline); });
  sim.Run();
  EXPECT_EQ(deadline_fired, 0);
  EXPECT_EQ(sim.Now(), Micros(4));
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(CancelTest, CancelAfterFireOrOnReusedRecordIsNoOp) {
  Simulator sim;
  int a = 0;
  int b = 0;
  const TimerId first = sim.Schedule(Micros(1), [&] { a++; });
  sim.Run();
  sim.Cancel(first);  // already fired
  EXPECT_EQ(sim.stats().cancelled_timers, 0u);

  // The pool's freelist is LIFO, so the next event reuses first's record.
  const TimerId second = sim.Schedule(Micros(1), [&] { b++; });
  ASSERT_EQ(second.rec, first.rec);
  sim.Cancel(first);  // stale stamp: must not touch the new event
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);

  const TimerId third = sim.Schedule(Micros(1), [&] { b++; });
  sim.Cancel(third);
  sim.Cancel(third);  // already cancelled
  sim.Cancel(TimerId{});  // never scheduled
  EXPECT_EQ(sim.stats().cancelled_timers, 1u);
  sim.Run();
  EXPECT_EQ(b, 1);
  EXPECT_EQ(sim.executed_events(), 2u);
}

TEST(CancelTest, TimerCancellingItselfIsNoOp) {
  Simulator sim;
  int live = 0;
  int fired = 0;
  TimerId self;
  self = sim.Schedule(Micros(1), [&sim, &self, &fired, c = Counted(&live)] {
    sim.Cancel(self);  // while running: the callable must survive the call
    EXPECT_EQ(*c.live, 1);
    fired++;
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(live, 0);
  EXPECT_EQ(sim.stats().cancelled_timers, 0u);
  EXPECT_EQ(sim.executed_events(), 1u);
}

TEST(CancelTest, CancelDestroysCapturesImmediately) {
  struct Big {
    char bytes[96] = {};  // > EventRecord::kInlineBytes
  };
  Simulator sim;
  auto token = std::make_shared<int>(1);
  const TimerId ring = sim.Schedule(0, [t = token] {});
  const TimerId wheel = sim.Schedule(Micros(5), [t = token] {});
  const TimerId far = sim.Schedule(Millis(5), [t = token] {});
  const TimerId heap = sim.Schedule(Micros(5), [t = token, big = Big{}] {});
  EXPECT_EQ(sim.stats().heap_callables, 1u);
  EXPECT_EQ(token.use_count(), 5);
  sim.Cancel(far);
  EXPECT_EQ(token.use_count(), 4);
  sim.Cancel(wheel);
  sim.Cancel(heap);
  sim.Cancel(ring);
  EXPECT_EQ(token.use_count(), 1);
  sim.Run();
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(CancelTest, CancelledEventsDisposedOnDestruction) {
  // Dead refs of cancelled events still sit in the ring, the wheel and the
  // overflow heap when the simulator dies: their callables must not be
  // destroyed a second time, and the live ones must not leak.
  int live = 0;
  {
    Simulator sim;
    std::vector<TimerId> ids;
    for (Duration d : {Duration{0}, Micros(5), Millis(5)}) {
      ids.push_back(sim.Schedule(d, [c = Counted(&live)] {}));
      sim.Schedule(d, [c = Counted(&live)] {});
    }
    // Four live far timers keep the heap under half cancelled: no
    // compaction, so the dead overflow refs survive to the destructor.
    for (int i = 0; i < 4; ++i) sim.Schedule(Millis(5), [] {});
    EXPECT_EQ(live, 6);
    for (const TimerId& id : ids) sim.Cancel(id);
    EXPECT_EQ(live, 3);
  }
  EXPECT_EQ(live, 0);
}

// Exchange-shaped churn: every 100 ns an op arms a 5 ms deadline and
// completes 1-4 µs later, except every 16th op, whose deadline fires. With
// `cancel` completion cancels the deadline; without it the deadline fires
// and finds the op done, as before cancellation existed. `log` records every
// event that does real work as (label, time).
struct DeadlineChurn {
  static constexpr int kOps = 100'000;

  explicit DeadlineChurn(bool cancel) : cancel(cancel) {
    deadline.resize(kOps);
    done.resize(kOps);
    sim.Schedule(0, [this] { Issue(0); });
  }

  void Issue(int i) {
    log.push_back({i, sim.Now()});
    if (i + 1 < kOps) sim.Schedule(Nanos(100), [this, i] { Issue(i + 1); });
    deadline[i] = sim.Schedule(Millis(5), [this, i] {
      if (!done[i]) log.push_back({-i, sim.Now()});
    });
    if (i % 16 == 0) return;
    sim.Schedule(Micros(1 + i % 4), [this, i] {
      done[i] = true;
      log.push_back({kOps + i, sim.Now()});
      if (cancel) sim.Cancel(deadline[i]);
    });
  }

  bool cancel;
  Simulator sim;
  std::vector<TimerId> deadline;
  std::vector<bool> done;
  std::vector<std::pair<int, TimePoint>> log;
};

TEST(CancelTest, ChurnKeepsOrderAndCompactsOverflow) {
  DeadlineChurn plain(/*cancel=*/false);
  plain.sim.Run();
  DeadlineChurn churn(/*cancel=*/true);
  // Sliced runs move the horizon in uneven steps between cancellations.
  while (!churn.sim.idle()) churn.sim.RunFor(Micros(37));

  ASSERT_EQ(churn.log.size(), plain.log.size());
  EXPECT_EQ(churn.log, plain.log);
  const uint64_t cancelled = churn.sim.stats().cancelled_timers;
  constexpr int kOps = DeadlineChurn::kOps;
  EXPECT_EQ(cancelled, uint64_t{kOps - kOps / 16});
  EXPECT_EQ(churn.sim.executed_events() + cancelled,
            plain.sim.executed_events());
  EXPECT_EQ(churn.sim.stats().overflow_events,
            plain.sim.stats().overflow_events);
  // Cancelled deadlines are freed (compaction), so the record pool tracks
  // the ~1/16 of deadlines that stay live, not every deadline ever armed.
  EXPECT_LT(churn.sim.stats().pool_blocks * 4, plain.sim.stats().pool_blocks);
}

// ---------- fire order vs a reference model ----------

// Random events on all three lanes (zero delay, inside the wheel's
// horizon, far past it), random cancellations from outside and inside
// callbacks, and random RunFor/RunUntil slices, checked against a
// std::set of the live pending events keyed by (when, seq): every event
// that fires must be the set's least element, at its own time.
class TimerOrderProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  Duration RandomDelay() {
    switch (rng_.NextBelow(3)) {
      case 0:
        return 0;
      case 1:
        return Nanos(static_cast<int64_t>(rng_.NextInRange(1, 262'144)));
      default:
        return Nanos(
            static_cast<int64_t>(rng_.NextInRange(1'000'000, 10'000'000)));
    }
  }

  void ScheduleOne() { ScheduleAfter(RandomDelay()); }

  // 32-95 timers in one 256 ns wheel slot up to 256 µs ahead, on 16
  // distinct times: a slot big enough for the counting sort, with ties
  // that must keep their seq order.
  void ScheduleBurst() {
    const TimePoint slot = static_cast<TimePoint>(
        (static_cast<uint64_t>(sim_.Now()) / 256 + 1 + rng_.NextBelow(1000)) *
        256);
    for (uint64_t n = 32 + rng_.NextBelow(64); n > 0; --n) {
      const auto offset = static_cast<Duration>(16 * rng_.NextBelow(16));
      ScheduleAfter(slot + offset - sim_.Now());
    }
  }

  void ScheduleAfter(Duration delay) {
    const uint64_t seq = ids_.size();
    when_.push_back(sim_.Now() + delay);
    ids_.push_back(sim_.Schedule(delay, [this, seq] { Fired(seq); }));
    model_.insert({when_[seq], seq});
  }

  // Cancels a random pending event, or half the time a random id, which
  // may have fired or been cancelled already and must then be a no-op.
  void CancelOne() {
    if (model_.empty()) return;
    uint64_t seq;
    if (rng_.NextBool()) {
      seq = rng_.NextBelow(ids_.size());
    } else {
      seq = std::next(model_.begin(),
                      static_cast<ptrdiff_t>(rng_.NextBelow(model_.size())))
                ->second;
    }
    sim_.Cancel(ids_[seq]);
    model_.erase({when_[seq], seq});
  }

  void Fired(uint64_t seq) {
    const std::pair<TimePoint, uint64_t> got{sim_.Now(), seq};
    if (model_.empty() || *model_.begin() != got) {
      if (mismatches_++ == 0) {
        ADD_FAILURE() << "seq " << seq << " fired at " << sim_.Now()
                      << ", out of (when, seq) order or cancelled";
      }
      model_.erase({when_[seq], seq});
    } else {
      model_.erase(model_.begin());
    }
    ++fired_;
    // Half a child per event on average, so the population stays bounded.
    if (rng_.NextBool()) ScheduleOne();
    if (rng_.NextBool(0.2)) CancelOne();
  }

  // A slice length: within a slot, across the wheel, or past its horizon.
  Duration RandomSlice() {
    switch (rng_.NextBelow(3)) {
      case 0:
        return Nanos(static_cast<int64_t>(rng_.NextBelow(512)));
      case 1:
        return Nanos(static_cast<int64_t>(rng_.NextBelow(300'000)));
      default:
        return Nanos(static_cast<int64_t>(rng_.NextBelow(12'000'000)));
    }
  }

  Rng rng_{GetParam()};
  Simulator sim_;
  std::set<std::pair<TimePoint, uint64_t>> model_;  // live (when, seq)
  std::vector<TimerId> ids_;                         // by seq
  std::vector<TimePoint> when_;                      // by seq
  uint64_t fired_ = 0;
  uint64_t mismatches_ = 0;
};

TEST_P(TimerOrderProperty, FireOrderMatchesReferenceModel) {
  for (int round = 0; round < 20'000; ++round) {
    for (uint64_t n = rng_.NextBelow(6); n > 0; --n) ScheduleOne();
    if (rng_.NextBool(0.05)) ScheduleBurst();
    for (uint64_t n = rng_.NextBelow(3); n > 0; --n) CancelOne();
    const TimePoint deadline = sim_.Now() + RandomSlice();
    if (rng_.NextBool()) {
      sim_.RunUntil(deadline);
    } else {
      sim_.RunFor(deadline - sim_.Now());
    }
    ASSERT_EQ(sim_.Now(), deadline);
    // Nothing due by the deadline is left behind.
    if (!model_.empty()) {
      ASSERT_GT(model_.begin()->first, deadline);
    }
    ASSERT_EQ(sim_.pending_events(), model_.size());
  }
  sim_.Run();
  EXPECT_EQ(mismatches_, 0u);
  EXPECT_TRUE(model_.empty());
  EXPECT_EQ(sim_.executed_events(), fired_);
  // Every lane and cancellation were exercised.
  EXPECT_GT(sim_.stats().zero_delay_events, 1000u);
  EXPECT_GT(sim_.stats().timer_events, 1000u);
  EXPECT_GT(sim_.stats().overflow_events, 1000u);
  EXPECT_GT(sim_.stats().cancelled_timers, 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerOrderProperty,
                         ::testing::Values(1, 2, 3));

// ---------- schedule-space exploration hook ----------

// Records every enabled window it is shown and picks a scripted index.
class ScriptedHook : public ScheduleHook {
 public:
  ScriptedHook(Duration window, std::vector<size_t> picks)
      : window_(window), picks_(std::move(picks)) {}

  Duration window() const override { return window_; }
  size_t Pick(const std::vector<EnabledEvent>& enabled) override {
    windows_.push_back(enabled);
    if (next_ < picks_.size()) return picks_[next_++];
    return 0;
  }

  const std::vector<std::vector<EnabledEvent>>& windows() const {
    return windows_;
  }

 private:
  Duration window_;
  std::vector<size_t> picks_;
  size_t next_ = 0;
  std::vector<std::vector<EnabledEvent>> windows_;
};

TEST(ScheduleHookTest, EnabledWindowIsSortedAndBounded) {
  Simulator sim;
  ScriptedHook hook(/*window=*/Nanos(200), /*picks=*/{});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(100), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(100), [&] { fired.push_back(1); });
  sim.Schedule(Nanos(150), [&] { fired.push_back(2); });
  sim.Schedule(Nanos(400), [&] { fired.push_back(3); });
  sim.Run();
  // Identity picks: production order.
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_EQ(hook.windows().size(), 4u);
  // First window: the two ties at 100 plus 150 (within 100+200); the event
  // at 400 is outside. Entries sorted by (when, seq).
  const auto& w0 = hook.windows()[0];
  ASSERT_EQ(w0.size(), 3u);
  EXPECT_EQ(w0[0].when, Nanos(100));
  EXPECT_EQ(w0[1].when, Nanos(100));
  EXPECT_LT(w0[0].seq, w0[1].seq);
  EXPECT_EQ(w0[2].when, Nanos(150));
  // Last window: only the 400 ns event remains.
  EXPECT_EQ(hook.windows()[3].size(), 1u);
}

TEST(ScheduleHookTest, PickedEventFiresAtItsOwnTimeAndDelaysTheRest) {
  Simulator sim;
  // One decision: from the first window pick index 2 (the 150 ns event).
  ScriptedHook hook(Nanos(200), {2});
  sim.SetScheduleHook(&hook);
  std::vector<std::pair<int, TimePoint>> fired;
  sim.Schedule(Nanos(100), [&] { fired.push_back({0, sim.Now()}); });
  sim.Schedule(Nanos(100), [&] { fired.push_back({1, sim.Now()}); });
  sim.Schedule(Nanos(150), [&] { fired.push_back({2, sim.Now()}); });
  sim.Run();
  ASSERT_EQ(fired.size(), 3u);
  // The 150 ns event jumps the queue and fires at its scheduled time —
  // never earlier (no premature execution).
  EXPECT_EQ(fired[0], (std::pair<int, TimePoint>{2, Nanos(150)}));
  // The delayed ties fire afterwards, late but in FIFO order, within the
  // soundness bound when + window.
  EXPECT_EQ(fired[1].first, 0);
  EXPECT_EQ(fired[2].first, 1);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].second, Nanos(100));
    EXPECT_LE(fired[i].second, Nanos(100) + Nanos(200));
  }
}

TEST(ScheduleHookTest, AdversarialPicksStayWithinSoundnessBound) {
  // Always pick the LAST enabled event: maximal reordering pressure. Every
  // event must still fire within [when, when + window], and all of them
  // must fire exactly once.
  Simulator sim;
  class LastHook : public ScheduleHook {
   public:
    Duration window() const override { return Nanos(300); }
    size_t Pick(const std::vector<EnabledEvent>& enabled) override {
      return enabled.size() - 1;
    }
  } hook;
  sim.SetScheduleHook(&hook);
  std::vector<std::pair<TimePoint, TimePoint>> fired;  // (scheduled, actual)
  for (int i = 0; i < 64; ++i) {
    const TimePoint when = Nanos(50 * (i % 16));
    sim.ScheduleAt(when, [&fired, when, &sim] {
      fired.push_back({when, sim.Now()});
    });
  }
  sim.Run();
  ASSERT_EQ(fired.size(), 64u);
  for (const auto& [when, at] : fired) {
    EXPECT_GE(at, when);
    EXPECT_LE(at, when + Nanos(300));
  }
}

TEST(ScheduleHookTest, OutOfRangePickFallsBackToFront) {
  Simulator sim;
  ScriptedHook hook(Nanos(100), {99, 99, 99});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(10), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(20), [&] { fired.push_back(1); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(ScheduleHookTest, RunUntilDeadlineHoldsUnderHook) {
  Simulator sim;
  // Generous window that would otherwise let the 120 ns event into the
  // first enabled set; the deadline must clip it.
  ScriptedHook hook(Nanos(1000), {1});
  sim.SetScheduleHook(&hook);
  std::vector<int> fired;
  sim.Schedule(Nanos(50), [&] { fired.push_back(0); });
  sim.Schedule(Nanos(120), [&] { fired.push_back(1); });
  sim.RunUntil(Nanos(100));
  // Only the 50 ns event ran (the scripted pick of index 1 was clipped to
  // the lone in-deadline event and fell back to it).
  EXPECT_EQ(fired, (std::vector<int>{0}));
  EXPECT_EQ(sim.Now(), Nanos(100));
  sim.Run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1}));
}

TEST(ScheduleHookTest, HookedEventsDisposedOnDestruction) {
  ScriptedHook hook(Nanos(100), {});
  auto guard = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.SetScheduleHook(&hook);
    sim.Schedule(Nanos(10), [guard] { (void)*guard; });
    EXPECT_EQ(guard.use_count(), 2);
  }
  // The undrained hooked event was destroyed, not leaked.
  EXPECT_EQ(guard.use_count(), 1);
}

// Runs the Exchange shape in the hooked lane: an early timer, an op at
// 100 ns that (with `cancel`) cancels its 5 ms deadline, and one at 120 ns.
struct HookedDeadline {
  explicit HookedDeadline(bool cancel) : hook(Nanos(1000), {}) {
    sim.SetScheduleHook(&hook);
    const TimerId early =
        sim.Schedule(Nanos(50), [this] { fired.push_back(9); });
    sim.Schedule(Nanos(100), [this, cancel] {
      fired.push_back(0);
      if (cancel) sim.Cancel(deadline);
    });
    deadline = sim.Schedule(Millis(5), [this] { fired.push_back(5); });
    sim.Schedule(Nanos(120), [this] { fired.push_back(1); });
    if (cancel) sim.Cancel(early);
    sim.Run();
  }

  Simulator sim;
  ScriptedHook hook;
  TimerId deadline;
  std::vector<int> fired;
};

TEST(ScheduleHookTest, CancelledTimersNeitherFireNorMoveTheClock) {
  const HookedDeadline plain(/*cancel=*/false);
  const HookedDeadline cancelled(/*cancel=*/true);
  EXPECT_EQ(plain.fired, (std::vector<int>{9, 0, 1, 5}));
  EXPECT_EQ(plain.sim.Now(), Millis(5));
  // Cancelled events never fire, never count and never move the clock.
  EXPECT_EQ(cancelled.fired, (std::vector<int>{0, 1}));
  EXPECT_EQ(cancelled.sim.Now(), Nanos(120));
  EXPECT_EQ(cancelled.sim.executed_events(), 2u);
  EXPECT_EQ(cancelled.sim.stats().cancelled_timers, 2u);
  EXPECT_TRUE(cancelled.sim.idle());
  // But the hook sees the same steps and windows as without cancellation,
  // so explorer step numbers and burst horizons do not move.
  ASSERT_EQ(cancelled.hook.windows().size(), plain.hook.windows().size());
  for (size_t i = 0; i < plain.hook.windows().size(); ++i) {
    const auto& a = cancelled.hook.windows()[i];
    const auto& b = plain.hook.windows()[i];
    ASSERT_EQ(a.size(), b.size()) << "step " << i;
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].when, b[j].when) << "step " << i;
      EXPECT_EQ(a[j].seq, b[j].seq) << "step " << i;
    }
  }
}

TEST(SleepTest, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(0, [&] { order.push_back(2); });
  Spawn([&]() -> Task<void> {
    order.push_back(1);  // spawn runs synchronously to the first suspension,
    co_await Yield(&sim);  // then requeues behind the already-queued event
    order.push_back(3);
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace prism::sim
