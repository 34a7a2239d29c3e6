// Synchronization primitives for simulated tasks.
//
// All wakeups are funneled through Simulator::Resume (never nested resumption)
// so waiters run in strict FIFO arrival order at the timestamp of the wakeup.
// Resume(h) is the simulator's zero-delay fast path — a pooled O(1) ring push
// with the coroutine handle stored inline, no heap allocation — so handoffs
// here (Event::Set fan-out, Channel push-to-consumer, Mutex/ServiceQueue
// ownership transfer) cost a few nanoseconds of real time per wakeup.
//
//  * Event        — one-shot manual event, any number of waiters.
//  * FanOut<S>    — "k of n" join of one round of parallel targets (every
//                   quorum round, and the sync schemes' pipelined verbs);
//                   the caller wakes when k succeed, or when k no longer can.
//  * Channel<T>   — unbounded MPSC-style queue with awaiting consumers; the
//                   request queue of every simulated service.
//  * Mutex        — FIFO coroutine mutex (used by server-side daemons).
//  * ServiceQueue — N identical servers with a FIFO queue; models CPU core
//                   pools and NIC processing pipelines. The queueing here is
//                   what bends the throughput–latency curves in Figs. 3–10.
#ifndef PRISM_SRC_SIM_SYNC_H_
#define PRISM_SRC_SIM_SYNC_H_

#include <coroutine>
#include <deque>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace prism::sim {

class Event {
 public:
  explicit Event(Simulator* sim) : sim_(sim) {}

  void Set() {
    if (set_) return;
    set_ = true;
    for (auto h : waiters_) sim_->Resume(h);
    waiters_.clear();
  }

  bool is_set() const { return set_; }

  auto Wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulator* sim_;
  bool set_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

// The state of a fan-out whose targets only count.
struct NoState {};

// One k-of-n round of parallel targets (DESIGN.md §5.14): its counters, the
// round state S, the one waiter and a straggler count in one pooled block.
// Spawn starts a target at once, like sim::Spawn; a target is a Task<bool>
// or a callable returning one (taking S& to reach the state), and its
// co_return value is its Arrive. Once `need` targets succeed, or no longer
// can, the waiter gets one Resume; replies after that are stragglers. The
// block lives until this object is gone and every spawned target arrived.
template <typename State = NoState>
class FanOut {
 public:
  FanOut(Simulator* sim, int need, int total)
      : b_(::new (PoolAllocator<Block>().allocate(1))
               Block(sim, need, total)) {
    PRISM_CHECK(need >= 0 && need <= total);
  }
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;
  ~FanOut() {
    b_->waiter = {};  // a waiter destroyed unresumed is never resumed
    b_->Release();
  }

  State& state() { return b_->state; }
  int stragglers() const { return b_->stragglers; }
  void Arrive(bool success = true) { b_->Arrive(success); }

  template <typename F>
  void Spawn(F&& fn, TaskTracker* tracker = nullptr) {
    ++b_->holders;
    Drive(std::forward<F>(fn), b_, tracker);
  }

  // Resolves true iff `need` targets succeeded.
  auto Wait() {
    struct Awaiter {
      Block* b;
      bool await_ready() const noexcept { return b->decided(); }
      void await_suspend(std::coroutine_handle<> h) noexcept { b->waiter = h; }
      bool await_resume() const noexcept { return b->successes >= b->need; }
    };
    return Awaiter{b_};
  }

 private:
  struct Block {
    Block(Simulator* s, int n, int t) : sim(s), need(n), total(t) {}

    Simulator* sim;
    int need, total, arrived = 0, successes = 0, stragglers = 0;
    int holders = 1;  // the FanOut object and the spawned targets out
    std::coroutine_handle<> waiter;
    State state{};

    bool decided() const {
      return successes >= need || successes + (total - arrived) < need;
    }
    void Arrive(bool success) {
      PRISM_CHECK_LT(arrived, total);
      const bool was_decided = decided();
      ++arrived;
      successes += success ? 1 : 0;
      if (was_decided) {
        ++stragglers;
        sim->CountFanoutStraggler();
      } else if (waiter && decided()) {
        sim->Resume(std::exchange(waiter, {}));
      }
    }
    void Release() {
      if (--holders > 0) return;
      this->~Block();
      PoolAllocator<Block>().deallocate(this, 1);
    }
  };

  // The driver frame keeps the callable, and so a lambda coroutine's
  // closure, alive (as internal::DriveCallable does).
  template <typename F>
  static internal::Detached Drive(F fn, Block* b, TaskTracker* tracker) {
    if (tracker != nullptr) tracker->OnStart();
    bool ok;
    if constexpr (std::is_same_v<F, Task<bool>>) {
      ok = co_await std::move(fn);
    } else if constexpr (std::is_invocable_v<F&, State&>) {
      ok = co_await fn(b->state);
    } else {
      ok = co_await fn();
    }
    b->Arrive(ok);
    b->Release();
    if (tracker != nullptr) tracker->OnFinish();
  }

  Block* b_;
};

template <typename T>
class Channel {
 public:
  explicit Channel(Simulator* sim) : sim_(sim) {}

  void Push(T item) {
    items_.push_back(std::move(item));
    if (!consumers_.empty()) {
      auto h = consumers_.front();
      consumers_.pop_front();
      sim_->Resume(h);
    }
  }

  // Awaits the next item. Multiple concurrent consumers are served FIFO.
  Task<T> Pop() {
    while (items_.empty()) {
      co_await Park();
    }
    T item = std::move(items_.front());
    items_.pop_front();
    co_return item;
  }

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

 private:
  auto Park() {
    struct Awaiter {
      Channel* channel;
      bool await_ready() const noexcept { return !channel->items_.empty(); }
      void await_suspend(std::coroutine_handle<> h) {
        channel->consumers_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  Simulator* sim_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> consumers_;
};

class Mutex {
 public:
  explicit Mutex(Simulator* sim) : sim_(sim) {}

  auto Lock() {
    struct Awaiter {
      Mutex* mutex;
      bool await_ready() const noexcept {
        if (!mutex->locked_) {
          mutex->locked_ = true;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        mutex->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void Unlock() {
    PRISM_CHECK(locked_);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Resume(h);  // lock ownership transfers to the woken waiter
    } else {
      locked_ = false;
    }
  }

  bool locked() const { return locked_; }

 private:
  Simulator* sim_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

// N-server FIFO queueing station.
class ServiceQueue {
 public:
  ServiceQueue(Simulator* sim, int servers) : sim_(sim), servers_(servers) {
    PRISM_CHECK_GT(servers, 0);
  }

  // Occupies one server for `service` time; resumes the caller when done.
  Task<void> Use(Duration service) {
    co_await Acquire();
    co_await SleepFor(sim_, service);
    Release();
  }

  int busy() const { return busy_; }
  int servers() const { return servers_; }
  size_t queue_length() const { return waiters_.size(); }
  // Aggregate busy time across servers (server-seconds), maintained as a
  // time integral of the busy level: utilization = busy/(servers*elapsed).
  Duration total_busy() const {
    return busy_integral_ + busy_ * (sim_->Now() - last_change_);
  }

  // Manual hold: co_await Acquire(), do interleaved work, then Release().
  // Used when a server must stay occupied across several awaits (e.g. a
  // software-PRISM core executing each op of a chain in its own event).
  // Prefer Use() when the hold is a single fixed duration.
  struct AcquireAwaiter {
    ServiceQueue* q;
    bool await_ready() const noexcept {
      if (q->busy_ < q->servers_) {
        q->OnBusyChange();
        ++q->busy_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      q->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    PRISM_CHECK_GT(busy_, 0);
    if (!waiters_.empty()) {
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_->Resume(h);  // server slot passes directly to the next waiter
    } else {
      OnBusyChange();
      --busy_;
    }
  }

 private:
  void OnBusyChange() const {
    busy_integral_ += busy_ * (sim_->Now() - last_change_);
    last_change_ = sim_->Now();
  }

  Simulator* sim_;
  int servers_;
  int busy_ = 0;
  mutable Duration busy_integral_ = 0;
  mutable TimePoint last_change_ = 0;
  std::deque<std::coroutine_handle<>> waiters_;
};

}  // namespace prism::sim

#endif  // PRISM_SRC_SIM_SYNC_H_
