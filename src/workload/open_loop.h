// Open-loop client pools: millions of logical clients, flat per-client
// memory.
//
// The closed-loop harness (driver.h) gives every client a live coroutine
// frame — hundreds of bytes of frame plus transport state per client, which
// caps a simulation at a few hundred clients. Open-loop load at the
// ROADMAP's "millions of users" scale inverts the representation:
//
//  * Each logical client is a ClientSlot — a 16-byte POD state machine
//    (key-space rng cursor, issue/outstanding counters, pending-op tag,
//    histogram handle). One flat array holds the whole population;
//    per-client memory is sizeof(ClientSlot) regardless of load
//    (CI-guarded at ≤64 B/client in fig_overload --guard). Start fills it
//    in one pass over the array, allocated uninitialized: each slot takes
//    two draws off the init rng (its key-space cursor, then its class pick
//    by a scan of the cumulative weights). With AVX2, four contiguous
//    quarters fill at once from four copies of that rng, each jumped ahead
//    to its quarter's first draw (Rng::Advance), so every slot and the
//    rng's end state equal the one-stream fill's (open_loop.cc, DESIGN.md).
//
//  * A single arrival-driver coroutine pulls inter-arrival gaps from an
//    ArrivalProcess and stamps each arrival onto a uniformly chosen slot.
//    Arrivals are independent of completions — the open-loop property. The
//    driver picks each arrival's client one arrival early and prefetches
//    its slot, so the slot's cache miss overlaps the gap's simulated work
//    rather than stalling the arrival.
//
//  * The driver also takes the op's key-space draw off the slot at arrival
//    and carries it, with the class tag, in the backlog entry. The backlog
//    is FIFO and a worker draws nothing between its pop and the op, so a
//    client's k-th arrival is also its k-th pop: the arrival-time draw is
//    the value a pop-time draw would give.
//
//  * A bounded pool of worker coroutines drains the arrival backlog and
//    executes each op through the caller's OpFn (which owns the transport
//    clients, shared per pool — in real deployments a host's clients share
//    QPs exactly like this, which is what makes verb-layer doorbell
//    batching apply). Live coroutine frames are O(workers), not O(clients),
//    and a worker touches a slot only to retire its outstanding count.
//
// Latency is measured from *arrival* to completion, so client-side queueing
// — the quantity that explodes past saturation — is part of every sample;
// that is what makes the fig_overload latency-vs-offered-load curves
// meaningful. Per-class recorders use common/histogram's lossless merge so
// per-pool results combine exactly (satellite: histogram merge fix).
//
// Determinism: one arrival driver + FIFO channel + FIFO workers inside a
// single-threaded simulation; every random draw comes off an explicit
// seeded rng. Bit-identical across runs and --jobs (workload_test).
#ifndef PRISM_SRC_WORKLOAD_OPEN_LOOP_H_
#define PRISM_SRC_WORKLOAD_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/obs/obs.h"
#include "src/obs/timeline.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/workload/arrival.h"
#include "src/workload/driver.h"

namespace prism::workload {

// Compact per-client state machine. The whole client fits in 16 bytes; a
// million-client pool is 16 MB of flat array, no per-client heap objects.
// `hist` always equals `tag` (one recorder per class).
struct ClientSlot {
  uint64_t rng;          // splitmix64 key-space cursor (private op stream)
  uint32_t issued;       // arrivals stamped on this client
  uint16_t outstanding;  // arrivals not yet completed (backlogged or live)
  uint8_t tag;           // op-class index of this client's ops
  uint8_t hist;          // recorder handle its latencies merge into
};
static_assert(sizeof(ClientSlot) == 16,
              "ClientSlot must stay compact: the ≤64 B/client guard in "
              "fig_overload budgets 16 B of slot + allocator/backlog slack");

namespace internal {

enum class FillPath { kLanes, kScalar };

// Writes slots[0, n) from `rng`, two draws per slot, and leaves `rng` 2n
// draws on. `weights` are the class weights in AddClass order. kLanes runs
// the four-lane AVX2 fill when the CPU has AVX2 and the scalar loop
// otherwise; kScalar forces the scalar loop, the reference that tests
// compare the lanes with byte for byte.
void FillSlots(ClientSlot* slots, uint64_t n, std::span<const double> weights,
               Rng* rng, FillPath path = FillPath::kLanes);
// Whether kLanes runs the AVX2 lanes on this CPU.
bool HasAvx2Fill();

}  // namespace internal

struct PoolOptions {
  // Worker coroutines per pool: bounds live frames and the op concurrency
  // one host can sustain (an op beyond this queues in the backlog, which is
  // the client-side queueing the overload figures measure).
  int workers = 256;
};

class OpenLoopPool {
 public:
  // Executes one operation; `draw` is the client's 64-bit key-space draw
  // (deterministic per client). The callee owns transports and servers.
  // `op` is the op's phase timeline (nullptr when attribution is off). The
  // app op the callee calls first takes its ctx from the hub's entry
  // register; a callee that suspends before calling another app op (a
  // retry) re-arms it (src/obs/obs.h), and may stamp its own waits.
  using OpFn = std::function<sim::Task<void>(uint64_t draw, obs::OpTimeline* op)>;

  OpenLoopPool(sim::Simulator* sim, const ArrivalSpec& spec,
               uint64_t n_clients, Rng rng, PoolOptions opts = {})
      : sim_(sim),
        opts_(opts),
        arrivals_(spec, rng.Fork()),
        pick_rng_(rng.Fork()),
        init_rng_(rng.Fork()),
        n_clients_(n_clients),
        queue_(sim) {
    // Backlog entries carry a 32-bit client index, with kPoison reserved.
    PRISM_CHECK_LT(n_clients, kPoison) << "n_clients must fit a 32-bit index";
    PRISM_CHECK_GT(n_clients, 0u);
    PRISM_CHECK_GT(opts.workers, 0);
  }

  // Registers an op class (e.g. "kv.get") receiving a weight-proportional
  // share of the client population. Call before Start.
  void AddClass(std::string name, double weight, OpFn fn) {
    PRISM_CHECK_GT(weight, 0.0);
    PRISM_CHECK(!started_);
    classes_.push_back(OpClass{std::move(name), weight, std::move(fn)});
    PRISM_CHECK_LE(classes_.size(), 256u) << "tag/hist are 8-bit handles";
  }

  // Optional per-op phase attribution: every arrival gets an OpTimeline in
  // `store` (class indices resolved by name, so pools on many hosts can
  // share one store) and workers hand each op its ctx through `hub`'s entry
  // register (src/obs/obs.h). When the hub carries a tracer, each op also
  // gets its own root span (named after its class, attributed to `host`)
  // so traces render one async track per op and exemplars pin exactly
  // their own span tree. Call before Start; nullptr (the default) keeps
  // the pool timeline-free with zero per-op overhead.
  void set_timelines(obs::TimelineStore* store, obs::Hub* hub,
                     uint32_t host = 0) {
    PRISM_CHECK(!started_);
    store_ = store;
    hub_ = hub;
    obs_host_ = host;
  }

  // Materializes the population and spawns the arrival driver + workers.
  // Arrivals flow until `end`; recorders window [measure_start, end]. The
  // caller then advances the simulation (RunUntil(end + drain), Run()) and
  // calls CheckDrained().
  void Start(sim::TimePoint measure_start, sim::TimePoint end) {
    PRISM_CHECK(!started_);
    PRISM_CHECK(!classes_.empty());
    started_ = true;
    measure_start_ = measure_start;
    end_ = end;
    FillClients();
    for (size_t c = 0; c < classes_.size(); ++c) {
      recorders_.push_back(
          std::make_unique<Recorder>(sim_, measure_start, end));
    }
    if (store_ != nullptr) {
      store_->SetWindow(measure_start, end);
      for (const OpClass& c : classes_) {
        store_cls_.push_back(store_->EnsureClass(c.name));
      }
    }
    sim::Spawn(Driver(), &tracker_);
    for (int w = 0; w < opts_.workers; ++w) {
      sim::Spawn(Worker(), &tracker_);
    }
  }

  void CheckDrained() const {
    PRISM_CHECK_EQ(tracker_.live(), 0)
        << "open-loop pool not drained; raise the post-end drain window";
    PRISM_CHECK(queue_.empty());
  }

  // Per-class measurement-window results (index = AddClass order).
  const Recorder& recorder(size_t cls) const { return *recorders_[cls]; }
  const std::string& class_name(size_t cls) const {
    return classes_[cls].name;
  }
  size_t n_classes() const { return classes_.size(); }
  // Ops completed per class over the whole run (measurement window and
  // out), for complexity accounting against whole-run transport tallies.
  uint64_t class_completions(size_t cls) const {
    return class_completions_[cls];
  }

  // Arrivals stamped inside the measurement window: the *measured* offered
  // load (completions may be fewer — that gap is the overload signal).
  uint64_t measured_arrivals() const { return measured_arrivals_; }
  uint64_t arrivals() const { return arrivals_count_; }
  uint64_t completions() const { return completions_; }
  size_t backlog() const { return queue_.size(); }
  size_t peak_backlog() const { return peak_backlog_; }
  uint64_t n_clients() const { return n_clients_; }
  // Flat per-client state: the quantity the ≤64 B/client guard bounds.
  size_t state_bytes() const {
    return started_ ? n_clients_ * sizeof(ClientSlot) : 0;
  }
  const ClientSlot& client(uint64_t i) const { return clients_[i]; }

 private:
  struct OpClass {
    std::string name;
    double weight;
    OpFn fn;
  };

  // An arrival waiting in the backlog, 32 bytes: everything its op needs
  // (class tag, key-space draw, arrival time, timeline), so the worker
  // touches the client's slot only to retire it. This is transient channel
  // state — one entry per backlogged arrival, not per client — so the
  // ≤64 B/client guard, which bounds the 16 B slot, is unaffected.
  struct Pending {
    uint32_t client;  // kPoison tells a worker to stop
    uint8_t tag;
    sim::TimePoint arrival;
    obs::OpTimeline* op;  // null when attribution is off
    uint64_t draw;        // the client's next SplitMix output, taken at arrival
  };
  static_assert(sizeof(Pending) == 32);
  static constexpr uint32_t kPoison = 0xffffffffu;

  static uint64_t SplitMix(uint64_t* s) {
    uint64_t z = (*s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  void FillClients() {
    clients_ = std::make_unique_for_overwrite<ClientSlot[]>(n_clients_);
    double weights[256] = {};  // AddClass admits at most 256 classes
    for (size_t c = 0; c < classes_.size(); ++c) {
      weights[c] = classes_[c].weight;
    }
    internal::FillSlots(clients_.get(), n_clients_,
                        std::span(weights, classes_.size()), &init_rng_);
  }

  uint32_t PickClient() {
    const uint32_t c = static_cast<uint32_t>(pick_rng_.NextBelow(n_clients_));
    __builtin_prefetch(&clients_[c], /*rw=*/1);
    return c;
  }

  sim::Task<void> Driver() {
    // One arrival ahead: the next client is drawn (and its slot fetched)
    // before the gap elapses. pick_rng_ sees the same sequence of draws,
    // plus one unused draw when arrivals end.
    uint32_t next = PickClient();
    while (true) {
      const sim::Duration gap = arrivals_.NextGap(sim_->Now());
      co_await sim::SleepFor(sim_, gap);
      if (sim_->Now() >= end_) break;
      const uint32_t c = next;
      ClientSlot& slot = clients_[c];
      slot.issued++;
      slot.outstanding++;
      const uint64_t draw = SplitMix(&slot.rng);
      arrivals_count_++;
      if (sim_->Now() >= measure_start_) measured_arrivals_++;
      // The timeline is born at arrival, in kBacklogWait: everything until
      // a worker pops it is client-side queueing.
      obs::OpTimeline* op =
          store_ != nullptr ? store_->StartOp(store_cls_[slot.tag], sim_->Now())
                            : nullptr;
      queue_.Push(Pending{c, slot.tag, sim_->Now(), op, draw});
      if (queue_.size() > peak_backlog_) peak_backlog_ = queue_.size();
      next = PickClient();
    }
    for (int w = 0; w < opts_.workers; ++w) {
      queue_.Push(Pending{kPoison, 0, 0, nullptr, 0});
    }
  }

  sim::Task<void> Worker() {
    while (true) {
      Pending p = co_await queue_.Pop();
      if (p.client == kPoison) break;
      OpClass& cls = classes_[p.tag];
      obs::SpanId op_span = 0;
      if (p.op != nullptr) {
        // Backlog wait ends here; the op body starts in kApp and takes its
        // ctx from the entry register, armed here with no suspension
        // before fn's first read (src/obs/obs.h).
        p.op->Switch(obs::Phase::kApp, sim_->Now());
        // Per-op root span: every verb the op issues becomes a descendant,
        // so traces render one async track per op and the exemplar store
        // pins exactly this op's tree.
        op_span = hub_->StartSpan(cls.name, "app", obs_host_, sim_->Now(),
                                  /*parent=*/0);
        p.op->set_root_span(op_span);
        hub_->SetCurrentOp(p.op);
        hub_->SetCurrentSpan(op_span);
      }
      co_await cls.fn(p.draw, p.op);
      if (p.op != nullptr) {
        hub_->SetCurrentOp(nullptr);
        hub_->SetCurrentSpan(0);
        hub_->FinishSpan(op_span, sim_->Now());
        store_->FinishOp(p.op, sim_->Now());
      }
      // Latency from *arrival*: client-side backlog wait included.
      recorders_[p.tag]->Record(p.arrival);
      class_completions_[p.tag]++;
      completions_++;
      clients_[p.client].outstanding--;
    }
  }

  sim::Simulator* sim_;
  PoolOptions opts_;
  ArrivalProcess arrivals_;
  Rng pick_rng_;
  Rng init_rng_;
  uint64_t n_clients_;
  bool started_ = false;
  sim::TimePoint measure_start_ = 0;
  sim::TimePoint end_ = 0;

  obs::TimelineStore* store_ = nullptr;
  obs::Hub* hub_ = nullptr;
  uint32_t obs_host_ = 0;  // host label for per-op root spans
  std::vector<uint32_t> store_cls_;  // pool class index -> store class index

  std::unique_ptr<ClientSlot[]> clients_;  // n_clients_ slots
  std::vector<OpClass> classes_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  uint64_t class_completions_[256] = {};
  sim::Channel<Pending> queue_;
  sim::TaskTracker tracker_;

  uint64_t arrivals_count_ = 0;
  uint64_t measured_arrivals_ = 0;
  uint64_t completions_ = 0;
  size_t peak_backlog_ = 0;
};

}  // namespace prism::workload

#endif  // PRISM_SRC_WORKLOAD_OPEN_LOOP_H_
