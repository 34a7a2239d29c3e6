// The simulated network fabric connecting hosts.
//
// The fabric models *timing only*: application payloads travel through C++
// closures while the fabric charges serialization (with FIFO queueing at the
// sender's egress and the receiver's ingress links), propagation, and
// delivery order. Server saturation in Figures 3–10 emerges from the ingress/
// egress byte accounting here.
//
// Link model (cut-through): a message of b bytes leaving src at time t
//   departs egress at  d  = max(t, egress.free);        egress.free = d + ser(b)
//   last bit arrives   a  = d + ser(b) + propagation
//   delivery completes r  = max(a, ingress.free + ser(b)); ingress.free = r
// so an uncontended message pays ser(b) exactly once end-to-end, while a
// contended ingress (many clients hammering one server) or egress (one server
// answering many clients) serializes at link bandwidth.
//
// Engine: a fabric is backed by exactly one sim::Simulator, shared by every
// host. Host cores, protocol coroutines, completions and timeouts all
// schedule on sim().
#ifndef PRISM_SRC_NET_FABRIC_H_
#define PRISM_SRC_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/net/cost_model.h"
#include "src/obs/obs.h"
#include "src/obs/timeline.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace prism::net {

using HostId = uint32_t;

class Fabric {
 public:
  Fabric(sim::Simulator* sim, CostModel model, uint64_t loss_seed = 0x10552)
      : sim_(sim), model_(model), loss_rng_(loss_seed) {
    // Fabric and Simulator both outlive the hub's registry, so they report
    // through a snapshot-time provider instead of owned slots.
    obs_.metrics().AddProvider(
        [this](obs::MetricsSnapshot& out) { CollectMetrics(out); });
  }

  // The engine every host's events run on.
  sim::Simulator* sim() const { return sim_; }

  const CostModel& cost() const { return model_; }

  // Per-simulation observability root (metrics registry, op accounting,
  // optional span tracer). See src/obs/obs.h.
  obs::Hub& obs() { return obs_; }
  const obs::Hub& obs() const { return obs_; }

  // Span tracer for every layer on this fabric (nullptr detaches).
  void AttachTracer(obs::Tracer* t) { obs_.SetTracer(t); }

  // Host names indexed by HostId, for trace process metadata.
  std::vector<std::string> HostNames() const {
    std::vector<std::string> names;
    names.reserve(hosts_.size());
    for (const auto& h : hosts_) names.push_back(h->name);
    return names;
  }

  // Fault injection (chaos schedules): changes apply to messages sent after
  // the mutation; frames already on the wire keep the costs they were
  // charged at send time.
  CostModel& mutable_cost() { return model_; }

  HostId AddHost(std::string name) {
    HostId id = static_cast<HostId>(hosts_.size());
    auto host = std::make_unique<Host>();
    host->name = std::move(name);
    host->cores =
        std::make_unique<sim::ServiceQueue>(sim_, model_.server_cores);
    hosts_.push_back(std::move(host));
    return id;
  }

  size_t host_count() const { return hosts_.size(); }
  const std::string& HostName(HostId id) const { return At(id).name; }

  // The host's dedicated CPU core pool (RPC handlers, software PRISM).
  sim::ServiceQueue& Cores(HostId id) { return *At(id).cores; }

  // Failure injection: messages to/from a down host are dropped. Taking a
  // host down starts a new *incarnation* (epoch): frames already in flight
  // toward it — and any retransmit chains targeting it — are purged even if
  // the host restarts before their delivery time, so a crashed host never
  // receives traffic addressed to its previous life.
  void SetHostUp(HostId id, bool up) {
    Host& h = At(id);
    if (h.up && !up) ++h.epoch;
    h.up = up;
  }
  bool IsHostUp(HostId id) const { return At(id).up; }
  uint32_t HostEpoch(HostId id) const { return At(id).epoch; }

  // Directed partition: while blocked, frames src→dst vanish on the wire
  // (the transport retransmits until exhaustion, then reports a drop).
  // Asymmetric partitions block one direction only.
  void SetLinkBlocked(HostId src, HostId dst, bool blocked) {
    const uint64_t key = LinkKey(src, dst);
    if (blocked) {
      blocked_links_.insert(key);
    } else {
      blocked_links_.erase(key);
    }
  }
  bool IsLinkBlocked(HostId src, HostId dst) const {
    return !blocked_links_.empty() &&
           blocked_links_.count(LinkKey(src, dst)) > 0;
  }

  // Sends a `payload_bytes` message from src to dst. Exactly one of the two
  // callbacks fires: on_delivery when the last byte is received (after any
  // transport-level retransmissions of lost frames), or on_dropped (if
  // provided) if either endpoint is down or retransmissions are exhausted.
  // Loopback (src == dst) skips the wire but still pays a small local hop.
  //
  // Both callbacks are accepted generically and move straight into the
  // simulator's inline event storage on the (dominant) lossless path; a
  // type-erased PendingSend record is allocated only when a frame is lost
  // and the retransmit machinery needs to re-arm, and from then on the
  // callbacks are moved — never copied — between retransmit hops.
  //
  // `ctx` is the sending op's (obs.h): flight, drop and loss spans are its
  // children, and a lost frame stamps its timeline kRetransmit until a
  // re-attempt is back on the wire. The default is untimed, with root spans.
  template <typename Delivery, typename Dropped>
  void Send(HostId src, HostId dst, size_t payload_bytes, Delivery on_delivery,
            Dropped on_dropped, obs::Ctx ctx = {}) {
    if (!TryAttempt(src, dst, payload_bytes, on_delivery, on_dropped,
                    /*attempt=*/0, ctx.span)) {
      obs::SwitchOp(ctx.op, obs::Phase::kRetransmit, sim_->Now());
      auto pending = std::make_unique<PendingSend>(
          PendingSend{src, dst, payload_bytes, std::move(on_delivery),
                      std::move(on_dropped), /*attempt=*/0,
                      At(dst).epoch, ctx});
      ScheduleRetransmit(std::move(pending));
    }
  }

  template <typename Delivery>
  void Send(HostId src, HostId dst, size_t payload_bytes,
            Delivery on_delivery) {
    Send(src, dst, payload_bytes, std::move(on_delivery), nullptr);
  }

 private:
  struct PendingSend {
    HostId src;
    HostId dst;
    size_t payload_bytes;
    std::function<void()> on_delivery;
    std::function<void()> on_dropped;
    int attempt;
    uint32_t dst_epoch;  // incarnation targeted when the send was issued
    // The sending op's ctx. Timelines are never recycled, so a stale
    // pointer after an op timeout can only stamp its own finished (inert)
    // timeline.
    obs::Ctx ctx;
  };

  static uint64_t LinkKey(HostId src, HostId dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }

  // True when `f` is an invocable callback: not nullptr, and not an empty
  // std::function (bool-testable callables are tested; plain lambdas are
  // always live).
  template <typename F>
  static bool HasCallback(const F& f) {
    if constexpr (std::is_same_v<F, std::nullptr_t>) {
      return false;
    } else if constexpr (std::is_constructible_v<bool, const F&>) {
      return static_cast<bool>(f);
    } else {
      return true;
    }
  }

  // Performs one wire attempt. Returns false iff the frame was lost and a
  // retransmission should be armed; every other outcome schedules exactly
  // one of the callbacks (consuming it by move).
  template <typename Delivery, typename Dropped>
  bool TryAttempt(HostId src, HostId dst, size_t payload_bytes,
                  Delivery& on_delivery, Dropped& on_dropped, int attempt,
                  obs::SpanId parent) {
    constexpr bool kHasDropped = !std::is_same_v<Dropped, std::nullptr_t>;
    obs::Tracer* const tracer = obs_.tracer();
    sim::Simulator* const eng = sim_;
    if (!At(src).up || !At(dst).up) {
      if constexpr (kHasDropped) {
        if (HasCallback(on_dropped)) eng->Schedule(0, std::move(on_dropped));
      }
      wire_.dropped_messages++;
      if (tracer != nullptr) {
        tracer->Instant("net.drop", "net", src, eng->Now(), parent);
      }
      return true;
    }
    // A blocked (partitioned) link swallows every frame on the wire: the
    // transport keeps retransmitting until exhaustion, then reports a drop —
    // exactly the failure signature of a real partition.
    if (IsLinkBlocked(src, dst)) {
      wire_.partitioned_messages++;
      if (attempt >= model_.max_retransmits) {
        if constexpr (kHasDropped) {
          if (HasCallback(on_dropped)) {
            eng->Schedule(0, std::move(on_dropped));
          }
        }
        wire_.dropped_messages++;
        return true;
      }
      wire_.retransmissions++;
      return false;
    }
    wire_.total_messages++;
    wire_.total_wire_bytes += model_.WireBytes(payload_bytes);
    // Wire loss: the transport retransmits after a timeout (the §4.2
    // NIC machinery). Ops above never observe duplicates — a frame either
    // arrives once or the attempt is repeated.
    if (model_.loss_probability > 0.0 &&
        loss_rng_.NextDouble() < model_.loss_probability) {
      wire_.lost_messages++;
      if (tracer != nullptr) {
        tracer->Instant("net.loss", "net", src, eng->Now(), parent);
      }
      if (attempt >= model_.max_retransmits) {
        if constexpr (kHasDropped) {
          if (HasCallback(on_dropped)) {
            eng->Schedule(0, std::move(on_dropped));
          }
        }
        wire_.dropped_messages++;
        return true;
      }
      wire_.retransmissions++;
      return false;
    }
    const uint32_t dst_epoch = At(dst).epoch;
    if (src == dst) {
      if (tracer != nullptr) {
        tracer->EmitComplete("net.flight", "net", src, eng->Now(),
                             eng->Now() + sim::Nanos(200), parent);
      }
      eng->Schedule(sim::Nanos(200),
                    [this, dst, dst_epoch, cb = std::move(on_delivery)]() {
                      DeliverIfAlive(dst, dst_epoch, cb);
                    });
      return true;
    }
    const sim::Duration ser = model_.SerializationDelay(payload_bytes);
    Host& s = At(src);
    Host& d = At(dst);
    const sim::TimePoint now = eng->Now();
    const sim::TimePoint depart = std::max(now, s.egress_free);
    s.egress_free = depart + ser;
    const sim::TimePoint arrival = depart + ser + model_.propagation;
    const sim::TimePoint ready =
        std::max(arrival, d.ingress_free + ser);
    d.ingress_free = ready;
    // Cut-through timing is fully resolved at send time, so the flight span
    // is emitted here as a closed interval — the delivery callback is never
    // wrapped and the event stream is byte-identical with tracing off.
    if (tracer != nullptr) {
      tracer->EmitComplete("net.flight", "net", src, now, ready, parent);
    }
    eng->ScheduleAt(ready,
                    [this, dst, dst_epoch, cb = std::move(on_delivery)]() {
                      DeliverIfAlive(dst, dst_epoch, cb);
                    });
    return true;
  }

  // A frame reaching its delivery time is handed up only if the destination
  // is alive *and* still the incarnation it was addressed to. A host that
  // died while the message was in flight drops it — even if it has since
  // restarted (the new incarnation never saw the message).
  template <typename Delivery>
  void DeliverIfAlive(HostId dst, uint32_t dst_epoch, Delivery& cb) {
    const Host& d = At(dst);
    if (d.up && d.epoch == dst_epoch) {
      cb();
    } else {
      wire_.purged_messages++;
    }
  }

  void ScheduleRetransmit(std::unique_ptr<PendingSend> pending) {
    sim_->Schedule(model_.retransmit_timeout,
                   [this, p = std::move(pending)]() mutable {
                     Retry(std::move(p));
                   });
  }

  void Retry(std::unique_ptr<PendingSend> p) {
    // Tear down retransmit state targeting a dead incarnation: if the
    // destination crashed since the send was issued (even if it has since
    // restarted), the chain stops and the drop verdict fires.
    if (At(p->dst).epoch != p->dst_epoch) {
      wire_.purged_messages++;
      wire_.dropped_messages++;
      if (p->on_dropped) sim_->Schedule(0, std::move(p->on_dropped));
      return;
    }
    ++p->attempt;
    // Optimistically back on the wire as of now; a repeated loss flips the
    // op straight back to kRetransmit at the same timestamp (zero wire ns).
    obs::SwitchOp(p->ctx.op, obs::Phase::kWire, sim_->Now());
    if (!TryAttempt(p->src, p->dst, p->payload_bytes, p->on_delivery,
                    p->on_dropped, p->attempt, p->ctx.span)) {
      obs::SwitchOp(p->ctx.op, obs::Phase::kRetransmit, sim_->Now());
      ScheduleRetransmit(std::move(p));
    }
  }

 public:
  // ---- instrumentation ----
  uint64_t total_messages() const { return wire_.total_messages; }
  uint64_t dropped_messages() const { return wire_.dropped_messages; }
  uint64_t lost_messages() const { return wire_.lost_messages; }
  uint64_t retransmissions() const { return wire_.retransmissions; }
  uint64_t total_wire_bytes() const { return wire_.total_wire_bytes; }
  uint64_t purged_messages() const { return wire_.purged_messages; }
  uint64_t partitioned_messages() const { return wire_.partitioned_messages; }
  void ResetStats() { wire_ = WireStats{}; }

 private:
  struct WireStats {
    uint64_t total_messages = 0;
    uint64_t dropped_messages = 0;
    uint64_t lost_messages = 0;
    uint64_t retransmissions = 0;
    uint64_t total_wire_bytes = 0;
    uint64_t purged_messages = 0;
    uint64_t partitioned_messages = 0;
  };

  struct Host {
    std::string name;
    std::unique_ptr<sim::ServiceQueue> cores;
    sim::TimePoint egress_free = 0;
    sim::TimePoint ingress_free = 0;
    bool up = true;
    uint32_t epoch = 0;  // bumped on crash; identifies the incarnation
  };

  Host& At(HostId id) {
    PRISM_CHECK_LT(id, hosts_.size());
    return *hosts_[id];
  }
  const Host& At(HostId id) const {
    PRISM_CHECK_LT(id, hosts_.size());
    return *hosts_[id];
  }

  // Snapshot provider: fabric wire counters, per-host core-pool usage, and
  // the engine's own event statistics (the hub is the one registry every
  // layer can reach, so the simulator reports through it as well).
  void CollectMetrics(obs::MetricsSnapshot& out) const {
    out.AddCounterValue("net", "total_messages", "", total_messages());
    out.AddCounterValue("net", "dropped_messages", "", dropped_messages());
    out.AddCounterValue("net", "lost_messages", "", lost_messages());
    out.AddCounterValue("net", "retransmissions", "", retransmissions());
    out.AddCounterValue("net", "total_wire_bytes", "", total_wire_bytes());
    out.AddCounterValue("net", "purged_messages", "", purged_messages());
    out.AddCounterValue("net", "partitioned_messages", "",
                        partitioned_messages());
    // Silent span loss made visible (ISSUE 9 satellite 1). Emitted
    // unconditionally — value 0 without a tracer — so traced and untraced
    // snapshots of the same run stay bit-identical (the equality
    // obs_determinism_test pins).
    const obs::Tracer* const tr = obs_.tracer();
    out.AddCounterValue("obs", "dropped_spans", "",
                        tr != nullptr ? tr->dropped_count() : 0);
    for (const auto& h : hosts_) {
      out.AddCounterValue("net", "core_busy_ns", h->name,
                          static_cast<uint64_t>(h->cores->total_busy()));
      out.AddGaugeValue("net", "core_queue_depth", h->name,
                        static_cast<int64_t>(h->cores->queue_length()));
    }
    const sim::Simulator::Stats& st = sim_->stats();
    out.AddCounterValue("sim", "executed_events", "", sim_->executed_events());
    out.AddCounterValue("sim", "zero_delay_events", "", st.zero_delay_events);
    out.AddCounterValue("sim", "timer_events", "", st.timer_events);
    out.AddCounterValue("sim", "overflow_events", "", st.overflow_events);
    out.AddCounterValue("sim", "heap_callables", "", st.heap_callables);
    out.AddCounterValue("sim", "pool_blocks", "", st.pool_blocks);
    out.AddCounterValue("sim", "cancelled_timers", "", st.cancelled_timers);
    out.AddCounterValue("sim", "fanout_stragglers", "", st.fanout_stragglers);
  }

  sim::Simulator* sim_;
  CostModel model_;
  Rng loss_rng_;
  obs::Hub obs_;
  WireStats wire_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unordered_set<uint64_t> blocked_links_;  // directed src→dst pairs
};

}  // namespace prism::net

#endif  // PRISM_SRC_NET_FABRIC_H_
