// obs::Hub — the per-simulation observability root, owned by net::Fabric
// (every layer already holds a Fabric*, so `fabric->obs()` reaches the hub
// from anywhere in the stack).
//
// Three facilities, all deterministic by construction (none ever schedules
// an event or reads simulator state):
//  * metrics()  — the MetricsRegistry components register into.
//  * ops()      — the per-op-type protocol-complexity accountant.
//  * tracer()   — optional causal span tracer; nullptr (the default) makes
//                 every span helper a no-op returning SpanId 0.
//
// Propagation — one op context passed by value:
//
// Coroutine protocol code interleaves at event granularity, so no global
// "current scope" survives a co_await. Instead every layer passes an
// obs::Ctx (the op's span and its phase timeline) by value: an app op takes
// it once at entry, keeps it in its frame and hands it to its helpers and
// transport calls; an exchange carries it in its op state to the server
// body and the fabric. Spans are parented only to the ctx they are given.
//
// The hub keeps one entry register, the handoff from a load driver to an
// app op: the driver writes it (SetCurrentSpan/SetCurrentOp) immediately
// before it calls the op, and the op reads it (entry()) once, before its
// first suspension, a window in which the single-threaded simulator cannot
// interleave anything. Nothing else reads or writes it. Either way the
// (when,seq) replay is unaffected: observation never schedules an event.
#ifndef PRISM_SRC_OBS_OBS_H_
#define PRISM_SRC_OBS_OBS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/obs/complexity.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace prism::obs {

class OpTimeline;    // timeline.h
class TimelineStore;  // timeline.h

// One op's observation context: the span its work is parented to and its
// phase timeline. The empty ctx means untimed, with a root span. Plain data
// (src/sim/task.h pitfall 1), so coroutines take it by value.
struct Ctx {
  SpanId span = 0;
  OpTimeline* op = nullptr;
  // The same parent span without the timeline: work the op does not wait
  // on, or whose time the caller has already billed to another phase.
  Ctx Untimed() const { return {span, nullptr}; }
};
static_assert(sizeof(Ctx) == 16 && std::is_trivially_copyable_v<Ctx>);

class Hub {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  OpAccountant& ops() { return ops_; }
  const OpAccountant& ops() const { return ops_; }

  Tracer* tracer() const { return tracer_; }
  void SetTracer(Tracer* t) { tracer_ = t; }

  // The entry register (see the header comment).
  Ctx entry() const { return {current_, op_}; }
  void SetCurrentSpan(SpanId s) {
    if (tracer_ != nullptr) current_ = s;
  }
  void SetCurrentOp(OpTimeline* t) { op_ = t; }

  // Opens a span under `parent` (0 = a root). No-op (returns 0) without a
  // tracer.
  SpanId StartSpan(std::string_view name, std::string_view cat, uint32_t host,
                   int64_t now_ns, SpanId parent) {
    if (tracer_ == nullptr) return 0;
    return tracer_->Begin(name, cat, host, now_ns, parent);
  }

  void FinishSpan(SpanId s, int64_t now_ns) {
    if (tracer_ == nullptr || s == 0) return;
    tracer_->End(s, now_ns);
  }

 private:
  MetricsRegistry metrics_;
  OpAccountant ops_;
  Tracer* tracer_ = nullptr;
  SpanId current_ = 0;
  OpTimeline* op_ = nullptr;
};

// Per-simulation observability attachment threaded (optionally) into the
// bench/chaos point runners: the point attaches `tracer` to its fabric hub
// and, when `want_metrics` is set, stores the end-of-run registry snapshot
// into `snapshot`. One PointObs per sweep point; the harness guarantees a
// point only touches its own slot, so sweeps stay data-race-free and
// bit-identical for any --jobs=N.
struct PointObs {
  Tracer* tracer = nullptr;
  bool want_metrics = false;
  // Optional per-op phase attribution: when set, the point runner wires the
  // store through its load pool / clients, and the bench reporter turns it
  // into results/ATTRIB_*.json + TS_*.json. Owned by the caller (one store
  // per sweep point, same slot discipline as the tracer).
  TimelineStore* timelines = nullptr;
  MetricsSnapshot snapshot;
  // Filled by the point runner when a tracer is attached (host id -> name),
  // so the trace writer can label Perfetto processes.
  std::vector<std::string> host_names;
};

}  // namespace prism::obs

#endif  // PRISM_SRC_OBS_OBS_H_
