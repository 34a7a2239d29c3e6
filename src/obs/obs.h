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
// Parent propagation — the current-span register:
//
// Coroutine protocol code interleaves at event granularity, so a thread-
// local-style "current scope" cannot survive a co_await. Instead the hub
// keeps one SpanId register with a strict discipline: it is *written*
// immediately before a synchronous handoff (a fabric Send, a Spawn of a
// server handler) and *read* at the very entry of the receiving code, with
// no suspension point in between — a window in which the single-threaded
// simulator cannot interleave anything. Reads outside such a window (e.g.
// a retransmit timer) must not trust the register and use parent 0.
//
// The register only ever affects which parent a span records: with a
// single traced client, parent attribution is exact; under concurrency a
// span can attach to a sibling op's span (cosmetic, documented in
// DESIGN.md §5.4), but the (when,seq) replay is unaffected either way.
#ifndef PRISM_SRC_OBS_OBS_H_
#define PRISM_SRC_OBS_OBS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/complexity.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace prism::obs {

class OpTimeline;    // timeline.h
class TimelineStore;  // timeline.h

class Hub {
 public:
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  OpAccountant& ops() { return ops_; }
  const OpAccountant& ops() const { return ops_; }

  Tracer* tracer() const { return tracer_; }
  void SetTracer(Tracer* t) { tracer_ = t; }

  SpanId current_span() const { return current_; }
  void SetCurrentSpan(SpanId s) {
    if (tracer_ != nullptr) current_ = s;
  }

  // Current-op register: same write-before-handoff / read-at-entry
  // discipline as the span register, but for the per-op phase timeline
  // (timeline.h).
  OpTimeline* current_op() const { return op_; }
  void SetCurrentOp(OpTimeline* t) { op_ = t; }

  // Opens a span parented to the current span and makes it current.
  // No-op (returns 0) without a tracer.
  SpanId StartSpan(std::string_view name, std::string_view cat, uint32_t host,
                   int64_t now_ns) {
    if (tracer_ == nullptr) return 0;
    const SpanId s = tracer_->Begin(name, cat, host, now_ns, current_);
    current_ = s;
    return s;
  }

  // Closes a span and restores its parent as current.
  void FinishSpan(SpanId s, int64_t now_ns) {
    if (tracer_ == nullptr || s == 0) return;
    current_ = tracer_->ParentOf(s);
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
