// Per-op phase timeline: where did each operation's latency go?
//
// The span tracer (trace.h) answers "what happened when" for a handful of
// traced ops; figures need the complementary aggregate answer — "p99 = X µs,
// of which Y µs is queueing" — for *every* measured op. OpTimeline carries a
// fixed seven-phase decomposition of one operation's arrival-to-completion
// interval; TimelineStore aggregates finished timelines into per-phase
// histograms per client class, retains the slowest-K ops per class as
// exemplars (full span tree pinned at capture), and feeds a windowed
// time-series (timeseries.h).
//
// Phase machine — telescoping sum by construction:
//
//   Switch(p, now):  phase_ns[cur] += now - last;  last = now;  cur = p
//   Finish(now):     phase_ns[cur] += now - last;  end = now    (then done)
//
// Every nanosecond between Start and Finish lands in exactly one phase no
// matter which Switch calls fire, so sum(phase_ns) == end - start *exactly*
// (property-checked in tests/stack_cell_test.cc). A stale stamp (e.g. a
// retransmit timer firing after the op already finished by timeout) is a
// no-op thanks to the done flag; misattribution between phases under
// concurrency is possible in principle but the total never drifts.
//
// Propagation: the timeline rides in the op's obs::Ctx (obs.h), passed by
// value from the app op to every transport call and server body that
// stamps it.
//
// Determinism: pure recording. Nothing here schedules an event or perturbs
// the (when,seq) replay; timelines are deque-owned (stable addresses) and
// never recycled mid-run, so a late stale pointer can only hit its own
// finished (inert) timeline.
#ifndef PRISM_SRC_OBS_TIMELINE_H_
#define PRISM_SRC_OBS_TIMELINE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/obs.h"
#include "src/obs/phase.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace prism::obs {

class OpTimeline {
 public:
  // Begins the timeline at `now_ns` in kBacklogWait (an open-loop op is
  // born into the backlog; closed-loop callers Switch immediately).
  void Start(uint32_t cls, int64_t now_ns) {
    cls_ = cls;
    start_ns_ = last_ns_ = now_ns;
    cur_ = Phase::kBacklogWait;
    started_ = true;
  }

  // Attributes [last stamp, now) to the current phase, then enters `p`.
  // No-op before Start or after Finish.
  void Switch(Phase p, int64_t now_ns) {
    if (!started_ || done_) return;
    phase_ns_[static_cast<int>(cur_)] += now_ns - last_ns_;
    last_ns_ = now_ns;
    if (p == Phase::kRetransmit && cur_ != Phase::kRetransmit) retransmits_++;
    cur_ = p;
  }

  // Closes the timeline; later Switch/Finish calls are inert.
  void Finish(int64_t now_ns) {
    if (!started_ || done_) return;
    phase_ns_[static_cast<int>(cur_)] += now_ns - last_ns_;
    end_ns_ = now_ns;
    done_ = true;
  }

  bool started() const { return started_; }
  bool done() const { return done_; }
  uint32_t cls() const { return cls_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  int64_t total_ns() const { return end_ns_ - start_ns_; }
  int64_t phase_ns(int i) const { return phase_ns_[i]; }
  int64_t phase_ns(Phase p) const { return phase_ns_[static_cast<int>(p)]; }
  uint32_t retransmits() const { return retransmits_; }

  // Root span of the traced causal chain (0 when untraced); lets the
  // exemplar store pin the span tree of a slow op.
  SpanId root_span() const { return root_span_; }
  void set_root_span(SpanId s) { root_span_ = s; }

 private:
  int64_t phase_ns_[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
  int64_t start_ns_ = 0;
  int64_t last_ns_ = 0;
  int64_t end_ns_ = -1;
  SpanId root_span_ = 0;
  uint32_t cls_ = 0;
  uint32_t retransmits_ = 0;
  Phase cur_ = Phase::kBacklogWait;
  bool started_ = false;
  bool done_ = false;
};

// Null-safe phase switch: the stamping idiom at every handoff point.
inline void SwitchOp(OpTimeline* op, Phase p, int64_t now_ns) {
  if (op != nullptr) op->Switch(p, now_ns);
}

// The ctx of an op a load driver timed: its timeline and the root span the
// driver opened for it. Null-safe.
inline Ctx CtxOf(OpTimeline* op) {
  return {op != nullptr ? op->root_span() : 0, op};
}

// Owns every OpTimeline of one simulation run and aggregates the finished
// ones. One store per sweep point (same slot discipline as PointObs), so
// parallel sweeps stay data-race-free.
class TimelineStore {
 public:
  struct Options {
    int64_t bucket_ns = 50'000;  // time-series bucket width
    size_t top_k = 4;            // exemplars retained per class
  };

  TimelineStore();  // default Options
  explicit TimelineStore(Options opt);

  // Optional: lets FinishOp pin span trees for exemplars. The pinned copies
  // are immune to the tracer's FIFO eviction (ISSUE 9 satellite 1).
  void SetTracer(const Tracer* t) { tracer_ = t; }

  // Measurement window: only ops with arrival >= start and completion <= end
  // are aggregated (mirrors workload::Recorder's predicate exactly, so the
  // per-class total histogram matches the figure's latency column).
  void SetWindow(int64_t start_ns, int64_t end_ns) {
    win_start_ = start_ns;
    win_end_ = end_ns;
  }

  // Registers (or finds) a client class; returns its index.
  uint32_t EnsureClass(std::string_view name);

  // Creates a timeline starting at `now_ns`. The pointer is stable for the
  // lifetime of the store and is never recycled.
  OpTimeline* StartOp(uint32_t cls, int64_t now_ns);

  // Finishes `t` and, if it falls inside the measurement window, folds it
  // into the per-class per-phase histograms, the exemplar reservoir, and the
  // time-series. Null-safe.
  void FinishOp(OpTimeline* t, int64_t now_ns);

  // A slow-op exemplar: phase breakdown plus the span tree pinned at the
  // moment of capture (deterministic ordering: total_ns desc, then
  // (end_ns, seq) asc — the (when, seq) tie-break of the op's completion).
  struct Exemplar {
    uint64_t seq = 0;  // finish order within the measurement window
    uint32_t cls = 0;
    uint32_t retransmits = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t phase_ns[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
    SpanId root_span = 0;
    std::vector<SpanRecord> spans;  // pinned copy; empty when untraced
    int64_t total_ns() const { return end_ns - start_ns; }
  };

  size_t n_classes() const { return classes_.size(); }
  const std::string& class_name(size_t cls) const {
    return classes_[cls].name;
  }
  const LatencyHistogram& total_hist(size_t cls) const {
    return classes_[cls].total;
  }
  const LatencyHistogram& phase_hist(size_t cls, int phase) const {
    return classes_[cls].phase[phase];
  }
  // Exact integer sum of a phase across the class's measured ops (the
  // histograms are log-bucketed; shares computed from these never drift).
  int64_t phase_total_ns(size_t cls, int phase) const {
    return classes_[cls].phase_total_ns[phase];
  }
  // Sorted slowest-first with the deterministic tie-break above.
  const std::vector<Exemplar>& exemplars(size_t cls) const {
    return classes_[cls].exemplars;
  }

  // Every timeline created this run, in StartOp order (finished or not).
  // Property tests iterate these to check the telescoping-sum invariant
  // against the aggregates.
  const std::deque<OpTimeline>& timelines() const { return pool_; }

  TimeSeries& series() { return ts_; }
  const TimeSeries& series() const { return ts_; }

  uint64_t started_ops() const { return started_ops_; }
  uint64_t measured_ops() const { return measured_ops_; }

 private:
  struct ClassAgg {
    std::string name;
    LatencyHistogram total;
    LatencyHistogram phase[kNumPhases];
    int64_t phase_total_ns[kNumPhases] = {0, 0, 0, 0, 0, 0, 0};
    std::vector<Exemplar> exemplars;  // kept sorted, size <= top_k
  };

  Options opt_;
  const Tracer* tracer_ = nullptr;
  int64_t win_start_ = 0;
  int64_t win_end_ = INT64_MAX;
  std::deque<OpTimeline> pool_;  // stable addresses
  std::vector<ClassAgg> classes_;
  TimeSeries ts_;
  uint64_t started_ops_ = 0;
  uint64_t measured_ops_ = 0;
};

}  // namespace prism::obs

#endif  // PRISM_SRC_OBS_TIMELINE_H_
