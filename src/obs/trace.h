// Causal span tracer: follows one client operation across layers and emits
// Chrome trace-event JSON (chrome://tracing / https://ui.perfetto.dev).
//
// A span is a named interval of *simulated* time attributed to a host, with
// a parent span forming a causal chain: an application op ("kv.get") parents
// the transport op ("prism.execute"), which parents the fabric flights
// ("net.flight") and the server-side execution ("prism.chain"). Parents
// travel in the op's obs::Ctx (see obs.h); the tracer itself is pure
// recording — it never schedules, never reads the simulator, and therefore
// cannot perturb the (when,seq) event replay (asserted by
// tests/obs_determinism_test.cc).
//
// Output format: async "b"/"e" event pairs whose id is the *root* span of
// the causal chain, so Perfetto renders each traced operation as one async
// track (grouped per host pid) with its nested layer spans; "M" metadata
// names the host processes. Timestamps are microseconds with nanosecond
// fractions.
#ifndef PRISM_SRC_OBS_TRACE_H_
#define PRISM_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace prism {
class JsonWriter;
}  // namespace prism

namespace prism::obs {

using SpanId = uint64_t;  // 0 = "no span"

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = root
  SpanId root = 0;    // top of this span's causal chain (id when parent==0)
  std::string name;   // "kv.get", "prism.execute", "net.flight", ...
  std::string cat;    // layer: "app", "rpc", "rdma", "prism", "net"
  uint32_t host = 0;  // net::HostId the work happened on
  int64_t start_ns = 0;
  int64_t end_ns = -1;  // -1 while open
};

class Tracer {
 public:
  // At most `max_finished_spans` completed spans are retained; older ones
  // are dropped FIFO (the survivors are the trace's last window).
  explicit Tracer(size_t max_finished_spans = size_t{1} << 20)
      : cap_(max_finished_spans) {}

  SpanId Begin(std::string_view name, std::string_view cat, uint32_t host,
               int64_t now_ns, SpanId parent = 0);
  void End(SpanId id, int64_t now_ns);

  // One-shot closed span (fabric flights: departure and delivery times are
  // both known at send time).
  SpanId EmitComplete(std::string_view name, std::string_view cat,
                      uint32_t host, int64_t start_ns, int64_t end_ns,
                      SpanId parent = 0);

  // Zero-length marker (drops, losses).
  void Instant(std::string_view name, std::string_view cat, uint32_t host,
               int64_t now_ns, SpanId parent = 0) {
    EmitComplete(name, cat, host, now_ns, now_ns, parent);
  }

  // Parent of a still-open span (0 for unknown/closed).
  SpanId ParentOf(SpanId id) const;

  // Causal root of a still-open span (0 for unknown/closed) — lets an op
  // timeline remember which trace tree it belongs to.
  SpanId RootOf(SpanId id) const;

  // Appends every retained span whose causal root is `root` (finished
  // spans in completion order, then open ones by id). Callers copy — the
  // exemplar store pins trees this way, immune to later FIFO eviction.
  void CollectTree(SpanId root, std::vector<SpanRecord>* out) const;

  size_t finished_count() const { return done_.size(); }
  size_t open_count() const { return open_.size(); }
  size_t dropped_count() const { return dropped_; }
  const std::deque<SpanRecord>& finished() const { return done_; }

  // Chrome trace-event JSON. `host_names[i]` labels pid i via process_name
  // metadata. Still-open spans are flushed as zero-length.
  std::string ToChromeJson(const std::vector<std::string>& host_names = {}) const;
  bool WriteChromeJson(const std::string& path,
                       const std::vector<std::string>& host_names = {}) const;

 private:
  JsonWriter ChromeJson(const std::vector<std::string>& host_names) const;

  // A new span's record: its id, and its parent's root as its own.
  SpanRecord Open(std::string_view name, std::string_view cat, uint32_t host,
                  SpanId parent);

  SpanId next_id_ = 1;
  // The root of each of the last cap_ spans begun, at (id - 1) % cap_ (ids
  // are dense), kept after the span ends: work a finished op leaves behind,
  // such as a quorum straggler's late flight, still joins the op's tree. A
  // parent older than that window resolves through open_ alone.
  std::vector<SpanId> roots_;
  std::map<SpanId, SpanRecord> open_;
  std::deque<SpanRecord> done_;  // completion order
  size_t cap_;
  size_t dropped_ = 0;
};

}  // namespace prism::obs

#endif  // PRISM_SRC_OBS_TRACE_H_
