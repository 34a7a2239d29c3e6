// Machine-readable figure artifacts: results/BENCH_figs.json.
//
// Every converted bench driver funnels its sweep results through a
// FigureReporter, which appends/replaces this driver's entry in one unified
// document (alongside results/BENCH_sim.json from abl_sim_micro). The
// document maps bench name -> figure entry:
//
//   {
//   "fig3_kv_read": {"title": ..., "fast_mode": ..., "jobs": N,
//                    "wall_seconds": ..., "sim_events": ...,
//                    "events_per_sec": ..., "series": [
//                      {"name": "Pilaf", "points": [{"clients": 1, ...}]}]},
//   "fig6_rs_tput": {...}
//   }
//
// On write the existing document is parsed (src/common/json.h): every other
// driver's entry is copied byte for byte, this driver's entry is replaced,
// and entries are sorted by key, one per line. tools/artifact_check holds
// the schema every entry must meet.
#ifndef PRISM_BENCH_BENCH_REPORT_H_
#define PRISM_BENCH_BENCH_REPORT_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/json.h"
#include "src/common/logging.h"
#include "src/harness/sweep.h"
#include "src/obs/obs.h"
#include "src/obs/timeline.h"
#include "src/workload/driver.h"

namespace prism::bench {

// Writes `w` to `path`, failing the run, path named, when it cannot.
inline void WriteJsonFile(const JsonWriter& w, const std::string& path) {
  const bool written = w.WriteFile(path);
  PRISM_CHECK(written) << "cannot write " << path;
}

class FigureReporter {
 public:
  FigureReporter(std::string bench_name, std::string title)
      : bench_(std::move(bench_name)), title_(std::move(title)) {}

  // Appends one sweep row under `series` (created on first use; series keep
  // insertion order). `x` is the swept coordinate when it is not the client
  // count (Zipf theta, chain length, batch size, ...).
  void AddRow(const std::string& series, const workload::LoadPoint& p,
              double x = std::nan("")) {
    SeriesData& s = SeriesOf(series);
    s.points.push_back(p);
    s.x.push_back(x);
  }

  // Sweep-level execution metrics: wall-clock of the RunSweep call and the
  // job count it ran with. Simulated events are summed from the rows.
  void SetSweepMetrics(double wall_seconds, int jobs) {
    wall_seconds_ = wall_seconds;
    jobs_ = jobs;
  }

  uint64_t TotalSimEvents() const {
    uint64_t total = 0;
    for (const SeriesData& s : series_) {
      for (const workload::LoadPoint& p : s.points) total += p.sim_events;
    }
    return total;
  }

  // Serializes this driver's entry, the value under its bench name.
  std::string EntryJson() const {
    JsonWriter w;
    w.BeginObject();
    w.Field("title", title_);
    w.Field("fast_mode", FastMode());
    w.Field("jobs", jobs_);
    w.Field("wall_seconds", wall_seconds_);
    const uint64_t events = TotalSimEvents();
    w.Field("sim_events", events);
    w.Field("events_per_sec",
            wall_seconds_ > 0 ? static_cast<double>(events) / wall_seconds_
                              : 0.0);
    w.BeginArray("series");
    for (const SeriesData& s : series_) {
      w.BeginObject();
      w.Field("name", s.name);
      w.BeginArray("points");
      for (size_t i = 0; i < s.points.size(); ++i) {
        const workload::LoadPoint& p = s.points[i];
        w.BeginObject();
        if (!std::isnan(s.x[i])) w.Field("x", s.x[i]);
        w.Field("clients", p.clients);
        w.Field("tput_mops", p.tput_mops);
        if (p.offered_mops > 0) w.Field("offered_mops", p.offered_mops);
        w.Field("mean_us", p.mean_us);
        w.Field("p50_us", p.p50_us);
        w.Field("p99_us", p.p99_us);
        w.Field("p999_us", p.p999_us);
        w.Field("abort_rate", p.abort_rate);
        w.Field("sim_events", p.sim_events);
        if (!p.ops.empty()) {
          // Table-1-style protocol-complexity accounting (§4.3): totals and
          // per-op averages for every operation type this point executed.
          w.BeginArray("ops");
          for (const obs::OpStats& os : p.ops) {
            const double n = static_cast<double>(os.count);
            w.BeginObject();
            w.Field("op", os.op);
            w.Field("count", os.count);
            w.Field("round_trips", os.totals.round_trips);
            w.Field("messages", os.totals.messages);
            w.Field("bytes_out", os.totals.bytes_out);
            w.Field("bytes_in", os.totals.bytes_in);
            w.Field("cpu_actions", os.totals.cpu_actions);
            w.Field("doorbells", os.totals.doorbells);
            w.Field("cq_polls", os.totals.cq_polls);
            if (os.count > 0) {
              w.Field("round_trips_per_op",
                      static_cast<double>(os.totals.round_trips) / n);
              w.Field("messages_per_op",
                      static_cast<double>(os.totals.messages) / n);
              w.Field("bytes_per_op",
                      static_cast<double>(os.totals.bytes_out +
                                          os.totals.bytes_in) / n);
              w.Field("cpu_actions_per_op",
                      static_cast<double>(os.totals.cpu_actions) / n);
              // Client-side verb-layer CPU actions (doorbell rings + CQ
              // drains): the per-op quantity doorbell batching and
              // completion coalescing drive below 2.0.
              w.Field("doorbells_per_op",
                      static_cast<double>(os.totals.doorbells) / n);
              w.Field("cq_polls_per_op",
                      static_cast<double>(os.totals.cq_polls) / n);
              w.Field("client_cpu_actions_per_op",
                      static_cast<double>(os.totals.client_cpu_actions()) / n);
            }
            w.EndObject();
          }
          w.EndArray();
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    return w.str();
  }

  // Merges this entry into the unified document at `path` (default:
  // results/BENCH_figs.json relative to the working directory). Entries from
  // other drivers are preserved; the result is sorted by bench name. A path
  // that cannot be written fails the run.
  void WriteUnified(const std::string& path = "results/BENCH_figs.json") const {
    std::map<std::string, std::string> entries;  // bench name -> entry JSON
    if (std::ifstream in(path); in) {
      std::ostringstream text;
      text << in.rdbuf();
      const std::string doc = text.str();
      try {
        const Json parsed = ParseJson(doc);
        for (const auto& [key, v] : parsed.obj) {
          entries[key] = doc.substr(v.begin, v.end - v.begin);
        }
      } catch (const JsonError& e) {
        std::fprintf(stderr, "FigureReporter: dropping malformed %s: %s\n",
                     path.c_str(), e.what());
      }
    }
    entries[bench_] = EntryJson();
    JsonWriter w;
    w.BeginObject().BreakLines();
    for (const auto& [key, json] : entries) w.Raw(key, json);
    w.EndObject();
    WriteJsonFile(w, path);
  }

 private:
  struct SeriesData {
    std::string name;
    std::vector<workload::LoadPoint> points;
    std::vector<double> x;
  };

  SeriesData& SeriesOf(const std::string& name) {
    for (SeriesData& s : series_) {
      if (s.name == name) return s;
    }
    series_.push_back(SeriesData{name, {}, {}});
    return series_.back();
  }

  std::string bench_;
  std::string title_;
  std::vector<SeriesData> series_;
  double wall_seconds_ = 0;
  int jobs_ = 1;
};

// One cell of a figure sweep: a labeled, self-contained simulation factory.
// `x` is the swept coordinate when it is not the client count.
struct SweepCell {
  std::string series;
  harness::SweepPoint<workload::LoadPoint> run;
  double x = std::nan("");
};

// Per-sweep observability rig: owns one obs::PointObs per cell (stable
// addresses — the vector is sized up front, so --jobs workers touch only
// their own slot) plus the tracer attached to cell 0 when --trace is given.
// Cell 0 is by convention the lightest point of the sweep, which keeps the
// trace file small.
class ObsRig {
 public:
  ObsRig(const ObsOptions& opts, size_t n_cells)
      : opts_(opts), slots_(n_cells) {
    if (!opts_.trace_path.empty() && n_cells > 0) slots_[0].tracer = &tracer_;
    if (opts_.metrics) {
      for (obs::PointObs& s : slots_) s.want_metrics = true;
    }
    // Tail-latency attribution rides with tracing: EVERY cell gets its own
    // timeline store (deque = stable addresses; parallel sweep workers
    // touch only their own slot), so phase breakdowns cover the saturated
    // points, not just the traced cell. Only the traced cell's store can
    // pin exemplar span trees.
    if (!opts_.trace_path.empty()) {
      stores_.resize(n_cells);
      for (size_t i = 0; i < n_cells; ++i) {
        if (i == 0) stores_[i].SetTracer(&tracer_);
        slots_[i].timelines = &stores_[i];
      }
    }
  }

  // Slot for cell i (nullptr when neither --trace nor --metrics was given,
  // keeping the default path identical to pre-observability builds).
  obs::PointObs* at(size_t i) {
    return opts_.enabled() ? &slots_[i] : nullptr;
  }

  // Writes the trace JSON and the per-point metrics dump after the sweep.
  // `cells` labels the metrics entries. A path that cannot be written fails
  // the run.
  void Finish(const std::string& bench_name,
              const std::vector<SweepCell>& cells) {
    if (!opts_.trace_path.empty() && !slots_.empty()) {
      const bool written =
          tracer_.WriteChromeJson(opts_.trace_path, slots_[0].host_names);
      PRISM_CHECK(written) << "cannot write " << opts_.trace_path;
      std::printf("trace: %zu spans -> %s\n",
                  tracer_.finished_count() + tracer_.open_count(),
                  opts_.trace_path.c_str());
    }
    if (opts_.metrics) {
      JsonWriter w;
      w.BeginObject();
      w.Field("bench", bench_name);
      w.BeginArray("points");
      for (size_t i = 0; i < slots_.size() && i < cells.size(); ++i) {
        w.BeginObject();
        w.Field("series", cells[i].series);
        w.BeginArray("metrics");
        for (const obs::MetricValue& v : slots_[i].snapshot.values) {
          w.BeginObject();
          w.Field("component", v.component);
          w.Field("name", v.name);
          if (!v.host.empty()) w.Field("host", v.host);
          switch (v.kind) {
            case obs::MetricValue::Kind::kCounter:
              w.Field("counter", v.counter);
              break;
            case obs::MetricValue::Kind::kGauge:
              w.Field("gauge", v.gauge);
              break;
            case obs::MetricValue::Kind::kHistogram:
              w.Field("count", v.count);
              w.Field("mean_ns", v.mean_ns);
              w.Field("p50_ns", v.p50_ns);
              w.Field("p99_ns", v.p99_ns);
              w.Field("max_ns", v.max_ns);
              break;
          }
          w.EndObject();
        }
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
      const std::string path = "results/METRICS_" + bench_name + ".json";
      WriteJsonFile(w, path);
      std::printf("metrics: %zu points -> %s\n", slots_.size(), path.c_str());
    }
    if (!stores_.empty()) {
      WriteAttribution(bench_name, cells);
      WriteTimeSeries(bench_name, cells);
    }
  }

 private:
  // results/ATTRIB_<bench>.json: per point, per client class — the total
  // latency digest, exact per-phase time sums, per-phase tail percentiles,
  // and the slowest-K exemplars with their pinned span trees. This is the
  // input tools/latency_report attributes tails from.
  void WriteAttribution(const std::string& bench_name,
                        const std::vector<SweepCell>& cells) const {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", bench_name);
    w.BeginArray("phases");
    for (int ph = 0; ph < obs::kNumPhases; ++ph) {
      w.Field("", obs::PhaseName(ph));
    }
    w.EndArray();
    w.BeginArray("points");
    for (size_t i = 0; i < stores_.size() && i < cells.size(); ++i) {
      const obs::TimelineStore& st = stores_[i];
      w.BeginObject();
      w.Field("series", cells[i].series);
      if (!std::isnan(cells[i].x)) w.Field("x", cells[i].x);
      w.Field("started_ops", st.started_ops());
      w.Field("measured_ops", st.measured_ops());
      w.BeginArray("classes");
      for (size_t c = 0; c < st.n_classes(); ++c) {
        const LatencyHistogram::Summary total = st.total_hist(c).Summarize();
        w.BeginObject();
        w.Field("class", st.class_name(c));
        w.Field("count", total.count);
        w.Field("mean_us", total.mean_us);
        w.Field("p50_us", total.p50_us);
        w.Field("p99_us", total.p99_us);
        w.Field("p999_us", total.p999_us);
        w.BeginArray("phase_total_ns");
        for (int ph = 0; ph < obs::kNumPhases; ++ph) {
          w.Field("", st.phase_total_ns(c, ph));
        }
        w.EndArray();
        w.BeginArray("phase_p999_us");
        for (int ph = 0; ph < obs::kNumPhases; ++ph) {
          w.Field("", st.phase_hist(c, ph).Summarize().p999_us);
        }
        w.EndArray();
        w.BeginArray("exemplars");
        for (const obs::TimelineStore::Exemplar& e : st.exemplars(c)) {
          w.BeginObject();
          w.Field("seq", e.seq);
          w.Field("start_ns", e.start_ns);
          w.Field("end_ns", e.end_ns);
          w.Field("total_ns", e.total_ns());
          w.Field("retransmits", static_cast<uint64_t>(e.retransmits));
          w.BeginArray("phase_ns");
          for (int ph = 0; ph < obs::kNumPhases; ++ph) {
            w.Field("", e.phase_ns[ph]);
          }
          w.EndArray();
          if (!e.spans.empty()) {
            w.BeginArray("spans");
            for (const obs::SpanRecord& s : e.spans) {
              w.BeginObject();
              w.Field("id", s.id);
              w.Field("parent", s.parent);
              w.Field("name", s.name);
              w.Field("cat", s.cat);
              w.Field("host", static_cast<uint64_t>(s.host));
              w.Field("start_ns", s.start_ns);
              w.Field("end_ns", s.end_ns);
              w.EndObject();
            }
            w.EndArray();
          }
          w.EndObject();
        }
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const std::string path = "results/ATTRIB_" + bench_name + ".json";
    WriteJsonFile(w, path);
    std::printf("attrib: %zu points -> %s\n", stores_.size(), path.c_str());
  }

  // results/TS_<bench>.json: per point, fixed sim-time buckets of arrivals,
  // completions, retransmits, outstanding depth (running arrivals minus
  // completions), and per-phase completion-time sums.
  void WriteTimeSeries(const std::string& bench_name,
                       const std::vector<SweepCell>& cells) const {
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", bench_name);
    w.BeginArray("phases");
    for (int ph = 0; ph < obs::kNumPhases; ++ph) {
      w.Field("", obs::PhaseName(ph));
    }
    w.EndArray();
    w.BeginArray("points");
    for (size_t i = 0; i < stores_.size() && i < cells.size(); ++i) {
      const obs::TimeSeries& ts = stores_[i].series();
      w.BeginObject();
      w.Field("series", cells[i].series);
      if (!std::isnan(cells[i].x)) w.Field("x", cells[i].x);
      w.Field("bucket_ns", ts.bucket_ns());
      w.BeginArray("buckets");
      int64_t outstanding = 0;
      for (const auto& [index, b] : ts.buckets()) {
        outstanding += static_cast<int64_t>(b.arrivals) -
                       static_cast<int64_t>(b.completions);
        w.BeginObject();
        w.Field("t_ns", index * ts.bucket_ns());
        w.Field("arrivals", b.arrivals);
        w.Field("completions", b.completions);
        w.Field("retransmits", b.retransmits);
        w.Field("outstanding", outstanding);
        w.Field("total_ns", b.total_ns);
        w.BeginArray("phase_ns");
        for (int ph = 0; ph < obs::kNumPhases; ++ph) {
          w.Field("", b.phase_ns[ph]);
        }
        w.EndArray();
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    const std::string path = "results/TS_" + bench_name + ".json";
    WriteJsonFile(w, path);
    std::printf("timeseries: %zu points -> %s\n", stores_.size(),
                path.c_str());
  }

  ObsOptions opts_;
  obs::Tracer tracer_;
  std::vector<obs::PointObs> slots_;
  std::deque<obs::TimelineStore> stores_;  // one per cell when tracing
};

// Runs `points` through the sweep runner with `jobs` workers, records the
// sweep's wall-clock and job count in `reporter`, and returns the rows in
// point order.
template <typename R>
std::vector<R> RunTimedSweep(FigureReporter& reporter,
                             const std::vector<harness::SweepPoint<R>>& points,
                             int jobs) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<R> rows = harness::RunSweep(points, harness::SweepOptions{jobs});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  reporter.SetSweepMetrics(wall, jobs > 0 ? jobs : harness::DefaultJobs());
  return rows;
}

// Fans the cells out through RunTimedSweep, records every row (in cell
// order) into `reporter`, and returns the rows cell-index-ordered. Printing
// stays with the caller so each figure keeps its own table format.
inline std::vector<workload::LoadPoint> RunFigureSweep(
    FigureReporter& reporter, const std::vector<SweepCell>& cells,
    int jobs) {
  std::vector<harness::SweepPoint<workload::LoadPoint>> points;
  points.reserve(cells.size());
  for (const SweepCell& c : cells) points.push_back(c.run);
  std::vector<workload::LoadPoint> rows =
      RunTimedSweep(reporter, points, jobs);
  for (size_t i = 0; i < cells.size(); ++i) {
    reporter.AddRow(cells[i].series, rows[i], cells[i].x);
  }
  return rows;
}

// Point `p`'s complexity row for op class `op`, or nullptr.
inline const obs::OpStats* FindOp(const workload::LoadPoint& p,
                                  const std::string& op) {
  for (const obs::OpStats& os : p.ops) {
    if (os.op == op) return &os;
  }
  return nullptr;
}

// Round trips per completed `op`; fails the run when `p` ran none.
inline double RtPerOp(const workload::LoadPoint& p, const std::string& op) {
  const obs::OpStats* os = FindOp(p, op);
  PRISM_CHECK(os != nullptr && os->count > 0)
      << "no complexity row for " << op;
  return static_cast<double>(os->totals.round_trips) /
         static_cast<double>(os->count);
}

// One series of a throughput-vs-clients figure: `run(n, pobs)` is its point
// at n closed-loop clients.
struct ClientSeries {
  const char* name;
  std::function<workload::LoadPoint(int n_clients, obs::PointObs* pobs)> run;
};

// Runs every series at every DefaultClientSweep() client count through the
// parallel sweep runner (each cell is a self-contained simulation, so any
// --jobs count yields bit-identical rows) and prints one table, with an
// abort% column when `abort_column` is set.
inline void RunClientSweepFigure(const char* bench_name, const char* title,
                                 const std::vector<ClientSeries>& series,
                                 int jobs, const ObsOptions& obs_opts,
                                 bool abort_column = false) {
  const std::vector<int> sweep = DefaultClientSweep();
  ObsRig rig(obs_opts, series.size() * sweep.size());
  std::vector<SweepCell> cells;
  for (const ClientSeries& s : series) {
    for (int n : sweep) {
      obs::PointObs* po = rig.at(cells.size());
      cells.push_back({s.name, [run = s.run, n, po] { return run(n, po); }});
    }
  }
  FigureReporter reporter(bench_name, title);
  std::vector<workload::LoadPoint> rows =
      RunFigureSweep(reporter, cells, jobs);
  workload::PrintHeader(title, abort_column ? "abort%" : "");
  for (size_t i = 0; i < cells.size(); ++i) {
    char abort[32] = "";
    if (abort_column) {
      std::snprintf(abort, sizeof(abort), "%5.2f%%", rows[i].abort_rate * 100);
    }
    workload::PrintRow(cells[i].series, rows[i], abort);
  }
  reporter.WriteUnified();
  rig.Finish(bench_name, cells);
}

}  // namespace prism::bench

#endif  // PRISM_BENCH_BENCH_REPORT_H_
