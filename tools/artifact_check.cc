// artifact_check: the schema gate for the machine-readable artifacts the
// bench drivers write.
//
//   artifact_check ARTIFACT.json FIGURE
//
// The artifact's kind comes from its file name:
//   BENCH_sim*.json   abl_sim_micro's engine-throughput probes
//   BENCH_figs*.json  the unified figure document; FIGURE names the entry
//   METRICS_*.json    per-point metrics-registry snapshots
//   ATTRIB_*.json     per-point tail-latency attribution (tools/latency_report)
//   TS_*.json         per-point time series
//   anything else     a Chrome trace-event document
// Every kind but the trace names its bench, which must be FIGURE (a trace
// does not name its bench, so FIGURE is not checked there). A BENCH_figs
// entry is also held to FIGURE's row of kFigures below, if it has one.
//
// On success it prints one summary line, including the run settings the
// artifact recorded (fast_mode, jobs) for the caller to match, and exits 0.
// A schema violation exits 1, naming the offending value and its byte
// offset; bad usage exits 2.
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/obs/phase.h"

namespace {

using prism::Json;
using prism::JsonError;

void Expect(bool ok, const Json& at, const std::string& why) {
  if (!ok) throw JsonError(why, at.begin);
}

void Numbers(const Json& obj, std::initializer_list<const char*> keys) {
  for (const char* k : keys) (void)obj.Num(k);
}

void Strings(const Json& obj, std::initializer_list<const char*> keys) {
  for (const char* k : keys) (void)obj.Str(k);
}

void Positive(const Json& obj, const char* key) {
  Expect(obj.Num(key) > 0, obj.Require(key), std::string(key) + " must be > 0");
}

const std::vector<Json>& NonEmpty(const Json& obj, const char* key) {
  const std::vector<Json>& a = obj.Arr(key);
  Expect(!a.empty(), obj.Require(key), std::string(key) + " is empty");
  return a;
}

// An array of one number per latency phase.
void PhaseArray(const Json& obj, const char* key) {
  const std::vector<Json>& a = obj.Arr(key);
  Expect(a.size() == prism::obs::kNumPhases, obj.Require(key),
         std::string(key) + " does not have one entry per phase");
  for (const Json& v : a) (void)v.AsNum();
}

// The bench name, and for ATTRIB_/TS_ dumps the phase table: obs's
// vocabulary, in order.
void Header(const Json& doc, const std::string& figure, bool phases) {
  Expect(doc.Str("bench") == figure, doc.Require("bench"),
         "bench is not \"" + figure + "\"");
  if (!phases) return;
  const std::vector<Json>& names = doc.Arr("phases");
  Expect(names.size() == prism::obs::kNumPhases, doc.Require("phases"),
         "phases does not list every phase");
  for (size_t i = 0; i < names.size(); ++i) {
    const char* want = prism::obs::PhaseName(static_cast<int>(i));
    Expect(names[i].AsStr() == want, names[i],
           "phase " + std::to_string(i) + " is not " + want);
  }
}

std::string Points(const char* kind, const std::string& figure, size_t n) {
  return std::string(kind) + " " + figure + " OK: " + std::to_string(n) +
         " points";
}

// ---- BENCH_sim.json ----

std::string CheckBenchSim(const Json& doc, const std::string& figure) {
  Header(doc, figure, false);
  const bool fast = doc.Bool("fast_mode");
  for (const char* name :
       {"zero_delay", "timer_wheel", "mixed", "cancel_churn"}) {
    const Json& probe = doc.Require(name);
    Positive(probe, "events");
    Positive(probe, "events_per_sec");
    Numbers(probe, {"wall_seconds", "simulated_ns"});
    Numbers(probe.Require("engine_stats"),
            {"zero_delay_events", "timer_events", "overflow_events",
             "heap_callables", "pool_blocks", "cancelled_timers"});
  }
  // The cancel-churn probe must actually cancel: one deadline per op.
  const Json& churn = doc.Require("cancel_churn");
  Expect(churn.Require("engine_stats").Num("cancelled_timers") ==
             churn.Num("events"),
         churn, "cancel_churn: cancelled_timers != events");
  return "BENCH_sim " + figure + " OK: fast_mode=" + (fast ? "true" : "false") +
         ", 4 probes";
}

// ---- BENCH_figs.json entry ----

// Per-figure expectations: each series' points carry exactly `ops`
// op-class rows (Table-1 complexity accounting), each with a nonzero count.
struct SeriesSpec {
  const char* name;  // nullptr: any name
  size_t ops;
};

struct FigureSpec {
  const char* figure;
  std::vector<SeriesSpec> series;  // the entry's series, in order
  bool same_points;  // every series sweeps as many points as series 0
  bool open_loop;    // every point carries offered_mops
  bool positive;     // tput_mops > 0 and round_trips_per_op > 0 everywhere
};

const FigureSpec kFigures[] = {
    {"fig2_topology",
     {{nullptr, 1}, {nullptr, 1}, {nullptr, 1}, {nullptr, 1}},
     true, false, false},
    {"fig_overload",
     {{nullptr, 2}, {nullptr, 2}, {nullptr, 2}, {nullptr, 2}},
     true, true, false},
    {"fig_sync",
     {{nullptr, 2}, {nullptr, 2}, {nullptr, 2}, {nullptr, 2}},
     true, true, true},
    {"fig_consensus",
     {{"PMP-consensus", 2}, {"ABD-LOCK", 2}, {"failover", 1}},
     false, true, true},
};

void CheckFigureSpec(const FigureSpec& spec, const std::vector<Json>& series) {
  Expect(series.size() == spec.series.size(), series[0],
         std::to_string(series.size()) + " series, expected " +
             std::to_string(spec.series.size()));
  const size_t n_points = series[0].Arr("points").size();
  for (size_t s = 0; s < series.size(); ++s) {
    const std::string& name = series[s].Str("name");
    const SeriesSpec& want = spec.series[s];
    Expect(want.name == nullptr || name == want.name, series[s],
           "series " + std::to_string(s) + " is \"" + name + "\"");
    const std::vector<Json>& points = series[s].Arr("points");
    Expect(!spec.same_points || points.size() == n_points, series[s],
           "series \"" + name + "\" has a different point count");
    for (const Json& p : points) {
      if (spec.open_loop) (void)p.Num("offered_mops");
      if (spec.positive) Positive(p, "tput_mops");
      const std::vector<Json>& ops = p.Arr("ops");
      Expect(ops.size() == want.ops, p,
             "series \"" + name + "\": " + std::to_string(ops.size()) +
                 " op rows, expected " + std::to_string(want.ops));
      for (const Json& op : ops) {
        Positive(op, "count");
        if (spec.positive) Positive(op, "round_trips_per_op");
      }
    }
  }
}

std::string CheckBenchFigs(const Json& doc, const std::string& figure) {
  const Json& entry = doc.Require(figure);
  (void)entry.Str("title");
  const bool fast = entry.Bool("fast_mode");
  const double jobs = entry.Num("jobs");
  (void)entry.Num("wall_seconds");
  Positive(entry, "sim_events");
  Positive(entry, "events_per_sec");
  const std::vector<Json>& series = NonEmpty(entry, "series");
  for (const Json& s : series) {
    (void)s.Str("name");
    for (const Json& p : NonEmpty(s, "points")) {
      Numbers(p, {"clients", "tput_mops", "mean_us", "p50_us", "p99_us",
                  "p999_us", "abort_rate", "sim_events"});
      if (p.Find("ops") == nullptr) continue;
      for (const Json& op : p.Arr("ops")) {
        (void)op.Str("op");
        Numbers(op, {"count", "round_trips", "messages", "bytes_out",
                     "bytes_in", "cpu_actions", "doorbells", "cq_polls"});
        if (op.Num("count") == 0) continue;
        Numbers(op, {"round_trips_per_op", "messages_per_op", "bytes_per_op",
                     "cpu_actions_per_op", "doorbells_per_op",
                     "cq_polls_per_op", "client_cpu_actions_per_op"});
      }
    }
  }
  for (const FigureSpec& spec : kFigures) {
    if (figure == spec.figure) CheckFigureSpec(spec, series);
  }
  char settings[64];
  std::snprintf(settings, sizeof(settings), "fast_mode=%s jobs=%g series=%zu",
                fast ? "true" : "false", jobs, series.size());
  return "BENCH_figs " + figure + " OK: " + settings;
}

// ---- METRICS_/ATTRIB_/TS_ dumps ----

std::string CheckMetrics(const Json& doc, const std::string& figure) {
  Header(doc, figure, false);
  const std::vector<Json>& points = NonEmpty(doc, "points");
  for (const Json& p : points) {
    (void)p.Str("series");
    for (const Json& m : p.Arr("metrics")) Strings(m, {"component", "name"});
  }
  (void)NonEmpty(points[0], "metrics");
  return Points("METRICS", figure, points.size());
}

std::string CheckAttrib(const Json& doc, const std::string& figure) {
  Header(doc, figure, true);
  const std::vector<Json>& points = NonEmpty(doc, "points");
  for (const Json& p : points) {
    (void)p.Str("series");
    Numbers(p, {"started_ops", "measured_ops"});
    for (const Json& c : p.Arr("classes")) {
      (void)c.Str("class");
      Numbers(c, {"count", "mean_us", "p50_us", "p99_us", "p999_us"});
      PhaseArray(c, "phase_total_ns");
      PhaseArray(c, "phase_p999_us");
      for (const Json& e : c.Arr("exemplars")) {
        Numbers(e, {"seq", "start_ns", "end_ns", "total_ns", "retransmits"});
        PhaseArray(e, "phase_ns");
        if (e.Find("spans") == nullptr) continue;
        for (const Json& span : e.Arr("spans")) {
          Numbers(span, {"id", "parent", "host", "start_ns", "end_ns"});
          Strings(span, {"name", "cat"});
        }
      }
    }
  }
  (void)NonEmpty(NonEmpty(points[0], "classes")[0], "exemplars");
  return Points("ATTRIB", figure, points.size());
}

std::string CheckTimeSeries(const Json& doc, const std::string& figure) {
  Header(doc, figure, true);
  const std::vector<Json>& points = NonEmpty(doc, "points");
  for (const Json& p : points) {
    (void)p.Str("series");
    Positive(p, "bucket_ns");
    for (const Json& b : p.Arr("buckets")) {
      Numbers(b, {"t_ns", "arrivals", "completions", "retransmits",
                  "outstanding", "total_ns"});
      PhaseArray(b, "phase_ns");
    }
  }
  (void)NonEmpty(points[0], "buckets");
  return Points("TS", figure, points.size());
}

// ---- Chrome trace ----

// Every async begin ("b") carries its causal parent and is closed by an
// end ("e") with the same id; "M" records name host processes.
std::string CheckTrace(const Json& doc) {
  const std::vector<Json>& events = NonEmpty(doc, "traceEvents");
  std::map<std::string, long> open;  // async id -> begins minus ends
  size_t begins = 0;
  for (const Json& ev : events) {
    const std::string& ph = ev.Str("ph");
    (void)ev.Num("pid");
    if (ph == "M") {
      (void)ev.Require("args").Str("name");
      continue;
    }
    Expect(ph == "b" || ph == "e", ev, "unexpected event phase " + ph);
    (void)ev.Str("name");
    (void)ev.Num("ts");
    if (ph == "b") (void)ev.Require("args").Str("parent");
    open[ev.Str("id")] += ph == "b" ? 1 : -1;
    begins += ph == "b";
  }
  for (const auto& [id, n] : open) {
    Expect(n == 0, doc, "async id " + id + " has unmatched begin/end events");
  }
  Expect(begins > 0, doc, "trace has no async begin events");
  return "trace OK: " + std::to_string(events.size()) + " events, " +
         std::to_string(begins) + " spans, droppedSpans=" +
         std::to_string(static_cast<long>(doc.Num("droppedSpans")));
}

std::string Check(const std::string& path, const std::string& figure) {
  const std::string file = std::filesystem::path(path).filename().string();
  auto is = [&file](const char* prefix) { return file.rfind(prefix, 0) == 0; };
  const Json doc = prism::ParseJsonFile(path);
  if (is("BENCH_sim")) return CheckBenchSim(doc, figure);
  if (is("BENCH_figs")) return CheckBenchFigs(doc, figure);
  if (is("METRICS_")) return CheckMetrics(doc, figure);
  if (is("ATTRIB_")) return CheckAttrib(doc, figure);
  if (is("TS_")) return CheckTimeSeries(doc, figure);
  return CheckTrace(doc);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: artifact_check ARTIFACT.json FIGURE\n");
    return 2;
  }
  try {
    std::printf("artifact_check: %s\n", Check(argv[1], argv[2]).c_str());
    return 0;
  } catch (const JsonError& e) {
    std::fprintf(stderr, "artifact_check: %s: %s\n", argv[1], e.what());
    return 1;
  }
}
