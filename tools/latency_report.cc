// latency_report: reads the attribution / time-series / trace JSON a figure
// driver emits under --trace and answers "where did the tail go?"
//
//   latency_report results/ATTRIB_fig_overload.json
//       [--ts=results/TS_fig_overload.json] [--trace=results/trace.json]
//       [--series=NAME] [--expect=SERIES/CLASS/PHASE/MINSHARE]...
//       [--expect-dominant=SERIES/CLASS/PHASE]...
//
// For every sweep point it prints a per-class critical-path table: each
// phase's share of the slowest-K exemplar tail, its share of the whole
// measurement window (exact integer phase sums), and the phase-histogram
// p999. The slowest exemplar that carries a pinned span tree is expanded
// into a span-level critical-path listing. Machine-readable `verdict:` lines
// give the dominant tail phase per (series, class) at that series' top load
// point — CLASS `*` pools every class of the point.
//
// Expectations make the tool a CI gate: `--expect` demands a minimum tail
// share for a phase at the series' top load point, `--expect-dominant`
// demands the phase be the argmax. Exit codes are part of the contract:
//   0  report printed, all expectations met
//   1  an expectation failed
//   2  malformed input (JSON parse error, missing or mistyped field,
//      unreadable file)
//
// Every read goes through the typed accessors of src/common/json.h, so
// truncated or hand-edited input fails loudly (exit 2) rather than being
// misreported.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json.h"

namespace {

using prism::Json;
using prism::JsonError;

// ---------------------------------------------------------------------------
// Report model.

struct ClassTail {
  std::string name;
  uint64_t count = 0;
  double p999_us = 0;
  std::vector<double> window_ns;     // exact per-phase sums over the window
  std::vector<double> tail_ns;       // per-phase sums over the exemplars
  std::vector<double> phase_p999_us; // per-phase histogram p999
  const std::vector<Json>* exemplars = nullptr;
};

struct Point {
  std::string series;
  double x = NAN;
  uint64_t started = 0, measured = 0;
  std::vector<ClassTail> classes;
};

int DominantPhase(const std::vector<double>& ns) {
  int best = 0;
  for (size_t i = 1; i < ns.size(); i++) {
    if (ns[i] > ns[best]) best = static_cast<int>(i);
  }
  return best;
}

double Share(const std::vector<double>& ns, int phase) {
  double total = 0;
  for (double v : ns) total += v;
  return total > 0 ? ns[static_cast<size_t>(phase)] / total : 0;
}

struct Expectation {
  std::string series, cls, phase;
  double min_share = 0;     // used by --expect
  bool dominant_only = false;
};

// SERIES/CLASS/PHASE[/MINSHARE]; series names never contain '/'.
bool ParseExpectation(std::string_view spec, bool dominant, Expectation* out) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= spec.size(); i++) {
    if (i == spec.size() || spec[i] == '/') {
      parts.emplace_back(spec.substr(start, i - start));
      start = i + 1;
    }
  }
  if (dominant ? parts.size() != 3 : parts.size() != 4) return false;
  out->series = parts[0];
  out->cls = parts[1];
  out->phase = parts[2];
  out->dominant_only = dominant;
  if (!dominant) {
    char* end = nullptr;
    out->min_share = std::strtod(parts[3].c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Span-tree critical path for the slowest traced exemplar.

struct SpanRow {
  double id = 0, parent = 0;
  std::string name, cat;
  double start_ns = 0, end_ns = 0;
};

void PrintSpanTree(const std::vector<SpanRow>& spans, double id, double base_ns,
                   double total_ns, int depth) {
  for (const SpanRow& s : spans) {
    if (s.id != id) continue;
    double dur = s.end_ns - s.start_ns;
    std::printf("    %*s%-*s %-8s %9.2f %9.2f %5.1f%%\n", 2 * depth, "",
                28 - 2 * depth, s.name.c_str(), s.cat.c_str(),
                (s.start_ns - base_ns) / 1e3, dur / 1e3,
                total_ns > 0 ? 100.0 * dur / total_ns : 0.0);
    // Children, in start order (the writer already sorts by span id which
    // is allocation order, but be explicit).
    std::vector<const SpanRow*> kids;
    for (const SpanRow& c : spans) {
      if (c.parent == s.id && c.id != s.id) kids.push_back(&c);
    }
    std::sort(kids.begin(), kids.end(), [](const SpanRow* a, const SpanRow* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->id < b->id;
    });
    for (const SpanRow* c : kids) {
      PrintSpanTree(spans, c->id, base_ns, total_ns, depth + 1);
    }
  }
}

int Run(int argc, char** argv) {
  std::string attrib_path, ts_path, trace_path, series_filter;
  std::vector<Expectation> expects;
  for (int i = 1; i < argc; i++) {
    std::string_view arg = argv[i];
    auto val = [&arg](std::string_view flag) -> std::string_view {
      return arg.substr(flag.size());
    };
    if (arg.rfind("--ts=", 0) == 0) {
      ts_path = val("--ts=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = val("--trace=");
    } else if (arg.rfind("--series=", 0) == 0) {
      series_filter = val("--series=");
    } else if (arg.rfind("--expect=", 0) == 0 ||
               arg.rfind("--expect-dominant=", 0) == 0) {
      const bool dom = arg.rfind("--expect-dominant=", 0) == 0;
      Expectation e;
      if (!ParseExpectation(val(dom ? "--expect-dominant=" : "--expect="), dom,
                            &e)) {
        std::fprintf(stderr, "latency_report: bad expectation spec: %s\n",
                     argv[i]);
        return 2;
      }
      expects.push_back(std::move(e));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "latency_report: unknown flag %s\n", argv[i]);
      return 2;
    } else if (attrib_path.empty()) {
      attrib_path = arg;
    } else {
      std::fprintf(stderr, "latency_report: extra positional arg %s\n",
                   argv[i]);
      return 2;
    }
  }
  if (attrib_path.empty()) {
    std::fprintf(stderr,
                 "usage: latency_report ATTRIB.json [--ts=TS.json] "
                 "[--trace=TRACE.json] [--series=NAME]\n"
                 "         [--expect=SERIES/CLASS/PHASE/MINSHARE]... "
                 "[--expect-dominant=SERIES/CLASS/PHASE]...\n");
    return 2;
  }

  const Json root = prism::ParseJsonFile(attrib_path);
  const std::string& bench = root.Str("bench");
  std::vector<std::string> phases;
  for (const Json& p : root.Arr("phases")) phases.push_back(p.AsStr());
  const size_t np = phases.size();
  if (np == 0) {
    throw JsonError("empty phases list", root.Require("phases").begin);
  }
  auto phase_index = [&phases](std::string_view name) {
    for (size_t i = 0; i < phases.size(); i++) {
      if (phases[i] == name) return static_cast<int>(i);
    }
    return -1;
  };

  std::vector<Point> points;
  for (const Json& jp : root.Arr("points")) {
    Point pt;
    pt.series = jp.Str("series");
    if (jp.Find("x") != nullptr) pt.x = jp.Num("x");
    pt.started = static_cast<uint64_t>(jp.Num("started_ops"));
    pt.measured = static_cast<uint64_t>(jp.Num("measured_ops"));
    for (const Json& jc : jp.Arr("classes")) {
      ClassTail ct;
      ct.name = jc.Str("class");
      ct.count = static_cast<uint64_t>(jc.Num("count"));
      ct.p999_us = jc.Num("p999_us");
      for (const Json& v : jc.Arr("phase_total_ns")) {
        ct.window_ns.push_back(v.AsNum());
      }
      for (const Json& v : jc.Arr("phase_p999_us")) {
        ct.phase_p999_us.push_back(v.AsNum());
      }
      if (ct.window_ns.size() != np || ct.phase_p999_us.size() != np) {
        throw JsonError("per-phase array length != phases length", jc.begin);
      }
      ct.tail_ns.assign(np, 0.0);
      ct.exemplars = &jc.Arr("exemplars");
      for (const Json& je : *ct.exemplars) {
        const auto& ph = je.Arr("phase_ns");
        if (ph.size() != np) {
          throw JsonError("exemplar phase_ns length", je.begin);
        }
        for (size_t i = 0; i < np; i++) ct.tail_ns[i] += ph[i].AsNum();
      }
      pt.classes.push_back(std::move(ct));
    }
    points.push_back(std::move(pt));
  }

  // ---- the report ----
  std::printf("latency_report: %s (%zu points)\n", bench.c_str(),
              points.size());
  const Json* best_traced = nullptr;  // slowest exemplar with a span tree
  std::string best_traced_label;
  for (const Point& pt : points) {
    if (!series_filter.empty() && pt.series != series_filter) continue;
    if (std::isnan(pt.x)) {
      std::printf("\n== %s   started=%llu measured=%llu\n", pt.series.c_str(),
                  static_cast<unsigned long long>(pt.started),
                  static_cast<unsigned long long>(pt.measured));
    } else {
      std::printf("\n== %s @ x=%g   started=%llu measured=%llu\n",
                  pt.series.c_str(), pt.x,
                  static_cast<unsigned long long>(pt.started),
                  static_cast<unsigned long long>(pt.measured));
    }
    for (const ClassTail& ct : pt.classes) {
      const int dom = DominantPhase(ct.tail_ns);
      std::printf("  %-14s n=%-8llu p999=%.1fus  tail-dominant: %s (%.1f%%)\n",
                  ct.name.c_str(), static_cast<unsigned long long>(ct.count),
                  ct.p999_us, phases[static_cast<size_t>(dom)].c_str(),
                  100.0 * Share(ct.tail_ns, dom));
      std::printf("    %-14s %7s %8s %10s\n", "phase", "tail%", "window%",
                  "p999(us)");
      for (size_t i = 0; i < np; i++) {
        if (ct.tail_ns[i] <= 0 && ct.window_ns[i] <= 0) continue;
        std::printf("    %-14s %6.1f%% %7.1f%% %10.1f\n", phases[i].c_str(),
                    100.0 * Share(ct.tail_ns, static_cast<int>(i)),
                    100.0 * Share(ct.window_ns, static_cast<int>(i)),
                    ct.phase_p999_us[i]);
      }
      for (const Json& je : *ct.exemplars) {
        if (je.Find("spans") == nullptr || je.Arr("spans").empty()) continue;
        if (best_traced == nullptr ||
            je.Num("total_ns") > best_traced->Num("total_ns")) {
          best_traced = &je;
          best_traced_label = pt.series + " " + ct.name;
        }
      }
    }
  }

  if (best_traced != nullptr) {
    // The pinned tree is the op's whole causal root tree, which can include
    // sibling ops of the same worker chain; display only the spans that
    // overlap this exemplar's own [start, end] interval.
    const double op_start = best_traced->Num("start_ns");
    const double op_end = best_traced->Num("end_ns");
    std::vector<SpanRow> spans;
    for (const Json& js : best_traced->Arr("spans")) {
      SpanRow s;
      s.id = js.Num("id");
      s.parent = js.Num("parent");
      s.name = js.Str("name");
      s.cat = js.Str("cat");
      s.start_ns = js.Num("start_ns");
      s.end_ns = js.Num("end_ns");
      const bool open = s.end_ns < s.start_ns;  // never finished
      if (s.start_ns > op_end || (!open && s.end_ns < op_start)) continue;
      spans.push_back(std::move(s));
    }
    const double total = best_traced->Num("total_ns");
    std::printf("\ncritical path: slowest traced op (%s, %.1fus, %zu spans)\n",
                best_traced_label.c_str(), total / 1e3, spans.size());
    std::printf("    %-28s %-8s %9s %9s %6s\n", "span", "cat", "start(us)",
                "dur(us)", "share");
    // Roots: spans whose parent is not in the pinned set.
    for (const SpanRow& s : spans) {
      bool has_parent = false;
      for (const SpanRow& p : spans) {
        if (p.id == s.parent && p.id != s.id) has_parent = true;
      }
      if (!has_parent) {
        PrintSpanTree(spans, s.id, op_start, total, 0);
      }
    }
  }

  // ---- verdicts: dominant tail phase at each series' top load point ----
  std::vector<const Point*> top;  // one per series, in first-seen order
  for (const Point& pt : points) {
    bool found = false;
    for (const Point*& t : top) {
      if (t->series == pt.series) {
        found = true;
        const bool better = std::isnan(t->x) || (!std::isnan(pt.x) && pt.x >= t->x);
        if (better) t = &pt;
      }
    }
    if (!found) top.push_back(&pt);
  }
  std::printf("\n");
  for (const Point* pt : top) {
    std::vector<double> pooled(np, 0.0);
    for (const ClassTail& ct : pt->classes) {
      const int dom = DominantPhase(ct.tail_ns);
      std::printf("verdict: series=\"%s\" x=%g class=%s dominant=%s share=%.3f\n",
                  pt->series.c_str(), pt->x, ct.name.c_str(),
                  phases[static_cast<size_t>(dom)].c_str(),
                  Share(ct.tail_ns, dom));
      for (size_t i = 0; i < np; i++) pooled[i] += ct.tail_ns[i];
    }
    const int dom = DominantPhase(pooled);
    std::printf("verdict: series=\"%s\" x=%g class=* dominant=%s share=%.3f\n",
                pt->series.c_str(), pt->x,
                phases[static_cast<size_t>(dom)].c_str(), Share(pooled, dom));
  }

  // ---- optional companion files ----
  if (!ts_path.empty()) {
    const Json ts = prism::ParseJsonFile(ts_path);
    (void)ts.Str("bench");
    for (const Json& jp : ts.Arr("points")) {
      const auto& buckets = jp.Arr("buckets");
      double peak_out = 0, completions = 0;
      for (const Json& b : buckets) {
        peak_out = std::max(peak_out, b.Num("outstanding"));
        completions += b.Num("completions");
        (void)b.Num("arrivals");
        (void)b.Num("t_ns");
      }
      std::printf("ts: series=\"%s\" x=%g buckets=%zu bucket_ns=%g "
                  "peak_outstanding=%g completions=%g\n",
                  jp.Str("series").c_str(),
                  jp.Find("x") != nullptr ? jp.Num("x") : NAN,
                  buckets.size(), jp.Num("bucket_ns"), peak_out, completions);
    }
  }
  if (!trace_path.empty()) {
    const Json tr = prism::ParseJsonFile(trace_path);
    std::printf("trace: events=%zu dropped_spans=%g\n",
                tr.Arr("traceEvents").size(), tr.Num("droppedSpans"));
  }

  // ---- expectations ----
  int failures = 0;
  for (const Expectation& e : expects) {
    const Point* pt = nullptr;
    for (const Point* t : top) {
      if (t->series == e.series) pt = t;
    }
    if (pt == nullptr) {
      std::printf("expect FAIL: series \"%s\" not found\n", e.series.c_str());
      failures++;
      continue;
    }
    std::vector<double> tail(np, 0.0);
    bool have_class = false;
    for (const ClassTail& ct : pt->classes) {
      if (e.cls != "*" && ct.name != e.cls) continue;
      have_class = true;
      for (size_t i = 0; i < np; i++) tail[i] += ct.tail_ns[i];
    }
    const int want = phase_index(e.phase);
    if (!have_class || want < 0) {
      std::printf("expect FAIL: %s/%s/%s: unknown %s\n", e.series.c_str(),
                  e.cls.c_str(), e.phase.c_str(),
                  want < 0 ? "phase" : "class");
      failures++;
      continue;
    }
    const int dom = DominantPhase(tail);
    const double share = Share(tail, want);
    const bool ok = e.dominant_only ? dom == want : share >= e.min_share;
    char detail[96];
    if (e.dominant_only) {
      std::snprintf(detail, sizeof(detail), "dominance required, got %s",
                    phases[static_cast<size_t>(dom)].c_str());
    } else {
      std::snprintf(detail, sizeof(detail), "min %.3f", e.min_share);
    }
    std::printf("expect %s: series=\"%s\" class=%s phase=%s share=%.3f (%s)\n",
                ok ? "OK" : "FAIL", e.series.c_str(), e.cls.c_str(),
                e.phase.c_str(), share, detail);
    if (!ok) failures++;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(argc, argv);
  } catch (const JsonError& e) {
    std::fprintf(stderr, "latency_report: malformed input: %s\n", e.what());
    return 2;
  }
}
