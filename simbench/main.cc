// simbench: the simulator-cost benchmark (see README.md).
//
//   simbench --workload kv_read|kv_write|rs_tx --seed N --seconds S
//            --trace 0|1 [--fingerprints FILE] [--out-dir DIR]
//   simbench --workload W --seed N --print-fingerprint
//
// --trace 0 repeats the workload's point list until S host seconds have
// passed and prints the end-to-end metrics. --trace 1 prints the per-layer
// table: a plain and a traced pass of every workload, the program's own
// tracer on kv_read, and the idle-stack ledger; it writes its spans and
// metrics under DIR. Every pass runs in a process of its own (InChild). The
// last stdout line is one JSON object; the exit code is non-zero when any
// simulated result fails a check.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "simbench/bench.h"
#include "src/common/hash.h"

namespace simbench {

int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

using prism::obs::OpStats;

constexpr int kMinPasses = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0;
  int trace = 0;
  std::string fingerprints;
  std::string out_dir;
  bool print_fingerprint = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-fingerprint") {
      a->print_fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--fingerprints") {
      a->fingerprints = v;
    } else if (k == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  if (FindWorkload(a->workload) == nullptr) return false;
  if (a->print_fingerprint) return true;
  return a->seconds > 0 &&
         (a->trace == 0 || (a->trace == 1 && !a->out_dir.empty()));
}

// One pass over a workload's point list.
struct Pass {
  std::string workload;
  std::vector<PointResult> points;
  int64_t wall_ns = 0;
  uint64_t digest = 0;
  // Host times scaled to the reference kernel's speed (RunPass).
  double ref_wall_s = 0;
  double ref_setup_s = 0;
  double ref_sim_s = 0;

  uint64_t ops() const {
    uint64_t n = 0;
    for (const PointResult& p : points) n += p.ops;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const PointResult& p : points) n += p.failed;
    return n;
  }
  int64_t sim_ns() const {
    int64_t n = 0;
    for (const PointResult& p : points) n += p.sim_ns();
    return n;
  }
};

// Every per-point seed derives from the workload seed.
uint64_t PointSeed(uint64_t seed, size_t index) {
  return prism::MixU64(seed ^ prism::MixU64(0x5eed0000 + index));
}

// With `calibrate`, the reference kernel runs before and after every point,
// and the point's host times are scaled by kReferenceMs over the mean of
// those two runs.
Pass RunPass(const WorkloadSpec& w, uint64_t seed, const Env& env,
             bool calibrate = false) {
  Pass pass;
  pass.workload = w.name;
  std::string digests;
  double kernel_before = calibrate ? ReferenceKernelMs() : 0;
  for (size_t i = 0; i < w.points.size(); ++i) {
    const int64_t t0 = HostNowNs();
    pass.points.push_back(RunPoint(w.name, w.points[i], PointSeed(seed, i),
                                   static_cast<uint32_t>(i), env));
    const int64_t point_ns = HostNowNs() - t0;
    pass.wall_ns += point_ns;
    const PointResult& p = pass.points.back();
    digests += std::to_string(p.digest) + ",";
    if (calibrate) {
      const double kernel_after = ReferenceKernelMs();
      const double scale = 2 * kReferenceMs / (kernel_before + kernel_after);
      kernel_before = kernel_after;
      pass.ref_wall_s += static_cast<double>(point_ns) / 1e9 * scale;
      pass.ref_setup_s += static_cast<double>(p.setup_ns()) / 1e9 * scale;
      pass.ref_sim_s += static_cast<double>(p.sim_ns()) / 1e9 * scale;
    }
  }
  pass.digest = prism::Fnv1a64(std::string_view(digests));
  return pass;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Committed fingerprints: "<workload> <seed> <point|*> <hex>" per line.
using Fingerprints = std::map<std::string, std::string>;

std::string FingerprintKey(const std::string& workload, uint64_t seed,
                           const std::string& point) {
  return workload + " " + std::to_string(seed) + " " + point;
}

Fingerprints ReadFingerprints(const std::string& path) {
  Fingerprints fp;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string workload, point, hex;
    uint64_t seed = 0;
    if (ss >> workload >> seed >> point >> hex) {
      fp[FingerprintKey(workload, seed, point)] = hex;
    }
  }
  return fp;
}

void PrintFingerprint(const Pass& pass, uint64_t seed) {
  std::printf("%s %llu * %s\n", pass.workload.c_str(),
              static_cast<unsigned long long>(seed), Hex(pass.digest).c_str());
  for (const PointResult& p : pass.points) {
    std::printf("%s %llu %s %s\n", pass.workload.c_str(),
                static_cast<unsigned long long>(seed), p.name.c_str(),
                Hex(p.digest).c_str());
  }
}

// Checks a pass's simulated results: prints its op failures, and returns
// false when its digest differs from `reference_digest` or from the
// committed fingerprint for (workload, seed), if there is one.
bool DigestOk(const Pass& pass, uint64_t seed, uint64_t reference_digest,
              const Fingerprints& committed) {
  for (const PointResult& p : pass.points) {
    for (const std::string& e : p.errors) {
      std::fprintf(stderr, "FAIL %s: %s\n", p.name.c_str(), e.c_str());
    }
  }
  bool ok = true;
  if (pass.digest != reference_digest) {
    ok = false;
    std::fprintf(stderr, "FAIL %s: simulated results differ between passes\n",
                 pass.workload.c_str());
  }
  const auto it = committed.find(FingerprintKey(pass.workload, seed, "*"));
  if (it != committed.end() && it->second != Hex(pass.digest)) {
    ok = false;
    std::fprintf(stderr, "FAIL %s seed %llu: fingerprint %s, committed %s\n",
                 pass.workload.c_str(), static_cast<unsigned long long>(seed),
                 Hex(pass.digest).c_str(), it->second.c_str());
    for (const PointResult& p : pass.points) {
      const auto pt = committed.find(FingerprintKey(pass.workload, seed, p.name));
      if (pt != committed.end() && pt->second != Hex(p.digest)) {
        std::fprintf(stderr, "  point %s differs\n", p.name.c_str());
      }
    }
  }
  return ok;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---- pass processes ----

// Runs `body` in a child process and returns the bytes it sends back, or
// nothing when the child fails. The benchmark forks every pass before it
// runs any simulation of its own, so each pass starts cold, as a fresh
// workload process does: it pays its own page faults, heap growth and
// first-use costs, and nothing one pass caches survives into the next.
std::optional<std::string> InChild(const std::function<std::string()>& body) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    // Dies with the benchmark process, so a killed run leaves no pass behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    const std::string msg = body();
    for (size_t done = 0; done < msg.size();) {
      const ssize_t n = write(fds[1], msg.data() + done, msg.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    _exit(0);
  }
  close(fds[1]);
  std::string msg;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    msg.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return msg;
}

// What a pass process reports: its summary, plus any metrics its `inspect`
// hook computed from the pass.
struct PassSummary {
  uint64_t digest = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;  // ops that failed a per-op check
  bool digest_ok = false;
  // Host times at reference speed (RunPass), and raw.
  double wall_s = 0;
  double setup_s = 0;
  double sim_s = 0;
  double raw_wall_s = 0;
  double raw_sim_s = 0;
  double peak_rss_mib = 0;
};

struct PassReport {
  PassSummary summary;
  std::vector<Metric> metrics;
};

// Runs in the pass process on the finished pass: may print it and add
// metrics.
using Inspect = std::function<void(const Pass&, std::vector<Metric>*)>;

// Runs one pass over `w` in a process of its own and checks its results
// against `reference_digest`, or against its own digest when that is 0.
std::optional<PassReport> RunPassProcess(const WorkloadSpec& w, uint64_t seed,
                                         const Env& env, bool calibrate,
                                         const Fingerprints& committed,
                                         uint64_t reference_digest,
                                         const Inspect& inspect = nullptr) {
  const std::optional<std::string> msg = InChild([&] {
    // An untimed first kernel run, so the kernel's own first-use costs do
    // not skew the first point's calibration.
    if (calibrate) ReferenceKernelMs();
    const Pass p = RunPass(w, seed, env, calibrate);
    PassSummary s;
    s.digest = p.digest;
    s.ops = p.ops();
    s.failed = p.failed();
    s.digest_ok = DigestOk(p, seed, reference_digest != 0 ? reference_digest
                                                          : p.digest,
                           committed);
    s.wall_s = p.ref_wall_s;
    s.setup_s = p.ref_setup_s;
    s.sim_s = p.ref_sim_s;
    s.raw_wall_s = static_cast<double>(p.wall_ns) / 1e9;
    s.raw_sim_s = static_cast<double>(p.sim_ns()) / 1e9;
    s.peak_rss_mib = PeakRssMiB();
    std::vector<Metric> metrics;
    if (inspect) inspect(p, &metrics);
    std::string out(reinterpret_cast<const char*>(&s), sizeof(s));
    char line[256];
    for (const Metric& m : metrics) {
      std::snprintf(line, sizeof(line), "%s %.17g %s\n", m.name.c_str(),
                    m.value, m.unit.c_str());
      out += line;
    }
    return out;
  });
  if (!msg || msg->size() < sizeof(PassSummary)) {
    std::fprintf(stderr, "FAIL %s: the pass process failed\n", w.name);
    return std::nullopt;
  }
  PassReport r;
  std::memcpy(&r.summary, msg->data(), sizeof(PassSummary));
  std::istringstream lines(msg->substr(sizeof(PassSummary)));
  Metric m;
  while (lines >> m.name >> m.value >> m.unit) r.metrics.push_back(m);
  return r;
}

// Correctness over all of a run's passes.
class Verdict {
 public:
  void Add(const PassSummary& s) {
    attempted_ += s.ops;
    failed_ += s.failed;
    mismatch_ |= !s.digest_ok;
  }
  void AddFailures(uint64_t n) { failed_ += n; }

  uint64_t attempted() const { return std::max<uint64_t>(attempted_, 1); }
  // A fingerprint mismatch fails every op of the run.
  uint64_t failed() const { return mismatch_ ? attempted() : failed_; }
  double error_rate() const {
    return static_cast<double>(failed()) / static_cast<double>(attempted());
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool mismatch_ = false;
};

// The 25th percentile, interpolated. Interference on a shared host only
// ever slows a pass, and calibration leaves part of a slowdown in place, so
// the fastest quartile of passes is the steadiest estimate of a pass's cost.
double LowerQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double pos = 0.25 * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

// Prints the metrics as a table, then the result object as the last line.
void Report(const std::vector<Metric>& metrics, const Verdict& v) {
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-44s %16.6g %s\n", "error_rate", v.error_rate(), "fraction");
  std::string json = "{\"correct\": ";
  json += v.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(v.attempted());
  json += ", \"failed\": " + std::to_string(v.failed());
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- --trace 0: end-to-end metrics ----

void PrintPoints(const Pass& pass, std::vector<Metric>*) {
  std::printf("%-32s %9s %9s %10s %9s %9s %9s\n", "point", "tput_Mops",
              "p99_us", "ops", "events", "setup_ms", "sim_ms");
  for (const PointResult& p : pass.points) {
    std::printf("%-32s %9.3f %9.1f %10llu %9llu %9.1f %9.1f\n", p.name.c_str(),
                p.lp.tput_mops, p.lp.p99_us,
                static_cast<unsigned long long>(p.ops),
                static_cast<unsigned long long>(p.events),
                static_cast<double>(p.setup_ns()) / 1e6,
                static_cast<double>(p.sim_ns()) / 1e6);
  }
}

int RunTimed(const Args& a, const WorkloadSpec& w, const Fingerprints& fp) {
  Verdict verdict;
  // The reference pass is not calibrated, so the reference kernel never
  // runs in its process: its peak RSS is the program's own. Its digest is
  // the one every measured pass must reproduce.
  const std::optional<PassReport> ref =
      RunPassProcess(w, a.seed, Env{}, /*calibrate=*/false, fp, 0, PrintPoints);
  if (!ref) return 1;
  verdict.Add(ref->summary);
  std::vector<double> wall, setup, sim, raw_wall, raw_sim;
  const int64_t t0 = HostNowNs();
  int64_t last_pass_ns = 0;
  // Stops before a pass that would end past the budget.
  while (wall.size() < kMinPasses ||
         static_cast<double>(HostNowNs() - t0 + last_pass_ns) <
             a.seconds * 1e9) {
    const int64_t start = HostNowNs();
    const std::optional<PassReport> p = RunPassProcess(
        w, a.seed, Env{}, /*calibrate=*/true, fp, ref->summary.digest);
    last_pass_ns = HostNowNs() - start;
    if (!p) return 1;
    const PassSummary& s = p->summary;
    verdict.Add(s);
    wall.push_back(s.wall_s);
    setup.push_back(s.setup_s);
    sim.push_back(s.sim_s);
    raw_wall.push_back(s.raw_wall_s);
    raw_sim.push_back(s.raw_sim_s);
  }
  // Every pass simulates the same ops (the digests agree).
  const double ops = static_cast<double>(ref->summary.ops);
  std::printf("simbench %s seed %llu: %zu passes of %zu points, one process "
              "each; raw host medians: wall %.4f s, %.6g ops/s\n",
              w.name, static_cast<unsigned long long>(a.seed), wall.size(),
              w.points.size(), Median(raw_wall), ops / Median(raw_sim));
  Report({{"wall_s", LowerQuartile(wall), "s"},
          {"setup_s", LowerQuartile(setup), "s"},
          {"sim_ops_per_s", ops / LowerQuartile(sim), "ops/s"},
          {"peak_rss_mb", ref->summary.peak_rss_mib, "MiB"}},
         verdict);
  return verdict.failed() == 0 ? 0 : 1;
}

// ---- --trace 1: per-layer metrics ----

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Counters of one workload's traced pass, qualified by the workload name.
void LayerCounters(const Pass& pass, std::vector<Metric>* out) {
  const std::string w = pass.workload + ".";
  double ops = 0, events = 0, sim_ns = 0, overflow = 0, heap = 0, zero = 0,
         lanes = 0, blocks = 0, allocs = 0, bytes = 0, msgs = 0, wire = 0,
         doorbells = 0, polls = 0;
  // Per system: ops, simulate-phase ns, and per op class (rows, RTs).
  struct Sys {
    double ops = 0, sim_ns = 0, attempts = 0, useful = 0;
    std::map<std::string, std::pair<double, double>> rt;  // op -> count, rts
    int replicas = 1;
  };
  std::map<std::string, Sys> systems;
  std::map<std::string, double> load_ns;  // app ("kv", "tx") -> ns
  double pool_clients = 0, pool_bytes = 0, pool_ns = 0;
  for (const PointResult& p : pass.points) {
    const auto& e = p.engine;
    ops += static_cast<double>(p.ops);
    events += static_cast<double>(p.events);
    sim_ns += static_cast<double>(p.sim_ns());
    overflow += static_cast<double>(e.overflow_events);
    heap += static_cast<double>(e.heap_callables);
    zero += static_cast<double>(e.zero_delay_events);
    lanes += static_cast<double>(e.zero_delay_events + e.timer_events +
                                 e.overflow_events);
    blocks = std::max(blocks, static_cast<double>(e.pool_blocks));
    const AllocCount& a = p.phase_allocs[static_cast<int>(Phase::kSim)];
    allocs += static_cast<double>(a.allocs);
    bytes += static_cast<double>(a.bytes);
    msgs += static_cast<double>(p.wire_messages);
    wire += static_cast<double>(p.wire_bytes);
    Sys& s = systems[p.system];
    s.ops += static_cast<double>(p.ops);
    s.sim_ns += static_cast<double>(p.sim_ns());
    s.attempts += static_cast<double>(p.attempts);
    s.useful += static_cast<double>(p.useful);
    s.replicas = p.replicas;
    for (const OpStats& os : p.lp.ops) {
      doorbells += static_cast<double>(os.totals.doorbells);
      polls += static_cast<double>(os.totals.cq_polls);
      auto& [count, rts] = s.rt[os.op];
      count += static_cast<double>(os.count);
      rts += static_cast<double>(os.totals.round_trips);
    }
    const std::string app = p.system.substr(0, p.system.find('.'));
    load_ns[app] +=
        static_cast<double>(p.phase_ns[static_cast<int>(Phase::kLoad)]);
    pool_clients += static_cast<double>(p.pool_clients);
    pool_bytes += static_cast<double>(p.pool_state_bytes);
    pool_ns +=
        static_cast<double>(p.phase_ns[static_cast<int>(Phase::kPoolSetup)]);
  }
  out->push_back({w + "sim.events_per_op", Ratio(events, ops), "events/op"});
  out->push_back({w + "sim.ns_per_event", Ratio(sim_ns, events), "ns/event"});
  out->push_back({w + "sim.overflow_per_op", Ratio(overflow, ops), "events/op"});
  out->push_back(
      {w + "sim.heap_callables_per_op", Ratio(heap, ops), "callables/op"});
  out->push_back({w + "sim.zero_delay_share", Ratio(zero, lanes), "fraction"});
  out->push_back({w + "sim.pool_blocks", blocks, "blocks"});
  out->push_back({w + "host.allocs_per_op", Ratio(allocs, ops), "allocs/op"});
  out->push_back({w + "host.alloc_bytes_per_op", Ratio(bytes, ops), "B/op"});
  out->push_back({w + "net.messages_per_op", Ratio(msgs, ops), "msgs/op"});
  out->push_back({w + "net.bytes_per_op", Ratio(wire, ops), "B/op"});
  out->push_back({w + "rdma.doorbells_per_op", Ratio(doorbells, ops), "1/op"});
  out->push_back({w + "rdma.cq_polls_per_op", Ratio(polls, ops), "1/op"});
  for (const auto& [name, s] : systems) {
    const std::string q = w + name + ".";
    out->push_back({q + "host_ns_per_op", Ratio(s.sim_ns, s.ops), "ns/op"});
    for (const auto& [op, cr] : s.rt) {
      // "kv.get" -> "get_rt": Table-1 round trips per op; a replicated op
      // counts one round trip per phase, not per replica.
      const std::string verb = op.substr(op.find('.') + 1);
      out->push_back({q + verb + "_rt",
                      Ratio(cr.second, cr.first) / s.replicas, "rt/op"});
    }
    if (name == "kv.prism" && s.attempts > 0) {
      out->push_back(
          {q + "put_retry_ratio", Ratio(s.attempts, s.useful), "ratio"});
    } else if (name == "rs.abd") {
      out->push_back(
          {q + "lock_success_ratio", Ratio(s.useful, s.attempts), "ratio"});
    } else if (name.rfind("tx.", 0) == 0) {
      out->push_back({q + "commit_ratio", Ratio(s.useful, s.ops), "ratio"});
    }
  }
  for (const auto& [app, ns] : load_ns) {
    if (ns > 0) out->push_back({w + app + ".load_s", ns / 1e9, "s"});
  }
  if (pool_clients > 0) {
    out->push_back({w + "workload.pool_bytes_per_client",
                    Ratio(pool_bytes, pool_clients), "B/client"});
    out->push_back({w + "workload.pool_setup_s", pool_ns / 1e9, "s"});
  }
}

std::ofstream OpenOut(const std::string& path) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  return std::ofstream(path);
}

void WriteMetrics(std::ofstream& f, const std::vector<Metric>& metrics) {
  f << "\"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    f << (i > 0 ? ",\n" : "\n") << "\"" << metrics[i].name
      << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  f << "}";
}

// One traced pass: its spans, per-point summaries and counters.
void WriteSpanFile(const std::string& path, const SpanLog& spans,
                   const Pass& pass, const std::vector<Metric>& counters) {
  std::ofstream f = OpenOut(path);
  f << "{\"spans\": [";
  for (size_t i = 0; i < spans.spans().size(); ++i) {
    const Span& s = spans.spans()[i];
    f << (i > 0 ? ",\n" : "\n") << "{\"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"point\": " << s.point
      << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
      << ", \"end_ns\": " << s.end_ns << "}";
  }
  f << "],\n\"points\": [";
  for (size_t i = 0; i < pass.points.size(); ++i) {
    const PointResult& p = pass.points[i];
    f << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << p.name
      << "\", \"ops\": " << p.ops << ", \"events\": " << p.events
      << ", \"setup_ns\": " << p.setup_ns() << ", \"sim_ns\": " << p.sim_ns()
      << ", \"tput_mops\": " << p.lp.tput_mops
      << ", \"p99_us\": " << p.lp.p99_us << ", \"digest\": \""
      << Hex(p.digest) << "\"}";
  }
  f << "],\n";
  WriteMetrics(f, counters);
  f << "}\n";
}

int RunTraced(const Args& a, const Fingerprints& fp) {
  Verdict verdict;
  std::vector<Metric> metrics;
  double plain_s = 0, traced_s = 0;
  const std::string seed = std::to_string(a.seed);
  // Overheads compare calibrated pass times (see RunPass), so host speed
  // changes between the passes do not show as overhead.
  for (const WorkloadSpec& w : Workloads()) {
    const std::optional<PassReport> plain =
        RunPassProcess(w, a.seed, Env{}, /*calibrate=*/true, fp, 0);
    if (!plain) return 1;
    const uint64_t digest = plain->summary.digest;
    // Filled in the pass process, which writes the span file itself.
    SpanLog spans;
    Env env;
    env.spans = &spans;
    const std::string path =
        a.out_dir + "/spans-" + w.name + "-" + seed + ".json";
    const std::optional<PassReport> traced = RunPassProcess(
        w, a.seed, env, /*calibrate=*/true, fp, digest,
        [&](const Pass& p, std::vector<Metric>* out) {
          LayerCounters(p, out);
          WriteSpanFile(path, spans, p, *out);
          std::printf("%s: %zu benchmark spans written to %s\n", w.name,
                      spans.spans().size(), path.c_str());
        });
    if (!traced) return 1;
    verdict.Add(plain->summary);
    verdict.Add(traced->summary);
    metrics.insert(metrics.end(), traced->metrics.begin(),
                   traced->metrics.end());
    plain_s += plain->summary.wall_s;
    traced_s += traced->summary.wall_s;
    if (std::string(w.name) == "kv_read") {
      // The program's own observability: span tracer + per-op timelines,
      // attached through the fabric. Results must not change.
      prism::obs::Tracer tracer(size_t{1} << 16);
      Env program;
      program.tracer = &tracer;
      program.timelines = true;
      const std::optional<PassReport> observed =
          RunPassProcess(w, a.seed, program, /*calibrate=*/true, fp, digest);
      if (!observed) return 1;
      verdict.Add(observed->summary);
      metrics.push_back({"kv_read.obs.trace_overhead",
                         observed->summary.wall_s / plain->summary.wall_s - 1,
                         "fraction"});
    }
  }
  metrics.push_back(
      {"bench.trace_overhead", traced_s / plain_s - 1, "fraction"});
  // The ledger runs in this process, after every pass process has ended.
  std::vector<LedgerEntry> ledger;
  verdict.AddFailures(RunLedger(&ledger));
  for (const LedgerEntry& e : ledger) metrics.push_back({e.name, e.value, e.unit});

  const std::string path = a.out_dir + "/layers-" + seed + ".json";
  std::ofstream f = OpenOut(path);
  f << "{";
  WriteMetrics(f, metrics);
  f << "}\n";
  f.close();
  std::printf("simbench traced run, seed %s: per-layer metrics written to %s\n",
              seed.c_str(), path.c_str());
  std::printf("benchmark tracing overhead: %+.2f%% of wall time\n",
              100 * (traced_s / plain_s - 1));
  Report(metrics, verdict);
  return verdict.failed() == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: simbench --workload kv_read|kv_write|rs_tx --seed N "
                 "--seconds S --trace 0|1 [--fingerprints FILE] "
                 "[--out-dir DIR, required with --trace 1]\n"
                 "       simbench --workload W --seed N --print-fingerprint\n");
    return 2;
  }
  const WorkloadSpec& w = *FindWorkload(a.workload);
  if (a.print_fingerprint) {
    PrintFingerprint(RunPass(w, a.seed, Env{}), a.seed);
    return 0;
  }
  Fingerprints fp;
  if (!a.fingerprints.empty()) {
    if (!std::filesystem::exists(a.fingerprints)) {
      std::fprintf(stderr, "missing fingerprint file %s\n",
                   a.fingerprints.c_str());
      return 2;
    }
    fp = ReadFingerprints(a.fingerprints);
  }
  return a.trace == 0 ? RunTimed(a, w, fp) : RunTraced(a, fp);
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) { return simbench::Main(argc, argv); }
