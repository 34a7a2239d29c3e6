// Shared types of the simulator-cost benchmark (see README.md).
//
// The benchmark measures the simulator's *host* cost: wall time, set-up
// time, simulated ops per host second and memory, while pinning every
// *simulated* result with a fingerprint. Everything here runs on one thread:
// one simulation point at a time.
#ifndef SIMBENCH_BENCH_H_
#define SIMBENCH_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/kv/pilaf.h"
#include "src/kv/prism_kv.h"
#include "src/net/fabric.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/workload/driver.h"

namespace simbench {

// Process-wide heap counters kept by the counting operator new
// (alloc_count.cc).
struct AllocCount {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
AllocCount Allocs();

// Host time, steady clock, in ns.
int64_t HostNowNs();

// Host ms of one run of the fixed reference kernel (reference.cc), and its
// time on the reference machine (a 4-vCPU Xeon VM) when it is quiet. Host
// times are scaled by kReferenceMs over the kernel's time around them:
// seconds at the reference speed, steady while other tenants slow the host.
double ReferenceKernelMs();
constexpr double kReferenceMs = 38.0;

// 8-byte dense keys, as in the figure drivers.
inline std::string KeyOf(uint64_t k) {
  std::string s(8, '\0');
  prism::StoreU64(reinterpret_cast<uint8_t*>(s.data()), k);
  return s;
}

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The two key-value stacks, as the workloads and the ledger build them: a
// store of `keys` dense 8-byte keys plus 4096 spare value slots for PUTs,
// and the Table-1 round trips of each op on an idle stack.
constexpr uint64_t kKvSpareSlots = 4096;

struct PilafKv {
  using Server = prism::kv::PilafServer;
  using Client = prism::kv::PilafClient;
  static constexpr const char* kName = "kv.pilaf";
  static constexpr uint64_t kGetRt = 2;  // bucket READ + extent READ
  static constexpr uint64_t kPutRt = 1;  // one RPC
  static std::unique_ptr<Server> MakeServer(prism::net::Fabric* f,
                                            prism::net::HostId h,
                                            uint64_t keys) {
    prism::kv::PilafOptions o;
    o.n_buckets = keys;
    o.n_extents = keys + kKvSpareSlots;
    o.backend = prism::rdma::Backend::kHardwareNic;
    o.dense_key_hash = true;
    return std::make_unique<Server>(f, h, o);
  }
};

struct PrismKv {
  using Server = prism::kv::PrismKvServer;
  using Client = prism::kv::PrismKvClient;
  static constexpr const char* kName = "kv.prism";
  static constexpr uint64_t kGetRt = 1;  // one indirect bounded READ
  static constexpr uint64_t kPutRt = 2;  // probe + install chain
  static std::unique_ptr<Server> MakeServer(prism::net::Fabric* f,
                                            prism::net::HostId h,
                                            uint64_t keys) {
    prism::kv::PrismKvOptions o;
    o.n_buckets = keys;
    o.n_buffers = keys + kKvSpareSlots;
    o.dense_key_hash = true;
    return std::make_unique<Server>(f, h, o);
  }
};

// Host-time phases of one simulation point. Set-up is build + load + pool.
enum class Phase { kBuild, kLoad, kPoolSetup, kSim, kCollect, kTeardown };
constexpr int kNumPhases = 6;

// A benchmark-side span: host time around one public call the benchmark
// makes. Spans of one point share `point`; phase spans are children of the
// point's root span.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint32_t point = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// In-memory span store, written out once at the end of a traced run.
class SpanLog {
 public:
  uint64_t Add(uint64_t parent, uint32_t point, std::string name,
               int64_t start_ns, int64_t end_ns) {
    spans_.push_back(Span{spans_.size() + 1, parent, point, std::move(name),
                          start_ns, end_ns});
    return spans_.size();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Host time and allocations of one point, accumulated per phase. With a
// SpanLog attached, every timed call also becomes a span.
class PointClock {
 public:
  struct Mark {
    int64_t ns;
    AllocCount allocs;
  };

  PointClock(SpanLog* log, uint32_t point, const std::string& name)
      : log_(log), point_(point), name_(name), start_(Begin()) {}

  Mark Begin() const { return Mark{HostNowNs(), Allocs()}; }

  void End(Phase p, const char* span_name, const Mark& m) {
    const int64_t now = HostNowNs();
    const AllocCount a = Allocs();
    const int i = static_cast<int>(p);
    ns_[i] += now - m.ns;
    allocs_[i].allocs += a.allocs - m.allocs.allocs;
    allocs_[i].bytes += a.bytes - m.allocs.bytes;
    if (log_ != nullptr) pending_.push_back({span_name, m.ns, now});
  }

  // Closes the point: emits its root span and the phase spans under it.
  void Finish() {
    if (log_ == nullptr) return;
    const uint64_t root =
        log_->Add(0, point_, "point " + name_, start_.ns, HostNowNs());
    for (const Pending& p : pending_) {
      log_->Add(root, point_, p.name, p.start_ns, p.end_ns);
    }
  }

  int64_t ns(Phase p) const { return ns_[static_cast<int>(p)]; }
  AllocCount allocs(Phase p) const { return allocs_[static_cast<int>(p)]; }

 private:
  struct Pending {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  SpanLog* log_;
  uint32_t point_;
  std::string name_;
  Mark start_;
  int64_t ns_[kNumPhases] = {};
  AllocCount allocs_[kNumPhases] = {};
  std::vector<Pending> pending_;
};

// One simulation point of a workload.
struct PointSpec {
  const char* system;   // "kv.pilaf", "kv.prism", "rs.abd", ...
  int clients;          // closed-loop clients (0 for open loop)
  double offered_mops;  // open-loop offered rate (0 for closed loop)
  bool batched;         // open loop: VerbBatcher per client host
};

struct WorkloadSpec {
  const char* name;
  std::vector<PointSpec> points;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// Optional observation attached to a point.
struct Env {
  SpanLog* spans = nullptr;              // benchmark-side spans
  prism::obs::Tracer* tracer = nullptr;  // the program's own span tracer
  bool timelines = false;  // the program's per-op timeline store
};

// What one point produced. Simulated results (lp, complexity rows) go into
// the fingerprint; engine counts and host costs do not.
struct PointResult {
  std::string name;    // "kv_read/kv.pilaf/c32"
  std::string system;  // PointSpec::system
  prism::workload::LoadPoint lp;
  uint64_t ops = 0;     // app ops that finished, whatever the outcome
  uint64_t aborted = 0;  // ops that ended in an expected abort
  uint64_t failed = 0;   // ops that failed a correctness check
  uint64_t outputs = 0;  // order-free checksum of what the ops returned
  std::vector<std::string> errors;  // first few failure messages

  uint64_t events = 0;
  prism::sim::Simulator::Stats engine;
  uint64_t wire_messages = 0;
  uint64_t wire_bytes = 0;

  // System-specific outcome counts.
  uint64_t attempts = 0;  // kv.prism PUT calls + CAS retries; lock attempts
  uint64_t useful = 0;    // PUTs completed; locks won; txns committed
  uint64_t pool_clients = 0;
  uint64_t pool_state_bytes = 0;
  int replicas = 1;       // RT fan-out divisor for per-op round trips

  int64_t phase_ns[kNumPhases] = {};
  AllocCount phase_allocs[kNumPhases] = {};
  uint64_t digest = 0;

  int64_t setup_ns() const {
    return phase_ns[static_cast<int>(Phase::kBuild)] +
           phase_ns[static_cast<int>(Phase::kLoad)] +
           phase_ns[static_cast<int>(Phase::kPoolSetup)];
  }
  int64_t sim_ns() const { return phase_ns[static_cast<int>(Phase::kSim)]; }

  // Folds one op's returned data into `outputs`.
  void Output(uint64_t x) { outputs += prism::MixU64(x); }

  // Records a correctness failure of one op.
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 4) errors.push_back(why);
  }
};

PointResult RunPoint(const std::string& workload, const PointSpec& spec,
                     uint64_t seed, uint32_t point_id, const Env& env);

// Digest of a point's simulated results only.
uint64_t DigestOf(const PointResult& r);

// Idle-stack per-layer ledger (ledger.cc).
struct LedgerEntry {
  std::string name;
  double value;
  const char* unit;
};
// Appends one entry per measured call; returns the number of Table-1
// round-trip violations it observed.
uint64_t RunLedger(std::vector<LedgerEntry>* out);

}  // namespace simbench

#endif  // SIMBENCH_BENCH_H_
