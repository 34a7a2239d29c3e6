// Protocol-complexity accounting (Table 1, §4.3).
//
// The paper's central comparison is not throughput but *protocol shape*:
// how many round trips, messages, bytes and host-CPU actions each
// operation needs under PRISM vs raw RDMA vs RPC. Every transport client
// (rpc::RpcClient, rdma::RdmaClient, core::PrismClient) maintains a
// TransportTally of these quantities; the application benchmarks diff the
// tally around each logical op and feed the delta into the per-simulation
// OpAccountant, which aggregates per operation type ("kv.get", "rs.put",
// ...). FigureReporter merges the aggregate into results/BENCH_figs.json
// so every figure carries its Table-1-style accounting next to the
// throughput/latency numbers.
//
// Counting rules, documented here and applied in exactly one place: the
// request/response exchange every transport op runs (rdma::Exchange in
// src/rdma/exchange.h, DESIGN.md §5.11). Asserted for every verb, chain
// deployment and RPC, completed, dropped and timed out, in
// tests/exchange_test.cc:
//  * messages / bytes_out   — counted when the request is handed to the
//    fabric (logical messages: transport-level retransmissions are a
//    fabric metric, not a protocol property).
//  * round_trips / bytes_in — counted only when the response actually
//    arrives; a dropped or timed-out op contributes its request but no
//    round trip.
//  * cpu_actions            — host (or SmartNIC) CPU involvement per op:
//    1 for every RPC call, software-RDMA verb, and software/BlueField
//    PRISM chain; 0 for hardware-NIC verbs and projected-hardware chains.
//  * doorbells / cq_polls   — *client*-CPU actions at the verb layer: one
//    doorbell per MMIO ring (a doorbell-batched post charges one ring for
//    the whole batch) and one cq_poll per CQ drain (completion coalescing
//    charges one drain per moderation batch). Kept separate from
//    cpu_actions so the paper's Table-1 host-CPU accounting is untouched;
//    doorbells + cq_polls is the client-side CPU-action count that
//    doorbell batching and completion coalescing amortize.
#ifndef PRISM_SRC_OBS_COMPLEXITY_H_
#define PRISM_SRC_OBS_COMPLEXITY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace prism::obs {

struct TransportTally {
  uint64_t round_trips = 0;
  uint64_t messages = 0;
  uint64_t bytes_out = 0;
  uint64_t bytes_in = 0;
  uint64_t cpu_actions = 0;
  uint64_t doorbells = 0;
  uint64_t cq_polls = 0;

  // Client-side CPU actions: the quantity verb-layer batching amortizes.
  uint64_t client_cpu_actions() const { return doorbells + cq_polls; }

  TransportTally& operator+=(const TransportTally& o) {
    round_trips += o.round_trips;
    messages += o.messages;
    bytes_out += o.bytes_out;
    bytes_in += o.bytes_in;
    cpu_actions += o.cpu_actions;
    doorbells += o.doorbells;
    cq_polls += o.cq_polls;
    return *this;
  }
  friend TransportTally operator+(TransportTally a, const TransportTally& b) {
    a += b;
    return a;
  }
  // Delta between two monotone snapshots of the same tally.
  friend TransportTally operator-(TransportTally a, const TransportTally& b) {
    a.round_trips -= b.round_trips;
    a.messages -= b.messages;
    a.bytes_out -= b.bytes_out;
    a.bytes_in -= b.bytes_in;
    a.cpu_actions -= b.cpu_actions;
    a.doorbells -= b.doorbells;
    a.cq_polls -= b.cq_polls;
    return a;
  }
  friend bool operator==(const TransportTally& a, const TransportTally& b) {
    return a.round_trips == b.round_trips && a.messages == b.messages &&
           a.bytes_out == b.bytes_out && a.bytes_in == b.bytes_in &&
           a.cpu_actions == b.cpu_actions && a.doorbells == b.doorbells &&
           a.cq_polls == b.cq_polls;
  }
};

// Aggregate over all ops of one type within one simulation.
struct OpStats {
  std::string op;
  uint64_t count = 0;
  TransportTally totals;

  friend bool operator==(const OpStats& a, const OpStats& b) {
    return a.op == b.op && a.count == b.count && a.totals == b.totals;
  }
};

// Per-simulation operation-type aggregator. Single-threaded like everything
// else inside one simulation; Collect() returns op-name-sorted rows so the
// output is deterministic and snapshot-comparable across runs.
class OpAccountant {
 public:
  void Record(std::string_view op, const TransportTally& delta) {
    RecordN(op, 1, delta);
  }

  // Bulk form for drivers whose ops overlap on a shared transport client
  // (the open-loop pools): per-op tally deltas are not separable there, so
  // the driver records the client's whole-run totals against the op count
  // it executed. Per-op averages come out identical to N Record() calls.
  void RecordN(std::string_view op, uint64_t n, const TransportTally& totals) {
    Entry& e = map_[std::string(op)];
    e.count += n;
    e.totals += totals;
  }

  std::vector<OpStats> Collect() const {
    std::vector<OpStats> out;
    out.reserve(map_.size());
    for (const auto& [name, e] : map_) {
      out.push_back(OpStats{name, e.count, e.totals});
    }
    return out;  // std::map iterates sorted by op name
  }

  bool empty() const { return map_.empty(); }
  void Reset() { map_.clear(); }

 private:
  struct Entry {
    uint64_t count = 0;
    TransportTally totals;
  };
  std::map<std::string, Entry, std::less<>> map_;
};

}  // namespace prism::obs

#endif  // PRISM_SRC_OBS_COMPLEXITY_H_
