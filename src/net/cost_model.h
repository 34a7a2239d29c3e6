// The calibrated timing model for the simulated testbed.
//
// Every constant is nanoseconds (sim::Duration) and is calibrated against a
// measurement the PRISM paper itself reports (see DESIGN.md §4 and
// tests/calibration_test.cc). The presets mirror the paper's two setups:
//
//  * Fig1DirectTestbed(): two machines, Mellanox ConnectX-5 25 GbE, direct
//    cable (no switch). Baseline one-sided RDMA op: 2.5 µs (§4.3, Fig. 1).
//  * EvalCluster40G(): the 12-machine evaluation cluster, 40 GbE through one
//    Arista ToR switch (0.6 µs). One-sided READ ≈ 3.2 µs and 512 B eRPC
//    ≈ 5.6 µs (§2.1); 16 dedicated server cores (§6.2).
//
// Component decomposition follows the paper's §4.2/§4.3 discussion: NIC
// processing, PCIe round trips (Neugebauer et al. give ~0.9 µs), software
// dispatch premium of 2.5–2.8 µs, and the BlueField's slow cores plus ~3 µs
// off-path access to host memory.
#ifndef PRISM_SRC_NET_COST_MODEL_H_
#define PRISM_SRC_NET_COST_MODEL_H_

#include <cstddef>

#include "src/sim/time.h"

namespace prism::net {

struct CostModel {
  // ---- fabric ----
  double link_gbps = 40.0;            // per-direction host link bandwidth
  sim::Duration propagation = sim::Nanos(600);  // one-way, incl. switches
  size_t header_bytes = 60;           // Eth+IP+UDP+BTH-equivalent per message

  // Wire loss/corruption, recovered by the transport's retransmission
  // machinery (§4.2: NICs already handle "loss, corruption, and timeout"
  // below the op layer, so PRISM ops stay exactly-once). A lost message is
  // retried after retransmit_timeout, up to max_retransmits times.
  double loss_probability = 0.0;
  sim::Duration retransmit_timeout = sim::Micros(20);
  int max_retransmits = 10;

  // ---- hardware RDMA datapath ----
  sim::Duration client_post = sim::Nanos(350);   // post WR + doorbell + TX
  sim::Duration nic_process = sim::Nanos(300);   // per-op RX pipeline slot
  sim::Duration pcie_read_rtt = sim::Nanos(900); // DMA read of host memory
  sim::Duration pcie_write = sim::Nanos(700);    // posted DMA write
  sim::Duration atomic_overhead = sim::Nanos(200);  // CAS/FAA ALU + lock
  sim::Duration completion = sim::Nanos(350);    // client CQE poll/dispatch
  int nic_pipeline_units = 8;                    // parallel NIC PUs
  // Amortized verb-layer batching costs (Storm-style): a doorbell-batched
  // post charges one client_post for the ring plus doorbell_per_wr for each
  // additional WR in the batch; a moderated CQ drain charges one completion
  // plus cqe_poll for each additional CQE reaped in the same drain.
  sim::Duration doorbell_per_wr = sim::Nanos(40);  // extra WR in one ring
  sim::Duration cqe_poll = sim::Nanos(50);         // extra CQE in one drain

  // ---- software PRISM / RPC datapath (Snap/eRPC-style, §4.1) ----
  int server_cores = 16;                          // dedicated cores (§6.2)
  sim::Duration sw_ring_dma = sim::Nanos(450);    // NIC -> rx ring
  // The software stack's *latency* is dispatch-dominated (one poll/parse/
  // steer per chain) with a small per-primitive increment — §6.2's PUT (a
  // 3-op chain) costs about the same round trip as a 1-op GET. Part of the
  // dispatch latency is pipelined polling/queueing that does NOT occupy a
  // core (sw_queue_delay); only sw_dispatch + per-op time hold a core.
  // 16 cores / 0.8 µs per 1-op chain ≈ 20 Mops of chain capacity — enough
  // for every application to reach line rate, as §6.2 reports ("sufficient
  // to achieve line rate for both systems").
  sim::Duration sw_queue_delay = sim::Nanos(2100);  // pipelined rx queueing
  sim::Duration sw_dispatch = sim::Nanos(600);    // core-held parse + steer
  sim::Duration sw_primitive = sim::Nanos(200);   // per-PRISM-op execution
  sim::Duration sw_tx = sim::Nanos(300);          // hand reply back to NIC
  sim::Duration sw_scan_per_kb = sim::Nanos(100);   // pattern-search scan rate
  sim::Duration rpc_dispatch = sim::Nanos(1500);  // eRPC rx poll + steer
  sim::Duration rpc_handler = sim::Nanos(1300);   // two-sided app handler

  // Application-level checksum verification (client CPU). Pilaf checks one
  // CRC per READ; §6.2 attributes ~2 µs of its GET latency to them.
  sim::Duration app_crc_check = sim::Nanos(1000);

  // ---- projected PRISM hardware NIC (§4.2) ----
  sim::Duration hw_freelist_pop = sim::Nanos(150);   // SRQ-style buffer pop
  sim::Duration hw_chain_step = sim::Nanos(100);     // per chained op setup
  sim::Duration on_nic_mem_access = sim::Nanos(100); // 256 KB on-NIC SRAM

  // ---- BlueField-style off-path SmartNIC (§4.3 footnote 1) ----
  int bf_cores = 8;                                // ARM A72 @ 800 MHz
  sim::Duration bf_dispatch = sim::Nanos(3000);    // slow-core rx + parse
  sim::Duration bf_primitive = sim::Nanos(1500);   // per-op execution
  sim::Duration bf_host_mem_rtt = sim::Nanos(3000);  // internal RDMA to host

  // Wire time for a message of `payload` bytes including per-message header.
  sim::Duration SerializationDelay(size_t payload) const {
    double bits = static_cast<double>(payload + header_bytes) * 8.0;
    return static_cast<sim::Duration>(bits / link_gbps);  // Gb/s == bits/ns
  }

  size_t WireBytes(size_t payload) const { return payload + header_bytes; }

  // ---- presets ----

  // Two ConnectX-5 25 GbE NICs, direct cable (Fig. 1 / Fig. 2 testbed).
  static CostModel Fig1DirectTestbed() {
    CostModel m;
    m.link_gbps = 25.0;
    m.propagation = sim::Nanos(200);  // PHY+MAC both ends, no switch
    return m;
  }

  // 12-machine 40 GbE cluster behind one Arista 7050QX ToR (§5).
  static CostModel EvalCluster40G() {
    CostModel m;
    m.link_gbps = 40.0;
    m.propagation = sim::Nanos(600);  // NIC PHY/MAC + 0.6 µs ToR, one way
    return m;
  }

  // Figure 2's synthetic network tiers layered on the direct testbed.
  static CostModel RackScale() {     // single ToR: +0.6 µs
    CostModel m = Fig1DirectTestbed();
    m.propagation += sim::Nanos(600);
    return m;
  }
  static CostModel ClusterScale() {  // three-tier network: +3 µs
    CostModel m = Fig1DirectTestbed();
    m.propagation += sim::Micros(3);
    return m;
  }
  static CostModel DataCenterScale() {  // reported DC RDMA latency: +24 µs
    CostModel m = Fig1DirectTestbed();
    m.propagation += sim::Micros(24);
    return m;
  }
};

}  // namespace prism::net

#endif  // PRISM_SRC_NET_COST_MODEL_H_
