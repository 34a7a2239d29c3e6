// Quickstart: drive every PRISM primitive (Table 1) against a simulated
// server — indirect reads, bounded pointers, ALLOCATE, enhanced CAS, and a
// full conditional chain — and print what happened.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "src/net/fabric.h"
#include "src/prism/service.h"
#include "src/sim/task.h"

using namespace prism;
using core::Chain;
using core::Op;
using sim::Task;

int main() {
  // One simulated server and one client on a 40 GbE cluster fabric.
  sim::Simulator sim;
  net::Fabric fabric(&sim, net::CostModel::EvalCluster40G());
  net::HostId server_host = fabric.AddHost("server");
  net::HostId client_host = fabric.AddHost("client");

  // Server setup: an address space, the PRISM engine (software deployment),
  // one registered region, and a free list of 64-byte buffers for ALLOCATE.
  rdma::AddressSpace mem(1 << 20);
  core::PrismServer server(&fabric, server_host,
                           core::Deployment::kSoftware, &mem);
  rdma::MemoryRegion region = *mem.CarveAndRegister(64 * 1024,
                                                    rdma::kRemoteAll);
  uint32_t freelist = server.freelists().CreateQueue(64);
  for (int i = 0; i < 16; ++i) {
    server.PostBuffers(freelist, {region.base + 4096 +
                                  static_cast<uint64_t>(i) * 64});
  }
  core::PrismClient client(&fabric, client_host);
  rdma::Addr scratch = *server.AllocateScratch(16);  // on-NIC temp space

  sim::Spawn([&]() -> Task<void> {
    std::printf("== PRISM quickstart ==\n\n");

    // 1. Plain write + read.
    Bytes greeting = BytesOfString("hello, prism");
    Op write = Op::Write(region.rkey, region.base + 256, greeting);
    auto w = co_await client.ExecuteOne(&server, std::move(write));
    std::printf("WRITE:          %s\n", w->status.ToString().c_str());

    // 2. Indirection (§3.1): store a pointer, then follow it in one op.
    mem.StoreWord(region.base, region.base + 256);  // *base = &greeting
    Op ind = Op::IndirectRead(region.rkey, region.base, greeting.size());
    auto r = co_await client.ExecuteOne(&server, std::move(ind));
    std::printf("INDIRECT READ:  \"%s\" (resolved pointer 0x%llx)\n",
                StringOfBytes(r->data).c_str(),
                static_cast<unsigned long long>(r->resolved_addr));

    // 3. Bounded pointers for variable-length values.
    core::BoundedPtr bp{region.base + 256, 5};
    mem.Store(region.base + 16, bp.ToBytes());
    Op bounded = Op::IndirectRead(region.rkey, region.base + 16,
                                  /*len=*/512, /*bounded=*/true);
    auto br = co_await client.ExecuteOne(&server, std::move(bounded));
    std::printf("BOUNDED READ:   \"%s\" (asked 512 B, bound clamped to 5)\n",
                StringOfBytes(br->data).c_str());

    // 4. ALLOCATE (§3.2): pop a buffer, fill it, get its address back.
    Op alloc = Op::Allocate(region.rkey, freelist, BytesOfString("fresh!"));
    auto a = co_await client.ExecuteOne(&server, std::move(alloc));
    std::printf("ALLOCATE:       buffer at 0x%llx\n",
                static_cast<unsigned long long>(a->AllocatedAddr()));

    // 5. Enhanced CAS (§3.3): versioned update with CAS_GT on one field.
    mem.Store(region.base + 32,
              SmallBytes::OfU64Pair(/*value=*/7, /*version=*/3));
    Op cas = Op::MaskedCas(region.rkey, region.base + 32,
                           SmallBytes::OfU64Pair(/*value=*/99, /*version=*/5),
                           /*cmp_mask=*/FieldMask(16, 8, 8),   // version only
                           /*swap_mask=*/FieldMask(16, 0, 16),  // both fields
                           rdma::CasCompare::kGreater);
    auto c = co_await client.ExecuteOne(&server, std::move(cas));
    std::printf("ENHANCED CAS:   version 5 > 3 ? %s -> value now %llu\n",
                c->cas_swapped ? "swapped" : "kept",
                static_cast<unsigned long long>(
                    mem.LoadWord(region.base + 32)));

    // 6. A full §3.5 chain in ONE round trip: allocate a new value, redirect
    // its address to on-NIC scratch, then conditionally install the pointer.
    Chain chain;
    chain.push_back(Op::Allocate(region.rkey, freelist,
                                 BytesOfString("installed-via-chain"))
                        .RedirectTo(scratch));
    Op install;
    install.code = core::OpCode::kCas;
    install.rkey = region.rkey;
    install.addr = region.base + 48;       // the pointer slot
    install.data = BytesOfU64(scratch);    // swap operand = *scratch
    install.data_indirect = true;
    install.cmp_mask = Bytes(8, 0x00);     // unconditional swap
    install.swap_mask = Bytes(8, 0xff);
    install.conditional = true;            // only if ALLOCATE succeeded
    chain.push_back(std::move(install));
    auto res = co_await client.Execute(&server, std::move(chain));
    rdma::Addr installed = mem.LoadWord(region.base + 48);
    std::printf("CHAIN:          allocate+redirect+CAS in 1 RT -> \"%s\"\n",
                StringOfBytes(mem.Load(installed, 19)).c_str());

    std::printf("\nsimulated time elapsed: %.1f us (every op one round "
                "trip, no server CPU on the data path)\n",
                sim::ToMicros(sim.Now()));
  });
  sim.Run();
  return 0;
}
