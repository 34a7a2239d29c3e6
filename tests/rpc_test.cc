// Tests for the eRPC-like two-sided RPC layer, including the §2.1
// calibration: a 512 B read RPC ≈ 5.6 µs vs a one-sided READ ≈ 3.2 µs on the
// 40 GbE cluster — the numbers that frame the paper's whole argument.
#include <gtest/gtest.h>

#include "src/net/fabric.h"
#include "src/rdma/service.h"
#include "src/rpc/rpc.h"
#include "src/sim/task.h"

namespace prism::rpc {
namespace {

using sim::Task;
using sim::ToMicros;

struct EchoRequest {
  std::string text;
};
struct ReadRequest {
  size_t bytes;
};

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_host_(fabric_.AddHost("server")),
        client_host_(fabric_.AddHost("client")),
        server_(&fabric_, server_host_),
        client_(&fabric_, client_host_) {}

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_host_;
  net::HostId client_host_;
  RpcServer server_;
  RpcClient client_;
};

TEST_F(RpcTest, CallInvokesHandlerAndReturnsResponse) {
  server_.Register(1, [this](const Message& req) -> Task<MessagePtr> {
    std::string echoed = "echo:" + req.As<EchoRequest>().text;
    co_return Message::Of(EchoRequest{echoed}, 16 + echoed.size());
  });
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    // Hoisted: nested temporaries inside co_await expressions are
    // miscompiled by GCC 12 (see sim/task.h).
    EchoRequest req{"hi"};
    MessagePtr msg = Message::Of(std::move(req), 18);
    auto resp = co_await client_.Call(&server_, 1, msg);
    EXPECT_TRUE(resp.ok());
    EXPECT_EQ((*resp)->As<EchoRequest>().text, "echo:hi");
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(server_.calls_served(), 1u);
}

TEST_F(RpcTest, Sec21Calibration512ByteReadRpc) {
  // Handler "reads" 512 B and replies with it.
  server_.Register(2, [](const Message&) -> Task<MessagePtr> {
    co_return Message::Of(Bytes(512, 0xab), 512 + 16);
  });
  double rpc_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto resp = co_await client_.Call(&server_, 2, Message::Empty(24));
    EXPECT_TRUE(resp.ok());
    rpc_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  // §2.1: "Reading a 512-byte value using a one-sided read completes in
  // about 3.2 µs, making it 43% faster than using a two-sided RPC (5.6 µs)."
  EXPECT_NEAR(rpc_us, 5.6, 0.4);
}

TEST_F(RpcTest, Sec21CalibrationOneSidedRead) {
  rdma::AddressSpace mem(1 << 16);
  auto region = *mem.CarveAndRegister(4096, rdma::kRemoteAll);
  rdma::RdmaService rdma_service(&fabric_, server_host_,
                                 rdma::Backend::kHardwareNic, &mem);
  rdma::RdmaClient rdma_client(&fabric_, client_host_);
  double read_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto r = co_await rdma_client.Read(&rdma_service, region.rkey,
                                       region.base, 512);
    EXPECT_TRUE(r.ok());
    read_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(read_us, 3.2, 0.3);
  // And §2.1's punchline: two one-sided reads are SLOWER than one RPC.
  EXPECT_GT(2 * read_us, 5.6);
}

TEST_F(RpcTest, UnknownMethodReturnsEmpty) {
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto resp = co_await client_.Call(&server_, 99, Message::Empty(8));
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(*resp == nullptr || (*resp)->empty());
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RpcTest, DownServerUnavailable) {
  fabric_.SetHostUp(server_host_, false);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto resp = co_await client_.Call(&server_, 1, Message::Empty(8));
    EXPECT_EQ(resp.code(), Code::kUnavailable);
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RpcTest, ServerCrashMidCallTimesOutInsteadOfHanging) {
  // The server crashes (and even restarts) while the request is in flight:
  // the request is purged with the dead incarnation, no response ever
  // arrives, and the call must resolve kTimedOut at ≈ the exchange deadline
  // rather than blocking the client forever.
  server_.Register(1, [](const Message&) -> Task<MessagePtr> {
    co_return Message::Empty(8);
  });
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto resp = co_await client_.Call(&server_, 1, Message::Empty(64));
    EXPECT_EQ(resp.code(), Code::kTimedOut);
    EXPECT_GE(sim_.Now() - start, rdma::Exchange::kDeadline);
    EXPECT_LT(sim_.Now() - start, rdma::Exchange::kDeadline + sim::Millis(1));
    checked = true;
  });
  // After the 350 ns client post, before the ~1 µs delivery.
  sim_.Schedule(sim::Nanos(500), [&] {
    fabric_.SetHostUp(server_host_, false);
    fabric_.SetHostUp(server_host_, true);
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(server_.calls_served(), 0u);
  EXPECT_EQ(fabric_.purged_messages(), 1u);
}

TEST_F(RpcTest, ServerCrashMidHandlerTimesOut) {
  // The request lands and the handler starts, but the host dies before the
  // response hits the wire; the reply send is dropped and the client times
  // out. (The sim handler keeps running — modeling state the dead server's
  // incarnation computed but could never ship.)
  server_.Register(2, [this](const Message&) -> Task<MessagePtr> {
    co_await sim::SleepFor(&sim_, sim::Micros(20));
    co_return Message::Empty(8);
  });
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto resp = co_await client_.Call(&server_, 2, Message::Empty(64));
    EXPECT_EQ(resp.code(), Code::kTimedOut);
    checked = true;
  });
  sim_.Schedule(sim::Micros(10), [&] {
    fabric_.SetHostUp(server_host_, false);
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(RpcTest, HandlersConsumeServerCores) {
  // With 16 cores and ~2.8 µs of core time per call, 160 concurrent calls
  // need at least 10 core "waves" ≈ 28 µs of handler time.
  server_.Register(3, [](const Message&) -> Task<MessagePtr> {
    co_return Message::Empty(16);
  });
  int done = 0;
  sim::TimePoint last = 0;
  for (int i = 0; i < 160; ++i) {
    sim::Spawn([&]() -> Task<void> {
      auto resp = co_await client_.Call(&server_, 3, Message::Empty(64));
      EXPECT_TRUE(resp.ok());
      done++;
      last = std::max(last, sim_.Now());
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 160);
  double wall = ToMicros(last);
  EXPECT_GT(wall, 28.0);   // core-bound lower bound
  EXPECT_LT(wall, 60.0);   // but pipelined, not serialized per-call
  // Utilization accounting shows the CPU cost two-sided designs pay.
  EXPECT_GT(fabric_.Cores(server_host_).total_busy(), sim::Micros(400));
}

TEST_F(RpcTest, HandlerMayAwaitInsideCore) {
  server_.Register(4, [this](const Message&) -> Task<MessagePtr> {
    co_await sim::SleepFor(&sim_, sim::Micros(10));  // e.g. disk/lock wait
    co_return Message::Empty(8);
  });
  double us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto resp = co_await client_.Call(&server_, 4, Message::Empty(8));
    EXPECT_TRUE(resp.ok());
    us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_GT(us, 15.0);  // 10 µs handler + ~5.6 µs transport
}

}  // namespace
}  // namespace prism::rpc
