// Tests for the replicated block stores: PRISM-RS (§7.3) and ABD-LOCK
// (§7.2), including a real-time atomic-register (linearizability) checker
// run over concurrent histories, replica-failure availability, lock
// pathologies, and latency calibration.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "src/rs/abd_lock.h"
#include "src/rs/prism_rs.h"
#include "src/sim/task.h"

namespace prism::rs {
namespace {

using sim::Task;
using sim::ToMicros;

// ---- history recording + atomic-register checker ----

struct HistoryOp {
  bool is_write = false;
  sim::TimePoint invoke = 0;
  sim::TimePoint response = 0;
  Tag tag;      // tag installed (write) or observed (read)
  Bytes value;  // value written or returned
};

// Checks the atomicity (linearizability) conditions for a single register:
//  1. every read returns the value written by the write with its tag;
//  2. tags respect real-time order: if op1 completes before op2 begins,
//     tag(op2) >= tag(op1), strictly greater when op2 is a write.
// These two conditions are equivalent to linearizability for tagged atomic
// registers (the tag order is the linearization order).
::testing::AssertionResult CheckAtomicRegister(
    const std::vector<HistoryOp>& history) {
  std::map<uint64_t, Bytes> written;  // packed tag -> value
  written[0] = {};                    // initial (zero) value, any size
  for (const HistoryOp& op : history) {
    if (op.is_write) {
      auto [it, inserted] = written.emplace(op.tag.Packed(), op.value);
      if (!inserted) {
        return ::testing::AssertionFailure()
               << "duplicate write tag " << op.tag.Packed();
      }
    }
  }
  for (const HistoryOp& op : history) {
    if (op.is_write) continue;
    auto it = written.find(op.tag.Packed());
    if (it == written.end()) {
      return ::testing::AssertionFailure()
             << "read observed tag " << op.tag.Packed() << " never written";
    }
    if (op.tag.Packed() != 0 && it->second != op.value) {
      return ::testing::AssertionFailure()
             << "read of tag " << op.tag.Packed() << " returned wrong value";
    }
  }
  for (const HistoryOp& a : history) {
    for (const HistoryOp& b : history) {
      if (a.response < b.invoke) {
        if (b.is_write) {
          if (!(a.tag.Packed() < b.tag.Packed())) {
            return ::testing::AssertionFailure()
                   << "write tag " << b.tag.Packed()
                   << " not above preceding op tag " << a.tag.Packed();
          }
        } else if (b.tag.Packed() < a.tag.Packed()) {
          return ::testing::AssertionFailure()
                 << "read tag " << b.tag.Packed()
                 << " regressed below preceding op tag " << a.tag.Packed();
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

Bytes BlockValue(uint8_t fill, uint64_t size) { return Bytes(size, fill); }

// ---- PRISM-RS ----

class PrismRsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBlockSize = 64;

  PrismRsTest() : fabric_(&sim_, net::CostModel::EvalCluster40G()) {
    PrismRsOptions opts;
    opts.n_blocks = 64;
    opts.block_size = kBlockSize;
    opts.buffers_per_replica = 2048;
    cluster_ = std::make_unique<PrismRsCluster>(&fabric_, 3, opts);
  }

  std::unique_ptr<PrismRsClient> NewClient(uint16_t id) {
    net::HostId host = fabric_.AddHost("client-" + std::to_string(id));
    return std::make_unique<PrismRsClient>(&fabric_, host, cluster_.get(),
                                           id);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<PrismRsCluster> cluster_;
};

TEST_F(PrismRsTest, FreshBlockReadsZeroes) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client->Get(5);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, Bytes(kBlockSize, 0));
  });
  sim_.Run();
}

TEST_F(PrismRsTest, PutThenGetRoundTrip) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(3, BlockValue(0xab, kBlockSize))).ok());
    auto r = co_await client->Get(3);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, BlockValue(0xab, kBlockSize));
  });
  sim_.Run();
}

TEST_F(PrismRsTest, BlocksAreIndependent) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(1, BlockValue(1, kBlockSize))).ok());
    EXPECT_TRUE((co_await client->Put(2, BlockValue(2, kBlockSize))).ok());
    auto r1 = co_await client->Get(1);
    auto r2 = co_await client->Get(2);
    EXPECT_EQ(*r1, BlockValue(1, kBlockSize));
    EXPECT_EQ(*r2, BlockValue(2, kBlockSize));
  });
  sim_.Run();
}

TEST_F(PrismRsTest, TagsIncreaseMonotonically) {
  auto client = NewClient(7);
  sim::Spawn([&]() -> Task<void> {
    Tag t1, t2, t3;
    EXPECT_TRUE(
        (co_await client->Put(0, BlockValue(1, kBlockSize), &t1)).ok());
    EXPECT_TRUE(
        (co_await client->Put(0, BlockValue(2, kBlockSize), &t2)).ok());
    auto r = co_await client->Get(0, &t3);
    EXPECT_TRUE(r.ok());
    EXPECT_LT(t1.Packed(), t2.Packed());
    EXPECT_EQ(t2.Packed(), t3.Packed());
    EXPECT_EQ(t1.client, 7);
  });
  sim_.Run();
}

TEST_F(PrismRsTest, SurvivesOneReplicaFailure) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(0, BlockValue(9, kBlockSize))).ok());
    // Kill one replica (f = 1): both phases must still reach quorum.
    fabric_.SetHostUp(1, false);  // replicas were hosts 0..2
    auto r = co_await client->Get(0);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, BlockValue(9, kBlockSize));
    EXPECT_TRUE((co_await client->Put(0, BlockValue(10, kBlockSize))).ok());
    auto r2 = co_await client->Get(0);
    EXPECT_EQ(*r2, BlockValue(10, kBlockSize));
  });
  sim_.Run();
}

TEST_F(PrismRsTest, TwoFailuresBlockProgress) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    fabric_.SetHostUp(0, false);
    fabric_.SetHostUp(1, false);
    auto r = co_await client->Get(0);
    EXPECT_FALSE(r.ok());  // no quorum with 2 of 3 down
  });
  sim_.Run();
}

TEST_F(PrismRsTest, ConcurrentHistoryIsLinearizable) {
  // 6 clients × 8 ops on one block, mixed reads/writes, unique values.
  std::vector<HistoryOp> history;
  std::vector<std::unique_ptr<PrismRsClient>> clients;
  for (uint16_t c = 1; c <= 6; ++c) clients.push_back(NewClient(c));
  for (int c = 0; c < 6; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      for (int i = 0; i < 8; ++i) {
        HistoryOp op;
        op.invoke = sim_.Now();
        if ((c + i) % 2 == 0) {
          op.is_write = true;
          op.value = BlockValue(static_cast<uint8_t>(c * 16 + i + 1),
                                kBlockSize);
          Status s = co_await clients[static_cast<size_t>(c)]->Put(
              0, op.value, &op.tag);
          EXPECT_TRUE(s.ok());
        } else {
          auto r = co_await clients[static_cast<size_t>(c)]->Get(0, &op.tag);
          EXPECT_TRUE(r.ok());
          op.value = *r;
        }
        op.response = sim_.Now();
        history.push_back(std::move(op));
      }
    });
  }
  sim_.Run();
  ASSERT_EQ(history.size(), 48u);
  EXPECT_TRUE(CheckAtomicRegister(history));
}

TEST_F(PrismRsTest, GetTakesTwoRoundTripPhases) {
  auto client = NewClient(1);
  double get_us = -1;
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(0, BlockValue(5, kBlockSize))).ok());
    sim::TimePoint start = sim_.Now();
    auto r = co_await client->Get(0);
    EXPECT_TRUE(r.ok());
    get_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  // Two phases of ~6 µs each on the software PRISM stack.
  EXPECT_NEAR(get_us, 12.5, 2.0);
}

TEST_F(PrismRsTest, EveryPhaseLeavesOneStraggler) {
  // Each ABD phase waits for 2 of 3 replies, so fault-free the third reply
  // of every phase lands after its outcome. A PUT runs two phases, and so
  // does a GET (read, then write-back): 8 ops, 16 stragglers.
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    for (uint64_t b = 0; b < 4; ++b) {
      EXPECT_TRUE((co_await client->Put(b, BlockValue(1, kBlockSize))).ok());
      EXPECT_TRUE((co_await client->Get(b)).ok());
    }
  });
  sim_.Run();
  EXPECT_EQ(sim_.stats().fanout_stragglers, 16u);
}

TEST_F(PrismRsTest, BuffersRecycleUnderChurn) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 600; ++i) {
      Status s = co_await client->Put(
          0, BlockValue(static_cast<uint8_t>(i), kBlockSize));
      EXPECT_TRUE(s.ok()) << i;
    }
    client->FlushReclaim();
  });
  sim_.Run();
  // 600 puts × (1 install + write-backs) with only 2047 buffers per replica:
  // reclamation must be keeping up for this to have succeeded.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(cluster_->replica(i).prism().freelists().available(
                  cluster_->replica(i).freelist()),
              1000u);
  }
}

// ---- ABD-LOCK ----

class AbdLockTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBlockSize = 64;

  AbdLockTest() : fabric_(&sim_, net::CostModel::EvalCluster40G()) {
    AbdLockOptions opts;
    opts.n_blocks = 64;
    opts.block_size = kBlockSize;
    cluster_ = std::make_unique<AbdLockCluster>(&fabric_, 3, opts);
  }

  std::unique_ptr<AbdLockClient> NewClient(uint16_t id) {
    net::HostId host = fabric_.AddHost("client-" + std::to_string(id));
    return std::make_unique<AbdLockClient>(&fabric_, host, cluster_.get(),
                                           id);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<AbdLockCluster> cluster_;
};

TEST_F(AbdLockTest, PutThenGetRoundTrip) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(2, BlockValue(0x77, kBlockSize))).ok());
    auto r = co_await client->Get(2);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, BlockValue(0x77, kBlockSize));
  });
  sim_.Run();
}

TEST_F(AbdLockTest, OpTakesFourRoundTrips) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(0, BlockValue(1, kBlockSize))).ok());
  });
  sim_.Run();  // drain straggler responses past the quorum points
  // lock + read + write + unlock, each to all 3 replicas.
  EXPECT_EQ(client->round_trips(), 12u);
}

TEST_F(AbdLockTest, LatencySlowerThanPrismRs) {
  // Fig. 6's low-load gap: ABD-LOCK (4 sequential RTs over hardware RDMA)
  // lands ≈ 2 µs above PRISM-RS's two software-PRISM phases.
  auto client = NewClient(1);
  double put_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    EXPECT_TRUE((co_await client->Put(0, BlockValue(1, kBlockSize))).ok());
    put_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(put_us, 14.0, 2.0);
}

TEST_F(AbdLockTest, ConcurrentHistoryIsLinearizable) {
  std::vector<HistoryOp> history;
  std::vector<std::unique_ptr<AbdLockClient>> clients;
  for (uint16_t c = 1; c <= 4; ++c) clients.push_back(NewClient(c));
  for (int c = 0; c < 4; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      for (int i = 0; i < 6; ++i) {
        HistoryOp op;
        op.invoke = sim_.Now();
        if ((c + i) % 2 == 0) {
          op.is_write = true;
          op.value = BlockValue(static_cast<uint8_t>(c * 16 + i + 1),
                                kBlockSize);
          Status s = co_await clients[static_cast<size_t>(c)]->Put(
              0, op.value, &op.tag);
          EXPECT_TRUE(s.ok());
        } else {
          auto r = co_await clients[static_cast<size_t>(c)]->Get(0, &op.tag);
          EXPECT_TRUE(r.ok());
          op.value = *r;
        }
        op.response = sim_.Now();
        history.push_back(std::move(op));
      }
    });
  }
  sim_.Run();
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(CheckAtomicRegister(history));
}

TEST_F(AbdLockTest, ContentionCausesLockConflicts) {
  std::vector<std::unique_ptr<AbdLockClient>> clients;
  for (uint16_t c = 1; c <= 8; ++c) clients.push_back(NewClient(c));
  int done = 0;
  for (int c = 0; c < 8; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      for (int i = 0; i < 5; ++i) {
        Status s = co_await clients[static_cast<size_t>(c)]->Put(
            0, BlockValue(static_cast<uint8_t>(c), kBlockSize));
        EXPECT_TRUE(s.ok());
      }
      done++;
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 8);
  uint64_t conflicts = 0;
  for (auto& c : clients) conflicts += c->lock_conflicts();
  EXPECT_GT(conflicts, 0u);  // same-block contention must show up
}

TEST_F(AbdLockTest, AbandonedLockBlocksOthersUntilTimeout) {
  // §7.2: "There must be a protocol to force release locks if a client fails
  // part way" — the baseline deliberately lacks one, so a crashed client
  // wedges the block: the next writer aborts after its lock attempts.
  auto crasher = NewClient(1);
  auto victim = NewClient(2);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await crasher->AcquireAndAbandon(0)).ok());
    Status s = co_await victim->Put(0, BlockValue(1, kBlockSize));
    EXPECT_EQ(s.code(), Code::kAborted);
    // Other blocks are unaffected.
    Status s2 = co_await victim->Put(1, BlockValue(2, kBlockSize));
    EXPECT_TRUE(s2.ok());
  });
  sim_.Run();
}

TEST_F(AbdLockTest, SurvivesOneReplicaFailureForNewOps) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client->Put(0, BlockValue(3, kBlockSize))).ok());
    fabric_.SetHostUp(2, false);
    auto r = co_await client->Get(0);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(*r, BlockValue(3, kBlockSize));
  });
  sim_.Run();
}

}  // namespace
}  // namespace prism::rs
