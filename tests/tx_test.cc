// Tests for the transaction systems: PRISM-TX (§8.2) and the FaRM baseline
// (§8.1) — basic RMW behaviour, conflict aborts, a serializability checker
// over concurrent histories, a bank-transfer invariant, and latency
// calibration against §8.3.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/tx/farm.h"
#include "src/tx/prism_tx.h"
#include "src/sim/task.h"

namespace prism::tx {
namespace {

using sim::Task;
using sim::ToMicros;

constexpr uint64_t kValueSize = 64;

Bytes ValueOf(uint64_t x) {
  Bytes v(kValueSize, 0);
  StoreU64(v.data(), x);
  return v;
}
uint64_t ValueTo(const Bytes& v) { return LoadU64(v.data()); }

// ---- serializability checker ----
//
// For timestamp-ordered OCC: a committed transaction T that read (key, RC)
// must not coexist with a committed write W on the same key with
// RC < TS(W) < TS(T) — otherwise T read stale data and the timestamp order
// is not a serial order. Committed writes themselves must have unique
// timestamps per key.
struct CommittedTxn {
  uint64_t ts = 0;  // packed commit timestamp
  std::vector<std::pair<uint64_t, uint64_t>> reads;  // (key, observed rc)
  std::vector<uint64_t> writes;                      // keys written
};

::testing::AssertionResult CheckSerializable(
    const std::vector<CommittedTxn>& txns) {
  std::map<uint64_t, std::vector<uint64_t>> writes_by_key;  // key -> ts list
  for (const auto& t : txns) {
    for (uint64_t k : t.writes) writes_by_key[k].push_back(t.ts);
  }
  for (auto& [key, list] : writes_by_key) {
    std::sort(list.begin(), list.end());
    if (std::adjacent_find(list.begin(), list.end()) != list.end()) {
      return ::testing::AssertionFailure()
             << "duplicate commit timestamp on key " << key;
    }
  }
  for (const auto& t : txns) {
    for (const auto& [key, rc] : t.reads) {
      auto it = writes_by_key.find(key);
      if (it == writes_by_key.end()) continue;
      for (uint64_t wts : it->second) {
        if (wts > rc && wts < t.ts) {
          return ::testing::AssertionFailure()
                 << "txn ts=" << t.ts << " read key " << key << " at rc="
                 << rc << " but committed write ts=" << wts
                 << " intervenes (stale read)";
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---- PRISM-TX ----

class PrismTxTest : public ::testing::Test {
 protected:
  PrismTxTest() : fabric_(&sim_, net::CostModel::EvalCluster40G()) {
    PrismTxOptions opts;
    opts.keys_per_shard = 256;
    opts.value_size = kValueSize;
    opts.buffers_per_shard = 4096;
    cluster_ = std::make_unique<PrismTxCluster>(&fabric_, 1, opts);
    for (uint64_t k = 0; k < 64; ++k) {
      PRISM_CHECK(cluster_->LoadKey(k, ValueOf(1000 + k)).ok());
    }
  }

  std::unique_ptr<PrismTxClient> NewClient(uint16_t id) {
    net::HostId host = fabric_.AddHost("txc-" + std::to_string(id));
    return std::make_unique<PrismTxClient>(&fabric_, host, cluster_.get(),
                                           id);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<PrismTxCluster> cluster_;
};

TEST_F(PrismTxTest, ReadLoadedKey) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    Transaction txn = client->Begin();
    auto v = co_await client->Read(txn, 7);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(ValueTo(*v), 1007u);
    EXPECT_TRUE((co_await client->Commit(txn)).ok());
  });
  sim_.Run();
}

TEST_F(PrismTxTest, ReadUnloadedKeyIsNotFound) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    Transaction txn = client->Begin();
    auto v = co_await client->Read(txn, 200);
    EXPECT_EQ(v.code(), Code::kNotFound);
  });
  sim_.Run();
}

TEST_F(PrismTxTest, ReadModifyWriteCommit) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    Transaction txn = client->Begin();
    auto v = co_await client->Read(txn, 3);
    EXPECT_TRUE(v.ok());
    client->Write(txn, 3, ValueOf(ValueTo(*v) + 1));
    EXPECT_TRUE((co_await client->Commit(txn)).ok());
    Transaction txn2 = client->Begin();
    auto v2 = co_await client->Read(txn2, 3);
    EXPECT_TRUE(v2.ok());
    EXPECT_EQ(ValueTo(*v2), 1004u);
  });
  sim_.Run();
}

TEST_F(PrismTxTest, ReadYourOwnWrites) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    Transaction txn = client->Begin();
    client->Write(txn, 5, ValueOf(42));
    auto v = co_await client->Read(txn, 5);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(ValueTo(*v), 42u);
  });
  sim_.Run();
}

TEST_F(PrismTxTest, WriteWriteConflictAborts) {
  // Two transactions read the same key, then both try to commit writes.
  // Exactly one must win; the loser aborts on read or write validation.
  auto c1 = NewClient(1);
  auto c2 = NewClient(2);
  Status s1, s2;
  sim::Spawn([&]() -> Task<void> {
    Transaction t = c1->Begin();
    auto v = co_await c1->Read(t, 0);
    EXPECT_TRUE(v.ok());
    c1->Write(t, 0, ValueOf(111));
    s1 = co_await c1->Commit(t);
  });
  sim::Spawn([&]() -> Task<void> {
    Transaction t = c2->Begin();
    auto v = co_await c2->Read(t, 0);
    EXPECT_TRUE(v.ok());
    c2->Write(t, 0, ValueOf(222));
    s2 = co_await c2->Commit(t);
  });
  sim_.Run();
  // Both may commit only if timestamps serialize cleanly; with identical
  // read versions one must abort. Accept: at least one committed, and if
  // both "committed", the final value is from the higher timestamp.
  EXPECT_TRUE(s1.ok() || s2.ok());
  bool final_checked = false;
  sim::Spawn([&]() -> Task<void> {
    Transaction t = c1->Begin();
    auto v = co_await c1->Read(t, 0);
    EXPECT_TRUE(v.ok());
    EXPECT_TRUE(ValueTo(*v) == 111u || ValueTo(*v) == 222u);
    final_checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(final_checked);
}

TEST_F(PrismTxTest, StaleReadAborts) {
  auto reader = NewClient(1);
  auto writer = NewClient(2);
  sim::Spawn([&]() -> Task<void> {
    // Reader reads key 1 into its read set...
    Transaction rt = reader->Begin();
    auto v = co_await reader->Read(rt, 1);
    EXPECT_TRUE(v.ok());
    // ...then a writer commits a new version of key 1...
    Transaction wt = writer->Begin();
    auto wv = co_await writer->Read(wt, 1);
    EXPECT_TRUE(wv.ok());
    writer->Write(wt, 1, ValueOf(777));
    EXPECT_TRUE((co_await writer->Commit(wt)).ok());
    // ...and the reader also writes (so validation matters) and commits:
    // its read of key 1 is stale, so it must abort.
    reader->Write(rt, 2, ValueOf(888));
    Status s = co_await reader->Commit(rt);
    EXPECT_EQ(s.code(), Code::kAborted);
  });
  sim_.Run();
}

TEST_F(PrismTxTest, BankTransferInvariant) {
  // 8 clients transfer random amounts between 8 accounts; the total balance
  // is invariant under serializable execution.
  constexpr uint64_t kInitial = 1000;
  constexpr int kAccounts = 8;
  std::vector<std::unique_ptr<PrismTxClient>> clients;
  for (uint16_t c = 1; c <= 8; ++c) clients.push_back(NewClient(c));
  int attempted = 0, committed = 0;
  for (int c = 0; c < 8; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      Rng rng(static_cast<uint64_t>(c) + 99);
      for (int i = 0; i < 10; ++i) {
        uint64_t from = rng.NextBelow(kAccounts);
        uint64_t to = rng.NextBelow(kAccounts);
        if (from == to) continue;
        attempted++;
        PrismTxClient* cl = clients[static_cast<size_t>(c)].get();
        Transaction t = cl->Begin();
        auto vf = co_await cl->Read(t, from);
        auto vt = co_await cl->Read(t, to);
        if (!vf.ok() || !vt.ok()) continue;
        uint64_t amount = 1 + rng.NextBelow(50);
        if (ValueTo(*vf) < amount) continue;
        cl->Write(t, from, ValueOf(ValueTo(*vf) - amount));
        cl->Write(t, to, ValueOf(ValueTo(*vt) + amount));
        Status s = co_await cl->Commit(t);
        if (s.ok()) committed++;
      }
    });
  }
  sim_.Run();
  EXPECT_GT(committed, 0);
  // Check the invariant with a fresh read-only snapshot.
  uint64_t total = 0;
  bool snapshot_done = false;
  sim::Spawn([&]() -> Task<void> {
    Transaction t = clients[0]->Begin();
    for (uint64_t a = 0; a < kAccounts; ++a) {
      auto v = co_await clients[0]->Read(t, a);
      EXPECT_TRUE(v.ok());
      total += ValueTo(*v);
    }
    snapshot_done = true;
  });
  sim_.Run();
  EXPECT_TRUE(snapshot_done);
  // Accounts were loaded with 1000+k for k in 0..7.
  uint64_t expected = 0;
  for (uint64_t a = 0; a < kAccounts; ++a) expected += kInitial + a;
  EXPECT_EQ(total, expected);
}

TEST_F(PrismTxTest, AllOfNPhasesLeaveNoStragglers) {
  // Every PRISM-TX round (read and write validation, install, abort
  // cleanup) waits for all of its replies, so fault-free none lands after
  // its outcome, even when contended transactions abort.
  std::vector<std::unique_ptr<PrismTxClient>> clients;
  for (uint16_t c = 1; c <= 4; ++c) clients.push_back(NewClient(c));
  int aborted = 0;
  for (int c = 0; c < 4; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      PrismTxClient* cl = clients[static_cast<size_t>(c)].get();
      for (uint64_t i = 0; i < 8; ++i) {
        Transaction t = cl->Begin();
        auto hot = co_await cl->Read(t, 0);
        auto other = co_await cl->Read(t, 1 + i % 4);
        if (!hot.ok() || !other.ok()) continue;
        cl->Write(t, 0, ValueOf(ValueTo(*hot) + 1));
        cl->Write(t, 10 + i, ValueOf(i));  // a blind write
        if (!(co_await cl->Commit(t)).ok()) aborted++;
      }
    });
  }
  sim_.Run();
  EXPECT_GT(aborted, 0);
  EXPECT_EQ(sim_.stats().fanout_stragglers, 0u);
}

TEST_F(PrismTxTest, ConcurrentHistoryIsSerializable) {
  std::vector<std::unique_ptr<PrismTxClient>> clients;
  for (uint16_t c = 1; c <= 6; ++c) clients.push_back(NewClient(c));
  std::vector<CommittedTxn> committed;
  for (int c = 0; c < 6; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      Rng rng(static_cast<uint64_t>(c) * 7 + 1);
      PrismTxClient* cl = clients[static_cast<size_t>(c)].get();
      for (int i = 0; i < 12; ++i) {
        Transaction t = cl->Begin();
        CommittedTxn record;
        uint64_t k1 = rng.NextBelow(8);
        uint64_t k2 = rng.NextBelow(8);
        auto v1 = co_await cl->Read(t, k1);
        if (!v1.ok()) continue;
        record.reads.push_back({k1, t.read_set.back().rc});
        if (k2 != k1) {
          auto v2 = co_await cl->Read(t, k2);
          if (!v2.ok()) continue;
          record.reads.push_back({k2, t.read_set.back().rc});
        }
        cl->Write(t, k1, ValueOf(rng.NextU64() % 10000));
        record.writes.push_back(k1);
        // Commit timestamps are not exposed; recover from the reinstalled
        // version by re-reading — instead record ts via a follow-up read.
        Status s = co_await cl->Commit(t);
        if (!s.ok()) continue;
        Transaction peek = cl->Begin();
        (void)co_await cl->Read(peek, k1);
        // The rc observed now is >= our commit ts; to keep the checker
        // sound we instead reconstruct ts from the read-back rc only if it
        // identifies our own write. Simplification: use the read-back rc
        // when its client id matches ours.
        uint64_t rc = peek.read_set.back().rc;
        if ((rc & 0xffff) == static_cast<uint64_t>(c + 1)) {
          record.ts = rc;
          committed.push_back(record);
        }
      }
    });
  }
  sim_.Run();
  EXPECT_GT(committed.size(), 0u);
  EXPECT_TRUE(CheckSerializable(committed));
}

TEST_F(PrismTxTest, CommitLatencyMatchesPaper) {
  // §8.3: PRISM-TX is ≈5.5 µs faster than FaRM; an RMW txn (read + prepare
  // + commit, each one round trip of ~6 µs) lands ≈ 18 µs end to end.
  auto client = NewClient(1);
  double txn_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    Transaction t = client->Begin();
    auto v = co_await client->Read(t, 0);
    EXPECT_TRUE(v.ok());
    client->Write(t, 0, ValueOf(1));
    EXPECT_TRUE((co_await client->Commit(t)).ok());
    txn_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(txn_us, 18.0, 2.5);
}

// ---- FaRM ----

class FarmTest : public ::testing::Test {
 protected:
  FarmTest() : fabric_(&sim_, net::CostModel::EvalCluster40G()) {
    FarmOptions opts;
    opts.keys_per_shard = 256;
    opts.value_size = kValueSize;
    cluster_ = std::make_unique<FarmCluster>(&fabric_, 1, opts);
    for (uint64_t k = 0; k < 64; ++k) {
      PRISM_CHECK(cluster_->LoadKey(k, ValueOf(1000 + k)).ok());
    }
  }

  std::unique_ptr<FarmClient> NewClient(uint16_t id) {
    net::HostId host = fabric_.AddHost("farmc-" + std::to_string(id));
    return std::make_unique<FarmClient>(&fabric_, host, cluster_.get(), id);
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  std::unique_ptr<FarmCluster> cluster_;
};

TEST_F(FarmTest, ReadModifyWriteCommit) {
  auto client = NewClient(1);
  sim::Spawn([&]() -> Task<void> {
    Transaction t = client->Begin();
    auto v = co_await client->Read(t, 3);
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(ValueTo(*v), 1003u);
    client->Write(t, 3, ValueOf(2000));
    EXPECT_TRUE((co_await client->Commit(t)).ok());
    Transaction t2 = client->Begin();
    auto v2 = co_await client->Read(t2, 3);
    EXPECT_TRUE(v2.ok());
    EXPECT_EQ(ValueTo(*v2), 2000u);
  });
  sim_.Run();
}

TEST_F(FarmTest, StaleReadAborts) {
  auto a = NewClient(1);
  auto b = NewClient(2);
  sim::Spawn([&]() -> Task<void> {
    Transaction ta = a->Begin();
    auto v = co_await a->Read(ta, 1);
    EXPECT_TRUE(v.ok());
    // b commits an update to key 1.
    Transaction tb = b->Begin();
    auto vb = co_await b->Read(tb, 1);
    EXPECT_TRUE(vb.ok());
    b->Write(tb, 1, ValueOf(5));
    EXPECT_TRUE((co_await b->Commit(tb)).ok());
    // a's commit validates its read set and must abort.
    auto v2 = co_await a->Read(ta, 2);
    EXPECT_TRUE(v2.ok());
    a->Write(ta, 2, ValueOf(6));
    Status s = co_await a->Commit(ta);
    EXPECT_EQ(s.code(), Code::kAborted);
  });
  sim_.Run();
}

TEST_F(FarmTest, LockConflictAborts) {
  // Two writers on the same key with the same read version: the second
  // lock RPC must fail (version changed or lock held).
  auto a = NewClient(1);
  auto b = NewClient(2);
  Status sa, sb;
  sim::Spawn([&]() -> Task<void> {
    Transaction t = a->Begin();
    auto v = co_await a->Read(t, 0);
    EXPECT_TRUE(v.ok());
    a->Write(t, 0, ValueOf(10));
    sa = co_await a->Commit(t);
  });
  sim::Spawn([&]() -> Task<void> {
    Transaction t = b->Begin();
    auto v = co_await b->Read(t, 0);
    EXPECT_TRUE(v.ok());
    b->Write(t, 0, ValueOf(20));
    sb = co_await b->Commit(t);
  });
  sim_.Run();
  EXPECT_TRUE(sa.ok() != sb.ok());  // exactly one wins
}

TEST_F(FarmTest, BankTransferInvariant) {
  constexpr int kAccounts = 8;
  std::vector<std::unique_ptr<FarmClient>> clients;
  for (uint16_t c = 1; c <= 6; ++c) clients.push_back(NewClient(c));
  int committed = 0;
  for (int c = 0; c < 6; ++c) {
    sim::Spawn([&, c]() -> Task<void> {
      Rng rng(static_cast<uint64_t>(c) + 7);
      for (int i = 0; i < 8; ++i) {
        uint64_t from = rng.NextBelow(kAccounts);
        uint64_t to = rng.NextBelow(kAccounts);
        if (from == to) continue;
        FarmClient* cl = clients[static_cast<size_t>(c)].get();
        Transaction t = cl->Begin();
        auto vf = co_await cl->Read(t, from);
        auto vt = co_await cl->Read(t, to);
        if (!vf.ok() || !vt.ok()) continue;
        uint64_t amount = 1 + rng.NextBelow(20);
        if (ValueTo(*vf) < amount) continue;
        cl->Write(t, from, ValueOf(ValueTo(*vf) - amount));
        cl->Write(t, to, ValueOf(ValueTo(*vt) + amount));
        Status s = co_await cl->Commit(t);
        if (s.ok()) committed++;
      }
    });
  }
  sim_.Run();
  EXPECT_GT(committed, 0);
  uint64_t total = 0;
  bool done = false;
  sim::Spawn([&]() -> Task<void> {
    Transaction t = clients[0]->Begin();
    for (uint64_t k = 0; k < kAccounts; ++k) {
      auto v = co_await clients[0]->Read(t, k);
      EXPECT_TRUE(v.ok());
      total += ValueTo(*v);
    }
    done = true;
  });
  sim_.Run();
  EXPECT_TRUE(done);
  uint64_t expected = 0;
  for (uint64_t a = 0; a < 8; ++a) expected += 1000 + a;
  EXPECT_EQ(total, expected);
}

TEST_F(FarmTest, CommitLatencySlowerThanPrismTx) {
  // §8.3: FaRM's RMW txn ≈ 5.5 µs slower than PRISM-TX's ≈ 18 µs, i.e.
  // ≈ 23 µs: exec (2 READs) + lock RPC + update RPC (read-set == write-set,
  // so phase 2 validation is covered by the locks).
  auto client = NewClient(1);
  double txn_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    Transaction t = client->Begin();
    auto v = co_await client->Read(t, 0);
    EXPECT_TRUE(v.ok());
    client->Write(t, 0, ValueOf(7));
    EXPECT_TRUE((co_await client->Commit(t)).ok());
    txn_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(txn_us, 23.5, 3.0);
}

}  // namespace
}  // namespace prism::tx
