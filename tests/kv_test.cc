// Tests for the key-value stores: PRISM-KV (§6.1) and the Pilaf baseline,
// including concurrency, deletion/tombstones, reclamation, latency
// calibration against §6.2's numbers, and torn-read detection in Pilaf.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/kv/pilaf.h"
#include "src/common/hash.h"
#include "src/kv/prism_kv.h"
#include "src/sim/task.h"

namespace prism::kv {
namespace {

using sim::Task;
using sim::ToMicros;

class PrismKvTest : public ::testing::Test {
 protected:
  PrismKvTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_host_(fabric_.AddHost("server")) {
    PrismKvOptions opts;
    opts.n_buckets = 256;
    opts.n_buffers = 512;
    server_ = std::make_unique<PrismKvServer>(&fabric_, server_host_, opts);
    client_host_ = fabric_.AddHost("client");
    client_ = std::make_unique<PrismKvClient>(&fabric_, client_host_,
                                              server_.get());
  }

  void RunAll() { sim_.Run(); }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_host_;
  net::HostId client_host_;
  std::unique_ptr<PrismKvServer> server_;
  std::unique_ptr<PrismKvClient> client_;
};

TEST(KvRecordTest, EncodeDecodeRoundTrip) {
  Bytes key = BytesOfString("k1");
  Bytes value = BytesOfString("the value");
  SmallBytes record = EncodeRecord(key, value);
  EXPECT_EQ(record.size(), 8 + key.size() + value.size());
  auto decoded = DecodeRecord(record);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, key);
  EXPECT_EQ(decoded->value, value);
}

TEST(KvRecordTest, DecodeRejectsTruncation) {
  SmallBytes record =
      EncodeRecord(BytesOfString("key"), BytesOfString("value"));
  EXPECT_FALSE(DecodeRecord(record.view().first(record.size() - 2)).ok());
  EXPECT_FALSE(DecodeRecord(Bytes(4)).ok());
}

TEST_F(PrismKvTest, GetMissingKeyIsNotFound) {
  sim::Spawn([&]() -> Task<void> {
    auto r = co_await client_->Get("absent");
    EXPECT_EQ(r.code(), Code::kNotFound);
  });
  RunAll();
}

TEST_F(PrismKvTest, PutThenGet) {
  sim::Spawn([&]() -> Task<void> {
    Status put = co_await client_->Put("hello", BytesOfString("world"));
    EXPECT_TRUE(put.ok());
    auto got = co_await client_->Get("hello");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(StringOfBytes(*got), "world");
  });
  RunAll();
}

TEST_F(PrismKvTest, OverwriteReturnsLatestValue) {
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("k", BytesOfString("v1"))).ok());
    EXPECT_TRUE((co_await client_->Put("k", BytesOfString("v2-longer"))).ok());
    auto got = co_await client_->Get("k");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(StringOfBytes(*got), "v2-longer");
  });
  RunAll();
}

TEST_F(PrismKvTest, ManyKeysSurviveCollisions) {
  // 200 keys in a 256-bucket table: plenty of linear-probe collisions.
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 200; ++i) {
      std::string k = "key-" + std::to_string(i);
      Status put = co_await client_->Put(k, BytesOfString("val-" +
                                                          std::to_string(i)));
      EXPECT_TRUE(put.ok()) << k << ": " << put;
    }
    for (int i = 0; i < 200; ++i) {
      std::string k = "key-" + std::to_string(i);
      auto got = co_await client_->Get(k);
      EXPECT_TRUE(got.ok()) << k;
      EXPECT_EQ(StringOfBytes(*got), "val-" + std::to_string(i));
    }
  });
  RunAll();
}

TEST_F(PrismKvTest, DeleteThenMiss) {
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("a", BytesOfString("1"))).ok());
    EXPECT_TRUE((co_await client_->Delete("a")).ok());
    auto got = co_await client_->Get("a");
    EXPECT_EQ(got.code(), Code::kNotFound);
    EXPECT_EQ((co_await client_->Delete("a")).code(), Code::kNotFound);
  });
  RunAll();
}

TEST_F(PrismKvTest, TombstoneKeepsProbeChainIntact) {
  // Force three keys into the same probe chain, delete the middle one, and
  // verify the third key is still reachable (readers skip the tombstone).
  sim::Spawn([&]() -> Task<void> {
    // Find three colliding keys by brute force.
    std::vector<std::string> chain;
    uint64_t target = Fnv1a64(std::string_view("seed")) % 256;
    chain.push_back("seed");
    for (int i = 0; chain.size() < 3 && i < 100000; ++i) {
      std::string candidate = "c" + std::to_string(i);
      if (Fnv1a64(std::string_view(candidate)) % 256 == target) {
        chain.push_back(candidate);
      }
    }
    EXPECT_EQ(chain.size(), 3u);
    for (const auto& k : chain) {
      EXPECT_TRUE((co_await client_->Put(k, BytesOfString("v:" + k))).ok());
    }
    EXPECT_TRUE((co_await client_->Delete(chain[1])).ok());
    auto got = co_await client_->Get(chain[2]);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(StringOfBytes(*got), "v:" + chain[2]);
    // Re-inserting the deleted key reuses the tombstone slot.
    EXPECT_TRUE((co_await client_->Put(chain[1],
                                       BytesOfString("back"))).ok());
    auto back = co_await client_->Get(chain[1]);
    EXPECT_TRUE(back.ok());
    EXPECT_EQ(StringOfBytes(*back), "back");
  });
  RunAll();
}

TEST_F(PrismKvTest, LoadKeyRejectsDuplicate) {
  // A second load of a key must not take a later slot: GET would return the
  // newer copy, and after a DELETE of that copy the older one would return.
  const Bytes key = BytesOfString("loadkey1");
  EXPECT_TRUE(server_->LoadKey(key, Bytes(16, 0x11)).ok());
  EXPECT_EQ(server_->LoadKey(key, Bytes(16, 0x22)).code(),
            Code::kAlreadyExists);
  sim::Spawn([&]() -> Task<void> {
    auto got = co_await client_->Get("loadkey1");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(*got, Bytes(16, 0x11));
    EXPECT_TRUE((co_await client_->Delete("loadkey1")).ok());
    EXPECT_EQ((co_await client_->Get("loadkey1")).code(), Code::kNotFound);
  });
  RunAll();
  // The tombstone left by the DELETE does not count as the key.
  EXPECT_TRUE(server_->LoadKey(key, Bytes(16, 0x33)).ok());
  sim::Spawn([&]() -> Task<void> {
    auto got = co_await client_->Get("loadkey1");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(*got, Bytes(16, 0x33));
  });
  RunAll();
}

TEST_F(PrismKvTest, BuffersAreReclaimedAfterOverwrites) {
  sim::Spawn([&]() -> Task<void> {
    // Each overwrite displaces one buffer; with reclamation they must come
    // back, otherwise 300 overwrites would exhaust the 511-buffer pool.
    for (int i = 0; i < 300; ++i) {
      Status put = co_await client_->Put("hot", BytesOfString(
                                                    "v" + std::to_string(i)));
      EXPECT_TRUE(put.ok()) << i;
    }
    client_->FlushReclaim();
  });
  RunAll();
  // All but the one live buffer eventually return to the free list.
  EXPECT_GE(server_->free_buffers(), 509u);
}

TEST_F(PrismKvTest, ConcurrentWritersLastWriterWins) {
  // 16 writers to the same key; afterwards the value must be one of the
  // written values and every writer must have completed.
  int completed = 0;
  for (int i = 0; i < 16; ++i) {
    sim::Spawn([&, i]() -> Task<void> {
      Status put = co_await client_->Put(
          "contended", BytesOfString("w" + std::to_string(i)));
      EXPECT_TRUE(put.ok());
      completed++;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 16);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    auto got = co_await client_->Get("contended");
    EXPECT_TRUE(got.ok());
    std::string v = StringOfBytes(*got);
    EXPECT_EQ(v.substr(0, 1), "w");
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
  EXPECT_GT(client_->cas_failures(), 0u);  // contention actually happened
}

TEST_F(PrismKvTest, ConcurrentPutsOnOneClientStayIsolated) {
  // Regression: many in-flight PUTs to distinct keys multiplexed over ONE
  // client object (the open-loop pool pattern). Each PUT's install chain
  // stages its CAS swap operand in on-NIC scratch; with a single shared
  // slot, interleaved chains install each other's ⟨ptr,bound⟩, aliasing two
  // buckets to one buffer and orphaning the other key permanently. Scratch
  // is leased per in-flight PUT, so every key must stay reachable with its
  // own value.
  int completed = 0;
  for (int i = 0; i < 32; ++i) {
    sim::Spawn([&, i]() -> Task<void> {
      std::string k = "iso-" + std::to_string(i);
      Status put =
          co_await client_->Put(k, BytesOfString("val-" + std::to_string(i)));
      EXPECT_TRUE(put.ok()) << k << ": " << put;
      completed++;
    });
  }
  sim_.Run();
  EXPECT_EQ(completed, 32);
  bool checked = false;
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 32; ++i) {
      std::string k = "iso-" + std::to_string(i);
      auto got = co_await client_->Get(k);
      EXPECT_TRUE(got.ok()) << k << ": " << got.status();
      if (got.ok()) {
        EXPECT_EQ(StringOfBytes(*got), "val-" + std::to_string(i)) << k;
      }
    }
    checked = true;
  });
  sim_.Run();
  EXPECT_TRUE(checked);
}

TEST_F(PrismKvTest, ConcurrentReadersDuringWritesSeeConsistentRecords) {
  // Readers racing a stream of writes must always see some complete value
  // ("v<i>"), never a torn mix — PRISM-KV's out-of-place update guarantee.
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("x", BytesOfString("v0"))).ok());
    for (int i = 1; i <= 50; ++i) {
      EXPECT_TRUE(
          (co_await client_->Put("x", BytesOfString("v" + std::to_string(i))))
              .ok());
    }
  });
  int reads_ok = 0;
  for (int r = 0; r < 8; ++r) {
    sim::Spawn([&]() -> Task<void> {
      for (int i = 0; i < 20; ++i) {
        auto got = co_await client_->Get("x");
        if (got.ok()) {
          std::string v = StringOfBytes(*got);
          EXPECT_EQ(v[0], 'v');
          int n = std::stoi(v.substr(1));
          EXPECT_GE(n, 0);
          EXPECT_LE(n, 50);
          reads_ok++;
        }
      }
    });
  }
  sim_.Run();
  EXPECT_GT(reads_ok, 0);
}

TEST_F(PrismKvTest, GetLatencyMatchesPaper) {
  // §6.2: PRISM-KV GET ≈ 6 µs on the software prototype (one indirect READ).
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("k", Bytes(512, 0x11))).ok());
  });
  sim_.Run();
  double get_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto got = co_await client_->Get("k");
    EXPECT_TRUE(got.ok());
    get_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(get_us, 6.0, 0.8);
}

TEST_F(PrismKvTest, PutLatencyMatchesPaper) {
  // §6.2: PRISM-KV PUT ≈ 12 µs (two round trips) on the software prototype.
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("k", Bytes(512, 1))).ok());
  });
  sim_.Run();
  double put_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    EXPECT_TRUE((co_await client_->Put("k", Bytes(512, 2))).ok());
    put_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(put_us, 12.0, 1.5);
}

// ---------------- Pilaf ----------------

class PilafTest : public ::testing::Test {
 protected:
  PilafTest()
      : fabric_(&sim_, net::CostModel::EvalCluster40G()),
        server_host_(fabric_.AddHost("server")) {
    PilafOptions opts;
    opts.n_buckets = 256;
    opts.n_extents = 512;
    server_ = std::make_unique<PilafServer>(&fabric_, server_host_, opts);
    client_host_ = fabric_.AddHost("client");
    client_ = std::make_unique<PilafClient>(&fabric_, client_host_,
                                            server_.get());
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
  net::HostId server_host_;
  net::HostId client_host_;
  std::unique_ptr<PilafServer> server_;
  std::unique_ptr<PilafClient> client_;
};

TEST_F(PilafTest, PutThenGet) {
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("pk", BytesOfString("pv"))).ok());
    auto got = co_await client_->Get("pk");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(StringOfBytes(*got), "pv");
    auto missing = co_await client_->Get("nope");
    EXPECT_EQ(missing.code(), Code::kNotFound);
  });
  sim_.Run();
}

TEST_F(PilafTest, ManyKeysWithCollisions) {
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 150; ++i) {
      EXPECT_TRUE((co_await client_->Put("pil-" + std::to_string(i),
                                         BytesOfString(std::to_string(i))))
                      .ok());
    }
    for (int i = 0; i < 150; ++i) {
      auto got = co_await client_->Get("pil-" + std::to_string(i));
      EXPECT_TRUE(got.ok()) << i;
      EXPECT_EQ(StringOfBytes(*got), std::to_string(i));
    }
  });
  sim_.Run();
}

TEST_F(PilafTest, DeleteAndReuse) {
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("d", BytesOfString("x"))).ok());
    EXPECT_TRUE((co_await client_->Delete("d")).ok());
    EXPECT_EQ((co_await client_->Get("d")).code(), Code::kNotFound);
    EXPECT_TRUE((co_await client_->Put("d", BytesOfString("y"))).ok());
    auto got = co_await client_->Get("d");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(StringOfBytes(*got), "y");
  });
  sim_.Run();
}

TEST_F(PilafTest, GetIsTwoReads) {
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("k", BytesOfString("v"))).ok());
    uint64_t before = client_->reads_issued();
    auto got = co_await client_->Get("k");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(client_->reads_issued() - before, 2u);  // bucket + extent
  });
  sim_.Run();
}

TEST_F(PilafTest, HardwareGetLatencyMatchesPaper) {
  // §6.2: Pilaf GET over hardware RDMA ≈ 8 µs (2 READs + ~2 µs of CRCs).
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("k", Bytes(512, 3))).ok());
  });
  sim_.Run();
  double get_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    auto got = co_await client_->Get("k");
    EXPECT_TRUE(got.ok());
    get_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(get_us, 8.0, 1.0);
}

TEST_F(PilafTest, PutLatencyIsOneRpc) {
  // §6.2: Pilaf PUT via two-sided RPC ≈ 6 µs.
  double put_us = -1;
  sim::Spawn([&]() -> Task<void> {
    sim::TimePoint start = sim_.Now();
    EXPECT_TRUE((co_await client_->Put("k", Bytes(512, 4))).ok());
    put_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(put_us, 6.0, 0.8);
}

TEST_F(PilafTest, TornReadsAreDetectedAndRetried) {
  // A reader hammering a key while same-size in-place updates stream in must
  // never return a torn value: every result is one of the written values.
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await client_->Put("t", BytesOfString("AAAAAAAA"))).ok());
    for (int i = 0; i < 60; ++i) {
      std::string v = (i % 2 == 0) ? "BBBBBBBB" : "AAAAAAAA";
      EXPECT_TRUE((co_await client_->Put("t", BytesOfString(v))).ok());
    }
  });
  int reads = 0;
  sim::Spawn([&]() -> Task<void> {
    for (int i = 0; i < 40; ++i) {
      auto got = co_await client_->Get("t");
      if (got.ok()) {
        std::string v = StringOfBytes(*got);
        EXPECT_TRUE(v == "AAAAAAAA" || v == "BBBBBBBB") << "torn: " << v;
        reads++;
      }
    }
  });
  sim_.Run();
  EXPECT_GT(reads, 0);
}

TEST_F(PilafTest, LoadKeyRejectsOversizedRecord) {
  // A loaded record must fit its 640 B extent (key + value + 4 B CRC) and
  // its value must be within max_value_size (512 B), as for a PUT. An
  // oversized record would spill into the next extent, and the next load
  // would then tear it for good.
  EXPECT_TRUE(server_->LoadKey(BytesOfString("before"), Bytes(512, 1)).ok());
  EXPECT_EQ(server_->LoadKey(BytesOfString("big"), Bytes(700, 2)).code(),
            Code::kInvalidArgument);
  EXPECT_EQ(server_->LoadKey(Bytes(200, 'k'), Bytes(500, 3)).code(),
            Code::kInvalidArgument);
  EXPECT_TRUE(server_->LoadKey(BytesOfString("after"), Bytes(512, 4)).ok());
  sim::Spawn([&]() -> Task<void> {
    auto before = co_await client_->Get("before");
    EXPECT_TRUE(before.ok()) << before.status();
    EXPECT_EQ(*before, Bytes(512, 1));
    EXPECT_EQ((co_await client_->Get("big")).code(), Code::kNotFound);
    auto after = co_await client_->Get("after");
    EXPECT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(*after, Bytes(512, 4));
  });
  sim_.Run();
}

TEST_F(PilafTest, SoftwareBackendIsSlower) {
  // The "(software RDMA)" Pilaf variant pays the software premium per READ:
  // §6.2 reports ~14 µs GETs vs ~8 µs over hardware RDMA.
  net::Fabric fabric2(&sim_, net::CostModel::EvalCluster40G());
  auto host = fabric2.AddHost("server-sw");
  PilafOptions opts;
  opts.n_buckets = 64;
  opts.n_extents = 64;
  opts.backend = rdma::Backend::kSoftwareStack;
  PilafServer sw_server(&fabric2, host, opts);
  auto client_host = fabric2.AddHost("client");
  PilafClient sw_client(&fabric2, client_host, &sw_server);
  double get_us = -1;
  sim::Spawn([&]() -> Task<void> {
    EXPECT_TRUE((co_await sw_client.Put("k", Bytes(512, 5))).ok());
    sim::TimePoint start = sim_.Now();
    auto got = co_await sw_client.Get("k");
    EXPECT_TRUE(got.ok());
    get_us = ToMicros(sim_.Now() - start);
  });
  sim_.Run();
  EXPECT_NEAR(get_us, 14.0, 1.5);
}

}  // namespace
}  // namespace prism::kv
