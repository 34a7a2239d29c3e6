// Tests for src/common: Status/Result, bytes, hashes, RNG, histogram.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace prism {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Code::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(Code::kInternal); ++c) {
    EXPECT_NE(CodeName(static_cast<Code>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.status().code(), Code::kOk);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Code::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<Bytes> r = BytesOfU64(7);
  Bytes b = std::move(r).value();
  EXPECT_EQ(LoadU64(b.data()), 7u);
}

Status FailIfNegative(int x) {
  if (x < 0) return InvalidArgument("negative");
  return OkStatus();
}

Result<int> DoubleIfPositive(int x) {
  PRISM_RETURN_IF_ERROR(FailIfNegative(x));
  return x * 2;
}

Result<int> ChainedCompute(int x) {
  PRISM_ASSIGN_OR_RETURN(int doubled, DoubleIfPositive(x));
  return doubled + 1;
}

TEST(ResultTest, PropagationMacros) {
  EXPECT_EQ(*ChainedCompute(10), 21);
  EXPECT_EQ(ChainedCompute(-1).code(), Code::kInvalidArgument);
}

TEST(BytesTest, LoadStoreRoundTrip) {
  Bytes b(16, 0);
  StoreU64(b.data(), 0x0123456789abcdefull);
  StoreU64(b.data() + 8, 0xfedcba9876543210ull);
  EXPECT_EQ(LoadU64(b.data()), 0x0123456789abcdefull);
  EXPECT_EQ(LoadU64(ByteView(b), 8), 0xfedcba9876543210ull);
}

TEST(BytesTest, PairLayout) {
  Bytes b = BytesOfU64Pair(1, 2);
  ASSERT_EQ(b.size(), 16u);
  EXPECT_EQ(LoadU64(b.data()), 1u);
  EXPECT_EQ(LoadU64(b.data() + 8), 2u);
}

TEST(BytesTest, FieldMaskSelectsBytes) {
  Bytes m = FieldMask(16, 8, 8);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(m[i], 0x00);
  for (size_t i = 8; i < 16; ++i) EXPECT_EQ(m[i], 0xff);
}

TEST(BytesTest, HexDump) {
  EXPECT_EQ(HexDump(Bytes{0xde, 0xad, 0xbe, 0xef}), "deadbeef");
  EXPECT_EQ(HexDump(Bytes{}), "");
}

TEST(HashTest, Fnv1aKnownVector) {
  // FNV-1a 64 of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(std::string_view("")), 0xcbf29ce484222325ull);
  // Well-known vector: "a".
  EXPECT_EQ(Fnv1a64(std::string_view("a")), 0xaf63dc4c8601ec8cull);
}

TEST(HashTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xcbf43926 (classic check value).
  std::string s = "123456789";
  EXPECT_EQ(Crc32(ByteView(reinterpret_cast<const uint8_t*>(s.data()),
                           s.size())),
            0xcbf43926u);
}

TEST(HashTest, Crc32DetectsSingleBitFlips) {
  Bytes data(64);
  Rng rng(1);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  uint32_t orig = Crc32(data);
  for (size_t bit = 0; bit < data.size() * 8; bit += 37) {
    Bytes flipped = data;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_NE(Crc32(flipped), orig) << "bit " << bit;
  }
}

// The textbook bitwise CRC-32, one bit per step.
uint32_t BitwiseCrc32(const uint8_t* data, size_t len) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(HashTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-64 cover the 8-byte steps and every tail length; offsets 0-7
  // cover every alignment of the 8-byte loads.
  Bytes buf(4096 + 8);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                BitwiseCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
  EXPECT_EQ(Crc32(buf.data() + 3, 4096), BitwiseCrc32(buf.data() + 3, 4096));
}

TEST(HashTest, MixU64IsInjectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(MixU64(i)).second);
  }
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) same++;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
  EXPECT_EQ(rng.NextBelow(1), 0u);
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(HistogramTest, EmptySummary) {
  LatencyHistogram h;
  auto s = h.Summarize();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.mean_us, 0);
}

TEST(HistogramTest, ExactMeanMinMax) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(2000);
  h.Record(3000);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.MeanNanos(), 2000.0);
  EXPECT_EQ(h.MinNanos(), 1000);
  EXPECT_EQ(h.MaxNanos(), 3000);
}

TEST(HistogramTest, QuantilesApproximatelyCorrect) {
  LatencyHistogram h;
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    h.Record(static_cast<int64_t>(rng.NextInRange(1000, 101000)));
  }
  // Uniform [1us, 101us]: p50 ~ 51us within bucket resolution (<2%).
  EXPECT_NEAR(static_cast<double>(h.QuantileNanos(0.5)), 51000.0, 2500.0);
  EXPECT_NEAR(static_cast<double>(h.QuantileNanos(0.99)), 100000.0, 3000.0);
}

TEST(HistogramTest, MergeCombines) {
  LatencyHistogram a, b;
  a.Record(1000);
  b.Record(3000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_DOUBLE_EQ(a.MeanNanos(), 2000.0);
  EXPECT_EQ(a.MaxNanos(), 3000);
}

TEST(HistogramTest, MergeMatchesDirectRecording) {
  // The fixed log-bucket layout makes merge lossless: recording a stream
  // split across K partial histograms and merging must be bit-identical to
  // recording it all into one — count, sum-derived mean, extrema, and every
  // quantile (the open-loop pools rely on this to combine per-pool
  // recorders without distorting p999).
  Rng rng(2026);
  LatencyHistogram direct;
  LatencyHistogram parts[4];
  for (int i = 0; i < 40000; ++i) {
    // Heavy-tailed samples spanning ~4 decades, like an overloaded run.
    int64_t ns = 500 + static_cast<int64_t>(rng.NextBelow(20000));
    if (rng.NextBelow(100) < 3) ns *= 400;
    direct.Record(ns);
    parts[i % 4].Record(ns);
  }
  LatencyHistogram merged;
  for (LatencyHistogram& p : parts) merged.Merge(p);

  EXPECT_EQ(merged.count(), direct.count());
  EXPECT_EQ(merged.MaxNanos(), direct.MaxNanos());
  EXPECT_DOUBLE_EQ(merged.MeanNanos(), direct.MeanNanos());
  LatencyHistogram::Summary m = merged.Summarize();
  LatencyHistogram::Summary d = direct.Summarize();
  EXPECT_EQ(m.count, d.count);
  EXPECT_DOUBLE_EQ(m.mean_us, d.mean_us);
  EXPECT_DOUBLE_EQ(m.p50_us, d.p50_us);
  EXPECT_DOUBLE_EQ(m.p99_us, d.p99_us);
  EXPECT_DOUBLE_EQ(m.p999_us, d.p999_us);
  EXPECT_DOUBLE_EQ(m.min_us, d.min_us);
  EXPECT_DOUBLE_EQ(m.max_us, d.max_us);
}

TEST(HistogramTest, SummaryReportsP999AboveP99OnHeavyTail) {
  LatencyHistogram h;
  for (int i = 0; i < 10000; ++i) h.Record(1000);
  for (int i = 0; i < 50; ++i) h.Record(1000 * 1000);
  LatencyHistogram::Summary s = h.Summarize();
  // 0.5% of samples at 1 ms: p99 stays at the body, p999 lands in the tail.
  EXPECT_LT(s.p99_us, 10.0);
  EXPECT_GT(s.p999_us, 900.0);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(5000);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.MaxNanos(), 0);
}

TEST(HistogramTest, LargeValuesDoNotOverflow) {
  LatencyHistogram h;
  h.Record(int64_t{1} << 40);  // ~18 minutes in ns
  EXPECT_EQ(h.count(), 1);
  EXPECT_GT(h.QuantileNanos(0.5), 0);
}

TEST(HistogramTest, EmptyQuantilesAreZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.QuantileNanos(0.0), 0);
  EXPECT_EQ(h.QuantileNanos(0.5), 0);
  EXPECT_EQ(h.QuantileNanos(1.0), 0);
}

TEST(HistogramTest, SingleSampleEveryQuantileIsTheSample) {
  LatencyHistogram h;
  h.Record(12345);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.QuantileNanos(q), 12345) << "q=" << q;
  }
}

TEST(HistogramTest, P100IsExactMax) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(777777);  // lands mid-bucket: interpolation would overshoot
  h.Record(50);
  EXPECT_EQ(h.QuantileNanos(1.0), 777777);
  EXPECT_EQ(h.QuantileNanos(0.0), 50);
  // Out-of-range q clamps rather than misbehaving.
  EXPECT_EQ(h.QuantileNanos(-0.5), 50);
  EXPECT_EQ(h.QuantileNanos(2.0), 777777);
}

TEST(HistogramTest, NanQuantileIsDeterministic) {
  LatencyHistogram h;
  h.Record(100);
  h.Record(200);
  EXPECT_EQ(h.QuantileNanos(std::nan("")), 200);
}

TEST(HistogramTest, HugeSamplesSaturateInsteadOfWrappingNegative) {
  // INT64_MAX lands in the last representable tier; the next bucket edge
  // used by the interpolation would previously shift past the sign bit.
  LatencyHistogram h;
  h.Record(std::numeric_limits<int64_t>::max());
  h.Record(std::numeric_limits<int64_t>::max() - 1);
  for (double q : {0.01, 0.5, 0.99}) {
    const int64_t v = h.QuantileNanos(q);
    EXPECT_GE(v, h.MinNanos()) << "q=" << q;
    EXPECT_LE(v, h.MaxNanos()) << "q=" << q;
  }
  EXPECT_EQ(h.QuantileNanos(1.0), std::numeric_limits<int64_t>::max());
  // The sum saturates rather than wrapping negative.
  EXPECT_GT(h.MeanNanos(), 0.0);
}

TEST(HistogramTest, ConstantStreamHasZeroWidthQuantiles) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(4242);
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    EXPECT_EQ(h.QuantileNanos(q), 4242) << "q=" << q;
  }
}

}  // namespace
}  // namespace prism
