// Tests for src/common: Status/Result, bytes, hashes, RNG, histogram, JSON.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/histogram.h"
#include "src/common/json.h"
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
  SmallBytes b = SmallBytes::OfU64Pair(1, 2);
  ASSERT_EQ(b.size(), 16u);
  EXPECT_EQ(LoadU64(b.data()), 1u);
  EXPECT_EQ(LoadU64(b.data() + 8), 2u);
}

TEST(BytesTest, FieldMaskSelectsBytes) {
  SmallBytes m = FieldMask(16, 8, 8);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(m[i], 0x00);
  for (size_t i = 8; i < 16; ++i) EXPECT_EQ(m[i], 0xff);
}

TEST(SmallBytesTest, CasWidthStaysInlineAndOneMoreByteGoesToTheHeap) {
  SmallBytes widest(SmallBytes::kInline, 0xab);
  EXPECT_EQ(SmallBytes::kInline, 32u);  // the §3.3 maximum CAS width
  EXPECT_TRUE(widest.is_inline());
  EXPECT_EQ(widest, Bytes(32, 0xab));
  SmallBytes wider(SmallBytes::kInline + 1, 0xcd);
  EXPECT_FALSE(wider.is_inline());
  EXPECT_EQ(wider, Bytes(33, 0xcd));
  EXPECT_TRUE(SmallBytes().is_inline());
  EXPECT_TRUE(SmallBytes().empty());
}

TEST(SmallBytesTest, CopyOfLargeContentsSharesTheBlock) {
  const SmallBytes payload(Bytes(520, 0x5a));
  SmallBytes copy = payload;
  EXPECT_EQ(copy.data(), payload.data());
  EXPECT_EQ(copy, payload);
  // Small contents are copied, so nothing is shared.
  const SmallBytes word = SmallBytes::OfU64(7);
  const SmallBytes word_copy = word;
  EXPECT_NE(word_copy.data(), word.data());
  EXPECT_EQ(word_copy, word);
}

TEST(SmallBytesTest, SharedBlockOutlivesTheOriginal) {
  SmallBytes copy;
  {
    SmallBytes original(100, 0x11);
    original.mutable_data()[99] = 0x22;
    copy = original;
  }
  ASSERT_EQ(copy.size(), 100u);
  EXPECT_EQ(copy[0], 0x11);
  EXPECT_EQ(copy[99], 0x22);
}

TEST(SmallBytesTest, MovedFromIsEmpty) {
  for (size_t n : {size_t{8}, size_t{64}}) {
    SmallBytes from(n, 0x01);
    const uint8_t* block = from.data();
    SmallBytes to = std::move(from);
    EXPECT_TRUE(from.empty());
    EXPECT_EQ(from, Bytes{}); 
    EXPECT_EQ(to, Bytes(n, 0x01));
    if (n > SmallBytes::kInline) {
      EXPECT_EQ(to.data(), block);  // the block moved, not its bytes
    }
    SmallBytes assigned(3, 0x09);
    assigned = std::move(to);
    EXPECT_TRUE(to.empty());
    EXPECT_EQ(assigned, Bytes(n, 0x01));
  }
}

TEST(SmallBytesTest, EqualityWithBytesComparesContents) {
  const Bytes raw = {1, 2, 3};
  EXPECT_EQ(SmallBytes(raw), raw);
  EXPECT_EQ(raw, SmallBytes(raw));
  EXPECT_NE(SmallBytes(raw), (Bytes{1, 2}));
  EXPECT_NE(SmallBytes(raw), (Bytes{1, 2, 4}));
  EXPECT_EQ(SmallBytes(Bytes(40, 7)), SmallBytes(Bytes(40, 7)));
  EXPECT_NE(SmallBytes(Bytes(40, 7)), SmallBytes(Bytes(41, 7)));
}

TEST(SmallBytesTest, RoundTripsThroughViews) {
  for (size_t n : {size_t{0}, size_t{16}, size_t{32}, size_t{33}, size_t{600}}) {
    Bytes raw(n);
    for (size_t i = 0; i < n; ++i) raw[i] = static_cast<uint8_t>(i * 7);
    const SmallBytes b(ByteView{raw});
    const ByteView view = b.view();
    EXPECT_EQ(view.size(), n);
    EXPECT_EQ(view.data(), b.data());
    EXPECT_EQ(SmallBytes(view), raw);
    EXPECT_EQ(b.ToBytes(), raw);
    EXPECT_EQ(StringOfBytes(b), StringOfBytes(raw));
  }
  const SmallBytes pair = SmallBytes::OfU64Pair(3, 4);
  EXPECT_EQ(LoadU64(pair, 0), 3u);
  EXPECT_EQ(LoadU64(pair, 8), 4u);
}

TEST(SmallBytesDeathTest, SharedContentsAreImmutable) {
  SmallBytes payload(64);
  const SmallBytes copy = payload;
  EXPECT_DEATH(payload.mutable_data(), "immutable once shared");
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
  // Lengths 0-1100 cover the table-only inputs (under 64 B), the folded
  // path's 4-lane loop (any length of 128 B or more) and its single-fold
  // loop (every count of 16-byte blocks left over), and every 0-15 byte
  // tail the table finishes; offsets 0-15 cover every alignment of the
  // 16-byte loads.
  Bytes buf(4096 + 16);
  Rng rng(7);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 1100; ++len) {
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

// Every simulated result derives from these streams, so their first outputs
// are pinned literally: a change to the generator, the double conversion or
// Lemire's rejection loop must show here before it moves a figure.
TEST(RngTest, GoldenStream) {
  Rng rng(2021);
  EXPECT_EQ(rng.NextU64(), 0xf61612c2ff4d9bc1ull);
  EXPECT_EQ(rng.NextU64(), 0x584f61ab0b9a78b4ull);
  EXPECT_EQ(rng.NextDouble(), 0x1.02a750481ee14p-1);
  EXPECT_EQ(rng.NextDouble(), 0x1.ef04bbd03013ep-1);
  EXPECT_EQ(rng.NextBelow(1000), 748u);
  EXPECT_EQ(rng.NextBelow(1000), 806u);
  // A bound just past 2^63 rejects about half of all draws, so these calls
  // take the rejection loop and consume more than one NextU64 between them.
  const uint64_t wide = (uint64_t{1} << 63) + 12345;
  Rng twin = rng;
  EXPECT_EQ(rng.NextBelow(wide), 0x48d0e05807ada911ull);
  EXPECT_EQ(rng.NextBelow(wide), 0x19b2e4c0e54fbd8eull);
  EXPECT_EQ(rng.NextBelow(wide), 0x599baefb9a9d1573ull);
  EXPECT_EQ(rng.NextBelow(wide), 0x535acec51b661b00ull);
  const uint64_t after = rng.NextU64();
  int consumed = 0;
  while (twin.NextU64() != after) consumed++;
  EXPECT_EQ(consumed, 6);
  Rng child = rng.Fork();
  EXPECT_EQ(child.NextU64(), 0x43875c48ae8bb5aaull);
  EXPECT_EQ(rng.NextU64(), 0x5ed8bda43ac81995ull);
}

// Advance(k) must land exactly where k NextU64 calls land.
void ExpectAdvanceMatchesSteps(uint64_t seed, uint64_t k) {
  Rng stepped(seed);
  for (uint64_t i = 0; i < k; ++i) stepped.NextU64();
  Rng jumped(seed);
  jumped.Advance(k);
  EXPECT_EQ(jumped.state(), stepped.state()) << "seed " << seed << " k " << k;
  EXPECT_EQ(jumped.NextU64(), stepped.NextU64())
      << "seed " << seed << " k " << k;
}

TEST(RngTest, AdvanceEqualsRepeatedDraws) {
  for (uint64_t k : {uint64_t{0}, uint64_t{1}, uint64_t{2}, uint64_t{255},
                     uint64_t{256}, uint64_t{257}, (uint64_t{1} << 20) + 7}) {
    ExpectAdvanceMatchesSteps(2021, k);
    ExpectAdvanceMatchesSteps(7, k);
  }
}

// T^k as a 256 x 256 matrix over GF(2), by square-and-multiply on the
// matrix of one step: a reference for distances too long to step that
// shares nothing with Advance's polynomial arithmetic. Row r is a bit mask
// over state bits (word c / 64, bit c % 64).
struct Gf2Matrix {
  Rng::Poly row[256] = {};

  static Gf2Matrix Step() {
    Gf2Matrix m;
    for (int c = 0; c < 256; ++c) {
      Rng::Poly unit{};
      unit[c / 64] = uint64_t{1} << (c % 64);
      Rng rng;
      rng.set_state(unit);
      rng.NextU64();
      const Rng::Poly col = rng.state();
      for (int r = 0; r < 256; ++r) {
        if ((col[r / 64] >> (r % 64)) & 1) m.row[r][c / 64] |= unit[c / 64];
      }
    }
    return m;
  }
  static Gf2Matrix Identity() {
    Gf2Matrix m;
    for (int r = 0; r < 256; ++r) m.row[r][r / 64] = uint64_t{1} << (r % 64);
    return m;
  }
  Gf2Matrix operator*(const Gf2Matrix& b) const {
    Gf2Matrix out;
    for (int r = 0; r < 256; ++r) {
      for (int c = 0; c < 256; ++c) {
        if ((row[r][c / 64] >> (c % 64)) & 1) {
          for (int w = 0; w < 4; ++w) out.row[r][w] ^= b.row[c][w];
        }
      }
    }
    return out;
  }
  Rng::Poly Apply(const Rng::Poly& s) const {
    Rng::Poly out{};
    for (int r = 0; r < 256; ++r) {
      int parity = 0;
      for (int w = 0; w < 4; ++w) {
        parity ^= __builtin_parityll(row[r][w] & s[w]);
      }
      out[r / 64] |= uint64_t(parity) << (r % 64);
    }
    return out;
  }
};

TEST(RngTest, AdvanceRandomDistancesMatchMatrixPower) {
  Rng pick(99);
  for (int trial = 0; trial < 3; ++trial) {
    const uint64_t k = pick.NextBelow(uint64_t{1} << 40);
    Gf2Matrix power = Gf2Matrix::Identity();
    Gf2Matrix base = Gf2Matrix::Step();
    for (uint64_t e = k; e != 0; e >>= 1) {
      if (e & 1) power = power * base;
      if (e > 1) base = base * base;
    }
    Rng jumped(trial + 1);
    const Rng::Poly start = jumped.state();
    jumped.Advance(k);
    EXPECT_EQ(jumped.state(), power.Apply(start)) << "k " << k;
  }
}

// The xoshiro256 authors' jump() constant is x^(2^128) mod P in Jump's bit
// order; it must move the state by T^(2^128).
TEST(RngTest, JumpAppliesTheReferenceJumpConstant) {
  const Rng::Poly kJump128 = {0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
                              0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  Gf2Matrix power = Gf2Matrix::Step();
  for (int i = 0; i < 128; ++i) power = power * power;
  Rng jumped(2021);
  const Rng::Poly start = jumped.state();
  jumped.Jump(kJump128);
  EXPECT_EQ(jumped.state(), power.Apply(start));
}

TEST(RngTest, AdvanceComposes) {
  Rng pick(31);
  for (int trial = 0; trial < 16; ++trial) {
    const uint64_t a = pick.NextBelow(uint64_t{1} << 40);
    const uint64_t b = pick.NextBelow(uint64_t{1} << 40);
    Rng twice(trial), once(trial);
    twice.Advance(a);
    twice.Advance(b);
    once.Advance(a + b);
    EXPECT_EQ(twice.state(), once.state()) << a << " + " << b;
  }
  // The top bit of k takes the last table entry.
  Rng twice(3), once(3);
  twice.Advance(uint64_t{1} << 62);
  twice.Advance(uint64_t{1} << 62);
  once.Advance(uint64_t{1} << 63);
  EXPECT_EQ(twice.state(), once.state());
}

// The characteristic polynomial P annihilates the state map (Cayley–
// Hamilton): jumping by P's low 256 coefficients equals 256 steps, since
// T^256 = p(T). With degree 256 and a primitive minimal polynomial, only P
// passes this.
TEST(RngTest, CharPolyAnnihilatesTheStateMap) {
  const Rng::Poly& p = Rng::CharPoly();
  EXPECT_NE(p, (Rng::Poly{}));
  EXPECT_EQ(p[0] & 1, 1u) << "T is invertible, so P(0) = 1";
  for (uint64_t seed : {1, 2, 2021}) {
    Rng stepped(seed), jumped(seed);
    for (int i = 0; i < 256; ++i) stepped.NextU64();
    jumped.Jump(p);
    EXPECT_EQ(jumped.state(), stepped.state()) << "seed " << seed;
  }
}

// Jump applies a polynomial in the bit order of the xoshiro authors' jump()
// constants: x^1 is one step, x^255 is 255 steps.
TEST(RngTest, JumpByMonomialSteps) {
  for (int e : {0, 1, 63, 64, 200, 255}) {
    Rng::Poly mono{};
    mono[e / 64] = uint64_t{1} << (e % 64);
    Rng stepped(11), jumped(11);
    for (int i = 0; i < e; ++i) stepped.NextU64();
    jumped.Jump(mono);
    EXPECT_EQ(jumped.state(), stepped.state()) << "x^" << e;
  }
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


// ---- JSON ----

TEST(JsonTest, WriterOutputParsesBackToTheSameValues) {
  // Every byte the writer must escape: quote, backslash and each control
  // character (\n and \t by name, the rest as \u00XX).
  std::string escapes = "\"\\/ plain ~";
  for (int c = 1; c < 0x20; ++c) escapes += static_cast<char>(c);
  JsonWriter w;
  w.BeginObject()
      .Field("s", escapes)
      .Field(escapes, "escaped key")
      .Field("int", -7)
      .Field("int64", int64_t{-(int64_t{1} << 53)})
      .Field("uint64", uint64_t{1} << 53)
      .Field("double", 1234567.0)
      .Field("t", true)
      .Field("f", false)
      .BeginArray("empty_arr")
      .EndArray()
      .BeginObject("empty_obj")
      .EndObject()
      .BeginArray("nested")
      .BeginObject()
      .BeginArray("inner")
      .Field("", 1)
      .Field("", "x")
      .EndArray()
      .BeginObject("o")
      .EndObject()
      .EndObject()
      .BeginArray()
      .EndArray()
      .EndArray()
      .EndObject();
  const std::string& text = w.str();
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_NE(text.find("\\n"), std::string::npos);
  EXPECT_NE(text.find("\\t"), std::string::npos);
  EXPECT_NE(text.find("\"double\":1.23457e+06"), std::string::npos);

  const Json doc = ParseJson(text);
  EXPECT_EQ(doc.Str("s"), escapes);
  EXPECT_EQ(doc.Str(escapes), "escaped key");
  EXPECT_EQ(doc.Num("int"), -7);
  EXPECT_EQ(doc.Num("int64"), -9007199254740992.0);
  EXPECT_EQ(doc.Num("uint64"), 9007199254740992.0);
  EXPECT_EQ(doc.Num("double"), 1.23457e+06);  // %.6g
  EXPECT_TRUE(doc.Bool("t"));
  EXPECT_FALSE(doc.Bool("f"));
  EXPECT_TRUE(doc.Arr("empty_arr").empty());
  EXPECT_EQ(doc.Require("empty_obj").type, Json::Type::kObject);
  EXPECT_TRUE(doc.Require("empty_obj").obj.empty());
  const std::vector<Json>& nested = doc.Arr("nested");
  ASSERT_EQ(nested.size(), 2u);
  const std::vector<Json>& inner = nested[0].Arr("inner");
  ASSERT_EQ(inner.size(), 2u);
  EXPECT_EQ(inner[0].AsNum(), 1);
  EXPECT_EQ(inner[1].AsStr(), "x");
  EXPECT_TRUE(nested[0].Require("o").obj.empty());
  EXPECT_TRUE(nested[1].AsArr().empty());
}

TEST(JsonTest, BreakLinesAndRawKeepParsedMembersByteForByte) {
  const std::string text = "{ \"a\" : [1, 2.50],\"b\":{\"c\":\"d\"} }";
  const Json doc = ParseJson(text);
  JsonWriter w;
  w.BeginObject().BreakLines();
  for (const auto& [key, v] : doc.obj) {
    w.Raw(key, text.substr(v.begin, v.end - v.begin));
  }
  w.EndObject();
  EXPECT_EQ(w.str(), "{\n\"a\":[1, 2.50],\n\"b\":{\"c\":\"d\"}\n}");
}

TEST(JsonTest, TypedAccessorsRejectMissingAndMistypedFields) {
  const std::string text = R"({"n": 1, "s": "x", "a": ["y", 2]})";
  const Json doc = ParseJson(text);
  auto offset_of = [](const auto& read) -> size_t {
    try {
      read();
    } catch (const JsonError& e) {
      return e.offset();
    }
    ADD_FAILURE() << "no JsonError thrown";
    return 0;
  };
  EXPECT_EQ(offset_of([&] { doc.Num("missing"); }), 0u);
  EXPECT_EQ(offset_of([&] { doc.Num("s"); }), text.find("\"x\""));
  EXPECT_EQ(offset_of([&] { doc.Str("n"); }), text.find('1'));
  EXPECT_EQ(offset_of([&] { doc.Arr("n"); }), text.find('1'));
  EXPECT_EQ(offset_of([&] { doc.Bool("n"); }), text.find('1'));
  EXPECT_EQ(offset_of([&] { doc.Arr("a")[0].AsNum(); }), text.find("\"y\""));
  EXPECT_EQ(offset_of([&] { doc.Arr("a")[1].AsStr(); }), text.find('2'));
  EXPECT_EQ(offset_of([&] { doc.Require("n").Num("k"); }), text.find('1'));
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, MalformedInputThrowsAtTheOffendingByte) {
  struct Case {
    const char* text;
    size_t offset;
  };
  const Case cases[] = {
      {"", 0},                  // empty
      {"{\"a\":1", 6},          // truncated object
      {"[1,2", 4},              // truncated array
      {"\"abc", 4},             // unterminated string
      {"[1,2] x", 6},           // trailing bytes
      {"{} {}", 3},             // a second document
      {"\"\\q\"", 2},           // bad escape
      {"\"\\u12G4\"", 5},       // bad \u hex digit
      {"\"\\u12\"", 3},         // truncated \u escape
      {"[tru]", 1},             // unknown literal
      {"nul", 0},               // unknown literal
      {"[inf]", 1},             // strtod would take it; JSON does not
      {"[-]", 1},               // malformed number
      {"[1,]", 3},              // missing value
      {"{\"a\" 1}", 5},         // missing ':'
      {"[1 2]", 3},             // missing ','
      {"{\"a\":1 \"b\":2}", 7},  // missing ',' between members
  };
  for (const Case& c : cases) {
    try {
      ParseJson(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const JsonError& e) {
      EXPECT_EQ(e.offset(), c.offset) << c.text << ": " << e.what();
    }
  }
}

}  // namespace
}  // namespace prism
