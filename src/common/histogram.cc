#include "src/common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace prism {
namespace {

// Sums of non-negative samples saturate at INT64_MAX: a wrapped sum would be
// undefined behaviour and turn the mean negative.
int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t out;
  return __builtin_add_overflow(a, b, &out)
             ? std::numeric_limits<int64_t>::max()
             : out;
}

}  // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kMaxBuckets, 0) {}

size_t LatencyHistogram::BucketFor(int64_t nanos) {
  if (nanos < 0) nanos = 0;
  uint64_t v = static_cast<uint64_t>(nanos);
  if (v < kSubBuckets) return static_cast<size_t>(v);
  // Exponent of the highest set bit, then kSubBuckets linear sub-buckets.
  int exp = 63 - std::countl_zero(v);
  int sub_shift = exp - 6;  // log2(kSubBuckets)
  uint64_t sub = (v >> sub_shift) - kSubBuckets;
  size_t index = static_cast<size_t>((exp - 6 + 1)) * kSubBuckets +
                 static_cast<size_t>(sub);
  return std::min<size_t>(index, kMaxBuckets - 1);
}

int64_t LatencyHistogram::BucketLower(size_t index) {
  if (index < kSubBuckets) return static_cast<int64_t>(index);
  size_t tier = index / kSubBuckets;  // >= 1; inverse of BucketFor:
  size_t sub = index % kSubBuckets;   // tier = exp-5, value = (64+sub)<<(exp-6)
  // (64+sub) < 2^7, so the shifted value needs 7 + (tier-1) bits and spills
  // past int64 once tier >= 58. Samples never land there (BucketFor caps at
  // tier 57 for INT64_MAX), but quantile interpolation asks for the upper
  // edge of the last sample bucket — saturate instead of shifting into the
  // sign bit.
  if (tier - 1 >= 57) return std::numeric_limits<int64_t>::max();
  return static_cast<int64_t>((kSubBuckets + sub) << (tier - 1));
}

void LatencyHistogram::Record(int64_t nanos) {
  buckets_[BucketFor(nanos)]++;
  if (count_ == 0) {
    min_ = max_ = nanos;
  } else {
    min_ = std::min(min_, nanos);
    max_ = std::max(max_, nanos);
  }
  count_++;
  sum_ = SaturatingAdd(sum_, nanos < 0 ? 0 : nanos);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  PRISM_CHECK_EQ(buckets_.size(), other.buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ = SaturatingAdd(sum_, other.sum_);
}

void LatencyHistogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = max_ = 0;
}

double LatencyHistogram::MeanNanos() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

int64_t LatencyHistogram::QuantileNanos(double q) const {
  if (count_ == 0) return 0;
  if (std::isnan(q)) return max_;  // comparisons below would all be false
  if (q <= 0) return min_;
  if (q >= 1) return max_;  // p100 is exact, not interpolated
  if (min_ == max_) return min_;  // single sample or constant stream
  const double target = q * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    double next = seen + static_cast<double>(buckets_[i]);
    if (next >= target) {
      int64_t lo = BucketLower(i);
      // Cap the bucket's upper edge at the observed maximum: tightens the
      // estimate and keeps lo + frac*(hi-lo) inside int64 when BucketLower
      // saturates (tier >= 58).
      int64_t hi = (i + 1 < buckets_.size())
                       ? std::min(BucketLower(i + 1), max_)
                       : max_;
      double frac = (target - seen) / static_cast<double>(buckets_[i]);
      int64_t est = lo + static_cast<int64_t>(frac * static_cast<double>(hi - lo));
      return std::clamp(est, min_, max_);
    }
    seen = next;
  }
  return max_;
}

LatencyHistogram::Summary LatencyHistogram::Summarize() const {
  Summary s;
  s.count = count_;
  s.mean_us = MeanNanos() / 1e3;
  s.p50_us = static_cast<double>(QuantileNanos(0.5)) / 1e3;
  s.p99_us = static_cast<double>(QuantileNanos(0.99)) / 1e3;
  s.p999_us = static_cast<double>(QuantileNanos(0.999)) / 1e3;
  s.min_us = static_cast<double>(MinNanos()) / 1e3;
  s.max_us = static_cast<double>(MaxNanos()) / 1e3;
  return s;
}

double MeanOf(const std::vector<int64_t>& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (int64_t s : samples) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples.size());
}

}  // namespace prism
