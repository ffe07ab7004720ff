// Log-bucketed latency histogram with percentile queries.
//
// The evaluation plots p99.9 response time (Fig. 9), which requires a
// percentile estimator with bounded relative error over a wide dynamic range
// (sub-millisecond cache hits up to multi-second database-overload queueing).
// An HdrHistogram-style layout gives <= ~0.8% relative error per bucket with
// a few KB of memory and O(1) record.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace proteus {

class LatencyHistogram {
 public:
  // Values are recorded in microseconds; range [1us, ~1.2e6 s].
  LatencyHistogram() : counts_(kNumBuckets, 0) {}

  void record(double value_us) noexcept {
    if (value_us < 1.0) value_us = 1.0;
    ++counts_[bucket_index(value_us)];
    ++total_;
    sum_us_ += value_us;
    max_us_ = std::max(max_us_, value_us);
    min_us_ = std::min(min_us_, value_us);
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kNumBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    sum_us_ += other.sum_us_;
    max_us_ = std::max(max_us_, other.max_us_);
    min_us_ = std::min(min_us_, other.min_us_);
  }

  void clear() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
    sum_us_ = 0;
    max_us_ = 0;
    min_us_ = 1e300;
  }

  std::uint64_t count() const noexcept { return total_; }
  double mean_us() const noexcept { return total_ ? sum_us_ / static_cast<double>(total_) : 0.0; }
  double mean() const noexcept { return mean_us(); }
  double max_us() const noexcept { return total_ ? max_us_ : 0.0; }
  double min_us() const noexcept { return total_ ? min_us_ : 0.0; }

  // Number of recorded values >= threshold (bucket-granular): the SLA
  // bound-violation count of §VI's 0.5 s delay bound.
  std::uint64_t count_at_or_above(double threshold_us) const noexcept {
    if (threshold_us <= 1.0) return total_;
    const std::size_t first = bucket_index(threshold_us);
    std::uint64_t n = 0;
    for (std::size_t i = first; i < kNumBuckets; ++i) n += counts_[i];
    return n;
  }

  double fraction_at_or_above(double threshold_us) const noexcept {
    return total_ ? static_cast<double>(count_at_or_above(threshold_us)) /
                        static_cast<double>(total_)
                  : 0.0;
  }

  // q in [0, 1]; returns the bucket-representative value in microseconds.
  double percentile_us(double q) const noexcept {
    return quantile_over(total_, q,
                         [this](std::size_t i) { return counts_[i]; });
  }

  // p in [0, 1] — same estimator as percentile_us. For recorded values
  // >= 64 us the bucket-representative answer is within 0.8% relative error
  // of the exact order statistic (tests/histogram_test.cc verifies).
  double quantile(double p) const noexcept { return percentile_us(p); }

  // The same estimator over only the values recorded since `base`, an
  // earlier copy of this histogram: per-bucket count differences. 0 when
  // nothing was recorded in between.
  double quantile_since(const LatencyHistogram& base,
                        double q) const noexcept {
    const auto delta = [&](std::size_t i) -> std::uint64_t {
      return counts_[i] > base.counts_[i] ? counts_[i] - base.counts_[i] : 0;
    };
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) total += delta(i);
    return quantile_over(total, q, delta);
  }

 private:
  // 64 sub-buckets per power of two, 41 exponents: covers 1us..2^41us.
  static constexpr int kSubBucketBits = 6;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kExponents = 41;
  static constexpr std::size_t kNumBuckets =
      static_cast<std::size_t>(kSubBuckets) * kExponents;

  static std::size_t bucket_index(double value_us) noexcept {
    const auto v = static_cast<std::uint64_t>(value_us);
    int exp = 63 - __builtin_clzll(v | 1);
    if (exp >= kExponents) exp = kExponents - 1;
    std::uint64_t sub;
    if (exp < kSubBucketBits) {
      sub = (v << (kSubBucketBits - exp)) & (kSubBuckets - 1);
    } else {
      sub = (v >> (exp - kSubBucketBits)) & (kSubBuckets - 1);
    }
    return static_cast<std::size_t>(exp) * kSubBuckets + sub;
  }

  // Shared estimator: the bucket holding the ceil(q * total)-th value, where
  // count_at(i) is bucket i's count.
  template <typename CountAt>
  double quantile_over(std::uint64_t total, double q,
                       CountAt count_at) const noexcept {
    if (total == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      const std::uint64_t n = count_at(i);
      seen += n;
      if (seen >= target && n > 0) return bucket_midpoint(i);
    }
    return max_us_;
  }

  static double bucket_midpoint(std::size_t idx) noexcept {
    const int exp = static_cast<int>(idx) / kSubBuckets;
    const int sub = static_cast<int>(idx) % kSubBuckets;
    const double base = std::ldexp(1.0, exp);
    const double width = base / kSubBuckets;
    return base + (sub + 0.5) * width;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_us_ = 0;
  double max_us_ = 0;
  double min_us_ = 1e300;
};

}  // namespace proteus
