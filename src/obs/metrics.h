// Unified metrics registry — the instrumentation spine of the repo.
//
// The paper's claims are quantitative (§III exact K/n load balance, §IV-B
// bounded digest false positives/negatives, §VI tail response time), so every
// live component registers its counters/gauges/histograms here and the same
// numbers flow out through all exposition surfaces: the daemon's
// `stats proteus` text-protocol extension, the Prometheus /metrics endpoint
// (net/metrics_http.h), and `proteus-top`.
//
// Design: the hot path is label-free and lock-minimal — a Counter is one
// relaxed atomic add, a Gauge one relaxed atomic store, a Histogram one
// mutex-protected LatencyHistogram::record (bench/micro_metrics measures
// each). Reading is snapshot-on-read: snapshot() materializes every metric's
// current value (invoking callback metrics) so renderers never hold hot-path
// locks while formatting.
//
// Callback metrics (counter_fn/gauge_fn/histogram_fn) adapt the existing
// ad-hoc stats structs (CacheStats, ProteusStats, ProteusClient::Stats,
// WebTierStats, TcpServer counters) without duplicating their bookkeeping:
// the owning component registers a closure that reads its struct. THREAD
// SAFETY of such closures is the registrant's contract — e.g. the daemon's
// cache-reading closures go through ShardedCacheServer's merged views,
// which lock one shard at a time internally, so snapshot() can be called
// from any thread (the metrics sampler included) with no external lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"

namespace proteus::obs {

// One retained sample that links a histogram bucket back to a trace id —
// the OpenMetrics exemplar payload. seq is a global recording order so a
// merge of two sets keeps the NEWER exemplar per bucket.
struct Exemplar {
  std::uint64_t trace_id = 0;  // 0 = slot empty
  double value_us = 0;
  std::uint64_t seq = 0;
};

// Last-sampled-trace-per-bucket over a coarse log2 value scale (1 us ..
// ~32 ms; out-of-range clamps to the edge buckets). Kept deliberately tiny:
// offer() is a bucket index + struct store, and the whole set copies out
// with the histogram snapshot. NOT thread-safe on its own — the owning
// Histogram guards it with its mutex.
class ExemplarSet {
 public:
  static constexpr std::size_t kBuckets = 16;

  static std::size_t bucket_of(double value_us) noexcept;

  // Replaces the bucket's exemplar (the newest sample wins; stamps seq).
  void offer(double value_us, std::uint64_t trace_id) noexcept;
  // Per bucket, keeps whichever side's exemplar is newer (higher seq).
  void merge(const ExemplarSet& other) noexcept;
  // Exemplar whose bucket contains value_us, falling back to the nearest
  // populated bucket; null when the set is empty.
  const Exemplar* nearest(double value_us) const noexcept;
  bool empty() const noexcept;

 private:
  std::array<Exemplar, kBuckets> slots_{};
};

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Point-in-time value (may go up or down).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Concurrent wrapper over LatencyHistogram: record under a private mutex,
// copy out whole on snapshot (a few KB — cheap next to any render).
class Histogram {
 public:
  void record(double value_us) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    h_.record(value_us);
  }
  // Records and, when trace_id != 0, retains (value, trace_id) as the
  // bucket's exemplar so renderers can link quantiles to traces.
  void record(double value_us, std::uint64_t trace_id) noexcept {
    const std::lock_guard<std::mutex> lock(mu_);
    h_.record(value_us);
    if (trace_id != 0) exemplars_.offer(value_us, trace_id);
  }
  LatencyHistogram snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return h_;
  }
  // Runs fn(const LatencyHistogram&) under the lock WITHOUT copying the
  // bucket array — the tsdb sampler's per-tick read.
  template <typename Fn>
  void read(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mu_);
    fn(h_);
  }
  ExemplarSet exemplars() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return exemplars_;
  }
 private:
  mutable std::mutex mu_;
  LatencyHistogram h_;
  ExemplarSet exemplars_;
};

enum class MetricType { kCounter, kGauge, kHistogram };

// One metric's materialized value at snapshot time.
struct MetricSample {
  std::string name;
  std::string help;
  MetricType type = MetricType::kGauge;
  double value = 0.0;       // counter / gauge
  LatencyHistogram hist;    // histogram
  ExemplarSet exemplars;    // histogram trace links (may be empty)
};

class MetricsRegistry {
 public:
  // Registration is idempotent per name: re-registering returns the existing
  // instrument (and ignores the new help/callback), so components can be
  // re-constructed against a long-lived registry. Returned pointers stay
  // valid for the registry's lifetime.
  Counter* counter(std::string name, std::string help = {});
  Gauge* gauge(std::string name, std::string help = {});
  Histogram* histogram(std::string name, std::string help = {});

  // Callback metrics: polled at snapshot() time. See the thread-safety
  // contract in the header comment.
  void counter_fn(std::string name, std::string help,
                  std::function<double()> fn);
  void gauge_fn(std::string name, std::string help, std::function<double()> fn);
  void histogram_fn(std::string name, std::string help,
                    std::function<LatencyHistogram()> fn);

  // Materializes every metric, sorted by registration order.
  std::vector<MetricSample> snapshot() const;

  // Samples filtered to names starting with `prefix` — the
  // `/metrics?name=<prefix>` narrow-scrape path (empty prefix = all).
  std::vector<MetricSample> snapshot_prefix(std::string_view prefix) const;

  // Light visitation for the tsdb sampler: no MetricSample materialization,
  // no copies of registered histograms. `fn` sees every metric's name/type
  // and either its scalar value or its histogram, which stays valid (and,
  // for a registered Histogram, locked against record()) only for the
  // call. The registry mutex is held for the whole sweep, and callback
  // metrics are polled — the same thread-safety contract as snapshot().
  struct VisitedMetric {
    std::string_view name;
    MetricType type = MetricType::kGauge;
    double value = 0;                        // counter / gauge
    const LatencyHistogram* hist = nullptr;  // histogram
  };
  void visit(const std::function<void(const VisitedMetric&)>& fn) const;

  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    std::string help;
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> value_fn;                // counter/gauge callback
    std::function<LatencyHistogram()> histogram_fn;  // histogram callback
  };

  Entry* find_or_insert(std::string name, std::string help, MetricType type);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

// Prometheus text exposition format 0.0.4: # HELP / # TYPE preambles,
// histograms rendered as summaries (quantile labels + _sum + _count).
std::string render_prometheus(const std::vector<MetricSample>& samples);

// memcached-style "STAT <name> <value>" lines terminated by "END\r\n" — the
// body of the daemon's `stats proteus` reply. Histograms expand to
// _count/_mean/_p50/_p90/_p99/_p999/_max suffixed lines.
std::string render_stats_text(const std::vector<MetricSample>& samples);

}  // namespace proteus::obs
