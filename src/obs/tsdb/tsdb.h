// Fixed-memory multi-resolution time-series store — the retained-history
// substrate behind GET /timeseries, the diurnal anomaly detector, and the
// flight recorder.
//
// The paper provisions the fleet against a diurnal load curve (§III,
// Figs. 2/4), but every other exposition surface reports only the
// instantaneous present. This store keeps the recent past in bounded
// memory with an RRDtool-style tier cascade:
//
//   raw tier    (default 1 s buckets,  120 points ≈ 2 min)
//     └─> mid    (default 10 s buckets, 180 points ≈ 30 min)
//          └─> coarse (default 60 s buckets, 480 points ≈ 8 h)
//
// Every append lands in the raw tier's current bucket AND cascades into
// the pending mid/coarse buckets; when a bucket's time window closes it is
// pushed into that tier's ring, overwriting the oldest point. Each point
// is an aggregate — count / sum / min / max plus a tiny saturating
// log10-bucket sketch for bounded quantile estimates — so downsampling
// conserves count and sum exactly and never loses the min/max envelope
// (tests/tsdb_test property-checks this across tier boundaries and ring
// wrap-around).
//
// Memory is fixed at construction: series × Σ tier points × sizeof(TsPoint)
// (~36 B/point; the defaults hold ~28 KB per series, so a daemon's ~60
// series retain 8 hours of history in under 2 MB). A max_series cap stops
// a metric-name explosion from growing the store without bound.
//
// Thread safety: one internal mutex; append() is called from the sampler
// thread at ~1 Hz while query_json() runs on the HTTP exposition thread —
// lock-light by cadence, not by cleverness.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace proteus::obs {

// One aggregate bucket. The sketch counts samples by order of magnitude
// (log10 of the value, 16 buckets spanning 1e-8..1e8, saturating at 255
// samples per bucket — far above the ≤60 raw samples a coarse bucket can
// absorb at 1 Hz), which bounds quantile answers to the right decade; the
// estimate is additionally clamped into [min, max], so a downsampled
// quantile can never escape the envelope of the raw data it summarizes.
struct TsPoint {
  SimTime t = 0;  // bucket start, aligned to the owning tier's step
  std::uint32_t count = 0;
  double sum = 0;
  float min = 0;
  float max = 0;
  std::uint8_t sketch[16] = {};

  static std::size_t sketch_bucket(double v) noexcept;

  void add(double v) noexcept;
  void merge(const TsPoint& other) noexcept;
  double mean() const noexcept {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  // q in [0,1]; decade-resolution estimate clamped into [min, max].
  double quantile(double q) const noexcept;
};

struct TsdbConfig {
  SimTime raw_step = kSecond;
  std::size_t raw_points = 120;
  SimTime mid_step = 10 * kSecond;
  std::size_t mid_points = 180;
  SimTime coarse_step = 60 * kSecond;
  std::size_t coarse_points = 480;
  // New series beyond this are dropped (counted, never resized).
  std::size_t max_series = 512;
};

class TimeSeriesStore {
 public:
  explicit TimeSeriesStore(TsdbConfig config = {});

  // Records one sample into the named series (creating it if under the
  // series cap). `t` must be non-decreasing per the owning sampler's clock;
  // a stale t is folded into the current bucket rather than rewriting
  // history.
  void append(SimTime t, std::string_view metric, double value);

  struct QueryResult {
    SimTime step = 0;             // resolution of the answering tier
    std::vector<TsPoint> points;  // time order, oldest first
  };

  // Picks the finest tier whose step covers `step` (0 = finest), escalating
  // to a coarser tier when `since` predates the finer tier's retention and
  // the finer tier has wrapped.
  // Points with bucket end <= since are dropped. nullopt = unknown metric.
  std::optional<QueryResult> query(std::string_view metric, SimTime since,
                                   SimTime step) const;

  // GET /timeseries body: {"metric":...,"step_us":...,"points":[...]}.
  // Empty string = unknown metric (the endpoint answers 404).
  std::string query_json(std::string_view metric, SimTime since,
                         SimTime step) const;
  // {"metrics":[...]} — the no-metric-param answer.
  std::string index_json() const;

  std::vector<std::string> metric_names() const;

  // Every retained point of every series/tier as flight-recorder JSONL
  // lines ({"type":"point",...}\n), appended to `out`.
  void dump_jsonl(std::string& out) const;

  std::size_t series_count() const;
  // Retained-point memory (rings + pending buckets), the capacity-planning
  // number exported as proteus_tsdb_memory_bytes.
  std::size_t memory_bytes() const;
  std::uint64_t appends() const;
  // Appends refused because max_series was reached.
  std::uint64_t dropped_series_appends() const;

  const TsdbConfig& config() const noexcept { return config_; }

 private:
  struct Tier {
    SimTime step = 0;
    std::vector<TsPoint> ring;  // fixed capacity, head/size like TraceRing
    std::size_t head = 0;
    std::size_t size = 0;
    TsPoint pending;
    bool has_pending = false;

    void add(SimTime t, double v) noexcept;
    void push(const TsPoint& p) noexcept;
    // Points with bucket end > since, oldest first, pending bucket last.
    void collect(SimTime since, std::vector<TsPoint>& out) const;
    SimTime oldest() const noexcept;  // oldest retained bucket start, or -1
  };

  struct Series {
    Tier tiers[3];
  };

  static void point_json(std::string& out, const TsPoint& p);

  TsdbConfig config_;
  mutable std::mutex mu_;
  // Ordered so index/dump output is stable; transparent comparator lets
  // query() look up by string_view without allocating.
  std::map<std::string, Series, std::less<>> series_;
  std::uint64_t appends_ = 0;
  std::uint64_t dropped_series_appends_ = 0;
};

}  // namespace proteus::obs
