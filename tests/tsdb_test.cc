// The metrics flight recorder: the multi-resolution TimeSeriesStore
// (round-trip, tier escalation, downsampler conservation properties across
// tier boundaries and ring wrap-around), the registry sampler's
// counter->rate conversion under a fake clock, the diurnal anomaly
// detector (robust-EWMA scoring, consecutive gating, kAnomaly emission),
// the flight-recorder artifact's well-formedness, an abort during a
// checkpoint ending the process instead of hanging it, and an end-to-end
// drill on a daemon: an induced miss storm raises kAnomaly BEFORE the SLO
// engine pages, and GET /timeseries's backing JSON replays the episode.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "net/memcache_daemon.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tsdb/anomaly.h"
#include "obs/tsdb/flight_recorder.h"
#include "obs/tsdb/sampler.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::obs {
namespace {

// --- TimeSeriesStore ---------------------------------------------------------

TEST(TsPoint, AggregatesAndQuantileEnvelope) {
  TsPoint p;
  p.t = 0;
  for (int i = 1; i <= 10; ++i) p.add(static_cast<double>(i));
  EXPECT_EQ(p.count, 10u);
  EXPECT_DOUBLE_EQ(p.sum, 55.0);
  EXPECT_FLOAT_EQ(p.min, 1.0f);
  EXPECT_FLOAT_EQ(p.max, 10.0f);
  EXPECT_DOUBLE_EQ(p.mean(), 5.5);
  // Decade-sketch quantiles can never leave [min, max].
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    const double v = p.quantile(q);
    EXPECT_GE(v, p.min);
    EXPECT_LE(v, p.max);
  }
}

TEST(TsPoint, MergeConservesCountSumEnvelope) {
  TsPoint a, b;
  a.add(1.0);
  a.add(100.0);
  b.add(0.5);
  b.add(7.0);
  TsPoint m = a;
  m.merge(b);
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.sum, 108.5);
  EXPECT_FLOAT_EQ(m.min, 0.5f);
  EXPECT_FLOAT_EQ(m.max, 100.0f);
}

TEST(TimeSeriesStore, RawRoundTrip) {
  TimeSeriesStore store;
  for (int s = 0; s < 10; ++s) {
    store.append(s * kSecond, "ops", static_cast<double>(s));
  }
  const auto r = store.query("ops", 0, kSecond);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->step, kSecond);
  ASSERT_EQ(r->points.size(), 10u);
  for (int s = 0; s < 10; ++s) {
    EXPECT_EQ(r->points[s].t, s * kSecond);
    EXPECT_EQ(r->points[s].count, 1u);
    EXPECT_DOUBLE_EQ(r->points[s].sum, static_cast<double>(s));
  }
}

TEST(TimeSeriesStore, UnknownMetricIsNulloptAnd404Json) {
  TimeSeriesStore store;
  store.append(0, "ops", 1.0);
  EXPECT_FALSE(store.query("nope", 0, kSecond).has_value());
  EXPECT_TRUE(store.query_json("nope", 0, kSecond).empty());
  EXPECT_FALSE(store.query_json("ops", 0, kSecond).empty());
}

TEST(TimeSeriesStore, StepSelectsTierAndSinceEscalates) {
  TsdbConfig cfg;  // raw 1s x 120, mid 10s x 180, coarse 60s x 480
  TimeSeriesStore store(cfg);
  // 20 minutes of 1 Hz appends: the raw tier retains only the last 2 min.
  const int total_s = 20 * 60;
  for (int s = 0; s < total_s; ++s) {
    store.append(s * kSecond, "ops", 1.0);
  }
  // A coarse step answers from the 60 s tier.
  const auto coarse = store.query("ops", 0, kMinute);
  ASSERT_TRUE(coarse.has_value());
  EXPECT_EQ(coarse->step, kMinute);
  // A raw-step query reaching back past raw (and mid) retention escalates
  // to the tier that still remembers the window.
  const auto old_window = store.query("ops", 0, kSecond);
  ASSERT_TRUE(old_window.has_value());
  EXPECT_GT(old_window->step, kSecond);
  // A raw-step query over the recent past stays raw.
  const auto recent =
      store.query("ops", (total_s - 30) * kSecond, kSecond);
  ASSERT_TRUE(recent.has_value());
  EXPECT_EQ(recent->step, kSecond);
}

// Property: downsampling conserves count and sum exactly and preserves the
// min/max envelope, across tier boundaries AND ring wrap-around (raw wraps
// 5x here), with quantiles clamped inside the envelope.
TEST(TimeSeriesStore, DownsamplerConservationProperty) {
  TimeSeriesStore store;
  std::uint64_t lcg = 42;
  const auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>((lcg >> 33) % 977);  // integers: exact sums
  };
  const int total_s = 600;  // 10 min at 1 Hz
  double expect_sum = 0;
  double expect_min = 1e300;
  double expect_max = -1e300;
  for (int s = 0; s < total_s; ++s) {
    const double v = next();
    expect_sum += v;
    expect_min = std::min(expect_min, v);
    expect_max = std::max(expect_max, v);
    store.append(s * kSecond, "load", v);
  }
  // The coarse tier (480 x 60 s) retains the whole run: conservation must
  // be exact in aggregate.
  const auto coarse = store.query("load", 0, kMinute);
  ASSERT_TRUE(coarse.has_value());
  std::uint64_t count = 0;
  double sum = 0;
  double mn = 1e300;
  double mx = -1e300;
  for (const TsPoint& p : coarse->points) {
    count += p.count;
    sum += p.sum;
    mn = std::min(mn, static_cast<double>(p.min));
    mx = std::max(mx, static_cast<double>(p.max));
    const double q = p.quantile(0.5);
    EXPECT_GE(q, p.min);
    EXPECT_LE(q, p.max);
  }
  EXPECT_EQ(count, static_cast<std::uint64_t>(total_s));
  EXPECT_DOUBLE_EQ(sum, expect_sum);
  EXPECT_DOUBLE_EQ(mn, expect_min);
  EXPECT_DOUBLE_EQ(mx, expect_max);
  // Mid tier (180 x 10 s = 30 min) also retains everything here — and must
  // agree with coarse on every conserved aggregate.
  const auto mid = store.query("load", 0, 10 * kSecond);
  ASSERT_TRUE(mid.has_value());
  std::uint64_t mid_count = 0;
  double mid_sum = 0;
  for (const TsPoint& p : mid->points) {
    mid_count += p.count;
    mid_sum += p.sum;
  }
  EXPECT_EQ(mid_count, count);
  EXPECT_DOUBLE_EQ(mid_sum, sum);
}

TEST(TimeSeriesStore, SeriesCapDropsNewNamesNotAppends) {
  TsdbConfig cfg;
  cfg.max_series = 2;
  TimeSeriesStore store(cfg);
  store.append(0, "a", 1.0);
  store.append(0, "b", 1.0);
  store.append(0, "c", 1.0);  // over the cap: dropped
  store.append(kSecond, "a", 2.0);
  EXPECT_EQ(store.series_count(), 2u);
  EXPECT_EQ(store.dropped_series_appends(), 1u);
  EXPECT_EQ(store.appends(), 3u);
  EXPECT_FALSE(store.query("c", 0, kSecond).has_value());
}

TEST(TimeSeriesStore, JsonSurfacesAndMemoryBound) {
  TimeSeriesStore store;
  for (int s = 0; s < 5; ++s) {
    store.append(s * kSecond, "ops_rate", static_cast<double>(s) + 0.5);
  }
  const std::string idx = store.index_json();
  EXPECT_NE(idx.find("\"ops_rate\""), std::string::npos);
  const std::string body = store.query_json("ops_rate", 0, kSecond);
  EXPECT_NE(body.find("\"metric\":\"ops_rate\""), std::string::npos);
  EXPECT_NE(body.find("\"step_us\":1000000"), std::string::npos);
  EXPECT_NE(body.find("\"points\":["), std::string::npos);
  // One series must stay comfortably inside the "a few MB per server"
  // budget: default geometry is ~28 KB per series.
  EXPECT_LT(store.memory_bytes(), 64u * 1024);
  EXPECT_GT(store.memory_bytes(), 0u);
}

// --- MetricsSampler ----------------------------------------------------------

TEST(MetricsSampler, CounterToRateGaugeAndHistogramSeries) {
  MetricsRegistry registry;
  double counter_val = 0;
  registry.counter_fn("proteus_ops_total", "ops", [&] { return counter_val; });
  Gauge* g = registry.gauge("proteus_items", "items");
  Histogram* h = registry.histogram("proteus_lat_us", "latency");

  TimeSeriesStore store;
  MetricsSampler sampler({}, &registry, &store, nullptr);

  g->set(7.0);
  h->record(100.0);
  sampler.sample_once(0);  // priming pass: no rates yet
  EXPECT_FALSE(store.query("proteus_ops_rate", 0, kSecond).has_value());

  counter_val = 50;
  g->set(9.0);
  for (int i = 0; i < 100; ++i) h->record(100.0);
  sampler.sample_once(10 * kSecond);

  const auto rate = store.query("proteus_ops_rate", 0, kSecond);
  ASSERT_TRUE(rate.has_value());
  ASSERT_FALSE(rate->points.empty());
  EXPECT_DOUBLE_EQ(rate->points.back().sum, 5.0);  // 50 ops / 10 s

  const auto items = store.query("proteus_items", 0, kSecond);
  ASSERT_TRUE(items.has_value());
  EXPECT_DOUBLE_EQ(items->points.back().sum, 9.0);

  for (const char* s : {"proteus_lat_us_p50", "proteus_lat_us_p99",
                        "proteus_lat_us_p999", "proteus_lat_us_rate"}) {
    EXPECT_TRUE(store.query(s, 0, kSecond).has_value()) << s;
  }
  const auto hrate = store.query("proteus_lat_us_rate", 0, kSecond);
  EXPECT_DOUBLE_EQ(hrate->points.back().sum, 10.0);  // 100 records / 10 s
  EXPECT_EQ(sampler.ticks(), 2u);
}

TEST(MetricsSampler, CounterResetRebaselinesInsteadOfNegativeRate) {
  MetricsRegistry registry;
  double counter_val = 1000;
  registry.counter_fn("proteus_ops_total", "ops", [&] { return counter_val; });
  TimeSeriesStore store;
  MetricsSampler sampler({}, &registry, &store, nullptr);
  sampler.sample_once(0);
  counter_val = 5;  // the process restarted: counter went backwards
  sampler.sample_once(10 * kSecond);
  const auto r = store.query("proteus_ops_rate", 0, kSecond);
  // No rate point was emitted for the reset interval...
  EXPECT_FALSE(r.has_value());
  counter_val = 105;
  sampler.sample_once(20 * kSecond);
  // ...and the next interval rates off the NEW baseline.
  const auto r2 = store.query("proteus_ops_rate", 0, kSecond);
  ASSERT_TRUE(r2.has_value());
  EXPECT_DOUBLE_EQ(r2->points.back().sum, 10.0);
}

// Histogram series are per-interval quantiles: a tail that appears after a
// long quiet history shows in the very next point instead of drowning in
// the lifetime distribution.
TEST(MetricsSampler, HistogramQuantilesArePerInterval) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("proteus_lat_us", "latency");
  TimeSeriesStore store;
  MetricsSampler sampler({}, &registry, &store, nullptr);

  for (int i = 0; i < 100000; ++i) h->record(100.0);
  sampler.sample_once(kSecond);
  for (int i = 0; i < 50; ++i) h->record(50000.0);
  sampler.sample_once(2 * kSecond);

  const auto r = store.query("proteus_lat_us_p999", kSecond, kSecond);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->points.size(), 2u);
  EXPECT_NEAR(r->points[0].mean(), 100.0, 1.0);
  // 50 ms within the histogram's bucket error (<= 0.8%); the lifetime
  // p99.9 over all 100 050 values would still read ~100 us.
  EXPECT_GE(r->points[1].mean(), 50000.0 * (1 - 0.008));
}

// --- AnomalyDetector ---------------------------------------------------------

TEST(AnomalyDetector, FlatBaselineThenStormFiresOnceAfterConsecutive) {
  TraceRing ring;
  AnomalyConfig cfg;
  cfg.watch = {"miss_rate"};
  cfg.warmup = 5;
  cfg.consecutive = 3;
  cfg.trace = &ring;
  AnomalyDetector det(cfg);

  SimTime t = 0;
  for (int i = 0; i < 20; ++i, t += kSecond) det.observe(t, "miss_rate", 1.0);
  EXPECT_EQ(det.events(), 0u);
  EXPECT_EQ(det.active(), 0);

  // Storm: 100x the baseline. Fires on the 3rd consecutive anomalous
  // sample, once (min_event_gap rate-limits repeats).
  int fired_at = -1;
  for (int i = 0; i < 6; ++i, t += kSecond) {
    det.observe(t, "miss_rate", 100.0);
    if (fired_at < 0 && det.events() > 0) fired_at = i;
  }
  EXPECT_EQ(det.events(), 1u);
  EXPECT_EQ(fired_at, 2);
  EXPECT_EQ(det.active(), 1);
  EXPECT_GT(det.score("miss_rate"), cfg.threshold);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kAnomaly);
  EXPECT_EQ(events[0].key, "miss_rate");
  EXPECT_EQ(events[0].peer, 1);  // above baseline
  EXPECT_GT(events[0].n, 0u);   // score in milli-units
}

TEST(AnomalyDetector, UnwatchedSeriesAndWarmupAreSilent) {
  AnomalyConfig cfg;
  cfg.watch = {"a"};
  cfg.warmup = 50;
  AnomalyDetector det(cfg);
  SimTime t = 0;
  for (int i = 0; i < 20; ++i, t += kSecond) {
    det.observe(t, "a", i % 2 == 0 ? 0.0 : 1000.0);  // wild but warming up
    det.observe(t, "b", 1e9);                        // not watched
  }
  EXPECT_EQ(det.events(), 0u);
  EXPECT_DOUBLE_EQ(det.score("b"), 0.0);
}

TEST(AnomalyDetector, RecoversAfterStormEnds) {
  AnomalyConfig cfg;
  cfg.watch = {"x"};
  cfg.warmup = 5;
  cfg.consecutive = 2;
  cfg.min_event_gap = kSecond;  // allow a second event quickly
  AnomalyDetector det(cfg);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i, t += kSecond) det.observe(t, "x", 10.0);
  for (int i = 0; i < 4; ++i, t += kSecond) det.observe(t, "x", 500.0);
  EXPECT_EQ(det.active(), 1);
  // Back to normal: the run ends and the series de-asserts.
  for (int i = 0; i < 10; ++i, t += kSecond) det.observe(t, "x", 10.0);
  EXPECT_EQ(det.active(), 0);
}

// --- FlightRecorder ----------------------------------------------------------

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/proteus_flight_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    const std::string cmd = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::vector<std::string> lines;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) return lines;
    char buf[65536];
    while (std::fgets(buf, sizeof(buf), f) != nullptr) {
      std::string l(buf);
      while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) {
        l.pop_back();
      }
      lines.push_back(std::move(l));
    }
    std::fclose(f);
    return lines;
  }

  std::string dir_;
};

TEST_F(FlightRecorderTest, DumpIsWellFormedJsonl) {
  TimeSeriesStore store;
  for (int s = 0; s < 5; ++s) {
    store.append(s * kSecond, "ops_rate", static_cast<double>(s));
  }
  TraceRing ring;
  emit(&ring, 0, TraceEventKind::kAnomaly, -1, 1, 4200, "ops_rate");
  FlightRecorderConfig cfg;
  cfg.dir = dir_;
  FlightRecorder rec(cfg, &store, &ring,
                     [] { return std::string("{\"span\":1}\n"); });
  ASSERT_TRUE(rec.dump(5 * kSecond, "test", "flight.jsonl"));
  EXPECT_EQ(rec.dumps(), 1u);
  EXPECT_GT(rec.last_dump_bytes(), 0u);

  const auto lines = read_lines(dir_ + "/flight.jsonl");
  ASSERT_GE(lines.size(), 4u);
  // Header first, footer last, and the footer's line count matches — the
  // torn-dump detector crash_smoke.sh uses.
  EXPECT_NE(lines.front().find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"reason\":\"test\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"footer\""), std::string::npos);
  const std::string want =
      "\"lines\":" + std::to_string(lines.size() - 1);
  EXPECT_NE(lines.back().find(want), std::string::npos);
  bool saw_point = false;
  bool saw_trace = false;
  bool saw_span = false;
  for (const std::string& l : lines) {
    if (l.find("\"type\":\"point\"") != std::string::npos) saw_point = true;
    if (l.find("\"type\":\"trace\"") != std::string::npos) saw_trace = true;
    if (l.find("\"type\":\"span\"") != std::string::npos) saw_span = true;
    // Every line is one JSON object.
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
  EXPECT_TRUE(saw_point);
  EXPECT_TRUE(saw_trace);
  EXPECT_TRUE(saw_span);
}

TEST_F(FlightRecorderTest, CheckpointCadenceGates) {
  TimeSeriesStore store;
  store.append(0, "x", 1.0);
  FlightRecorderConfig cfg;
  cfg.dir = dir_;
  cfg.checkpoint_interval = 10 * kSecond;
  FlightRecorder rec(cfg, &store);
  rec.maybe_checkpoint(0);
  rec.maybe_checkpoint(kSecond);           // gated
  rec.maybe_checkpoint(5 * kSecond);       // gated
  EXPECT_EQ(rec.dumps(), 1u);
  rec.maybe_checkpoint(11 * kSecond);
  EXPECT_EQ(rec.dumps(), 2u);
}

TEST_F(FlightRecorderTest, DisabledWithoutDirAndFailureCounted) {
  TimeSeriesStore store;
  FlightRecorder off({}, &store);
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.dump(0, "x", "f.jsonl"));
  EXPECT_EQ(off.dumps(), 0u);

  FlightRecorderConfig cfg;
  cfg.dir = dir_ + "/does/not/exist";
  FlightRecorder bad(cfg, &store);
  EXPECT_FALSE(bad.dump(0, "x", "f.jsonl"));
  EXPECT_EQ(bad.dump_failures(), 1u);
}

// A crash must end the process, not hang it: an abort raised inside a
// checkpoint's render (standing in for a failed check or an out-of-memory
// terminate) kills the process with SIGABRT, even with a daemon running a
// flight recorder on the same dump directory. No signal handler writes
// anything on the way down; the last checkpoint is the postmortem. The
// child arms alarm() first, so a handler that blocks fails the test on
// SIGALRM instead of hanging it.
TEST_F(FlightRecorderTest, AbortDuringCheckpointEndsTheProcess) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::alarm(10);
    // Sanitizer runtimes install handlers of their own; the daemon must
    // leave whatever it found in place.
    struct sigaction before[2]{};
    ::sigaction(SIGSEGV, nullptr, &before[0]);
    ::sigaction(SIGABRT, nullptr, &before[1]);
    net::TsdbOptions tsdb;
    tsdb.enabled = true;
    tsdb.dump_dir = dir_;
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 1 << 20;
    net::MemcacheDaemon daemon(cfg, /*port=*/0, [] { return SimTime{0}; },
                               /*threads=*/1, {}, {}, {}, tsdb);
    if (!daemon.ok()) ::_exit(3);
    daemon.sampler()->stop();
    struct sigaction after[2]{};
    ::sigaction(SIGSEGV, nullptr, &after[0]);
    ::sigaction(SIGABRT, nullptr, &after[1]);
    for (int i = 0; i < 2; ++i) {
      if (after[i].sa_handler != before[i].sa_handler) ::_exit(2);
    }
    TimeSeriesStore store;
    store.append(0, "x", 1.0);
    FlightRecorderConfig fc;
    fc.dir = dir_;
    FlightRecorder rec(fc, &store, nullptr, []() -> std::string {
      std::abort();
    });
    rec.maybe_checkpoint(0);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_FALSE(WIFEXITED(status))
      << "exit " << WEXITSTATUS(status)
      << " (2: the daemon installed a SIGSEGV or SIGABRT handler)";
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);
}

// --- end-to-end drill on the daemon ------------------------------------------

// An induced miss storm must raise kAnomaly BEFORE the SLO engine pages
// (the anomaly detector reacts in `consecutive` samples; burn-rate SLOs
// need a fast window of bad minutes), and the /timeseries backing JSON
// must replay the episode afterwards.
TEST(DaemonDrill, MissStormRaisesAnomalyBeforeSloPages) {
  SimTime now = 0;
  const net::ClockFn clock = [&now] { return now; };

  net::AuditOptions audit;
  audit.enabled = true;
  audit.slo.hit_ratio_target = 0.9;
  audit.slo.windows.fast_window = 60 * kSecond;
  audit.slo.windows.slow_window = 600 * kSecond;

  net::TsdbOptions tsdb;
  tsdb.enabled = true;
  tsdb.anomaly.watch = {"proteus_cache_get_misses_rate"};
  tsdb.anomaly.warmup = 5;
  tsdb.anomaly.consecutive = 3;

  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  net::MemcacheDaemon daemon(cfg, /*port=*/0, clock, /*threads=*/1, {}, {},
                             audit, tsdb);
  ASSERT_TRUE(daemon.ok());
  ASSERT_NE(daemon.tsdb(), nullptr);
  ASSERT_NE(daemon.sampler(), nullptr);
  // Deterministic drill: drive the sampler by hand on the fake clock.
  daemon.sampler()->stop();

  daemon.cache().set("hot", "v", now);
  // Healthy phase: all hits, one sample per simulated second.
  for (int s = 0; s < 15; ++s) {
    now += kSecond;
    for (int i = 0; i < 50; ++i) daemon.cache().get("hot", now);
    daemon.sampler()->sample_once(now);
  }
  ASSERT_NE(daemon.anomaly_detector(), nullptr);
  EXPECT_EQ(daemon.anomaly_detector()->events(), 0u);

  // Miss storm. Track WHEN the anomaly fires and what /health said then.
  int anomaly_after = -1;
  for (int s = 0; s < 10; ++s) {
    now += kSecond;
    for (int i = 0; i < 50; ++i) daemon.cache().get("cold", now);
    daemon.sampler()->sample_once(now);
    if (anomaly_after < 0 && daemon.anomaly_detector()->events() > 0) {
      anomaly_after = s + 1;
      // The drill's point: the anomaly pre-warns while the SLO burn-rate
      // engine (60 s fast window) has not paged yet.
      EXPECT_EQ(daemon.health().first, 200);
    }
  }
  ASSERT_GT(anomaly_after, 0);
  EXPECT_LE(anomaly_after, 5);

  // The kAnomaly event is on the trace ring with the series name.
  bool saw = false;
  for (const TraceEvent& e : daemon.trace().snapshot()) {
    if (e.kind == TraceEventKind::kAnomaly) {
      saw = true;
      EXPECT_EQ(e.key, "proteus_cache_get_misses_rate");
      EXPECT_EQ(e.peer, 1);
    }
  }
  EXPECT_TRUE(saw);

  // /timeseries replays the episode: the miss-rate series holds both the
  // quiet phase (rate 0) and the storm (rate 50/s).
  const std::string body =
      daemon.timeseries_json("proteus_cache_get_misses_rate", 0, kSecond);
  ASSERT_FALSE(body.empty());
  EXPECT_NE(body.find("\"metric\":\"proteus_cache_get_misses_rate\""),
            std::string::npos);
  const auto r = daemon.tsdb()->query("proteus_cache_get_misses_rate", 0,
                                      kSecond);
  ASSERT_TRUE(r.has_value());
  double peak = 0;
  double low = 1e300;
  for (const TsPoint& p : r->points) {
    peak = std::max(peak, p.mean());
    low = std::min(low, p.mean());
  }
  EXPECT_NEAR(peak, 50.0, 1.0);
  EXPECT_NEAR(low, 0.0, 1e-9);

  // The anomaly counters ride the ordinary registry surfaces.
  const std::string metrics = daemon.metrics_text();
  EXPECT_NE(metrics.find("proteus_anomaly_events_total"), std::string::npos);
  EXPECT_NE(metrics.find("proteus_tsdb_series"), std::string::npos);
  // index + unknown-metric 404 semantics through the daemon facade.
  EXPECT_FALSE(daemon.timeseries_json({}, 0, 0).empty());
  EXPECT_TRUE(daemon.timeseries_json("no_such_series", 0, 0).empty());
}

// /health and /timeseries read the same points: after a miss storm, the
// hit-ratio burn_fast in the /health body is exactly the burn recomputed
// from the store's get/hit rate series over the fast window.
TEST(DaemonDrill, HealthBurnMatchesTimeseries) {
  SimTime now = 0;
  net::AuditOptions audit;
  audit.enabled = true;
  audit.slo.hit_ratio_target = 0.9;
  net::TsdbOptions tsdb;
  tsdb.enabled = true;
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  net::MemcacheDaemon daemon(cfg, /*port=*/0, [&now] { return now; },
                             /*threads=*/1, {}, {}, audit, tsdb);
  ASSERT_TRUE(daemon.ok());
  daemon.sampler()->stop();

  daemon.cache().set("hot", "v", now);
  for (int s = 0; s < 20; ++s) {
    now += kSecond;
    const char* key = s < 15 ? "hot" : "cold";  // the last 5 s all miss
    for (int i = 0; i < 50; ++i) daemon.cache().get(key, now);
    daemon.sampler()->sample_once(now);
  }

  const std::string body = daemon.health().second;
  const std::size_t at = body.find("\"burn_fast\":");
  ASSERT_NE(at, std::string::npos) << body;
  const double reported = std::strtod(body.c_str() + at + 12, nullptr);

  const SimTime since = now - audit.slo.windows.fast_window;
  const auto window_sum = [&](const char* series) {
    const auto r = daemon.tsdb()->query(series, since, 0);
    double sum = 0;
    for (const TsPoint& p : r->points) sum += p.sum;
    return sum;
  };
  const double gets = window_sum("proteus_cache_cmd_get_rate");
  const double hits = window_sum("proteus_cache_get_hits_rate");
  ASSERT_GT(gets, 0.0);
  const double recomputed =
      (1.0 - hits / gets) / (1.0 - audit.slo.hit_ratio_target);
  EXPECT_GT(recomputed, 0.0);
  // /health prints 6 significant digits.
  EXPECT_NEAR(reported, recomputed, recomputed * 1e-5);
}

// The ?name= prefix filter on the registry snapshot (the /metrics?name=P
// backing): matching families only, unmatched prefix -> empty set.
TEST(MetricsPrefix, SnapshotPrefixFilters) {
  MetricsRegistry registry;
  registry.counter("proteus_cache_gets_total", "g");
  registry.counter("proteus_net_accepts_total", "a");
  const auto cache_only = registry.snapshot_prefix("proteus_cache_");
  ASSERT_EQ(cache_only.size(), 1u);
  EXPECT_EQ(cache_only[0].name, "proteus_cache_gets_total");
  EXPECT_TRUE(registry.snapshot_prefix("nope_").empty());
  EXPECT_EQ(registry.snapshot_prefix("").size(), 2u);
}

}  // namespace
}  // namespace proteus::obs
