// The observability layer: registry concurrency, trace-ring ordering and
// overflow, exposition formats, and the end-to-end transition timeline
// emitted by the in-process Proteus facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/proteus.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace proteus::obs {
namespace {

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistry, RegistrationIsIdempotentPerName) {
  MetricsRegistry registry;
  Counter* a = registry.counter("x_total", "help");
  Counter* b = registry.counter("x_total", "different help ignored");
  EXPECT_EQ(a, b);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistry, SnapshotMaterializesEveryKind) {
  MetricsRegistry registry;
  registry.counter("c_total")->inc(5);
  registry.gauge("g")->set(2.5);
  registry.histogram("h_us")->record(1000.0);
  registry.counter_fn("cf_total", "callback", [] { return 42.0; });
  registry.gauge_fn("gf", "callback", [] { return -1.0; });
  registry.histogram_fn("hf_us", "callback", [] {
    LatencyHistogram h;
    h.record(200.0);
    return h;
  });

  const std::vector<MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 6u);
  std::map<std::string, const MetricSample*> by_name;
  for (const MetricSample& s : samples) by_name[s.name] = &s;
  EXPECT_EQ(by_name.at("c_total")->value, 5.0);
  EXPECT_EQ(by_name.at("g")->value, 2.5);
  EXPECT_EQ(by_name.at("h_us")->hist.count(), 1u);
  EXPECT_EQ(by_name.at("cf_total")->value, 42.0);
  EXPECT_EQ(by_name.at("gf")->value, -1.0);
  EXPECT_EQ(by_name.at("hf_us")->hist.count(), 1u);
}

TEST(MetricsRegistry, ConcurrentWritersAndSnapshots) {
  // The hot path (inc / set / record) raced against snapshot() from every
  // thread: exact counts must survive, and TSan must stay quiet.
  MetricsRegistry registry;
  Counter* hits = registry.counter("hits_total");
  Gauge* level = registry.gauge("level");
  Histogram* lat = registry.histogram("lat_us");

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        hits->inc();
        level->add(1.0);
        lat->record(64.0 + static_cast<double>(i % 1000));
        if (i % 1000 == t) {
          const auto samples = registry.snapshot();
          EXPECT_EQ(samples.size(), 3u);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(hits->value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(level->value(), static_cast<double>(kThreads) * kOpsPerThread);
  EXPECT_EQ(lat->snapshot().count(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(MetricsRegistry, ConcurrentRegistrationIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 100; ++i) {
        registry.counter("shared_" + std::to_string(i))->inc();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(registry.size(), 100u);
  for (const MetricSample& s : registry.snapshot()) {
    EXPECT_EQ(s.value, static_cast<double>(kThreads)) << s.name;
  }
}

// --- exposition formats ------------------------------------------------------

TEST(Exposition, PrometheusTextFormat) {
  MetricsRegistry registry;
  registry.counter("req_total", "requests")->inc(7);
  registry.gauge("ratio", "a ratio")->set(0.5);
  Histogram* h = registry.histogram("lat_us", "latency");
  for (int i = 0; i < 100; ++i) h->record(1000.0);

  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# HELP req_total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ratio gauge\n"), std::string::npos);
  EXPECT_NE(text.find("ratio 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us summary\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us{quantile=\"0.99\"} "), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 100\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum "), std::string::npos);
  // Counters render integral (no scientific notation / decimal point).
  registry.counter("big_total")->inc(123456789);
  EXPECT_NE(render_prometheus(registry.snapshot()).find("big_total 123456789\n"),
            std::string::npos);
}

TEST(Exposition, StatsTextFormat) {
  MetricsRegistry registry;
  registry.counter("req_total")->inc(7);
  Histogram* h = registry.histogram("lat_us");
  for (int i = 0; i < 100; ++i) h->record(1000.0);

  const std::string text = render_stats_text(registry.snapshot());
  EXPECT_NE(text.find("STAT req_total 7\r\n"), std::string::npos);
  EXPECT_NE(text.find("STAT lat_us_count 100\r\n"), std::string::npos);
  EXPECT_NE(text.find("STAT lat_us_p99 "), std::string::npos);
  EXPECT_NE(text.find("STAT lat_us_mean "), std::string::npos);
  EXPECT_NE(text.find("STAT lat_us_max "), std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 5), "END\r\n");
}

// --- TraceRing ---------------------------------------------------------------

TEST(TraceRing, AssignsStrictlyIncreasingSequence) {
  TraceRing ring(16);
  emit(&ring, 10, TraceEventKind::kResizeBegin, 3, 2);
  emit(&ring, 20, TraceEventKind::kPowerOn, 2);
  emit(&ring, 30, TraceEventKind::kResizeEnd, 2);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
  }
  EXPECT_EQ(events[0].kind, TraceEventKind::kResizeBegin);
  EXPECT_EQ(events[2].kind, TraceEventKind::kResizeEnd);
}

TEST(TraceRing, OverflowDropsOldestKeepsOrder) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    emit(&ring, i, TraceEventKind::kTtlExpiry, i % 3);
  }
  EXPECT_EQ(ring.total_emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The four NEWEST events, still in emission order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(TraceRing, NullSinkAndClear) {
  emit(nullptr, 0, TraceEventKind::kPowerOn, 1);  // must be a safe no-op
  TraceRing ring(8);
  emit(&ring, 0, TraceEventKind::kPowerOn, 1);
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  // Sequence numbering continues after clear (seq identifies an emission,
  // not a slot).
  emit(&ring, 0, TraceEventKind::kPowerOff, 1);
  EXPECT_EQ(ring.snapshot().front().seq, 1u);
}

TEST(TraceRing, ConcurrentEmittersGetUniqueSeq) {
  TraceRing ring(1 << 14);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        emit(&ring, i, TraceEventKind::kMigrationHit, t, -1, 1, "k");
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);  // dense, unique, ordered
  }
}

TEST(TraceRing, JsonlRendering) {
  TraceRing ring(8);
  emit(&ring, 1234, TraceEventKind::kMigrationHit, 2, 0, 14, "page:7");
  emit(&ring, 5678, TraceEventKind::kPowerOff, 2, -1, 100);
  const std::string jsonl = ring.jsonl();
  EXPECT_NE(jsonl.find("\"event\":\"migration_hit\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"server\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"peer\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"key\":\"page:7\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"event\":\"power_off\""), std::string::npos);
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(TraceRing, JsonEscapesAndTruncatesKeys) {
  TraceRing ring(8);
  emit(&ring, 0, TraceEventKind::kTtlExpiry, 0, -1, 1,
       std::string("a\"b\\c\n") + std::string(100, 'x'));
  const std::string json = to_json(ring.snapshot().front());
  EXPECT_NE(json.find("a\\\"b\\\\c\\n"), std::string::npos);
  // Key was truncated to 64 bytes at emit time.
  EXPECT_EQ(ring.snapshot().front().key.size(), 64u);
}

// --- the in-process transition timeline --------------------------------------

class TimelineTest : public ::testing::Test {
 protected:
  static ProteusOptions options(TraceSink* sink) {
    ProteusOptions opt;
    opt.max_servers = 3;
    opt.ttl = 10 * kSecond;
    opt.per_server.memory_budget_bytes = 4 << 20;
    opt.per_server.item_ttl = 30 * kSecond;
    opt.trace = sink;
    return opt;
  }
};

TEST_F(TimelineTest, ShrinkEmitsFullLifecycleInOrder) {
  TraceRing ring(1 << 14);
  Proteus cluster(options(&ring), [](std::string_view key) {
    return "v-" + std::string(key);
  });

  SimTime now = 0;
  for (int i = 0; i < 200; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  ring.clear();  // keep only the transition itself

  cluster.resize(2, now);
  for (int i = 0; i < 200; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  cluster.tick(now + 20 * kSecond);  // past the drain window

  const std::vector<TraceEvent> events = ring.snapshot();
  std::map<TraceEventKind, std::uint64_t> counts;
  std::map<TraceEventKind, std::uint64_t> first_seq, last_seq;
  for (const TraceEvent& e : events) {
    if (counts[e.kind]++ == 0) first_seq[e.kind] = e.seq;
    last_seq[e.kind] = e.seq;
  }

  EXPECT_EQ(counts[TraceEventKind::kResizeBegin], 1u);
  EXPECT_EQ(counts[TraceEventKind::kDigestSnapshot], 3u);  // per old server
  EXPECT_EQ(counts[TraceEventKind::kDrainBegin], 1u);      // server 2
  EXPECT_GT(counts[TraceEventKind::kMigrationHit], 0u);
  EXPECT_EQ(counts[TraceEventKind::kPowerOff], 1u);
  EXPECT_EQ(counts[TraceEventKind::kResizeEnd], 1u);

  // Lifecycle ordering by sequence number: begin -> digests -> drain ->
  // migrations -> power_off -> end.
  EXPECT_LT(first_seq[TraceEventKind::kResizeBegin],
            first_seq[TraceEventKind::kDigestSnapshot]);
  EXPECT_LT(last_seq[TraceEventKind::kDigestSnapshot],
            first_seq[TraceEventKind::kDrainBegin]);
  EXPECT_LT(first_seq[TraceEventKind::kDrainBegin],
            first_seq[TraceEventKind::kMigrationHit]);
  EXPECT_LT(last_seq[TraceEventKind::kMigrationHit],
            first_seq[TraceEventKind::kPowerOff]);
  EXPECT_LT(first_seq[TraceEventKind::kPowerOff],
            first_seq[TraceEventKind::kResizeEnd]);

  // Event payloads: resize_begin carries (old, new) counts; drain/power_off
  // name the leaving server.
  const TraceEvent& begin = events.front();
  EXPECT_EQ(begin.kind, TraceEventKind::kResizeBegin);
  EXPECT_EQ(begin.server, 3);
  EXPECT_EQ(begin.peer, 2);
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kDrainBegin ||
        e.kind == TraceEventKind::kPowerOff) {
      EXPECT_EQ(e.server, 2);
    }
    if (e.kind == TraceEventKind::kMigrationHit) {
      EXPECT_EQ(e.server, 2);  // source: the draining server
      EXPECT_GE(e.peer, 0);
      EXPECT_FALSE(e.key.empty());
    }
  }
}

TEST_F(TimelineTest, GrowEmitsPowerOnAndExpiryEmitsTtl) {
  TraceRing ring(1 << 14);
  ProteusOptions opt = options(&ring);
  opt.initial_servers = 2;
  Proteus cluster(opt, [](std::string_view key) {
    return "v-" + std::string(key);
  });

  SimTime now = 0;
  for (int i = 0; i < 50; ++i) cluster.get("k:" + std::to_string(i), now);
  ring.clear();

  cluster.resize(3, now);
  std::uint64_t power_on = 0;
  for (const TraceEvent& e : ring.snapshot()) {
    if (e.kind == TraceEventKind::kPowerOn) {
      ++power_on;
      EXPECT_EQ(e.server, 2);
    }
    EXPECT_NE(e.kind, TraceEventKind::kDrainBegin);
  }
  EXPECT_EQ(power_on, 1u);

  // TTL expiry: store fresh keys once the transition has finalized (so the
  // mapping is stable), then touch them past item_ttl — one lazy-expiry
  // trace per key, tagged with the server that held it.
  now = 15 * kSecond;
  cluster.tick(now);  // past the 10 s drain window
  ASSERT_FALSE(cluster.in_transition());
  for (int i = 0; i < 50; ++i) {
    cluster.put("e:" + std::to_string(i), "x", now);
  }
  now = 60 * kSecond;  // 45 s idle > 30 s item_ttl
  for (int i = 0; i < 50; ++i) cluster.get("e:" + std::to_string(i), now);
  std::uint64_t expiries = 0;
  for (const TraceEvent& e : ring.snapshot()) {
    if (e.kind == TraceEventKind::kTtlExpiry) {
      ++expiries;
      EXPECT_GE(e.server, 0);  // tagged with the emitting server
      EXPECT_EQ(e.n, 1u);
    }
  }
  EXPECT_EQ(expiries, 50u);
}

TEST_F(TimelineTest, OverlappingResizeEndsEachTransitionOnceAtItsTime) {
  TraceRing ring(1 << 14);
  Proteus cluster(options(&ring), [](std::string_view key) {
    return "v-" + std::string(key);
  });
  for (int i = 0; i < 50; ++i) cluster.get("k:" + std::to_string(i), 0);
  ring.clear();

  cluster.resize(2, kSecond);      // drain window would end at 11 s
  cluster.resize(1, 2 * kSecond);  // overtakes it: the first ends at 2 s
  cluster.tick(20 * kSecond);      // the second ends at its 12 s deadline

  std::vector<TraceEvent> begins, ends, power_offs;
  SimTime last = 0;
  for (const TraceEvent& e : ring.snapshot()) {
    EXPECT_GE(e.t, last) << "trace time ran backwards at seq " << e.seq;
    last = e.t;
    if (e.kind == TraceEventKind::kResizeBegin) begins.push_back(e);
    if (e.kind == TraceEventKind::kResizeEnd) ends.push_back(e);
    if (e.kind == TraceEventKind::kPowerOff) power_offs.push_back(e);
  }
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0].t, 2 * kSecond);
  EXPECT_EQ(ends[0].server, 2);
  EXPECT_LT(ends[0].seq, begins[1].seq);
  EXPECT_EQ(ends[1].t, 12 * kSecond);
  EXPECT_EQ(ends[1].server, 1);
  ASSERT_EQ(power_offs.size(), 2u);
  EXPECT_EQ(power_offs[0].server, 2);
  EXPECT_EQ(power_offs[0].t, 2 * kSecond);
  EXPECT_EQ(power_offs[1].server, 1);
  EXPECT_EQ(power_offs[1].t, 12 * kSecond);
}

TEST_F(TimelineTest, DigestFalseNegativesAreDetectedAndTraced) {
  // Force genuine §IV-B false negatives with the paper's wrapping counters
  // (Eq. 5 / Fig. 8): two keys sharing a 1-bit counter wrap it to zero, so
  // the digest reports both cold while they are resident.
  TraceRing ring(1 << 14);
  ProteusOptions opt;
  opt.max_servers = 2;
  opt.ttl = 100 * kSecond;
  opt.trace = &ring;
  opt.per_server.memory_budget_bytes = 16 << 20;
  opt.per_server.digest.num_counters = 128;
  opt.per_server.digest.counter_bits = 1;
  opt.per_server.digest.num_hashes = 1;
  opt.per_server.digest_policy = bloom::OverflowPolicy::kWrap;
  Proteus cluster(opt, [](std::string_view key) {
    return "v-" + std::string(key);
  });

  SimTime now = 0;
  for (int i = 0; i < 400; ++i) {
    cluster.put("k:" + std::to_string(i), "x", now);
  }

  cluster.resize(1, now);
  for (int i = 0; i < 400; ++i) {
    cluster.get("k:" + std::to_string(i), now);
  }

  EXPECT_GT(cluster.stats().digest_false_negatives, 0u);
  std::uint64_t traced = 0;
  for (const TraceEvent& e : ring.snapshot()) {
    if (e.kind == TraceEventKind::kDigestFalseNegative) {
      ++traced;
      EXPECT_EQ(e.server, 1);  // the old-mapping server holding the key
      EXPECT_EQ(e.peer, 0);    // the new primary that missed
      EXPECT_FALSE(e.key.empty());
    }
  }
  EXPECT_EQ(traced, cluster.stats().digest_false_negatives);
}

TEST_F(TimelineTest, FacadeMetricsFlowThroughRegistry) {
  Proteus cluster(options(nullptr), [](std::string_view key) {
    return "v-" + std::string(key);
  });
  MetricsRegistry registry;
  cluster.register_metrics(registry);

  SimTime now = 0;
  for (int i = 0; i < 100; ++i) cluster.get("k:" + std::to_string(i), now);
  cluster.resize(2, now);

  std::map<std::string, double> values;
  for (const MetricSample& s : registry.snapshot()) values[s.name] = s.value;
  EXPECT_EQ(values.at("proteus_gets_total"), 100.0);
  EXPECT_EQ(values.at("proteus_backend_fetches_total"), 100.0);
  EXPECT_EQ(values.at("proteus_resizes_total"), 1.0);
  EXPECT_EQ(values.at("proteus_active_servers"), 2.0);
  EXPECT_EQ(values.at("proteus_powered_servers"), 3.0);  // server 2 drains
  EXPECT_EQ(values.at("proteus_in_transition"), 1.0);
  // Per-server load gauges exist for the K/n balance check.
  EXPECT_EQ(values.at("proteus_server_0_gets_total") +
                values.at("proteus_server_1_gets_total") +
                values.at("proteus_server_2_gets_total"),
            100.0);
  EXPECT_EQ(values.at("proteus_server_2_power_state"), 1.0);  // draining
}

}  // namespace
}  // namespace proteus::obs
