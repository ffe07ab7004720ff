// The live power-proportionality auditor and SLO burn-rate engine:
// energy accounting against hand-computed schedules, PPI on an ideally
// proportional fleet, model-drift detection (Theorem 1 share, Eq. 5
// false-negative bound) with kModelDrift trace events, burn-rate state
// transitions over a time-series store, the daemon's /health answer
// flipping 503 and recovering under hand-driven sampler ticks, the sampler
// tick as the audit feed, exemplar survival across merges, and
// thread-safety of the tick/read paths (run under TSan via
// scripts/check.sh thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bloom/config.h"
#include "client/memcache_client.h"
#include "core/proteus.h"
#include "net/memcache_daemon.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::obs {
namespace {

// --- energy accounting -------------------------------------------------------

TEST(EnergyAccount, MatchesHandComputedSchedule) {
  AuditConfig cfg;
  cfg.peak_ops_per_server = 1000.0;  // 1000 gets/s saturates a server
  cfg.window = kHour;                // keep window rolls out of this test
  PowerAuditor auditor(cfg);

  // t=0: server 0 active, server 1 powered off. First observe only primes.
  std::vector<ServerAuditSample> fleet(2);
  fleet[0] = {/*power_state=*/0, /*gets=*/0, /*hits=*/0};
  fleet[1] = {/*power_state=*/2, /*gets=*/0, /*hits=*/0};
  auditor.observe(0, fleet);

  // 10 s later server 0 has served 5000 gets: 500 ops/s = 50% utilization.
  // Default profile: 55 + (110-55)*0.5 = 82.5 W; the off server draws 5 W.
  fleet[0].gets_total = 5000;
  fleet[0].hits_total = 4000;
  auditor.observe(10 * kSecond, fleet);

  const AuditSnapshot s = auditor.snapshot();
  EXPECT_NEAR(s.server_joules[0], 82.5 * 10, 1e-6);
  EXPECT_NEAR(s.server_joules[1], 5.0 * 10, 1e-6);
  EXPECT_NEAR(s.fleet_joules, 875.0, 1e-6);
  EXPECT_NEAR(s.fleet_watts, 87.5, 1e-6);
  // Ideal load-proportional fleet: 500 ops/s over 2x1000 capacity = 0.25
  // load fraction, 0.25 * 2 * 110 W = 55 W for 10 s = 550 J.
  EXPECT_NEAR(s.load_fraction, 0.25, 1e-9);
  EXPECT_NEAR(s.ideal_joules, 550.0, 1e-6);
  EXPECT_NEAR(s.ppi, 875.0 / 550.0, 1e-9);

  // A second interval accumulates on top: 10 more seconds fully idle
  // (no new gets) adds 55 + 5 = 60 W x 10 s actual, 0 ideal.
  auditor.observe(20 * kSecond, fleet);
  const AuditSnapshot s2 = auditor.snapshot();
  EXPECT_NEAR(s2.fleet_joules, 875.0 + 600.0, 1e-6);
  EXPECT_NEAR(s2.ideal_joules, 550.0, 1e-6);
}

TEST(EnergyAccount, ProportionalFleetHoldsPpiAtOne) {
  // A hypothetical perfectly proportional server (no standby or idle draw:
  // watts = utilization x peak) makes actual == ideal by construction, so
  // PPI must sit at exactly 1.0 — the Fig. 10 "power-proportional" floor.
  AuditConfig cfg;
  cfg.power.off_watts = 0;
  cfg.power.idle_watts = 0;
  cfg.power.peak_watts = 100;
  cfg.peak_ops_per_server = 1000.0;
  cfg.window = 10 * kSecond;
  PowerAuditor auditor(cfg);

  std::vector<ServerAuditSample> fleet(3);
  auditor.observe(0, fleet);
  for (int step = 1; step <= 6; ++step) {
    // Evenly balanced load, 300 ops/s per server.
    for (auto& s : fleet) {
      s.gets_total += 300.0 * 5;
      s.hits_total += 250.0 * 5;
    }
    auditor.observe(step * 5 * kSecond, fleet);
  }
  const AuditSnapshot s = auditor.snapshot();
  EXPECT_GT(s.fleet_joules, 0.0);
  EXPECT_NEAR(s.ppi, 1.0, 1e-9);
  EXPECT_GT(s.windows, 0u);
  EXPECT_NEAR(s.window_ppi, 1.0, 1e-9);
  // Balanced shares: no drift events, share drift within tolerance.
  EXPECT_EQ(s.drift_events, 0u);
  EXPECT_NEAR(s.share_drift, 0.0, 1e-9);
}

TEST(EnergyAccount, AgreesWithSimulatorMeterOnSameSchedule) {
  // The acceptance cross-check: the live account and the simulator's
  // Fig. 10 instrument (cluster::EnergyMeter, 15 s PDU-style samples) must
  // agree on the same provisioning schedule — the live PPI within 5% of
  // the simulator's actual/ideal energy ratio. Both consume the same §V-A
  // analytic model, so on piecewise-constant load they in fact agree to
  // float precision; the 5% bound is the documented contract.
  const cluster::ServerPowerProfile profile;  // 5 / 55 / 110 W defaults
  constexpr double kPeakOps = 1000.0;
  constexpr SimTime kStep = 15 * kSecond;
  constexpr int kServers = 3;

  AuditConfig cfg;
  cfg.power = profile;
  cfg.peak_ops_per_server = kPeakOps;
  cfg.window = kHour;
  PowerAuditor auditor(cfg);
  cluster::EnergyMeter meter(kStep);

  // A diurnal day in miniature, one entry per 15 s step: full fleet at the
  // peak, shrink through the valley, grow back — the Fig. 10 shape.
  struct Step {
    int powered;
    double util;  // per powered server
  };
  std::vector<Step> schedule;
  for (int i = 0; i < 40; ++i) schedule.push_back({3, 0.9});
  for (int i = 0; i < 40; ++i) schedule.push_back({2, 0.7});
  for (int i = 0; i < 60; ++i) schedule.push_back({1, 0.6});
  for (int i = 0; i < 40; ++i) schedule.push_back({2, 0.8});
  for (int i = 0; i < 60; ++i) schedule.push_back({3, 1.0});

  std::vector<ServerAuditSample> fleet(kServers);
  SimTime now = kSecond;
  auditor.observe(now, fleet);  // prime the counter baseline

  double ideal_sim = 0;  // the ideal load-proportional fleet, sim-side
  for (const Step& step : schedule) {
    double watts = 0;
    for (int i = 0; i < kServers; ++i) {
      watts += profile.watts(i < step.powered, step.util);
    }
    meter.record_sample(now, watts);
    ideal_sim +=
        step.powered * step.util * profile.peak_watts * to_seconds(kStep);

    // The live side sees the identical step as counter deltas.
    now += kStep;
    for (int i = 0; i < kServers; ++i) {
      fleet[i].power_state = i < step.powered ? 0 : 2;
      if (i < step.powered) {
        fleet[i].gets_total += step.util * kPeakOps * to_seconds(kStep);
        fleet[i].hits_total = fleet[i].gets_total;
      }
    }
    auditor.observe(now, fleet);
  }

  const AuditSnapshot live = auditor.snapshot();
  const double sim_joules = meter.total_energy_joules();
  const double sim_ratio = sim_joules / ideal_sim;
  ASSERT_GT(sim_joules, 0.0);
  ASSERT_GT(live.ideal_joules, 0.0);
  EXPECT_NEAR(live.fleet_joules / sim_joules, 1.0, 0.05);
  EXPECT_NEAR(live.ppi / sim_ratio, 1.0, 0.05);
  // And tighter than the contract: same model, same schedule, same sums.
  EXPECT_NEAR(live.fleet_joules / sim_joules, 1.0, 1e-9);
  EXPECT_NEAR(live.ppi / sim_ratio, 1.0, 1e-9);
  // A real (non-proportional) fleet burns more than the ideal one.
  EXPECT_GT(live.ppi, 1.0);
}

// --- model drift -------------------------------------------------------------

TEST(ModelDrift, ShareImbalanceBeyondToleranceEmitsTraceEvent) {
  TraceRing ring(64);
  AuditConfig cfg;
  cfg.peak_ops_per_server = 10000.0;
  cfg.window = 10 * kSecond;
  cfg.share_tolerance = 0.25;
  cfg.trace = &ring;
  PowerAuditor auditor(cfg);

  // Two active servers, 90/10 split: worst share drift is
  // 0.9 x 2 - 1 = +0.8, far past the 0.25 tolerance.
  std::vector<ServerAuditSample> fleet(2);
  auditor.observe(0, fleet);
  fleet[0].gets_total = 900;
  fleet[1].gets_total = 100;
  auditor.observe(5 * kSecond, fleet);
  fleet[0].gets_total = 1800;
  fleet[1].gets_total = 200;
  auditor.observe(11 * kSecond, fleet);  // rolls the 10 s window

  const AuditSnapshot s = auditor.snapshot();
  EXPECT_EQ(s.windows, 1u);
  EXPECT_NEAR(s.share_drift, 0.8, 1e-9);
  EXPECT_GE(s.drift_events, 1u);

  bool traced = false;
  for (const TraceEvent& e : ring.snapshot()) {
    if (e.kind != TraceEventKind::kModelDrift) continue;
    traced = true;
    EXPECT_EQ(e.key, "share");
    EXPECT_EQ(e.peer, 1);  // over, not under
    // n carries |drift| in ppm.
    EXPECT_NEAR(static_cast<double>(e.n) / 1e6, 0.8, 1e-3);
  }
  EXPECT_TRUE(traced);
}

TEST(ModelDrift, FalseNegativeDriftSignAndMagnitude) {
  AuditConfig cfg;
  cfg.window = 10 * kSecond;
  cfg.fn_bound = 0.01;  // analytic Eq. 5 bound the fleet claims to meet
  PowerAuditor auditor(cfg);

  std::vector<ServerAuditSample> fleet(1);
  auditor.observe(0, fleet, /*fn_total=*/0, /*fn_opportunities=*/0);
  fleet[0].gets_total = 1000;
  // 50 observed false negatives over 100 digest-checked lookups: a 0.5
  // observed rate against the 0.01 bound -> drift +0.49, bound VIOLATED.
  auditor.observe(11 * kSecond, fleet, /*fn_total=*/50,
                  /*fn_opportunities=*/100);
  const AuditSnapshot s = auditor.snapshot();
  EXPECT_NEAR(s.fn_drift, 0.5 - 0.01, 1e-9);
  EXPECT_GE(s.drift_events, 1u);
}

TEST(ModelDrift, WrappingDigestViolatesEq5BoundThroughFacade) {
  // End to end through the Proteus facade: the paper's wrapping 1-bit
  // counters (Eq. 5 / Fig. 8) produce genuine false negatives during a
  // shrink; the auditor fed by tick() must see the observed FN rate exceed
  // a tight analytic bound and flag positive drift.
  TraceRing ring(1 << 12);
  AuditConfig acfg;
  acfg.window = 5 * kSecond;
  acfg.fn_bound = 1e-9;  // a bound this digest geometry cannot hold
  acfg.hit_ratio_tolerance = 10.0;  // quiet the other gauges for this test
  acfg.share_tolerance = 10.0;
  acfg.trace = &ring;
  PowerAuditor auditor(acfg);

  ProteusOptions opt;
  opt.max_servers = 2;
  opt.ttl = 100 * kSecond;
  opt.per_server.memory_budget_bytes = 16 << 20;
  opt.per_server.digest.num_counters = 128;
  opt.per_server.digest.counter_bits = 1;
  opt.per_server.digest.num_hashes = 1;
  opt.per_server.digest_policy = bloom::OverflowPolicy::kWrap;
  opt.auditor = &auditor;
  Proteus cluster(opt, [](std::string_view key) {
    return "v-" + std::string(key);
  });

  SimTime now = kSecond;
  cluster.tick(now);  // primes the auditor baseline
  for (int i = 0; i < 400; ++i) {
    cluster.put("k:" + std::to_string(i), "x", now);
  }
  cluster.resize(1, now);
  for (int i = 0; i < 400; ++i) {
    cluster.get("k:" + std::to_string(i), now);
  }
  ASSERT_GT(cluster.stats().digest_false_negatives, 0u);

  now += 2 * kSecond;
  cluster.tick(now);  // feeds counters
  now += acfg.window + kSecond;
  cluster.tick(now);  // rolls the window

  const AuditSnapshot s = auditor.snapshot();
  EXPECT_GT(s.fn_drift, 0.0);  // positive = bound violated
  bool traced = false;
  for (const TraceEvent& e : ring.snapshot()) {
    if (e.kind == TraceEventKind::kModelDrift && e.key == "fn_bound") {
      traced = true;
      EXPECT_EQ(e.peer, 1);
    }
  }
  EXPECT_TRUE(traced);
}

// --- SLO burn rates ----------------------------------------------------------

// The store series the SLO engine reads and writes in these tests.
SloSeries test_series() {
  return {"gets_rate", "hits_rate", "p999_us",
          "watts",     "p999_bad",  "power_bad"};
}

// One sampler tick's SLO inputs appended at `now`, then the engine's
// per-tick breach judgement — what the daemon's sampler tick does.
// p999_us <= 0 appends no latency sample (an idle interval).
void feed(TimeSeriesStore& store, SloEngine& engine, SimTime now,
          double gets, double hits, double p999_us, double watts) {
  const SloSeries& s = engine.series();
  store.append(now, s.gets, gets);
  store.append(now, s.hits, hits);
  if (p999_us > 0) store.append(now, s.p999_us, p999_us);
  store.append(now, s.watts, watts);
  engine.tick(now);
}

TEST(BurnRate, TrackerStateTransitions) {
  SloConfig cfg;  // fast 60 s, slow 10 min, warn 2x, page 10x
  cfg.hit_ratio_target = 0.9;
  const SloWindows& w = cfg.windows;
  TimeSeriesStore ok_store;
  SloEngine ok_engine(cfg, &ok_store, test_series());
  feed(ok_store, ok_engine, kSecond, /*gets=*/101, /*hits=*/100, 0, 0);
  EXPECT_EQ(ok_engine.overall(kSecond), SloState::kOk);

  // Mixed traffic: 100 bad out of 200 = 50% errors against a 10% budget ->
  // burn 5x on the fast window: warn, but the page bar (10x) is not met.
  TimeSeriesStore warn_store;
  SloEngine warn_engine(cfg, &warn_store, test_series());
  feed(warn_store, warn_engine, kSecond, 100, 100, 0, 0);
  feed(warn_store, warn_engine, 2 * kSecond, 100, 0, 0, 0);
  EXPECT_NEAR(warn_engine.status(2 * kSecond)[0].burn_fast, 5.0, 1e-9);
  EXPECT_EQ(warn_engine.overall(2 * kSecond), SloState::kWarn);

  // Total failure from the start: burn = 10x on both windows -> page;
  // then a full fast window of clean traffic drains the fast burn to zero
  // and the state recovers all the way to ok (slow window still remembers,
  // but paging requires BOTH windows hot).
  TimeSeriesStore page_store;
  SloEngine page_engine(cfg, &page_store, test_series());
  feed(page_store, page_engine, kSecond, 100, 0, 0, 0);
  const SloEngine::Status paged = page_engine.status(kSecond)[0];
  EXPECT_NEAR(paged.burn_fast, 10.0, 1e-9);
  EXPECT_NEAR(paged.burn_slow, 10.0, 1e-9);
  EXPECT_EQ(paged.state, SloState::kPage);
  const SimTime later = kSecond + w.fast_window + 5 * kSecond;
  feed(page_store, page_engine, later, 1000, 1000, 0, 0);
  EXPECT_EQ(page_engine.overall(later), SloState::kOk);
}

TEST(BurnRate, EngineTracksAllThreeObjectives) {
  SloConfig cfg;
  cfg.hit_ratio_target = 0.9;
  cfg.p999_target_us = 5000;
  cfg.power_budget_watts = 200;
  TimeSeriesStore store;
  SloEngine engine(cfg, &store, test_series());
  ASSERT_TRUE(engine.enabled());

  // Everything healthy: hits at 99%, p99.9 and watts under their bounds.
  feed(store, engine, kSecond, /*gets=*/100, /*hits=*/99, /*p999_us=*/1000,
       /*watts=*/120);
  EXPECT_EQ(engine.overall(kSecond), SloState::kOk);
  auto status = engine.status(kSecond);
  ASSERT_EQ(status.size(), 3u);
  EXPECT_EQ(status[0].name, "hit_ratio");
  EXPECT_EQ(status[1].name, "p999_latency");
  EXPECT_EQ(status[2].name, "power_budget");

  // Latency blows through the bound every tick: each tick is one bad
  // sample against a 10% budget -> burn 10x -> page, while the other
  // objectives stay ok.
  SloConfig lat;
  lat.p999_target_us = 5000;
  TimeSeriesStore lat_store;
  SloEngine lat_engine(lat, &lat_store, test_series());
  feed(lat_store, lat_engine, kSecond, 100, 100, /*p999_us=*/50000, 0);
  feed(lat_store, lat_engine, 2 * kSecond, 100, 100, /*p999_us=*/60000, 0);
  EXPECT_EQ(lat_engine.overall(2 * kSecond), SloState::kPage);
  status = lat_engine.status(2 * kSecond);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "p999_latency");
  EXPECT_EQ(status[0].state, SloState::kPage);
  EXPECT_NEAR(status[0].observed, 60000.0, 1e-9);

  // Recovery: a fast window of in-bound latency ticks drains the burn.
  const SimTime later = 2 * kSecond + lat.windows.fast_window + 5 * kSecond;
  feed(lat_store, lat_engine, later, 100, 100, /*p999_us=*/1000, 0);
  EXPECT_EQ(lat_engine.overall(later), SloState::kOk);
}

TEST(BurnRate, RenderHealthContract) {
  SloEngine::Status ok{"hit_ratio", SloState::kOk, 0.9, 0.99, 0.1, 0.1};
  auto [code, body] = render_health({ok}, "\"epoch\":3");
  EXPECT_EQ(code, 200);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"epoch\":3"), std::string::npos);
  EXPECT_NE(body.find("\"hit_ratio\""), std::string::npos);

  SloEngine::Status paging{"power_budget", SloState::kPage, 200, 280, 12, 11};
  auto [code2, body2] = render_health({ok, paging}, "");
  EXPECT_EQ(code2, 503);
  EXPECT_NE(body2.find("\"status\":\"unhealthy\""), std::string::npos);
  EXPECT_NE(body2.find("\"power_budget\""), std::string::npos);
  EXPECT_NE(body2.find("\"page\""), std::string::npos);
}

// --- the daemon's /health surface, end to end --------------------------------

TEST(DaemonHealth, FlipsTo503UnderBreachAndRecovers) {
  // Fake clock and hand-driven sampler ticks so SLO windows move at test
  // speed, not wall-clock speed.
  static std::atomic<SimTime> fake_now{kSecond};
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  net::AuditOptions audit;
  audit.enabled = true;
  audit.slo.hit_ratio_target = 0.9;
  net::MemcacheDaemon daemon(cfg, 0, [] { return fake_now.load(); }, 1,
                             net::TcpServer::Limits{}, net::AdmissionOptions{},
                             audit);
  ASSERT_TRUE(daemon.ok());
  // Auditing brings up the sampler even with TsdbOptions left off.
  ASSERT_NE(daemon.sampler(), nullptr);
  daemon.sampler()->stop();
  const auto tick = [&daemon] {
    daemon.sampler()->sample_once(fake_now.load());
  };
  std::thread runner([&daemon] { daemon.run(); });
  {
    client::MemcacheConnection conn(daemon.port());
    ASSERT_TRUE(conn.ok());

    // Prime the counter baseline before any traffic.
    tick();
    auto [code0, body0] = daemon.health();
    EXPECT_EQ(code0, 200);

    // Total miss storm: every get in the first observed interval misses, so
    // the hit-ratio burn hits the 10x page bar on both windows -> 503.
    for (int i = 0; i < 100; ++i) {
      (void)conn.get("absent:" + std::to_string(i));
    }
    fake_now += 2 * kSecond;
    tick();
    auto [code1, body1] = daemon.health();
    EXPECT_EQ(code1, 503);
    EXPECT_NE(body1.find("\"status\":\"unhealthy\""), std::string::npos);
    EXPECT_NE(body1.find("\"hit_ratio\""), std::string::npos);
    EXPECT_NE(body1.find("\"epoch\""), std::string::npos);
    EXPECT_NE(body1.find("\"ppi\""), std::string::npos);

    // Recovery: a fast window's worth of clean hits drains the burn.
    ASSERT_TRUE(conn.set("k", "v"));
    fake_now += audit.slo.windows.fast_window + 5 * kSecond;
    for (int i = 0; i < 1000; ++i) (void)conn.get("k");
    fake_now += 2 * kSecond;
    tick();
    auto [code2, body2] = daemon.health();
    EXPECT_EQ(code2, 200);
    EXPECT_NE(body2.find("\"status\":\"ok\""), std::string::npos);

    // The audit gauges surfaced on /metrics as well.
    const std::string metrics = daemon.metrics_text();
    EXPECT_NE(metrics.find("proteus_audit_ppi"), std::string::npos);
    EXPECT_NE(metrics.find("proteus_slo_hit_ratio_state"), std::string::npos);
  }
  daemon.stop();
  runner.join();
}

// The sampler tick is the audit feed: a daemon nobody scrapes (neither
// metrics_text() nor health() is ever called) still integrates energy and
// rolls drift windows.
TEST(DaemonHealth, UnscrapedDaemonStillAudits) {
  SimTime now = 0;
  net::AuditOptions audit;
  audit.enabled = true;
  audit.audit.window = 2 * kSecond;
  net::TsdbOptions tsdb;
  tsdb.enabled = true;
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  net::MemcacheDaemon daemon(cfg, /*port=*/0, [&now] { return now; },
                             /*threads=*/1, {}, {}, audit, tsdb);
  ASSERT_TRUE(daemon.ok());
  ASSERT_NE(daemon.sampler(), nullptr);
  daemon.sampler()->stop();

  daemon.cache().set("k", "v", now);
  for (int s = 0; s < 5; ++s) {
    now += kSecond;
    for (int i = 0; i < 100; ++i) daemon.cache().get("k", now);
    daemon.sampler()->sample_once(now);
  }
  ASSERT_NE(daemon.auditor(), nullptr);
  const AuditSnapshot a = daemon.auditor()->snapshot();
  EXPECT_GT(a.fleet_joules, 0.0);
  EXPECT_GT(a.windows, 0u);
}

// --- exemplars ---------------------------------------------------------------

TEST(Exemplars, SurviveMergeAndPreferNewer) {
  ExemplarSet a;
  ExemplarSet b;
  a.offer(100.0, 0xdead);   // older seq
  b.offer(100.0, 0xbeef);   // same bucket, newer seq
  b.offer(100000.0, 0xf00); // a bucket a lacks
  a.merge(b);
  const Exemplar* same_bucket = a.nearest(100.0);
  ASSERT_NE(same_bucket, nullptr);
  EXPECT_EQ(same_bucket->trace_id, 0xbeefu);
  const Exemplar* other_bucket = a.nearest(100000.0);
  ASSERT_NE(other_bucket, nullptr);
  EXPECT_EQ(other_bucket->trace_id, 0xf00u);

  // Merging an empty set changes nothing.
  a.merge(ExemplarSet{});
  EXPECT_EQ(a.nearest(100.0)->trace_id, 0xbeefu);
}

TEST(Exemplars, RenderedAsOpenMetricsOnQuantiles) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("demo_latency_us", "demo");
  for (int i = 0; i < 100; ++i) h->record(100.0 + i);
  h->record(5000.0, /*trace_id=*/0xabcdef12u);
  const std::string text = render_prometheus(registry.snapshot());
  EXPECT_NE(text.find("# {trace_id=\"00000000abcdef12\"}"),
            std::string::npos);
}

// --- reset baselines (the `stats reset` hook) --------------------------------

TEST(ResetDropped, TraceRingBaselineSurvivesReset) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    emit(&ring, i, TraceEventKind::kTtlExpiry, 0, -1, 1);
  }
  EXPECT_EQ(ring.dropped(), 6u);
  ring.reset_dropped();
  EXPECT_EQ(ring.dropped(), 0u);
  for (int i = 0; i < 3; ++i) {
    emit(&ring, i, TraceEventKind::kTtlExpiry, 0, -1, 1);
  }
  EXPECT_EQ(ring.dropped(), 3u);  // counts only post-reset overwrites
  EXPECT_EQ(ring.total_emitted(), 13u);  // sequence numbers untouched
}

// --- thread safety (meaningful under TSan) -----------------------------------

TEST(AuditThreads, ConcurrentObserveSnapshotAndGauges) {
  AuditConfig cfg;
  cfg.window = 2 * kSecond;
  PowerAuditor auditor(cfg);
  SloConfig scfg;
  scfg.hit_ratio_target = 0.9;
  scfg.p999_target_us = 5000;
  TimeSeriesStore store;
  SloEngine slo(scfg, &store, test_series());
  MetricsRegistry registry;
  auditor.register_metrics(registry);
  static std::atomic<SimTime> now{0};
  slo.register_metrics(registry, [] { return now.load(); });

  std::atomic<bool> stop{false};
  std::thread feeder([&] {
    std::vector<ServerAuditSample> fleet(3);
    while (!stop.load(std::memory_order_relaxed)) {
      const SimTime t = now.fetch_add(kSecond) + kSecond;
      for (auto& s : fleet) {
        s.gets_total += 100;
        s.hits_total += 90;
      }
      auditor.observe(t, fleet, 1, 100);
      feed(store, slo, t, 100, 90, 1000, 100);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)auditor.snapshot();
      (void)slo.status(now.load());
      (void)slo.overall(now.load());
      (void)render_prometheus(registry.snapshot());
      (void)render_health(slo.status(now.load()), "");
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  feeder.join();
  reader.join();

  const AuditSnapshot s = auditor.snapshot();
  EXPECT_GT(s.fleet_joules, 0.0);
  EXPECT_GT(s.windows, 0u);
}

}  // namespace
}  // namespace proteus::obs
