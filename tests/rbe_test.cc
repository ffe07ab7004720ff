#include "workload/rbe.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

namespace proteus::workload {
namespace {

DiurnalConfig flat_rate(double rate) {
  DiurnalConfig cfg;
  cfg.mean_rate = rate;
  cfg.amplitude = 0;
  cfg.jitter = 0;
  return cfg;
}

RbeConfig small_rbe() {
  RbeConfig cfg;
  cfg.num_pages = 1000;
  cfg.pages_per_user = 10;
  cfg.control_interval = kSecond;
  cfg.metric_slot = 10 * kSecond;
  return cfg;
}

TEST(Rbe, PopulationTracksTargetRate) {
  sim::Simulation sim;
  // rate 100 rps * 0.5 s think -> ~50 users.
  RbeCluster rbe(sim, small_rbe(), DiurnalModel(flat_rate(100)),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(kMillisecond, std::move(done));
                 });
  rbe.start(20 * kSecond);
  sim.run_until(10 * kSecond);
  EXPECT_NEAR(static_cast<double>(rbe.live_users()), 50.0, 5.0);
}

TEST(Rbe, ThroughputApproximatesOfferedRate) {
  sim::Simulation sim;
  RbeCluster rbe(sim, small_rbe(), DiurnalModel(flat_rate(100)),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(kMillisecond, std::move(done));
                 });
  const SimTime horizon = 60 * kSecond;
  rbe.start(horizon);
  sim.run();
  // 100 rps for 60 s ~ 6000 requests (fast responses, full think cycles).
  EXPECT_NEAR(static_cast<double>(rbe.completed_requests()), 6000.0, 900.0);
}

TEST(Rbe, SlowResponsesThrottleClosedLoop) {
  sim::Simulation sim;
  RbeCluster rbe(sim, small_rbe(), DiurnalModel(flat_rate(100)),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(500 * kMillisecond, std::move(done));
                 });
  rbe.start(60 * kSecond);
  sim.run();
  // Cycle time doubles (0.5 think + 0.5 response) -> ~half the requests.
  EXPECT_LT(rbe.completed_requests(), 4000u);
  EXPECT_GT(rbe.completed_requests(), 2000u);
}

TEST(Rbe, LatenciesLandInSlotHistograms) {
  sim::Simulation sim;
  RbeCluster rbe(sim, small_rbe(), DiurnalModel(flat_rate(50)),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(2 * kMillisecond, std::move(done));
                 });
  rbe.start(30 * kSecond);
  sim.run();
  const auto& slots = rbe.slot_histograms();
  ASSERT_GE(slots.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& h : slots) total += h.count();
  EXPECT_EQ(total, rbe.completed_requests());
  // Recorded latency equals the injected 2 ms.
  EXPECT_NEAR(rbe.overall_histogram().percentile_us(0.5), 2000.0, 100.0);
}

TEST(Rbe, KeysComeFromConfiguredPageSpace) {
  sim::Simulation sim;
  RbeConfig cfg = small_rbe();
  cfg.num_pages = 10;
  bool all_valid = true;
  RbeCluster rbe(sim, cfg, DiurnalModel(flat_rate(20)),
                 [&](const std::string& key, RbeCluster::Done done) {
                   if (key.rfind("page:", 0) != 0) all_valid = false;
                   const int id = std::stoi(key.substr(5));
                   if (id < 0 || id >= 10) all_valid = false;
                   sim.schedule_after(kMillisecond, std::move(done));
                 });
  rbe.start(10 * kSecond);
  sim.run();
  EXPECT_TRUE(all_valid);
  EXPECT_GT(rbe.completed_requests(), 0u);
}

TEST(Rbe, ExponentialSessionsChurnPageSets) {
  // With short sessions, fresh users keep arriving and the set of distinct
  // pages requested keeps growing; with unbounded sessions it saturates at
  // (population x pages_per_user).
  const auto distinct_pages = [](double mean_session_sec) {
    sim::Simulation sim;
    RbeConfig cfg = small_rbe();
    cfg.num_pages = 100'000;
    cfg.pages_per_user = 5;
    cfg.mean_session_sec = mean_session_sec;
    std::set<std::string> seen;
    RbeCluster rbe(sim, cfg, DiurnalModel(flat_rate(40)),
                   [&](const std::string& key, RbeCluster::Done done) {
                     seen.insert(key);
                     sim.schedule_after(kMillisecond, std::move(done));
                   });
    rbe.start(120 * kSecond);
    sim.run();
    return std::pair(seen.size(), rbe.sessions_started());
  };

  const auto [eternal_pages, eternal_sessions] = distinct_pages(0);
  const auto [churned_pages, churned_sessions] = distinct_pages(10.0);
  // ~20 users with unbounded sessions -> at most 100 distinct pages.
  EXPECT_LE(eternal_pages, 100u);
  EXPECT_LE(eternal_sessions, 25u);
  // 120 s / 10 s sessions -> hundreds of sessions, far more distinct pages.
  EXPECT_GT(churned_sessions, 100u);
  EXPECT_GT(churned_pages, 2 * eternal_pages);
}

TEST(Rbe, SessionChurnPreservesThroughput) {
  sim::Simulation sim;
  RbeConfig cfg = small_rbe();
  cfg.mean_session_sec = 5.0;  // heavy churn
  RbeCluster rbe(sim, cfg, DiurnalModel(flat_rate(100)),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(kMillisecond, std::move(done));
                 });
  rbe.start(60 * kSecond);
  sim.run();
  EXPECT_NEAR(static_cast<double>(rbe.completed_requests()), 6000.0, 900.0);
}

TEST(Rbe, PopulationShrinksWhenRateDrops) {
  sim::Simulation sim;
  // Steeply declining rate via a long-period sine starting at its peak.
  DiurnalConfig cfg;
  cfg.mean_rate = 100;
  cfg.amplitude = 0.9;
  cfg.period = 80 * kSecond;
  cfg.phase = -20 * kSecond;  // sin peaks at t=0
  cfg.jitter = 0;
  RbeCluster rbe(sim, small_rbe(), DiurnalModel(cfg),
                 [&sim](const std::string&, RbeCluster::Done done) {
                   sim.schedule_after(kMillisecond, std::move(done));
                 });
  rbe.start(45 * kSecond);
  sim.run_until(2 * kSecond);
  const std::size_t at_peak = rbe.live_users();
  sim.run_until(40 * kSecond);  // near the valley
  const std::size_t at_valley = rbe.live_users();
  EXPECT_GT(at_peak, 2 * at_valley);
}

// A user below the retire floor skips the model's sin and hash, so the
// floor must never exceed the population the model asks for. Swept every
// millisecond over one full period, which holds every jitter slot and the
// exact trough, for the default experiment's shape, no jitter, amplitude
// and jitter near 1, and means whose valley lands by a rounding boundary.
TEST(Rbe, RetireFloorNeverExceedsTargetPopulation) {
  struct Case {
    double mean_rate;
    double amplitude;
    double jitter;
    std::uint64_t seed;
  };
  const Case cases[] = {
      {300, 1.0 / 3.0, 0.05, 1},
      {300, 1.0 / 3.0, 0, 2},
      // Valley targets a hair under and over round's tie at 50.5: a floor
      // computed even slightly high rounds up past the trough's target.
      {(50.5 - 1e-9) / 0.75 / 0.5, 0.25, 0, 3},
      {(50.5 + 1e-9) / 0.75 / 0.5, 0.25, 0, 4},
      {(50.5 - 1e-9) / 0.75 / 0.9 / 0.5, 0.25, 0.1, 8},
      {500, 0.999, 0.05, 5},
      {40, 0.999999, 0.2, 6},  // the valley target rounds below 1
      {80, 0.5, 0.99, 7},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.seed);
    DiurnalConfig cfg;
    cfg.mean_rate = c.mean_rate;
    cfg.amplitude = c.amplitude;
    cfg.jitter = c.jitter;
    cfg.seed = c.seed;
    cfg.period = 1000 * kSecond;
    cfg.phase = 137 * kSecond;
    cfg.jitter_slot = 10 * kSecond;  // 100 slots per period
    sim::Simulation sim;
    RbeCluster rbe(sim, small_rbe(), DiurnalModel(cfg),
                   [](const std::string&, RbeCluster::Done) {});
    const std::size_t floor = rbe.retire_floor();
    ASSERT_GE(floor, 1u);
    std::size_t least = SIZE_MAX;
    for (SimTime t = 0; t <= cfg.period; t += kMillisecond) {
      const std::size_t target = rbe.target_population(t);
      ASSERT_LE(floor, target) << "t = " << t;
      least = std::min(least, target);
    }
    // Without jitter the sweep reaches the trough itself: the floor is the
    // least target, not just a bound on it.
    if (c.jitter == 0) {
      EXPECT_EQ(floor, least);
    }
  }
}

}  // namespace
}  // namespace proteus::workload
