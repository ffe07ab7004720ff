// Acceptance drills for the gray-failure defense (ISSUE PR 9): a live
// fleet where one daemon degrades without dying. The phi-accrual health
// machine must quarantine it, hedged reads must cap the latency tail while
// staying inside their extra-load budget, corrupt payloads must never
// reach a caller, and a recovered endpoint must re-admit through probation
// probes.
//
// Wall-clock latency assertions are floored generously (kNoiseFloor): this
// suite runs under parallel ctest on small CI boxes where scheduler
// hiccups of tens of milliseconds are routine. The injected faults sit an
// order of magnitude above the floor, so the A/B contrast survives noise.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "hashring/replicated_ring.h"
#include "net/fault_injector.h"
#include "net/memcache_daemon.h"
#include "obs/span.h"

namespace proteus::client {
namespace {

constexpr SimTime kNoiseFloor = 50 * kMillisecond;

SimTime mono_usec() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SimTime quantile(std::vector<SimTime> v, double q) {
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

class GrayFleet : public ::testing::Test {
 protected:
  static constexpr int kServers = 2;

  void SetUp() override {
    daemons_.resize(kServers);
    threads_.resize(kServers);
    ports_.resize(kServers);
    injectors_ = std::vector<net::FaultInjector>(kServers);
    for (int i = 0; i < kServers; ++i) {
      cache::CacheConfig cfg;
      cfg.memory_budget_bytes = 8 << 20;
      auto& d = daemons_[static_cast<std::size_t>(i)];
      d = std::make_unique<net::MemcacheDaemon>(cfg, 0);
      ASSERT_TRUE(d->ok());
      d->set_handler_wrapper(
          [this, i](std::unique_ptr<net::ConnectionHandler> inner) {
            return injectors_[static_cast<std::size_t>(i)].wrap(
                std::move(inner));
          });
      ports_[static_cast<std::size_t>(i)] = d->port();
      threads_[static_cast<std::size_t>(i)] =
          std::thread([daemon = d.get()] { daemon->run(); });
    }
  }

  void TearDown() override {
    for (int i = 0; i < kServers; ++i) {
      auto& d = daemons_[static_cast<std::size_t>(i)];
      if (!d) continue;
      d->stop();
      threads_[static_cast<std::size_t>(i)].join();
      d.reset();
    }
  }

  ProteusClient::Options base_options() {
    ProteusClient::Options opt;
    opt.endpoints = ports_;
    opt.ttl = 600 * kSecond;
    opt.connect_timeout = 500 * kMillisecond;
    opt.op_timeout = 2 * kSecond;
    opt.max_attempts = 2;
    return opt;
  }

  // Keys whose ring-0 primary is server 0 (the daemon we sabotage).
  static std::vector<std::string> keys_on_server0(int want) {
    const ring::ProteusPlacement placement(kServers);
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < static_cast<std::size_t>(want); ++i) {
      std::string key = "gray:" + std::to_string(i);
      if (placement.server_for(hash_bytes(key), kServers) == 0) {
        keys.push_back(std::move(key));
      }
    }
    return keys;
  }

  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<net::FaultInjector> injectors_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

// --- hedged reads vs a latency ramp ------------------------------------------

TEST_F(GrayFleet, LatencyRampHedgingCutsTheTailWithinBudget) {
  const std::vector<std::string> keys = keys_on_server0(40);

  // Defense ON: hedging (default 5% budget) + phi accrual. The hedge
  // budget absorbs the first outliers; the first un-hedged request rides
  // the ramp into its op deadline and that hard timeout quarantines
  // (failure_threshold=1 — under a fault this sustained, one strike is
  // right). A huge dwell keeps probation probes out of the measurement.
  ProteusClient::Options on_opt = base_options();
  on_opt.replicas = 2;  // every key also lives on server 1
  on_opt.health.error_threshold = 1;
  on_opt.health.quarantine_base = 300 * kSecond;
  on_opt.health.quarantine_cap = 600 * kSecond;
  ProteusClient web_on(on_opt, [](std::string_view key) {
    return "v:" + std::string(key);
  });

  // Defense OFF: the pre-gray-failure client — no hedge (its delay sits
  // past the op deadline), latency-blind health (deviation floor parks phi
  // at zero), errors only.
  ProteusClient::Options off_opt = base_options();
  off_opt.replicas = 2;
  off_opt.health.hedge_delay_floor = 2 * off_opt.op_timeout;
  off_opt.health.hedge_delay_cap = 2 * off_opt.op_timeout;
  off_opt.health.min_deviation_usec = 1e9;
  off_opt.health.error_threshold = 1000;
  ProteusClient web_off(off_opt, [](std::string_view key) {
    return "v:" + std::string(key);
  });

  for (const std::string& key : keys) web_on.put(key, "v:" + key, 0);

  // Steady phase: warm connections, the phi baseline, and the hedge-delay
  // estimate; collect the healthy-fleet latency distribution.
  std::vector<SimTime> steady;
  for (int round = 0; round < 8; ++round) {
    for (const std::string& key : keys) {
      const SimTime t0 = mono_usec();
      ASSERT_EQ(web_on.get(key, kSecond), "v:" + key);
      steady.push_back(mono_usec() - t0);
    }
  }
  for (const std::string& key : keys) {
    ASSERT_EQ(web_off.get(key, kSecond), "v:" + key);
  }
  const SimTime steady_p999 = quantile(steady, 0.999);
  const SimTime bound = 3 * std::max(steady_p999, kNoiseFloor);

  // Ramp phase, defense OFF: server 0 slides into saturation (each faulted
  // request sleeps 60ms more than the last). The naive client rides every
  // request out — its tail IS the ramp.
  injectors_[0].inject_latency_ramp(60 * kMillisecond, 8);
  std::vector<SimTime> off_lat;
  for (int i = 0; i < 8; ++i) {
    const std::string& key = keys[static_cast<std::size_t>(i) % keys.size()];
    const SimTime t0 = mono_usec();
    ASSERT_EQ(web_off.get(key, kSecond), "v:" + key);
    off_lat.push_back(mono_usec() - t0);
  }
  const SimTime off_p999 = quantile(off_lat, 0.999);

  // Ramp phase, defense ON: the same fault, unbounded this time. Hedges
  // absorb the first outliers (the delay cap bounds each hedged request),
  // the first un-hedged ride accrues suspicion, and quarantine routes the
  // rest to the replica.
  injectors_[0].inject_latency_ramp(60 * kMillisecond, 1 << 20);
  std::vector<SimTime> on_lat;
  for (int i = 0; i < 4000; ++i) {
    const std::string& key = keys[static_cast<std::size_t>(i) % keys.size()];
    const SimTime t0 = mono_usec();
    ASSERT_EQ(web_on.get(key, kSecond), "v:" + key);
    on_lat.push_back(mono_usec() - t0);
  }
  const SimTime on_p999 = quantile(on_lat, 0.999);

  EXPECT_GT(off_p999, bound)
      << "the naive client must expose the ramp (off p99.9 "
      << off_p999 / 1000 << "ms, steady p99.9 " << steady_p999 / 1000 << "ms)";
  EXPECT_LT(on_p999, bound)
      << "hedging+quarantine must cap the tail (on p99.9 " << on_p999 / 1000
      << "ms)";
  EXPECT_LT(3 * on_p999, off_p999)
      << "defense on must beat defense off by a wide margin";

  const ProteusClient::Stats& s = web_on.stats();
  EXPECT_GT(s.hedges_fired, 0u);
  EXPECT_GT(s.hedge_wins, 0u) << "backup reads must have rescued requests";
  EXPECT_GE(s.quarantine_enters, 1u)
      << "sustained slowness must quarantine the endpoint";
  // The extra-load guarantee: hedges never exceed rate * load + burst.
  EXPECT_LE(s.hedges_fired,
            static_cast<std::uint64_t>(0.05 * static_cast<double>(s.gets)) +
                static_cast<std::uint64_t>(core::HedgeBudget::kDefaultBurst) +
                1)
      << "hedge budget must bound extra load to ~5%";
}

// --- end-to-end payload integrity under wire bit flips -----------------------

TEST_F(GrayFleet, BitFlippedRepliesAreNeverServedAndAreReadRepaired) {
  obs::SpanCollector spans(1u << 12, /*sample_every=*/1);
  ProteusClient::Options opt = base_options();
  opt.spans = &spans;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "v:" + std::string(key);
  });

  const std::vector<std::string> keys = keys_on_server0(30);
  for (const std::string& key : keys) web.put(key, "v:" + key, 0);
  for (const std::string& key : keys) {
    ASSERT_EQ(web.get(key, kSecond), "v:" + key);
  }
  ASSERT_EQ(web.stats().corrupt_values, 0u);
  ASSERT_EQ(backend, 0u) << "warm fleet serves from cache";

  // A NIC/switch on server 0's path starts flipping one bit per reply.
  // Some faults land on GET VALUE frames (flipped payloads), some are
  // swallowed by repair-SET replies with nothing to flip; either way not
  // one corrupt byte may reach the caller.
  injectors_[0].inject(net::FaultKind::kBitFlip, 8);
  std::uint64_t corrupt_served = 0;
  for (const std::string& key : keys) {
    if (web.get(key, kSecond) != "v:" + key) ++corrupt_served;
  }
  EXPECT_EQ(corrupt_served, 0u)
      << "acceptance: corrupt_values_served must be zero";

  const ProteusClient::Stats& s = web.stats();
  EXPECT_GE(s.corrupt_values, 2u)
      << "the CRC32C verify must have caught flipped payloads";
  EXPECT_EQ(s.read_repairs, s.corrupt_values)
      << "every corrupt hit must be refilled from the database";
  EXPECT_EQ(backend, s.corrupt_values);

  // The drained injector leaves a clean fleet: one more full pass, no new
  // corruption, and the repaired keys serve from cache again.
  const std::uint64_t seen = s.corrupt_values;
  for (const std::string& key : keys) {
    ASSERT_EQ(web.get(key, kSecond), "v:" + key);
  }
  EXPECT_EQ(web.stats().corrupt_values, seen);

  // Every caught corruption is visible in the trace: a span with the
  // kCorrupt cause.
  std::uint64_t corrupt_spans = 0;
  for (const obs::SpanRecord& rec : spans.snapshot()) {
    if (rec.cause == obs::SpanCause::kCorrupt) ++corrupt_spans;
  }
  EXPECT_GE(corrupt_spans, seen);
}

// --- quarantine and probation re-admission -----------------------------------

TEST_F(GrayFleet, QuarantinedEndpointReadmitsThroughProbationProbes) {
  ProteusClient::Options opt = base_options();
  // No hedge: the deadline always comes first, so the failure accounting
  // stays on the plain retry path.
  opt.health.hedge_delay_floor = 2 * opt.op_timeout;
  opt.health.hedge_delay_cap = 2 * opt.op_timeout;
  opt.health.error_threshold = 3;
  opt.health.quarantine_base = 500 * kMillisecond;
  opt.health.quarantine_cap = 2 * kSecond;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "v:" + std::string(key);
  });

  const std::vector<std::string> keys = keys_on_server0(5);
  for (const std::string& key : keys) web.put(key, "v:" + key, 0);
  for (const std::string& key : keys) {
    ASSERT_EQ(web.get(key, kSecond), "v:" + key);
  }
  ASSERT_EQ(backend, 0u);

  // Server 0 starts cutting every connection mid-request. Consecutive
  // errors trip the fail-stop path into quarantine.
  injectors_[0].inject(net::FaultKind::kDropConnection, 1 << 20);
  for (int i = 0; i < 4 && web.stats().quarantine_enters == 0; ++i) {
    web.get(keys[static_cast<std::size_t>(i) % keys.size()], kSecond);
  }
  EXPECT_GE(web.stats().quarantine_enters, 1u);
  EXPECT_EQ(web.endpoint_health(0).state(),
            core::EndpointHealth::State::kQuarantined);

  // While quarantined the endpoint gets no traffic: every get degrades to
  // the backend, still answering correctly.
  const std::uint64_t backend_before = backend;
  for (const std::string& key : keys) {
    EXPECT_EQ(web.get(key, kSecond), "v:" + key);
  }
  EXPECT_EQ(backend, backend_before + keys.size());

  // The fault clears. Past the probe dwell the next get is admitted as a
  // probation probe; three clean responses re-admit the endpoint.
  injectors_[0].reset();
  const SimTime later = 60 * kSecond;  // far beyond base_delay * jitter cap
  int rounds = 0;
  while (web.endpoint_health(0).state() !=
             core::EndpointHealth::State::kHealthy &&
         rounds < 20) {
    for (const std::string& key : keys) {
      EXPECT_EQ(web.get(key, later), "v:" + key);
    }
    ++rounds;
  }
  EXPECT_EQ(web.endpoint_health(0).state(),
            core::EndpointHealth::State::kHealthy);
  EXPECT_GE(web.stats().quarantine_exits, 1u);

  // Re-admitted for real: a full pass adds no backend traffic (server 0
  // kept its items across the connection faults).
  const std::uint64_t backend_after = backend;
  for (const std::string& key : keys) {
    EXPECT_EQ(web.get(key, later), "v:" + key);
  }
  EXPECT_EQ(backend, backend_after);
}

}  // namespace
}  // namespace proteus::client
