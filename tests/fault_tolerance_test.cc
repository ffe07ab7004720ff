// End-to-end failure drills for the live wire path: daemons killed under a
// running ProteusClient. The client must never block past its deadlines,
// never die of SIGPIPE, keep serving every key (backend or §III-E replica),
// and complete provisioning transitions with dead servers in the fleet —
// the live analogue of what bench/ext_crash_latency simulates.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "hashring/replicated_ring.h"
#include "net/fault_injector.h"
#include "net/memcache_daemon.h"

namespace proteus::client {
namespace {

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

class LiveFleet : public ::testing::Test {
 protected:
  static constexpr int kServers = 3;

  void SetUp() override {
    daemons_.resize(kServers);
    threads_.resize(kServers);
    ports_.resize(kServers);
    for (int i = 0; i < kServers; ++i) start(i, /*port=*/0);
  }

  void TearDown() override {
    for (int i = 0; i < kServers; ++i) kill(i);
  }

  void start(int i, std::uint16_t port) {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 8 << 20;
    auto& d = daemons_[static_cast<std::size_t>(i)];
    d = std::make_unique<net::MemcacheDaemon>(cfg, port);
    ASSERT_TRUE(d->ok());
    ports_[static_cast<std::size_t>(i)] = d->port();
    threads_[static_cast<std::size_t>(i)] =
        std::thread([daemon = d.get()] { daemon->run(); });
  }

  void kill(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d) return;
    d->stop();
    threads_[static_cast<std::size_t>(i)].join();
    d.reset();
  }

  void restart(int i) { start(i, ports_[static_cast<std::size_t>(i)]); }

  ProteusClient::Options fast_options() {
    ProteusClient::Options opt;
    opt.endpoints = ports_;
    opt.ttl = 60 * kSecond;
    opt.connect_timeout = 200 * kMillisecond;
    opt.op_timeout = 200 * kMillisecond;
    opt.max_attempts = 2;
    opt.health.error_threshold = 3;
    opt.health.quarantine_base = 500 * kMillisecond;
    opt.health.quarantine_cap = 5 * kSecond;
    // Exact backend-count assertions below must not wobble with wall-clock
    // scheduling jitter: keep the health machine error-driven only (the
    // latency-accrual paths are covered by gray_failure_test).
    opt.health.min_deviation_usec = 1e9;
    return opt;
  }

  // The ring-0 primary of `key` with all kServers active.
  static int primary_of(std::string_view key) {
    const ring::ProteusPlacement placement(kServers);
    return placement.server_for(hash_bytes(key), kServers);
  }

  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

TEST_F(LiveFleet, DeadServerDegradesToBackendWithinDeadline) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 60; ++i) web.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend, 60u);

  kill(2);

  // Every key still resolves correctly; no get may block meaningfully past
  // its per-server budget of max_attempts * (connect + op timeout).
  std::int64_t worst_ms = 0;
  for (int i = 0; i < 60; ++i) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(web.get("page:" + std::to_string(i), kSecond),
              "db:page:" + std::to_string(i));
    worst_ms = std::max(worst_ms, elapsed_ms(start));
  }
  EXPECT_LT(worst_ms, 2000) << "a get blocked far past its deadline";
  EXPECT_GT(web.stats().degraded_misses, 0u)
      << "keys on the dead server must degrade to backend fetches";
  EXPECT_GT(web.stats().resets + web.stats().timeouts, 0u);
  EXPECT_GT(web.stats().reconnects, 0u);
}

TEST_F(LiveFleet, ResizeCompletesWithDeadServerAndServesEveryKey) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 120; ++i) web.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend, 120u);

  // Server 2 dies; the shrink 3 -> 2 must still complete. Its digest is
  // skipped (recorded absent), not a reason to wedge provisioning.
  kill(2);
  EXPECT_FALSE(web.resize(2, kSecond)) << "skipped digest must be reported";
  EXPECT_TRUE(web.in_transition());
  EXPECT_GE(web.stats().digest_skips, 1u);

  // Every key is served with the correct value. Algorithm 1 moves ONLY the
  // removed server's keys, so the survivors' keys all stay warm; just the
  // dead server's share (about a third) refills from the backend.
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(web.get("page:" + std::to_string(i), 2 * kSecond),
              "db:page:" + std::to_string(i));
  }
  EXPECT_GT(backend, 120u) << "the dead server's keys must refill";
  EXPECT_LT(backend, 120u + 100u) << "survivors' keys must stay warm";

  // Past the TTL the transition finalizes and the fleet of two serves
  // everything from cache.
  const std::uint64_t before = backend;
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(web.get("page:" + std::to_string(i), 100 * kSecond),
              "db:page:" + std::to_string(i));
  }
  EXPECT_FALSE(web.in_transition());
  EXPECT_EQ(backend, before) << "post-transition reads must all hit";
}

TEST_F(LiveFleet, DaemonKilledMidTransitionStillServesEveryKey) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 120; ++i) web.get("page:" + std::to_string(i), 0);

  // Healthy shrink: digests all fetched...
  ASSERT_TRUE(web.resize(2, kSecond));
  ASSERT_TRUE(web.in_transition());
  // ...then the draining server dies mid-transition. Its digest still
  // claims its keys are hot; the fallback consult must fail fast and fall
  // through to the backend instead of wedging the transition.
  kill(2);
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(web.get("page:" + std::to_string(i), 2 * kSecond),
              "db:page:" + std::to_string(i));
  }
  EXPECT_TRUE(web.in_transition());
  // The drain window still finalizes on schedule.
  web.tick(100 * kSecond);
  EXPECT_FALSE(web.in_transition());
}

TEST_F(LiveFleet, BreakerOpensOnRepeatedFailureAndRecoversOnRestart) {
  std::uint64_t backend = 0;
  ProteusClient web(fast_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 30; ++i) web.get("page:" + std::to_string(i), 0);

  kill(1);
  // Repeated ops against the dead endpoint quarantine it...
  for (int i = 0; i < 30; ++i) web.get("page:" + std::to_string(i), kSecond);
  EXPECT_EQ(web.endpoint_health(1).state(),
            core::EndpointHealth::State::kQuarantined);
  const std::uint64_t reconnects_when_open = web.stats().reconnects;
  // ...and while quarantined, the endpoint is skipped without touching the
  // network (same `now`, so the probe window has not arrived).
  for (int i = 0; i < 30; ++i) web.get("page:" + std::to_string(i), kSecond);
  EXPECT_GT(web.stats().breaker_open_skips, 0u);
  EXPECT_EQ(web.stats().reconnects, reconnects_when_open);

  // The daemon comes back on the same port; past the quarantine dwell the
  // probation probe reconnects and the endpoint is routable again.
  restart(1);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(web.get("page:" + std::to_string(i), 30 * kSecond),
              "db:page:" + std::to_string(i));
  }
  const auto state = web.endpoint_health(1).state();
  EXPECT_TRUE(state == core::EndpointHealth::State::kHealthy ||
              state == core::EndpointHealth::State::kSuspect)
      << static_cast<int>(state);
  EXPECT_GT(web.stats().reconnects, reconnects_when_open);
}

TEST_F(LiveFleet, ReplicaFailoverServesWithoutBackend) {
  auto opt = fast_options();
  opt.replicas = 2;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });

  // Find a key whose two ring locations land on different servers.
  const ring::ProteusPlacement placement(kServers);
  std::string key;
  int primary = -1;
  for (int i = 0; i < 200; ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    const std::uint64_t h = hash_bytes(candidate);
    const int p0 = placement.server_for(ring::replica_ring_hash(h, 0),
                                        kServers);
    const int p1 = placement.server_for(ring::replica_ring_hash(h, 1),
                                        kServers);
    if (p0 != p1) {
      key = candidate;
      primary = p0;
      break;
    }
  }
  ASSERT_FALSE(key.empty());

  // Warm: the fill writes BOTH replica locations (§III-E write-all).
  EXPECT_EQ(web.get(key, 0), "db:" + key);
  ASSERT_EQ(backend, 1u);

  kill(primary);
  // The primary is gone, but the replica ring still has the data: served
  // warm, zero extra backend load.
  EXPECT_EQ(web.get(key, kSecond), "db:" + key);
  EXPECT_EQ(backend, 1u) << "replica failover must not touch the backend";
  EXPECT_GE(web.stats().failover_hits, 1u);
}

TEST_F(LiveFleet, ColdRestartedPrimaryIsServedFromRingOneAndRepaired) {
  auto opt = fast_options();
  opt.replicas = 2;
  // No hedge: the deadline always comes before the hedge delay.
  opt.health.hedge_delay_floor = 2 * opt.op_timeout;
  opt.health.hedge_delay_cap = 2 * opt.op_timeout;
  obs::SpanCollector spans(256, /*sample_every=*/1);
  opt.spans = &spans;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });

  const ring::ProteusPlacement placement(kServers);
  std::string key;
  int primary = -1;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    const std::uint64_t h = hash_bytes(candidate);
    const int p0 = placement.server_for(ring::replica_ring_hash(h, 0),
                                        kServers);
    if (p0 != placement.server_for(ring::replica_ring_hash(h, 1), kServers)) {
      key = candidate;
      primary = p0;
    }
  }
  EXPECT_EQ(web.get(key, 0), "db:" + key);  // fills both rings
  ASSERT_EQ(backend, 1u);

  // The ring-0 daemon comes back empty: a clean miss, not a down server.
  kill(primary);
  restart(primary);
  EXPECT_EQ(web.get(key, kSecond), "db:" + key);
  EXPECT_EQ(backend, 1u) << "ring 1 still holds the key";
  EXPECT_EQ(web.stats().failover_hits, 1u);
  EXPECT_EQ(web.stats().degraded_misses, 0u);
  bool repaired = false;
  for (const obs::SpanRecord& r : spans.snapshot()) {
    repaired |= r.kind == obs::SpanKind::kMigrationStore &&
                r.server == primary && r.cause == obs::SpanCause::kStored;
  }
  EXPECT_TRUE(repaired) << "ring 0 must be read-repaired";

  // The repair landed: the next read is a ring-0 hit.
  EXPECT_EQ(web.get(key, 2 * kSecond), "db:" + key);
  EXPECT_EQ(web.stats().new_server_hits, 1u);
  EXPECT_EQ(backend, 1u);
}

TEST_F(LiveFleet, StalledServerIsBoundedByDeadline) {
  net::FaultInjector injector;
  // Attach the injector to server 0 (fresh connections only, so do it
  // before the client first connects).
  daemons_[0]->set_handler_wrapper(
      [&](std::unique_ptr<net::ConnectionHandler> inner) {
        return injector.wrap(std::move(inner));
      });

  auto opt = fast_options();
  opt.op_timeout = 100 * kMillisecond;
  opt.connect_timeout = 100 * kMillisecond;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });

  // A key routed to server 0.
  std::string key;
  for (int i = 0; i < 100; ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    if (primary_of(candidate) == 0) {
      key = candidate;
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  EXPECT_EQ(web.get(key, 0), "db:" + key);

  // From now on server 0 swallows every request: gets must time out and
  // degrade, never hang.
  injector.inject_forever(net::FaultKind::kStall);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(web.get(key, kSecond), "db:" + key);
  EXPECT_LT(elapsed_ms(start), 2000);
  EXPECT_GE(web.stats().timeouts, 1u);
  EXPECT_GE(web.stats().degraded_misses, 1u);
}

// --- one retry rule for every cache get --------------------------------------

struct FirstAttemptFault {
  const char* name;
  net::FaultKind fault;
  bool migration;  // the get is a migration fetch during a 3 -> 2 shrink
};

void PrintTo(const FirstAttemptFault& param, std::ostream* os) {
  *os << param.name;
}

class RetriedFirstAttempt
    : public LiveFleet,
      public ::testing::WithParamInterface<FirstAttemptFault> {};

// A get whose first attempt dies (stalled past op_timeout, or cut) is
// retried once on a fresh connection and served warm: no degraded miss and
// no backend fetch, whether it is a ring-0 get or a migration fetch.
TEST_P(RetriedFirstAttempt, IsServedWarm) {
  const FirstAttemptFault& param = GetParam();
  constexpr int kFaulted = kServers - 1;  // the server a 3 -> 2 shrink drains
  net::FaultInjector injector;
  daemons_[kFaulted]->set_handler_wrapper(
      [&](std::unique_ptr<net::ConnectionHandler> inner) {
        return injector.wrap(std::move(inner));
      });
  auto opt = fast_options();
  opt.op_timeout = 100 * kMillisecond;
  std::uint64_t backend = 0;
  ProteusClient web(opt, [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });

  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    if (primary_of(candidate) == kFaulted) key = candidate;
  }
  web.put(key, "warm:" + key, 0);
  ASSERT_EQ(web.get(key, 0), "warm:" + key);
  if (param.migration) {
    ASSERT_TRUE(web.resize(kServers - 1, 0));
  }

  injector.inject(param.fault, 1);
  const ProteusClient::Stats before = web.stats();
  EXPECT_EQ(web.get(key, kSecond), "warm:" + key);
  const ProteusClient::Stats& after = web.stats();
  EXPECT_EQ(injector.faults_injected(), 1u);
  EXPECT_EQ(after.retries - before.retries, 1u);
  EXPECT_EQ(after.degraded_misses - before.degraded_misses, 0u);
  EXPECT_EQ(backend, 0u) << "the retried get must be served warm";
  if (param.migration) {
    EXPECT_EQ(after.old_server_hits - before.old_server_hits, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, RetriedFirstAttempt,
    ::testing::Values(
        FirstAttemptFault{"RingZeroStall", net::FaultKind::kStall, false},
        FirstAttemptFault{"RingZeroDrop", net::FaultKind::kDropConnection,
                          false},
        FirstAttemptFault{"MigrationFetchStall", net::FaultKind::kStall,
                          true}),
    [](const ::testing::TestParamInfo<FirstAttemptFault>& info) {
      return std::string(info.param.name);
    });

// --- MemcacheConnection host/endpoint handling -------------------------------

TEST(MemcacheConnectionHost, UnresolvableHostFailsFastAsRefused) {
  MemcacheConnection::Options opt;
  opt.host = "not-a-host";
  MemcacheConnection conn(11211, std::move(opt));
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.last_error(), net::NetError::kRefused);
}

TEST(MemcacheConnectionHost, LocalhostAliasAndClosedPortRefused) {
  // A port nothing listens on: connect must fail fast with kRefused, not
  // hang.
  MemcacheConnection::Options opt;
  opt.host = "localhost";
  opt.connect_timeout = kSecond;
  const auto start = std::chrono::steady_clock::now();
  MemcacheConnection conn(1, std::move(opt));  // port 1: nothing there
  EXPECT_FALSE(conn.ok());
  EXPECT_EQ(conn.last_error(), net::NetError::kRefused);
  EXPECT_LT(elapsed_ms(start), 2000);
}

}  // namespace
}  // namespace proteus::client
