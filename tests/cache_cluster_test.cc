#include "cluster/cache_cluster.h"

#include <gtest/gtest.h>

#include <memory>

#include "hashring/proteus_placement.h"

namespace proteus::cluster {
namespace {

struct Fixture {
  sim::Simulation sim;
  CacheTier tier;
  std::shared_ptr<Router> router;
  CacheCluster cluster;

  explicit Fixture(bool smooth, int initial = 10, SimTime ttl = 10 * kSecond)
      : tier(sim, tier_config()),
        router(std::make_shared<Router>(
            std::make_shared<ring::ProteusPlacement>(10), initial)),
        cluster(sim, tier, router, CacheClusterConfig{smooth, ttl}) {}

  static CacheTierConfig tier_config() {
    CacheTierConfig cfg;
    cfg.num_servers = 10;
    cfg.per_server.memory_budget_bytes = 1 << 20;
    cfg.per_server.digest.num_counters = 1 << 12;
    cfg.per_server.digest.counter_bits = 4;
    cfg.per_server.digest.num_hashes = 4;
    return cfg;
  }
};

TEST(CacheCluster, InitialPowerStateMatchesActiveCount) {
  Fixture f(/*smooth=*/true, /*initial=*/4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(f.tier.server(i).power_state(), cache::PowerState::kActive) << i;
  }
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(f.tier.server(i).power_state(), cache::PowerState::kOff) << i;
  }
  EXPECT_EQ(f.cluster.powered_servers(), 4);
}

TEST(CacheCluster, BrutalShrinkPowersOffImmediately) {
  Fixture f(/*smooth=*/false);
  f.cluster.resize(6);
  EXPECT_EQ(f.router->active(), 6);
  EXPECT_FALSE(f.router->in_transition());
  for (int i = 6; i < 10; ++i) {
    EXPECT_EQ(f.tier.server(i).power_state(), cache::PowerState::kOff);
  }
  EXPECT_EQ(f.cluster.powered_servers(), 6);
}

TEST(CacheCluster, BrutalShrinkLosesHotData) {
  Fixture f(/*smooth=*/false);
  f.tier.server(9).set("k", "v", 0);
  f.cluster.resize(9);
  f.tier.server(9).power_on();
  EXPECT_FALSE(f.tier.server(9).contains("k", 0));
}

TEST(CacheCluster, SmoothShrinkDrainsThenPowersOff) {
  Fixture f(/*smooth=*/true, 10, /*ttl=*/10 * kSecond);
  f.tier.server(8).set("hot", "v", 0);
  f.cluster.resize(8);

  // During the drain window the leaving servers still serve.
  EXPECT_EQ(f.router->active(), 8);
  EXPECT_TRUE(f.router->in_transition());
  EXPECT_EQ(f.tier.server(8).power_state(), cache::PowerState::kDraining);
  EXPECT_EQ(f.tier.server(9).power_state(), cache::PowerState::kDraining);
  EXPECT_TRUE(f.tier.server(8).contains("hot", kSecond));
  EXPECT_EQ(f.cluster.powered_servers(), 10);

  // After TTL the timer finalizes: drained servers power off.
  f.sim.run_until(11 * kSecond);
  EXPECT_EQ(f.tier.server(8).power_state(), cache::PowerState::kOff);
  EXPECT_EQ(f.tier.server(9).power_state(), cache::PowerState::kOff);
  EXPECT_FALSE(f.router->in_transition());
  EXPECT_EQ(f.cluster.powered_servers(), 8);
}

TEST(CacheCluster, SmoothGrowPowersOnAndExposesOldMapping) {
  Fixture f(/*smooth=*/true, /*initial=*/4);
  f.cluster.resize(7);
  EXPECT_EQ(f.router->active(), 7);
  EXPECT_EQ(f.router->old_active(), 4);
  EXPECT_TRUE(f.router->in_transition());
  for (int i = 0; i < 7; ++i) {
    EXPECT_NE(f.tier.server(i).power_state(), cache::PowerState::kOff) << i;
  }
  f.sim.run_until(11 * kSecond);
  EXPECT_FALSE(f.router->in_transition());
  EXPECT_EQ(f.cluster.powered_servers(), 7);  // nobody powered off on grow
}

TEST(CacheCluster, ResizeToSameSizeIsNoop) {
  Fixture f(/*smooth=*/true);
  f.cluster.resize(10);
  EXPECT_FALSE(f.router->in_transition());
  EXPECT_EQ(f.cluster.powered_servers(), 10);
}

TEST(CacheCluster, OverlappingResizeFinalizesPrevious) {
  Fixture f(/*smooth=*/true, 10, /*ttl=*/10 * kSecond);
  f.cluster.resize(8);  // drains 8, 9
  // Second resize before TTL: the pending drain finalizes first.
  f.sim.run_until(2 * kSecond);
  f.cluster.resize(6);  // drains 6, 7
  EXPECT_EQ(f.tier.server(8).power_state(), cache::PowerState::kOff);
  EXPECT_EQ(f.tier.server(9).power_state(), cache::PowerState::kOff);
  EXPECT_EQ(f.tier.server(6).power_state(), cache::PowerState::kDraining);
  EXPECT_EQ(f.router->old_active(), 8);

  f.sim.run_until(20 * kSecond);
  EXPECT_EQ(f.cluster.powered_servers(), 6);
  EXPECT_FALSE(f.router->in_transition());
}

TEST(CacheCluster, StaleFinalizeTimerDoesNotKillNewTransition) {
  Fixture f(/*smooth=*/true, 10, /*ttl=*/10 * kSecond);
  f.cluster.resize(8);           // drains 8, 9; finalize timer armed for t=10s
  f.sim.run_until(2 * kSecond);
  f.cluster.resize(7);           // pre-empts; drains server 7, new timer t=12s
  f.sim.run_until(10 * kSecond + 500 * kMillisecond);
  // The stale t=10s timer must NOT have finalized the second transition.
  EXPECT_TRUE(f.router->in_transition());
  EXPECT_EQ(f.tier.server(7).power_state(), cache::PowerState::kDraining);
  f.sim.run_until(13 * kSecond);
  EXPECT_FALSE(f.router->in_transition());
  EXPECT_EQ(f.tier.server(7).power_state(), cache::PowerState::kOff);
}

TEST(CacheCluster, GrowAfterShrinkReactivatesServers) {
  Fixture f(/*smooth=*/true, 10, /*ttl=*/kSecond);
  f.cluster.resize(5);
  f.sim.run_until(2 * kSecond);
  EXPECT_EQ(f.cluster.powered_servers(), 5);
  f.cluster.resize(10);
  EXPECT_EQ(f.cluster.powered_servers(), 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_NE(f.tier.server(i).power_state(), cache::PowerState::kOff) << i;
  }
}

}  // namespace
}  // namespace proteus::cluster
