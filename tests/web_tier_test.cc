#include "cluster/web_tier.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/cache_cluster.h"
#include "hashring/proteus_placement.h"

namespace proteus::cluster {
namespace {

struct Rig {
  sim::Simulation sim;
  db::Database db;
  CacheTier tier;
  std::shared_ptr<Router> router;
  CacheCluster cluster;
  WebTier web;

  explicit Rig(bool smooth = true, int initial = 10)
      : db(sim, db_config()),
        tier(sim, tier_config()),
        router(std::make_shared<Router>(
            std::make_shared<ring::ProteusPlacement>(10), initial)),
        cluster(sim, tier, router, CacheClusterConfig{smooth, 10 * kSecond}),
        web(sim, WebTierConfig{}, router, tier, db) {}

  static db::DbConfig db_config() {
    db::DbConfig cfg;
    cfg.base_service_time = 5 * kMillisecond;
    cfg.service_jitter_mean = 0;
    cfg.per_shard_concurrency = 4;
    return cfg;
  }

  static CacheTierConfig tier_config() {
    CacheTierConfig cfg;
    cfg.per_server.memory_budget_bytes = 8 << 20;
    return cfg;
  }

  // Issues a request and steps the simulation just until it completes, so
  // pending timers (e.g. a transition's TTL finalize) stay in the future.
  SimTime request(const std::string& key) {
    bool done = false;
    SimTime done_at = -1;
    const SimTime start = sim.now();
    web.handle(key, [&] {
      done = true;
      done_at = sim.now();
    });
    for (int guard = 0; !done && guard < 100'000; ++guard) {
      sim.run_until(sim.now() + kMillisecond);
    }
    EXPECT_TRUE(done) << "request never completed";
    return done_at - start;
  }
};

TEST(WebTier, ColdMissGoesToDatabaseThenCaches) {
  Rig rig;
  const SimTime cold = rig.request("page:1");
  EXPECT_EQ(rig.web.stats().db_fetches, 1u);
  EXPECT_GE(cold, 5 * kMillisecond);  // paid the DB seek

  const SimTime warm = rig.request("page:1");
  EXPECT_EQ(rig.web.stats().db_fetches, 1u);  // no second DB trip
  EXPECT_EQ(rig.web.stats().new_server_hits, 1u);
  EXPECT_LT(warm, 5 * kMillisecond);  // cache-speed
}

TEST(WebTier, CachedValueMatchesDatabase) {
  Rig rig;
  rig.request("page:7");
  const auto d = rig.router->decide("page:7");
  const auto v = rig.tier.server(d.primary).get("page:7", rig.sim.now());
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, rig.db.value_for("page:7"));
}

TEST(WebTier, RequestsSpreadAcrossWebServers) {
  Rig rig;
  for (int i = 0; i < 40; ++i) rig.request("page:" + std::to_string(i));
  for (int i = 0; i < rig.web.num_servers(); ++i) {
    EXPECT_EQ(rig.web.server_queue(i).arrivals(), 4u) << i;
  }
}

TEST(WebTier, SmoothShrinkServesHotDataFromOldServer) {
  Rig rig(/*smooth=*/true);
  // Warm 200 pages at full size.
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  const auto db_before = rig.web.stats().db_fetches;
  EXPECT_EQ(db_before, 200u);

  rig.cluster.resize(5);

  // Re-request everything inside the drain window: remapped keys must be
  // served via the old server (Algorithm 2 lines 6-8), not the database.
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  EXPECT_EQ(rig.web.stats().db_fetches, db_before);
  EXPECT_GT(rig.web.stats().old_server_hits, 50u);  // ~half the keys remapped
}

TEST(WebTier, MigratedKeyHitsNewServerOnSecondAccess) {
  Rig rig(/*smooth=*/true);
  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  rig.cluster.resize(5);
  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  const auto old_hits_first_pass = rig.web.stats().old_server_hits;
  // Second pass: everything already migrated -> primary hits only
  // (§IV-A property 1: only the FIRST request reaches the old server).
  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  EXPECT_EQ(rig.web.stats().old_server_hits, old_hits_first_pass);
}

TEST(WebTier, BrutalShrinkCausesMissStorm) {
  Rig rig(/*smooth=*/false);
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  const auto db_before = rig.web.stats().db_fetches;
  rig.cluster.resize(5);
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  // Modulo remap: most keys land on servers that never held them.
  EXPECT_GT(rig.web.stats().db_fetches, db_before + 50);
}

TEST(WebTier, AfterDrainWindowMigratedDataStillServed) {
  Rig rig(/*smooth=*/true);
  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  rig.cluster.resize(5);
  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  const auto db_before = rig.web.stats().db_fetches;

  rig.sim.run_until(rig.sim.now() + 15 * kSecond);  // drain ends, servers off

  for (int i = 0; i < 100; ++i) rig.request("page:" + std::to_string(i));
  EXPECT_EQ(rig.web.stats().db_fetches, db_before)
      << "hot data was lost despite on-demand migration";
}

TEST(WebTier, ScaleUpWarmsNewServersFromOldOnes) {
  Rig rig(/*smooth=*/true, /*initial=*/4);
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  const auto db_before = rig.web.stats().db_fetches;

  rig.cluster.resize(8);
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  EXPECT_EQ(rig.web.stats().db_fetches, db_before)
      << "scale-up should pull hot data from the old smaller mapping";
  EXPECT_GT(rig.web.stats().old_server_hits, 0u);
}

TEST(WebTier, DogPileCoalescingCollapsesConcurrentMisses) {
  Rig rig;
  // Rebuild the web tier with coalescing on.
  WebTierConfig cfg;
  cfg.coalesce_db_fetches = true;
  WebTier web(rig.sim, cfg, rig.router, rig.tier, rig.db);

  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    web.handle("page:hot", [&] { ++completed; });
  }
  rig.sim.run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(web.stats().db_fetches, 1u) << "stampede was not coalesced";
  EXPECT_EQ(web.stats().coalesced_fetches, 19u);
  // The value is cached afterwards.
  bool hit = false;
  web.handle("page:hot", [&] { hit = true; });
  rig.sim.run();
  EXPECT_TRUE(hit);
  EXPECT_EQ(web.stats().db_fetches, 1u);
}

TEST(WebTier, WithoutCoalescingEveryConcurrentMissHitsDb) {
  Rig rig;
  int completed = 0;
  for (int i = 0; i < 20; ++i) {
    rig.web.handle("page:hot", [&] { ++completed; });
  }
  rig.sim.run();
  EXPECT_EQ(completed, 20);
  EXPECT_EQ(rig.web.stats().db_fetches, 20u);
  EXPECT_EQ(rig.web.stats().coalesced_fetches, 0u);
}

TEST(WebTier, CoalescingDistinctKeysDoNotInterfere) {
  Rig rig;
  WebTierConfig cfg;
  cfg.coalesce_db_fetches = true;
  WebTier web(rig.sim, cfg, rig.router, rig.tier, rig.db);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    web.handle("page:" + std::to_string(i), [&] { ++completed; });
  }
  rig.sim.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(web.stats().db_fetches, 10u);  // all distinct: nothing coalesces
}

TEST(WebTier, CrashMidTransitionDropsDigestInsteadOfPhantomFallback) {
  Rig rig(/*smooth=*/true);
  for (int i = 0; i < 200; ++i) rig.request("page:" + std::to_string(i));
  rig.cluster.resize(5);

  // Pick a remapped key whose digest still steers misses to its old server.
  std::string victim_key;
  int victim_server = -1;
  for (int i = 0; i < 200 && victim_server < 0; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const auto d = rig.router->decide(key);
    if (d.fallback >= 0) {
      victim_key = key;
      victim_server = d.fallback;
    }
  }
  ASSERT_GE(victim_server, 0) << "no key remapped with a hot digest claim";

  // The crash loses the old server's memory; its broadcast digest now makes
  // phantom "hot" claims. mark_failed must retract it from every router.
  rig.cluster.mark_failed(victim_server);
  EXPECT_EQ(rig.router->decide(victim_key).fallback, -1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(rig.router->decide("page:" + std::to_string(i)).fallback,
              victim_server);
  }

  // The key is still servable: the miss falls through to the database and
  // repopulates the new location instead of probing the dead server.
  const auto old_hits_before = rig.web.stats().old_server_hits;
  rig.request(victim_key);
  EXPECT_EQ(rig.web.stats().old_server_hits, old_hits_before);
  rig.request(victim_key);
  EXPECT_EQ(rig.tier.server(rig.router->decide(victim_key).primary)
                .get(victim_key, rig.sim.now())
                .value_or(""),
            rig.db.value_for(victim_key));
}

TEST(WebTier, CacheOperationRecordsAreRecycled) {
  Rig rig;
  // One request at a time: a get, then at most a fill still in flight.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 40; ++i) rig.request("page:" + std::to_string(i));
  }
  rig.sim.run();
  EXPECT_LE(rig.tier.ops_pooled(), 2u);
  EXPECT_EQ(rig.tier.ops_in_flight(), 0u);

  // Bursts of 40 concurrent hits: the pool grows to the burst's peak of
  // gets in flight once, then serves every later burst from its records.
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    rig.web.handle("page:" + std::to_string(i), [&] { ++completed; });
  }
  rig.sim.run();
  const std::size_t peak = rig.tier.ops_pooled();
  EXPECT_GT(peak, 2u);
  EXPECT_LE(peak, 40u);
  for (int burst = 0; burst < 5; ++burst) {
    for (int i = 0; i < 40; ++i) {
      rig.web.handle("page:" + std::to_string(i), [&] { ++completed; });
    }
    rig.sim.run();
  }
  EXPECT_EQ(completed, 6 * 40);
  EXPECT_EQ(rig.web.stats().new_server_hits, 40u + 6 * 40);
  EXPECT_EQ(rig.tier.ops_pooled(), peak);
  EXPECT_EQ(rig.tier.ops_in_flight(), 0u);
}

TEST(WebTier, GetWhoseServerPowersOffInFlightReadsAsMiss) {
  Rig rig;
  rig.request("page:3");
  rig.sim.run();  // the fill lands
  const int server = rig.router->decide("page:3").primary;
  const SimTime hop = rig.tier.config().hop_latency;

  // Undisturbed, the get hits and the view holds the stored value.
  std::optional<std::string> got;
  int replies = 0;
  const auto get = [&] {
    rig.tier.async_get(server, "page:3",
                       [&](std::optional<std::string_view> v) {
                         ++replies;
                         got = v ? std::optional<std::string>(*v)
                                 : std::nullopt;
                       });
  };
  get();
  rig.sim.run();
  ASSERT_EQ(replies, 1);
  EXPECT_EQ(got, rig.db.value_for("page:3"));

  // The server powers off after the request hop, before the service.
  const std::size_t pooled = rig.tier.ops_pooled();
  get();
  rig.sim.run_until(rig.sim.now() + hop);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(rig.tier.ops_in_flight(), 1u);
  rig.tier.server(server).power_off();
  rig.sim.run();
  ASSERT_EQ(replies, 2);
  EXPECT_EQ(got, std::nullopt);
  EXPECT_EQ(rig.tier.ops_in_flight(), 0u);
  EXPECT_EQ(rig.tier.ops_pooled(), pooled);
}

TEST(WebTier, StatsAccounting) {
  Rig rig;
  for (int i = 0; i < 50; ++i) rig.request("page:" + std::to_string(i));
  const auto& s = rig.web.stats();
  EXPECT_EQ(s.requests, 50u);
  EXPECT_EQ(s.db_fetches, 50u);
  EXPECT_EQ(s.new_server_hits, 0u);
  for (int i = 0; i < 50; ++i) rig.request("page:" + std::to_string(i));
  EXPECT_EQ(rig.web.stats().new_server_hits, 50u);
  EXPECT_NEAR(rig.web.stats().cache_hit_ratio(), 0.5, 1e-9);
}

}  // namespace
}  // namespace proteus::cluster
