#include "core/proteus.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/hash.h"

namespace proteus {
namespace {

ProteusOptions small_options(int servers = 10) {
  ProteusOptions opt;
  opt.max_servers = servers;
  opt.per_server.memory_budget_bytes = 4 << 20;
  opt.per_server.digest.num_counters = 1 << 14;
  opt.per_server.digest.counter_bits = 4;
  opt.per_server.digest.num_hashes = 4;
  opt.ttl = 10 * kSecond;
  return opt;
}

struct CountingBackend {
  std::uint64_t calls = 0;
  std::string operator()(std::string_view key) {
    ++calls;
    return "value-of-" + std::string(key);
  }
};

TEST(ProteusFacade, GetFetchesFromBackendOnceThenCaches) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  EXPECT_EQ(cluster.get("page:1", 0), "value-of-page:1");
  EXPECT_EQ(cluster.get("page:1", 1), "value-of-page:1");
  EXPECT_EQ(backend.calls, 1u);
  EXPECT_EQ(cluster.stats().backend_fetches, 1u);
  EXPECT_EQ(cluster.stats().new_server_hits, 1u);
}

TEST(ProteusFacade, InitialServersOptionRespected) {
  ProteusOptions opt = small_options();
  opt.initial_servers = 3;
  Proteus cluster(opt, [](std::string_view) { return std::string("v"); });
  EXPECT_EQ(cluster.active_servers(), 3);
  EXPECT_EQ(cluster.powered_servers(), 3);
}

TEST(ProteusFacade, ShrinkWithoutMissStorm) {
  // The headline behaviour: hot keys survive a 10 -> 5 shrink with ZERO
  // extra backend fetches — the old servers' data migrates on demand.
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  for (int i = 0; i < 500; ++i) {
    cluster.get("page:" + std::to_string(i), kSecond);
  }
  EXPECT_EQ(backend.calls, 500u);

  cluster.resize(5, 2 * kSecond);
  for (int i = 0; i < 500; ++i) {
    cluster.get("page:" + std::to_string(i), 3 * kSecond);
  }
  EXPECT_EQ(backend.calls, 500u) << "shrink caused a miss storm";
  EXPECT_GT(cluster.stats().old_server_hits, 100u);
}

TEST(ProteusFacade, GrowWithoutMissStorm) {
  CountingBackend backend;
  ProteusOptions opt = small_options();
  opt.initial_servers = 4;
  Proteus cluster(opt, std::ref(backend));
  for (int i = 0; i < 500; ++i) cluster.get("page:" + std::to_string(i), kSecond);
  cluster.resize(9, 2 * kSecond);
  for (int i = 0; i < 500; ++i) cluster.get("page:" + std::to_string(i), 3 * kSecond);
  EXPECT_EQ(backend.calls, 500u);
}

TEST(ProteusFacade, MigrationIsOnDemandAndOneShot) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  for (int i = 0; i < 300; ++i) cluster.get("k" + std::to_string(i), kSecond);
  cluster.resize(6, 2 * kSecond);
  for (int i = 0; i < 300; ++i) cluster.get("k" + std::to_string(i), 3 * kSecond);
  const auto first_pass = cluster.stats().old_server_hits;
  EXPECT_GT(first_pass, 0u);
  for (int i = 0; i < 300; ++i) cluster.get("k" + std::to_string(i), 4 * kSecond);
  EXPECT_EQ(cluster.stats().old_server_hits, first_pass)
      << "second access should hit the new primary";
}

TEST(ProteusFacade, TransitionFinalizesAfterTtl) {
  Proteus cluster(small_options(),
                  [](std::string_view) { return std::string("v"); });
  cluster.resize(5, 0);
  EXPECT_TRUE(cluster.in_transition());
  EXPECT_EQ(cluster.powered_servers(), 10);  // draining servers still on
  cluster.tick(11 * kSecond);                // ttl = 10 s
  EXPECT_FALSE(cluster.in_transition());
  EXPECT_EQ(cluster.powered_servers(), 5);
}

TEST(ProteusFacade, ColdDataFallsToBackendAfterDrain) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  for (int i = 0; i < 100; ++i) cluster.get("page:" + std::to_string(i), 0);
  cluster.resize(5, kSecond);
  // Nobody touches the data during the drain; after TTL it is cold & lost.
  cluster.tick(20 * kSecond);
  const auto before = backend.calls;
  int refetched = 0;
  for (int i = 0; i < 100; ++i) {
    cluster.get("page:" + std::to_string(i), 21 * kSecond);
  }
  refetched = static_cast<int>(backend.calls - before);
  // Keys that had lived on servers 5..9 (about half) are gone.
  EXPECT_GT(refetched, 20);
  EXPECT_LT(refetched, 80);
}

TEST(ProteusFacade, PutThenGetRoundTrip) {
  Proteus cluster(small_options(),
                  [](std::string_view) { return std::string("from-db"); });
  cluster.put("k", "explicit", 0);
  EXPECT_EQ(cluster.get("k", 1), "explicit");
  EXPECT_EQ(cluster.stats().puts, 1u);
}

TEST(ProteusFacade, PutDuringTransitionInvalidatesOldCopy) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  // Find a key that moves when shrinking 10 -> 5.
  std::string moving_key;
  for (int i = 0; i < 1000; ++i) {
    const std::string k = "page:" + std::to_string(i);
    const auto h = hash_bytes(k);
    if (cluster.placement().server_for(h, 10) !=
        cluster.placement().server_for(h, 5)) {
      moving_key = k;
      break;
    }
  }
  ASSERT_FALSE(moving_key.empty());

  cluster.get(moving_key, 0);  // resident on its old server
  cluster.resize(5, kSecond);
  cluster.put(moving_key, "updated", 2 * kSecond);
  // The fallback path must never resurrect the stale value.
  EXPECT_EQ(cluster.get(moving_key, 3 * kSecond), "updated");
  EXPECT_EQ(cluster.get(moving_key, 20 * kSecond), "updated");
}

TEST(ProteusFacade, EraseRemovesFromBothLocations) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  cluster.get("k", 0);
  cluster.resize(5, kSecond);
  cluster.erase("k", 2 * kSecond);
  const auto before = backend.calls;
  cluster.get("k", 3 * kSecond);
  EXPECT_EQ(backend.calls, before + 1) << "erase left a stale copy";
}

TEST(ProteusFacade, ResizeToSameSizeIsNoop) {
  Proteus cluster(small_options(),
                  [](std::string_view) { return std::string("v"); });
  cluster.resize(10, 0);
  EXPECT_FALSE(cluster.in_transition());
  EXPECT_EQ(cluster.stats().resizes, 0u);
}

TEST(ProteusFacade, OverlappingResizeFinalizesPrevious) {
  Proteus cluster(small_options(),
                  [](std::string_view) { return std::string("v"); });
  cluster.resize(5, 0);
  cluster.resize(8, kSecond);  // before ttl: finalize 10->5, then 5->8
  EXPECT_TRUE(cluster.in_transition());
  EXPECT_EQ(cluster.active_servers(), 8);
  cluster.tick(12 * kSecond);
  EXPECT_EQ(cluster.powered_servers(), 8);
}

TEST(ProteusFacade, StatsHitRatio) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  cluster.get("a", 0);
  cluster.get("a", 1);
  cluster.get("a", 2);
  cluster.get("b", 3);
  EXPECT_NEAR(cluster.stats().hit_ratio(), 0.5, 1e-9);
  cluster.reset_stats();
  EXPECT_EQ(cluster.stats().gets, 0u);
}

TEST(ProteusFacade, BytesCachedGrowsWithResidency) {
  Proteus cluster(small_options(),
                  [](std::string_view) { return std::string(1000, 'x'); });
  EXPECT_EQ(cluster.bytes_cached(), 0u);
  for (int i = 0; i < 20; ++i) cluster.get("k" + std::to_string(i), 0);
  EXPECT_GT(cluster.bytes_cached(), 20'000u);
}

TEST(ProteusFacade, PlanResizePredictsActualMigrations) {
  CountingBackend backend;
  ProteusOptions opt = small_options();
  opt.object_charge = 1000;
  Proteus cluster(opt, std::ref(backend));
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), 0);

  const ring::TransitionPlan plan = cluster.plan_resize(5);
  EXPECT_EQ(plan.n_from, 10);
  EXPECT_EQ(plan.n_to, 5);
  EXPECT_NEAR(plan.total_fraction, 0.5, 1e-9);  // |10-5|/10
  EXPECT_NEAR(static_cast<double>(plan.total_bytes),
              static_cast<double>(cluster.bytes_cached()) / 2,
              static_cast<double>(cluster.bytes_cached()) * 0.02);

  // Execute the resize and touch everything: the number of on-demand
  // migrations should be ~ the planned key fraction of the hot set.
  cluster.resize(5, kSecond);
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), 2 * kSecond);
  EXPECT_NEAR(static_cast<double>(cluster.stats().old_server_hits), 200.0,
              40.0);
}

TEST(ProteusFacade, ObjectChargeOverride) {
  ProteusOptions opt = small_options();
  opt.object_charge = 4096;
  Proteus cluster(opt, [](std::string_view) { return std::string("tiny"); });
  cluster.get("k", 0);
  EXPECT_GT(cluster.bytes_cached(), 4096u);
}

TEST(ProteusFacade, CrashDuringTransitionDropsTheServersDigest) {
  ProteusOptions opt = small_options(4);
  opt.initial_servers = 2;
  CountingBackend backend;
  Proteus cluster(opt, std::ref(backend));
  // A key that lives on server 0 at n=2 and moves off it at n=4.
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    const std::uint64_t h = hash_bytes(candidate);
    if (cluster.placement().server_for(h, 2) == 0 &&
        cluster.placement().server_for(h, 4) != 0) {
      key = candidate;
    }
  }
  cluster.get(key, kSecond);
  cluster.resize(4, 2 * kSecond);  // server 0's digest now calls `key` hot

  // The crash loses server 0's memory; it rejoins cold inside the
  // transition. Its digest described the lost memory, so it must no longer
  // send `key` to the old location.
  cluster.fail_server(0);
  cluster.recover_server(0);
  const std::uint64_t gets_on_0 = cluster.server(0).stats().gets;
  EXPECT_EQ(cluster.get(key, 3 * kSecond), "value-of-" + key);
  EXPECT_EQ(backend.calls, 2u);
  EXPECT_EQ(cluster.stats().digest_false_positives, 0u);
  EXPECT_EQ(cluster.server(0).stats().gets, gets_on_0)
      << "no probe of the cold server";
}

}  // namespace
}  // namespace proteus
