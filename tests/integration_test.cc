// Cross-module integration tests: digest broadcast between "web servers",
// facade-vs-placement agreement, and end-to-end trace replay through the
// public API comparing Proteus against a brutal actuator.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cache/sharded_cache.h"
#include "cluster/router.h"
#include "hashring/modulo_placement.h"
#include "proteus.h"  // umbrella header: must compile standalone

namespace proteus {
namespace {

TEST(Integration, UmbrellaHeaderExposesVersion) {
  EXPECT_STREQ(kVersion, "1.0.0");
}

TEST(Integration, DigestBroadcastKeepsWebServersConsistent) {
  // A cache server snapshots its digest through the memcached protocol;
  // two independently decoded routers must make identical decisions.
  cache::CacheConfig cc;
  cc.memory_budget_bytes = 4 << 20;
  cache::ShardedCacheServer server(cc, 1);
  for (int i = 0; i < 500; ++i) server.set("page:" + std::to_string(i), "v", 0);

  server.get(cache::kSetBloomFilterKey, 0);
  const std::string wire = *server.get(cache::kGetBloomFilterKey, 0);

  auto placement = std::make_shared<ring::ProteusPlacement>(10);
  auto make_router = [&] {
    auto r = std::make_unique<cluster::Router>(placement, 10);
    std::vector<std::optional<bloom::BloomFilter>> digests(10);
    for (int i = 0; i < 10; ++i) digests[static_cast<std::size_t>(i)] = cache::decode_digest(wire);
    r->begin_transition(4, kSecond, std::move(digests));
    return r;
  };
  auto web1 = make_router();
  auto web2 = make_router();
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const auto d1 = web1->decide(key);
    const auto d2 = web2->decide(key);
    ASSERT_EQ(d1.primary, d2.primary) << key;
    ASSERT_EQ(d1.fallback, d2.fallback) << key;
  }
}

TEST(Integration, DigestGatesFallbackByActualResidency) {
  // Keys resident on the snapshotting server must be offered as fallback;
  // keys never stored must (almost) never be.
  cache::CacheConfig cc;
  cc.memory_budget_bytes = 16 << 20;
  cache::CacheServer server(cc);
  for (int i = 0; i < 2000; ++i) server.set("hot:" + std::to_string(i), "v", 0);
  const bloom::BloomFilter digest = server.snapshot_digest();

  int resident_positive = 0;
  int absent_positive = 0;
  for (int i = 0; i < 2000; ++i) {
    resident_positive += digest.maybe_contains("hot:" + std::to_string(i));
    absent_positive += digest.maybe_contains("cold:" + std::to_string(i));
  }
  EXPECT_EQ(resident_positive, 2000);
  EXPECT_LE(absent_positive, 3);  // pp ~ 1e-4
}

TEST(Integration, FacadeRoutesExactlyByPlacement) {
  ProteusOptions opt;
  opt.max_servers = 8;
  opt.per_server.memory_budget_bytes = 4 << 20;
  Proteus cluster(opt, [](std::string_view k) { return std::string(k); });

  for (int i = 0; i < 200; ++i) {
    const std::string key = "k" + std::to_string(i);
    cluster.get(key, 0);
    const int expected = cluster.placement().server_for(hash_bytes(key), 8);
    EXPECT_TRUE(cluster.server(expected).contains(key, 0)) << key;
  }
}

TEST(Integration, TraceReplayProteusVersusBrutal) {
  // Replay the same synthetic trace through (a) the Proteus facade and
  // (b) a hand-rolled brutal modulo actuator, applying the same shrink in
  // the middle. Proteus' backend traffic must be far lower afterwards.
  workload::TraceConfig tc;
  tc.duration = 2 * kMinute;
  tc.num_pages = 3000;
  tc.diurnal.mean_rate = 300;
  tc.diurnal.amplitude = 0;
  tc.diurnal.jitter = 0;
  const auto trace = workload::generate_trace(tc);
  const SimTime shrink_at = kMinute;

  // (a) Proteus.
  std::uint64_t proteus_backend = 0;
  {
    ProteusOptions opt;
    opt.max_servers = 10;
    opt.per_server.memory_budget_bytes = 64 << 20;  // no capacity evictions
    opt.ttl = 70 * kSecond;  // covers the post-shrink tail of the trace
    Proteus cluster(opt, [&](std::string_view) {
      ++proteus_backend;
      return std::string("v");
    });
    bool shrunk = false;
    std::uint64_t before = 0;
    for (const auto& ev : trace) {
      if (!shrunk && ev.time >= shrink_at) {
        before = proteus_backend;
        cluster.resize(5, ev.time);
        shrunk = true;
      }
      cluster.get(ev.key, ev.time);
    }
    proteus_backend -= before;  // only count fetches after the shrink
  }

  // (b) Brutal modulo: on shrink, servers 5..9 are wiped and the mapping
  // flips instantly.
  std::uint64_t brutal_backend = 0;
  {
    ring::ModuloPlacement placement(10);
    std::vector<std::unique_ptr<cache::CacheServer>> servers;
    cache::CacheConfig cc;
    cc.memory_budget_bytes = 64 << 20;
    for (int i = 0; i < 10; ++i) {
      servers.push_back(std::make_unique<cache::CacheServer>(cc));
    }
    int active = 10;
    bool shrunk = false;
    std::uint64_t before = 0;
    for (const auto& ev : trace) {
      if (!shrunk && ev.time >= shrink_at) {
        before = brutal_backend;
        active = 5;
        for (int i = 5; i < 10; ++i) servers[static_cast<std::size_t>(i)]->flush();
        shrunk = true;
      }
      auto& server = *servers[static_cast<std::size_t>(
          placement.server_for(hash_bytes(ev.key), active))];
      if (!server.get(ev.key, ev.time).has_value()) {
        ++brutal_backend;
        server.set(ev.key, "v", ev.time);
      }
    }
    brutal_backend -= before;
  }

  EXPECT_LT(proteus_backend * 3, brutal_backend)
      << "proteus=" << proteus_backend << " brutal=" << brutal_backend;
}

TEST(Integration, FacadeSurvivesManyResizeCycles) {
  // Stress the transition machinery: oscillate while serving.
  ProteusOptions opt;
  opt.max_servers = 10;
  opt.per_server.memory_budget_bytes = 8 << 20;
  opt.ttl = 5 * kSecond;
  std::uint64_t backend = 0;
  Proteus cluster(opt, [&](std::string_view) {
    ++backend;
    return std::string("v");
  });

  SimTime now = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    cluster.resize(cycle % 2 ? 3 : 10, now);
    for (int i = 0; i < 200; ++i) {
      cluster.get("page:" + std::to_string(i % 100), now);
      now += 10 * kMillisecond;
    }
  }
  // All 100 distinct pages stay hot throughout; after warmup the backend
  // should see almost nothing despite 19 resizes.
  EXPECT_LT(backend, 150u);
  EXPECT_GT(cluster.stats().old_server_hits, 500u);
}

TEST(Integration, ReservedKeysRejectedBySetPath) {
  ProteusOptions opt;
  opt.max_servers = 2;
  Proteus cluster(opt, [](std::string_view) { return std::string("v"); });
  EXPECT_DEATH(cluster.put(std::string(cache::kSetBloomFilterKey), "x", 0),
               "reserved");
}

}  // namespace
}  // namespace proteus
