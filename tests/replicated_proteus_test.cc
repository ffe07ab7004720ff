#include "core/proteus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace proteus {
namespace {

ProteusOptions small_options(int replicas = 2) {
  ProteusOptions opt;
  opt.max_servers = 10;
  opt.replicas = replicas;
  opt.per_server.memory_budget_bytes = 8 << 20;
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
    return "v:" + std::string(key);
  }
};

TEST(ReplicatedFacade, MissPathPopulatesAllReplicaLocations) {
  CountingBackend backend;
  Proteus cluster(small_options(3), std::ref(backend));
  EXPECT_EQ(cluster.get("page:1", 0), "v:page:1");
  EXPECT_EQ(backend.calls, 1u);
  for (int server : cluster.replica_servers("page:1")) {
    EXPECT_TRUE(cluster.server(server).contains("page:1", 0)) << server;
  }
}

TEST(ReplicatedFacade, SecondGetHitsPrimaryRing) {
  CountingBackend backend;
  Proteus cluster(small_options(), std::ref(backend));
  cluster.get("k", 0);
  cluster.get("k", 1);
  EXPECT_EQ(cluster.stats().new_server_hits, 1u);
  EXPECT_EQ(backend.calls, 1u);
}

TEST(ReplicatedFacade, SingleFailureServedByReplica) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend.calls, 400u);

  // Crash one server. Every key whose ring-0 copy lived there should still
  // be served warm from its ring-1 replica, with no backend traffic —
  // except the rare Eq. (3) conflicts where both replicas shared the
  // crashed server.
  cluster.fail_server(3);
  const auto before = backend.calls;
  for (int i = 0; i < 400; ++i) cluster.get("page:" + std::to_string(i), kSecond);
  EXPECT_GT(cluster.stats().replica_ring_hits, 10u);
  EXPECT_LE(backend.calls - before, 10u);  // conflicts only (~1/10 of 1/10)
}

TEST(ReplicatedFacade, ReadRepairAfterFailover) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  // Find a key whose two replicas live on different servers.
  std::string key;
  for (int i = 0; i < 200; ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    const auto servers = cluster.replica_servers(candidate);
    if (servers[0] != servers[1]) {
      key = candidate;
      break;
    }
  }
  ASSERT_FALSE(key.empty());
  cluster.get(key, 0);
  const int ring0_server = cluster.replica_servers(key)[0];

  cluster.fail_server(ring0_server);
  cluster.get(key, kSecond);  // served by ring 1
  EXPECT_EQ(cluster.stats().replica_ring_hits, 1u);

  cluster.recover_server(ring0_server);
  cluster.get(key, 2 * kSecond);  // read-repairs the recovered server
  EXPECT_TRUE(cluster.server(ring0_server).contains(key, 2 * kSecond));
}

TEST(ReplicatedFacade, AllReplicasFailedFallsToBackend) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  cluster.get("k", 0);
  const auto servers = cluster.replica_servers("k");
  for (int s : servers) cluster.fail_server(s);
  const auto before = backend.calls;
  EXPECT_EQ(cluster.get("k", kSecond), "v:k");
  EXPECT_EQ(backend.calls, before + 1);
  EXPECT_GT(cluster.stats().failed_server_skips, 0u);
}

TEST(ReplicatedFacade, PutWritesAllReplicas) {
  Proteus cluster(small_options(3),
                            [](std::string_view) { return std::string("db"); });
  cluster.put("k", "fresh", 0);
  std::set<int> distinct;
  for (int s : cluster.replica_servers("k")) {
    distinct.insert(s);
    auto v = const_cast<cache::CacheServer&>(cluster.server(s)).get("k", 0);
    ASSERT_TRUE(v.has_value()) << s;
    EXPECT_EQ(*v, "fresh");
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(ReplicatedFacade, SmoothResizePreservesHotDataPerRing) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 0);
  const auto before = backend.calls;
  cluster.resize(5, kSecond);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(cluster.get("page:" + std::to_string(i), 2 * kSecond),
              "v:page:" + std::to_string(i));
  }
  EXPECT_EQ(backend.calls, before) << "replicated shrink caused a miss storm";
}

TEST(ReplicatedFacade, ResizePlusFailureStillNoBackendStorm) {
  CountingBackend backend;
  Proteus cluster(small_options(2), std::ref(backend));
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 0);
  cluster.resize(6, kSecond);
  cluster.fail_server(2);
  const auto before = backend.calls;
  for (int i = 0; i < 300; ++i) cluster.get("page:" + std::to_string(i), 2 * kSecond);
  // Redundancy covers the crash; the transition covers the remap. Only keys
  // whose surviving copies BOTH sat on the crashed server refetch.
  EXPECT_LT(backend.calls - before, 40u);
}

TEST(ReplicatedFacade, TransitionFinalizesAfterTtl) {
  Proteus cluster(small_options(2),
                            [](std::string_view) { return std::string("v"); });
  cluster.resize(4, 0);
  EXPECT_TRUE(cluster.in_transition());
  cluster.tick(11 * kSecond);
  EXPECT_FALSE(cluster.in_transition());
  for (int i = 4; i < 10; ++i) {
    EXPECT_EQ(cluster.server(i).power_state(), cache::PowerState::kOff) << i;
  }
}

TEST(ReplicatedFacade, FailedServerExcludedFromResizePowerOn) {
  Proteus cluster(small_options(2),
                            [](std::string_view) { return std::string("v"); });
  cluster.resize(4, 0);
  cluster.tick(11 * kSecond);
  cluster.fail_server(6);
  cluster.resize(8, 12 * kSecond);
  EXPECT_EQ(cluster.server(6).power_state(), cache::PowerState::kOff);
  EXPECT_NE(cluster.server(7).power_state(), cache::PowerState::kOff);
  // Requests mapping to the failed server fail over; nothing crashes.
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 13 * kSecond);
}

TEST(ReplicatedFacade, EraseRemovesEveryCopy) {
  CountingBackend backend;
  Proteus cluster(small_options(3), std::ref(backend));
  cluster.get("k", 0);
  cluster.erase("k", 1);
  for (int s : cluster.replica_servers("k")) {
    EXPECT_FALSE(cluster.server(s).contains("k", 1)) << s;
  }
  const auto before = backend.calls;
  cluster.get("k", 2);
  EXPECT_EQ(backend.calls, before + 1);
}

TEST(ReplicatedFacade, ConflictRateMatchesEq3) {
  Proteus cluster(small_options(2),
                            [](std::string_view) { return std::string("v"); });
  int conflicts = 0;
  constexpr int kKeys = 5000;
  for (int i = 0; i < kKeys; ++i) {
    const auto servers = cluster.replica_servers("page:" + std::to_string(i));
    conflicts += servers[0] == servers[1];
  }
  // Eq. (3): P(conflict) = 1 - Pnc = 1/n = 0.1 at n=10.
  EXPECT_NEAR(static_cast<double>(conflicts) / kKeys, 0.1, 0.02);
}

TEST(ReplicatedFacade, SingleReplicaDegeneratesToPlainProteus) {
  CountingBackend backend;
  Proteus cluster(small_options(1), std::ref(backend));
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 0);
  EXPECT_EQ(backend.calls, 100u);
  for (int i = 0; i < 100; ++i) cluster.get("k" + std::to_string(i), 1);
  EXPECT_EQ(backend.calls, 100u);
  EXPECT_EQ(cluster.stats().new_server_hits, 100u);
  EXPECT_EQ(cluster.stats().replica_ring_hits, 0u);
}

TEST(ReplicatedFacade, ReplicatedResizeEmitsFullTraceLifecycle) {
  obs::TraceRing ring(1 << 14);
  ProteusOptions opt = small_options(2);
  opt.trace = &ring;
  Proteus cluster(opt, [](std::string_view k) { return "v:" + std::string(k); });
  for (int i = 0; i < 200; ++i) cluster.get("page:" + std::to_string(i), 0);
  ring.clear();

  cluster.resize(8, kSecond);
  cluster.tick(kSecond + opt.ttl);

  std::map<obs::TraceEventKind, std::vector<obs::TraceEvent>> by_kind;
  for (const obs::TraceEvent& e : ring.snapshot()) by_kind[e.kind].push_back(e);
  ASSERT_EQ(by_kind[obs::TraceEventKind::kResizeBegin].size(), 1u);
  std::set<int> digested;
  for (const auto& e : by_kind[obs::TraceEventKind::kDigestSnapshot]) {
    digested.insert(e.server);
  }
  EXPECT_EQ(digested.size(), 10u);  // one per old server, shared by rings
  EXPECT_EQ(by_kind[obs::TraceEventKind::kDigestSnapshot].size(), 10u);
  ASSERT_EQ(by_kind[obs::TraceEventKind::kDrainBegin].size(), 2u);
  EXPECT_EQ(by_kind[obs::TraceEventKind::kDrainBegin][0].server, 8);
  EXPECT_EQ(by_kind[obs::TraceEventKind::kDrainBegin][1].server, 9);
  ASSERT_EQ(by_kind[obs::TraceEventKind::kResizeEnd].size(), 1u);
  EXPECT_EQ(by_kind[obs::TraceEventKind::kResizeEnd][0].server, 8);
  EXPECT_LT(by_kind[obs::TraceEventKind::kResizeBegin][0].seq,
            by_kind[obs::TraceEventKind::kDigestSnapshot][0].seq);
  EXPECT_LT(by_kind[obs::TraceEventKind::kDigestSnapshot][9].seq,
            by_kind[obs::TraceEventKind::kDrainBegin][0].seq);
  EXPECT_LT(by_kind[obs::TraceEventKind::kDrainBegin][1].seq,
            by_kind[obs::TraceEventKind::kResizeEnd][0].seq);
}

TEST(ReplicatedFacade, RegisterMetricsExportsReplicaCounters) {
  Proteus cluster(small_options(2),
                  [](std::string_view) { return std::string("v"); });
  obs::MetricsRegistry registry;
  cluster.register_metrics(registry);
  for (int i = 0; i < 200; ++i) cluster.get("page:" + std::to_string(i), 0);
  cluster.fail_server(3);
  for (int i = 0; i < 200; ++i) cluster.get("page:" + std::to_string(i), 1);

  std::map<std::string, double> values;
  for (const obs::MetricSample& m : registry.snapshot()) {
    values[m.name] = m.value;
  }
  ASSERT_GT(cluster.stats().replica_ring_hits, 0u);
  ASSERT_GT(cluster.stats().failed_server_skips, 0u);
  EXPECT_EQ(values.at("proteus_replica_ring_hits_total"),
            static_cast<double>(cluster.stats().replica_ring_hits));
  EXPECT_EQ(values.at("proteus_failed_server_skips_total"),
            static_cast<double>(cluster.stats().failed_server_skips));
  EXPECT_DOUBLE_EQ(values.at("proteus_hit_ratio"), cluster.stats().hit_ratio());
}

TEST(ReplicatedFacade, SingleRingCrashGoesToBackendUntilRecovered) {
  CountingBackend backend;
  Proteus cluster(small_options(1), std::ref(backend));
  std::vector<std::string> on_crashed;
  for (int i = 0; i < 300; ++i) {
    const std::string key = "page:" + std::to_string(i);
    cluster.get(key, 0);
    if (cluster.replica_servers(key)[0] == 3) on_crashed.push_back(key);
  }
  ASSERT_FALSE(on_crashed.empty());

  // Down, not restarted: every read of its keys is a skip and a backend
  // fetch, and nothing is filled anywhere.
  cluster.fail_server(3);
  EXPECT_TRUE(cluster.is_failed(3));
  for (int pass = 0; pass < 2; ++pass) {
    const auto before = backend.calls;
    for (const std::string& key : on_crashed) cluster.get(key, kSecond);
    EXPECT_EQ(backend.calls - before, on_crashed.size());
  }
  EXPECT_EQ(cluster.stats().failed_server_skips, 2 * on_crashed.size());
  EXPECT_EQ(cluster.server(3).item_count(), 0u);
  for (int s = 0; s < cluster.max_servers(); ++s) {
    for (const std::string& key : on_crashed) {
      EXPECT_FALSE(cluster.server(s).contains(key, kSecond)) << s;
    }
  }

  // Cold restart: one refill from the backend, then hits.
  cluster.recover_server(3);
  EXPECT_FALSE(cluster.is_failed(3));
  auto before = backend.calls;
  for (const std::string& key : on_crashed) cluster.get(key, 2 * kSecond);
  EXPECT_EQ(backend.calls - before, on_crashed.size());
  const auto hits = cluster.stats().new_server_hits;
  before = backend.calls;
  for (const std::string& key : on_crashed) cluster.get(key, 3 * kSecond);
  EXPECT_EQ(backend.calls, before);
  EXPECT_EQ(cluster.stats().new_server_hits - hits, on_crashed.size());
}

TEST(ReplicatedFacade, SkippedLocationSpanCausesFollowOneRule) {
  obs::SpanCollector spans(256, /*sample_every=*/1);
  ProteusOptions opt = small_options(2);
  opt.spans = &spans;
  CountingBackend backend;
  Proteus cluster(opt, std::ref(backend));
  std::string key;
  std::vector<int> where;
  for (int i = 0; key.empty(); ++i) {
    const std::string candidate = "page:" + std::to_string(i);
    where = cluster.replica_servers(candidate);
    if (where[0] != where[1]) key = candidate;
  }
  cluster.get(key, 0);

  // A crashed location is down, not quarantined.
  cluster.fail_server(where[0]);
  spans.clear();
  EXPECT_EQ(cluster.get(key, kSecond), "v:" + key);
  std::vector<std::pair<int, obs::SpanCause>> gets;
  for (const obs::SpanRecord& r : spans.snapshot()) {
    if (r.kind == obs::SpanKind::kCacheGet ||
        r.kind == obs::SpanKind::kFailover) {
      gets.emplace_back(r.server, r.cause);
    }
  }
  EXPECT_EQ(gets, (std::vector<std::pair<int, obs::SpanCause>>{
                      {where[0], obs::SpanCause::kDown},
                      {where[1], obs::SpanCause::kHit}}));
  EXPECT_EQ(backend.calls, 1u);

  // Recovered, the server answers again (its detector re-admits it
  // through probation): a clean miss, repaired from ring 1.
  cluster.recover_server(where[0]);
  spans.clear();
  EXPECT_EQ(cluster.get(key, 2 * kSecond), "v:" + key);
  bool repaired = false;
  for (const obs::SpanRecord& r : spans.snapshot()) {
    EXPECT_NE(r.cause, obs::SpanCause::kDown);
    EXPECT_NE(r.cause, obs::SpanCause::kQuarantined);
    repaired |= r.kind == obs::SpanKind::kMigrationStore &&
                r.server == where[0] && r.cause == obs::SpanCause::kStored;
  }
  EXPECT_TRUE(repaired);
  EXPECT_TRUE(cluster.server(where[0]).contains(key, 2 * kSecond));
}

}  // namespace
}  // namespace proteus
