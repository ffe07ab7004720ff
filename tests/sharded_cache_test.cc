// Lock-striped sharded cache engine tests (cache/sharded_cache.h):
// routing determinism, per-shard eviction independence, merged-digest
// union semantics (incl. the kWrap false-negative comparison against an
// unsharded server at equal budget), flush / stats-reset fan-out, the
// shard-lock deadline shed path on both protocol handlers, admin-traffic
// exclusion from the data-plane hit ratio, and a multi-thread mixed-op
// drill meant to run under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/sharded_cache.h"
#include "cache/text_protocol.h"

namespace proteus::cache {
namespace {

CacheConfig small_config() {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  return cfg;
}

// First key of the form "<prefix><n>" that routes to `shard`.
std::string key_in_shard(const ShardedCacheServer& engine, std::size_t shard,
                        const std::string& prefix = "k") {
  for (int n = 0;; ++n) {
    std::string key = prefix + std::to_string(n);
    if (engine.shard_index(key) == shard) return key;
  }
}

// --- routing ---------------------------------------------------------------

TEST(ShardedCache, RoutingIsDeterministicAndCoversAllShards) {
  ShardedCacheServer a(small_config(), 4);
  ShardedCacheServer b(small_config(), 4);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    const std::size_t shard = a.shard_index(key);
    ASSERT_LT(shard, 4u);
    // Same key, same shard — across calls and across engine instances.
    EXPECT_EQ(a.shard_index(key), shard);
    EXPECT_EQ(b.shard_index(key), shard);
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), 4u);  // 1000 keys cover every shard

  ShardedCacheServer one(small_config(), 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(one.shard_index("key" + std::to_string(i)), 0u);
  }
}

TEST(ShardedCache, DefaultShardsForThreads) {
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(0), 1);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(1), 1);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(2), 2);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(3), 2);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(4), 4);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(7), 4);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(8), 8);
  EXPECT_EQ(ShardedCacheServer::default_shards_for_threads(64), 8);
}

TEST(ShardedCache, BudgetSlicesSumToConfiguredBudget) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = (1 << 20) + 3;  // not divisible by 4
  ShardedCacheServer engine(cfg, 4);
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) {
    total += engine.shard(static_cast<std::size_t>(i)).memory_budget();
  }
  EXPECT_EQ(total, cfg.memory_budget_bytes);
  EXPECT_EQ(engine.memory_budget(), cfg.memory_budget_bytes);
}

// --- per-shard eviction independence ---------------------------------------

TEST(ShardedCache, EvictionOnHotShardsNeverTouchesColdShard) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 64 << 10;  // 16 KB per shard: easy to overflow
  ShardedCacheServer engine(cfg, 4);

  // One resident key on shard 0, then a Zipf-like hammering of the other
  // shards heavy enough to force evictions there.
  const std::string cold = key_in_shard(engine, 0, "cold");
  engine.set(cold, "v", 0);
  int hammered = 0;
  for (int n = 0; hammered < 2000; ++n) {
    const std::string key = "hot" + std::to_string(n);
    if (engine.shard_index(key) == 0) continue;
    engine.set(key, std::string(64, 'x'), 0);
    ++hammered;
  }

  EXPECT_GT(engine.stats().evictions, 0u);       // the hot shards churned
  EXPECT_EQ(engine.shard_stats(0).evictions, 0u);  // the cold one did not
  EXPECT_TRUE(engine.contains(cold, 0));           // and kept its item
}

// --- merged digest ---------------------------------------------------------

TEST(ShardedCache, MergedDigestIsBitwiseUnionOfShardDigests) {
  ShardedCacheServer engine(small_config(), 4);
  for (int i = 0; i < 200; ++i) {
    engine.set("key" + std::to_string(i), "v", 0);
  }
  const bloom::BloomFilter merged = engine.merged_digest_snapshot();
  std::vector<std::uint64_t> expect(merged.words().size(), 0);
  for (std::size_t s = 0; s < 4; ++s) {
    const bloom::BloomFilter part = engine.shard(s).snapshot_digest();
    ASSERT_EQ(part.words().size(), expect.size());  // identical geometry
    for (std::size_t w = 0; w < expect.size(); ++w) {
      expect[w] |= part.words()[w];
    }
  }
  EXPECT_EQ(merged.words(), expect);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(merged.maybe_contains("key" + std::to_string(i)));
    EXPECT_TRUE(engine.digest_maybe_contains("key" + std::to_string(i)));
  }
}

TEST(ShardedCache, MergedDigestWireBlobMatchesUnshardedServer) {
  // Same config, same key set: the blob an unmodified client fetches via
  // the reserved keys must be byte-identical to the single-cache build.
  CacheServer flat(small_config());
  ShardedCacheServer engine(small_config(), 4);
  for (int i = 0; i < 100; ++i) {
    const std::string key = "key" + std::to_string(i);
    flat.set(key, "v", 0);
    engine.set(key, "v", 0);
  }
  ASSERT_EQ(*engine.get(kSetBloomFilterKey, 0), "OK");
  EXPECT_EQ(*engine.get(kGetBloomFilterKey, 0),
            encode_digest(flat.snapshot_digest()));
}

TEST(ShardedCache, WrapPolicyFalseNegativesNoWorseThanUnsharded) {
  // Eq. 5 regression: under kWrap each per-shard counter sees only ~1/N of
  // the insert/erase traffic, so at EQUAL digest budget the sharded engine
  // must not produce more false negatives than the unsharded baseline. The
  // geometry is pinned tiny so the unsharded counters wrap a lot.
  CacheConfig cfg = small_config();
  cfg.digest.num_counters = 64;
  cfg.digest.counter_bits = 2;  // wraps at 4
  cfg.digest.num_hashes = 2;
  cfg.digest_policy = bloom::OverflowPolicy::kWrap;

  CacheServer flat(cfg);
  ShardedCacheServer engine(cfg, 4);
  // Churn: insert 400, erase every other one. Wrapped counters lose
  // increments, so some LIVE keys read as absent — false negatives.
  for (int i = 0; i < 400; ++i) {
    const std::string key = "churn" + std::to_string(i);
    flat.set(key, "v", 0);
    engine.set(key, "v", 0);
  }
  for (int i = 0; i < 400; i += 2) {
    const std::string key = "churn" + std::to_string(i);
    flat.erase(key);
    engine.erase(key);
  }
  int flat_fn = 0;
  int sharded_fn = 0;
  for (int i = 1; i < 400; i += 2) {  // live keys only
    const std::string key = "churn" + std::to_string(i);
    if (!flat.digest().maybe_contains(key)) ++flat_fn;
    if (!engine.digest_maybe_contains(key)) ++sharded_fn;
  }
  EXPECT_GT(flat_fn, 0);  // the baseline actually wrapped — a real test
  EXPECT_LE(sharded_fn, flat_fn);
}

// --- flush / stats-reset fan-out -------------------------------------------

TEST(ShardedCache, FlushEmptiesEveryShardAndDropsStagedDigest) {
  ShardedCacheServer engine(small_config(), 4);
  for (int i = 0; i < 100; ++i) engine.set("key" + std::to_string(i), "v", 0);
  ASSERT_EQ(*engine.get(kSetBloomFilterKey, 0), "OK");  // stage a snapshot
  engine.flush();
  EXPECT_EQ(engine.item_count(), 0u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.shard(s).item_count(), 0u);
  }
  // The staged blob was dropped too: a fresh BLOOM_FILTER pull re-snapshots
  // the (now empty) digest instead of serving the stale pre-flush one.
  EXPECT_FALSE(engine.digest_maybe_contains("key1"));
  EXPECT_EQ(*engine.get(kGetBloomFilterKey, 0),
            *ShardedCacheServer(small_config(), 4).get(kGetBloomFilterKey, 0));
}

TEST(ShardedCache, StatsResetZeroesMergedPerShardAndEngineCounters) {
  ShardedCacheServer engine(small_config(), 4);
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key" + std::to_string(i);
    engine.set(key, "v", 0);
    engine.get(key, 0);
  }
  engine.get(kGetBloomFilterKey, 0);   // admin traffic
  engine.admit_epoch(5);
  engine.admit_epoch(3);               // stale: counted
  ASSERT_GT(engine.stats().gets, 0u);
  ASSERT_GT(engine.stats().admin_gets, 0u);
  ASSERT_EQ(engine.stale_epoch_rejects(), 1u);

  engine.reset_stats();
  const CacheStats merged = engine.stats();
  EXPECT_EQ(merged.gets, 0u);
  EXPECT_EQ(merged.sets, 0u);
  EXPECT_EQ(merged.admin_gets, 0u);
  EXPECT_EQ(engine.stale_epoch_rejects(), 0u);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(engine.shard_stats(s).gets, 0u);
  }
  EXPECT_EQ(engine.item_count(), 50u);  // reset clears counters, not data
}

// --- epoch fencing (engine-wide) -------------------------------------------

TEST(ShardedCache, EpochFencingIsEngineWideNotPerShard) {
  ShardedCacheServer engine(small_config(), 4);
  EXPECT_TRUE(engine.admit_epoch(0));   // unstamped always passes
  EXPECT_TRUE(engine.admit_epoch(7));
  EXPECT_FALSE(engine.admit_epoch(3));  // stale everywhere, not per shard
  EXPECT_EQ(engine.cluster_epoch(), 7u);
  EXPECT_EQ(engine.stale_epoch_rejects(), 1u);
  engine.observe_epoch(9);
  EXPECT_EQ(engine.cluster_epoch(), 9u);
  engine.observe_epoch(2);              // observe never regresses
  EXPECT_EQ(engine.cluster_epoch(), 9u);
  EXPECT_EQ(*engine.get(std::string(kEpochKey), 0),
            "9 " + std::to_string(engine.incarnation()));
}

// --- admin traffic vs hit ratio (satellite: stats correctness) -------------

TEST(ShardedCache, AdminGetsNeverEnterTheDataPlaneHitRatio) {
  ShardedCacheServer engine(small_config(), 4);
  engine.set("k", "v", 0);
  engine.get("k", 0);      // hit
  engine.get("miss", 0);   // miss
  const double expected = 0.5;
  ASSERT_DOUBLE_EQ(engine.stats().hit_ratio(), expected);

  // A digest broadcast + epoch hello storm (what a §IV transition looks
  // like on the wire) must not move the ratio the audit-drift monitor and
  // the SLO burn rate alarm on.
  for (int i = 0; i < 100; ++i) {
    engine.get(kGetBloomFilterKey, 0);
    engine.get(std::string(kEpochKey), 0);
  }
  const CacheStats s = engine.stats();
  EXPECT_EQ(s.gets, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.admin_gets, 200u);
  EXPECT_DOUBLE_EQ(s.hit_ratio(), expected);
}

TEST(ShardedCache, TextStatsPinCmdGetAgainstAdminTraffic) {
  ShardedCacheServer engine(small_config(), 4);
  TextProtocolSession session(engine);
  session.feed("set k 0 0 1\r\nv\r\n", 0);
  session.feed("get k\r\n", 0);
  session.feed("get miss\r\n", 0);
  for (int i = 0; i < 50; ++i) session.feed("get BLOOM_FILTER\r\n", 0);
  const std::string out = session.feed("stats\r\n", 0);
  EXPECT_NE(out.find("STAT cmd_get 2\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT get_hits 1\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT get_misses 1\r\n"), std::string::npos);
  EXPECT_NE(out.find("STAT admin_gets 50\r\n"), std::string::npos);
}

// --- shard-lock deadline shed path (satellite: queue_deadline semantics) ---

// Holds `shard`'s lock on a helper thread until told to let go.
class ShardHolder {
 public:
  ShardHolder(ShardedCacheServer& engine, std::size_t shard)
      : thread_([this, &engine, shard] {
          const auto guard = engine.lock_shard(shard);
          held_.store(true);
          while (!release_.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {
    while (!held_.load()) std::this_thread::yield();
  }
  ~ShardHolder() { release(); }
  void release() {
    release_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::atomic<bool> held_{false};
  std::atomic<bool> release_{false};
  std::thread thread_;
};

TEST(ShardedCache, LockDeadlineZeroMeansWaitForever) {
  ShardedCacheServer engine(small_config(), 4);
  engine.set("k", "v", 0);
  std::atomic<std::uint64_t> pipeline_sheds{0};
  std::atomic<std::uint64_t> deadline_sheds{0};
  PipelinePolicy policy;
  policy.sheds = &pipeline_sheds;
  policy.lock_deadline_us = 0;  // 0 = unlimited, NOT "shed immediately"
  policy.deadline_sheds = &deadline_sheds;
  TextProtocolSession session(engine, nullptr, nullptr, -1, policy);

  ShardHolder holder(engine, engine.shard_index("k"));
  std::thread releaser([&holder] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    holder.release();
  });
  // Blocks across the contention window, then succeeds — never sheds.
  EXPECT_EQ(session.feed("get k\r\n", 0), "VALUE k 0 1\r\nv\r\nEND\r\n");
  releaser.join();
  EXPECT_EQ(deadline_sheds.load(), 0u);
  EXPECT_EQ(pipeline_sheds.load(), 0u);
}

TEST(ShardedCache, DeadlineTimeoutShedsOnceOnTextHandler) {
  ShardedCacheServer engine(small_config(), 4);
  engine.set("k", "v", 0);
  std::atomic<std::uint64_t> pipeline_sheds{0};
  std::atomic<std::uint64_t> deadline_sheds{0};
  PipelinePolicy policy;
  policy.max_per_batch = 8;  // a cap is configured but never the shedder here
  policy.sheds = &pipeline_sheds;
  policy.lock_deadline_us = 2000;  // 2 ms
  policy.deadline_sheds = &deadline_sheds;
  TextProtocolSession session(engine, nullptr, nullptr, -1, policy);

  ShardHolder holder(engine, engine.shard_index("k"));
  EXPECT_EQ(session.feed("get k\r\n", 0), "SERVER_ERROR overloaded\r\n");
  EXPECT_EQ(session.feed("set k 0 0 1\r\nx\r\n", 0),
            "SERVER_ERROR overloaded\r\n");
  holder.release();
  // One count per shed command, on the DEADLINE counter only — a command
  // never lands in both shed buckets.
  EXPECT_EQ(deadline_sheds.load(), 2u);
  EXPECT_EQ(pipeline_sheds.load(), 0u);
  // The lock is free again: same session recovers without resync.
  EXPECT_EQ(session.feed("get k\r\n", 0), "VALUE k 0 1\r\nv\r\nEND\r\n");
}

TEST(ShardedCache, PipelineCapShedNeverDoubleCountsAsDeadlineShed) {
  ShardedCacheServer engine(small_config(), 4);
  std::atomic<std::uint64_t> pipeline_sheds{0};
  std::atomic<std::uint64_t> deadline_sheds{0};
  PipelinePolicy policy;
  policy.max_per_batch = 1;
  policy.sheds = &pipeline_sheds;
  policy.lock_deadline_us = 2000;  // armed, but cap-shed commands must
  policy.deadline_sheds = &deadline_sheds;  // never reach the lock
  TextProtocolSession session(engine, nullptr, nullptr, -1, policy);

  // Two commands to the SAME shard in one batch: the second is shed by the
  // per-shard pipeline cap alone.
  const std::string a = key_in_shard(engine, 2, "a");
  const std::string b = key_in_shard(engine, 2, "b");
  engine.set(a, "v", 0);
  const std::string out =
      session.feed("get " + a + "\r\nget " + b + "\r\n", 0);
  EXPECT_EQ(out, "VALUE " + a + " 0 1\r\nv\r\nEND\r\n" +
                     "SERVER_ERROR overloaded\r\n");
  EXPECT_EQ(pipeline_sheds.load(), 1u);
  EXPECT_EQ(deadline_sheds.load(), 0u);
}

TEST(ShardedCache, PipelineCapIsPerShardNotPerBatch) {
  ShardedCacheServer engine(small_config(), 4);
  std::atomic<std::uint64_t> pipeline_sheds{0};
  PipelinePolicy policy;
  policy.max_per_batch = 1;
  policy.sheds = &pipeline_sheds;
  TextProtocolSession session(engine, nullptr, nullptr, -1, policy);

  // Two commands to DIFFERENT shards: each is within its shard's budget,
  // so a cap that would have shed the second under one global lock now
  // serves both — that is the point of striping.
  const std::string a = key_in_shard(engine, 1, "a");
  const std::string b = key_in_shard(engine, 3, "b");
  engine.set(a, "v", 0);
  engine.set(b, "w", 0);
  const std::string out =
      session.feed("get " + a + "\r\nget " + b + "\r\n", 0);
  EXPECT_EQ(out, "VALUE " + a + " 0 1\r\nv\r\nEND\r\n" + "VALUE " + b +
                     " 0 1\r\nw\r\nEND\r\n");
  EXPECT_EQ(pipeline_sheds.load(), 0u);
}

// --- concurrency drill (run under TSan via scripts/check.sh thread) --------

TEST(ShardedCache, EightThreadMixedOpDrill) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 256 << 10;  // small: constant eviction pressure
  ShardedCacheServer engine(cfg, 8);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&engine, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "key" + std::to_string((t * 31 + i * 7) % 512);
        switch (i % 8) {
          case 0: case 1: case 2:
            engine.get(key, 0);
            break;
          case 3: case 4:
            engine.set(key, std::string(32, 'v'), 0);
            break;
          case 5:
            engine.erase(key);
            break;
          case 6:
            engine.contains(key, 0);
            break;
          case 7:
            // Sampler-shaped traffic: merged readers and the digest
            // broadcast, concurrent with the data plane.
            if (i % 200 == 7) {
              engine.stats();
              engine.item_count();
              engine.get(kGetBloomFilterKey, 0);
            } else {
              engine.get(key, 0);
            }
            break;
        }
      }
    });
  }
  // One "operator" thread exercising the all-lock fan-outs concurrently.
  std::thread op([&engine] {
    for (int i = 0; i < 20; ++i) {
      engine.shard_imbalance();
      engine.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  op.join();

  EXPECT_LE(engine.bytes_used(), cfg.memory_budget_bytes);
  const CacheStats s = engine.stats();
  EXPECT_GT(s.gets, 0u);
  EXPECT_GT(s.sets, 0u);
}

}  // namespace
}  // namespace proteus::cache
