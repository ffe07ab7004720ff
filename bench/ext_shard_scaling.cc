// Extension experiment — lock-striping throughput A/B.
//
// The daemon used to serialize every cache operation behind one global
// std::timed_mutex; cache/sharded_cache.h hash-partitions the key space
// across N independently locked CacheServer shards. This benchmark drives
// the engine directly (no sockets — it measures the lock, not the kernel)
// with T threads running a 90/10 GET/SET mix over a skewed keyspace, at 1
// shard (the old global-lock regime) and at N shards, and reports the
// speedup. Two correctness riders guard the things sharding is NOT allowed
// to change:
//   * the merged hit ratio over an identical single-threaded trace must be
//     within 1 percentage point of the unsharded server at equal budget
//     (hash-partitioned LRU preserves the aggregate hit ratio the Eq. 5
//     provisioning model depends on);
//   * under OverflowPolicy::kWrap at equal digest budget, the sharded
//     engine must not produce more false negatives than the unsharded
//     baseline (per-shard counters see ~1/N of the insertions).
//
// NOTE: the speedup is only meaningful with >= 2 physical cores — on a
// single-core host the threads time-slice and both configurations measure
// the same serial throughput. The JSON reports `cores` so the caller
// (scripts/bench_json.sh) can gate accordingly.
//
//   ext_shard_scaling [--json] [--quick] [--threads=T] [--shards=N]
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_server.h"
#include "cache/sharded_cache.h"
#include "common/rng.h"

namespace {

using namespace proteus;

constexpr std::size_t kKeySpace = 4096;

std::string key_of(std::size_t id) { return "key" + std::to_string(id); }

// Skewed key pick: cubing the uniform variate concentrates ~50% of traffic
// on ~8% of the keyspace — Zipf-ish hot-set contention without tables.
std::size_t pick_key(Rng& rng) {
  const double u = rng.next_double();
  return static_cast<std::size_t>(static_cast<double>(kKeySpace) * u * u * u);
}

// T threads, 90/10 GET/SET, `ops` operations per thread. Returns ops/s.
double run_mix(cache::ShardedCacheServer& engine, int threads,
               std::uint64_t ops) {
  // Warm the cache so GETs mostly hit (the contended path goes through the
  // LRU touch, which is a write — the honest case for lock striping).
  for (std::size_t i = 0; i < kKeySpace; ++i) {
    engine.set(key_of(i), std::string(64, 'v'), 0);
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&engine, &go, t, ops] {
      Rng rng(0x9e3779b9u + static_cast<std::uint64_t>(t));
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < ops; ++i) {
        const std::string key = key_of(pick_key(rng));
        if (rng.next_below(10) == 0) {
          engine.set(key, std::string(64, 'v'), 0);
        } else {
          engine.get(key, 0);
        }
      }
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  return static_cast<double>(ops) * threads / secs;
}

// Identical single-threaded trace against both backends; returns the two
// hit ratios. The budget forces evictions, so this compares the sharded
// LRU slices against the global LRU — the Eq. 5-relevant quantity.
void hit_ratio_ab(double& flat_ratio, double& sharded_ratio) {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;  // holds ~half the 64 B keyspace
  cache::CacheServer flat(cfg);
  cache::ShardedCacheServer engine(cfg, 8);
  Rng rng(7);
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const std::string key = key_of(pick_key(rng));
    if (rng.next_below(10) == 0) {
      flat.set(key, std::string(64, 'v'), 0);
      engine.set(key, std::string(64, 'v'), 0);
    } else {
      flat.get(key, 0);
      engine.get(key, 0);
    }
  }
  flat_ratio = flat.stats().hit_ratio();
  sharded_ratio = engine.stats().hit_ratio();
}

// kWrap false-negative A/B at equal (tiny) digest budget — same churn, the
// sharded engine must not regress. Returns live-key FN counts.
void wrap_fn_ab(int& flat_fn, int& sharded_fn) {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 1 << 20;
  cfg.digest.num_counters = 64;
  cfg.digest.counter_bits = 2;
  cfg.digest.num_hashes = 2;
  cfg.digest_policy = bloom::OverflowPolicy::kWrap;
  cache::CacheServer flat(cfg);
  cache::ShardedCacheServer engine(cfg, 8);
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
  flat_fn = 0;
  sharded_fn = 0;
  for (int i = 1; i < 400; i += 2) {
    const std::string key = "churn" + std::to_string(i);
    if (!flat.digest().maybe_contains(key)) ++flat_fn;
    if (!engine.digest_maybe_contains(key)) ++sharded_fn;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  int threads = 8;
  int shards = 8;
  std::uint64_t ops = 200000;  // per thread
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      ops = 30000;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else {
      std::fprintf(stderr,
                   "usage: ext_shard_scaling [--json] [--quick] "
                   "[--threads=T] [--shards=N]\n");
      return 2;
    }
  }
  const int cores =
      static_cast<int>(std::thread::hardware_concurrency());

  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 16 << 20;  // keyspace fits: GETs hit

  double base_ops, sharded_ops;
  {
    cache::ShardedCacheServer one(cfg, 1);
    base_ops = run_mix(one, threads, ops);
  }
  {
    cache::ShardedCacheServer many(cfg, shards);
    sharded_ops = run_mix(many, threads, ops);
  }
  const double speedup = sharded_ops / base_ops;

  double flat_ratio, sharded_ratio;
  hit_ratio_ab(flat_ratio, sharded_ratio);
  int flat_fn, sharded_fn;
  wrap_fn_ab(flat_fn, sharded_fn);

  if (json) {
    std::printf(
        "{\"threads\":%d,\"shards\":%d,\"cores\":%d,"
        "\"ops_per_thread\":%llu,"
        "\"baseline_ops_per_s\":%.0f,\"sharded_ops_per_s\":%.0f,"
        "\"speedup\":%.3f,"
        "\"hit_ratio_unsharded\":%.6f,\"hit_ratio_sharded\":%.6f,"
        "\"hit_ratio_delta\":%.6f,"
        "\"wrap_fn_unsharded\":%d,\"wrap_fn_sharded\":%d}\n",
        threads, shards, cores, static_cast<unsigned long long>(ops),
        base_ops, sharded_ops, speedup, flat_ratio, sharded_ratio,
        sharded_ratio - flat_ratio, flat_fn, sharded_fn);
  } else {
    std::printf("shard scaling (%d threads, %d cores, %llu ops/thread)\n",
                threads, cores, static_cast<unsigned long long>(ops));
    std::printf("  1 shard (global lock):  %12.0f ops/s\n", base_ops);
    std::printf("  %d shards (striped):     %12.0f ops/s  (%.2fx)\n", shards,
                sharded_ops, speedup);
    std::printf("  hit ratio: unsharded %.4f vs sharded %.4f (delta %+.4f)\n",
                flat_ratio, sharded_ratio, sharded_ratio - flat_ratio);
    std::printf("  kWrap false negatives: unsharded %d vs sharded %d\n",
                flat_fn, sharded_fn);
    if (cores < 2) {
      std::printf("  (single core: speedup not meaningful here)\n");
    }
  }

  // Self-check the invariants regardless of output mode: these are hard
  // failures, not gated on core count.
  if (std::fabs(sharded_ratio - flat_ratio) > 0.01) {
    std::fprintf(stderr, "FAIL: hit ratio moved more than 1 point\n");
    return 1;
  }
  if (sharded_fn > flat_fn) {
    std::fprintf(stderr, "FAIL: kWrap false-negative regression\n");
    return 1;
  }
  return 0;
}
