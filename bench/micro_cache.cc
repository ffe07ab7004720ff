// Microbenchmarks — cache server data-plane cost (memcached-equivalent ops
// with the digest maintained inline).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "cache/cache_server.h"
#include "cache/sharded_cache.h"
#include "common/rng.h"

namespace {

using namespace proteus;
using namespace proteus::cache;

CacheConfig bench_config() {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 256u << 20;
  cfg.digest.num_counters = 1 << 20;
  cfg.digest.counter_bits = 3;
  cfg.digest.num_hashes = 4;
  return cfg;
}

void BM_CacheSet(benchmark::State& state) {
  CacheServer cache(bench_config());
  std::uint64_t k = 0;
  for (auto _ : state) {
    cache.set("page:" + std::to_string(k++ % 100'000), "value", 0, 4096);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheSet);

void BM_CacheGetHit(benchmark::State& state) {
  CacheServer cache(bench_config());
  std::vector<std::string> keys;
  for (int i = 0; i < 10'000; ++i) {
    keys.push_back("page:" + std::to_string(i));
    cache.set(keys.back(), "value", 0, 1024);
  }
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(keys[k++ % keys.size()], 0));
  }
}
BENCHMARK(BM_CacheGetHit);

void BM_CacheGetHitResident(benchmark::State& state) {
  // Get hits at three index sizes: the simulator's ~1k items per server,
  // hot-get's 20k keys and a full 64 MB daemon's 400k 100-byte items. Keys
  // are drawn in random order so each lookup pays its cache misses.
  CacheServer cache(bench_config());
  const auto resident = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> keys;
  keys.reserve(resident);
  for (std::size_t i = 0; i < resident; ++i) {
    keys.push_back("page:" + std::to_string(i));
    cache.set(keys.back(), "value", 0, 100);
  }
  Rng rng(11);
  std::vector<const std::string*> order(1 << 16);
  for (auto& key : order) key = &keys[rng.next_below(resident)];
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.get(*order[k++ & (order.size() - 1)], 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheGetHitResident)->Arg(1'000)->Arg(20'000)->Arg(400'000);

void BM_CacheGetMiss(benchmark::State& state) {
  CacheServer cache(bench_config());
  std::uint64_t k = 0;
  std::string key;
  for (auto _ : state) {
    key = "absent:" + std::to_string(k++);
    benchmark::DoNotOptimize(cache.get(key, 0));
  }
}
BENCHMARK(BM_CacheGetMiss);

void BM_CacheChurnWithEviction(benchmark::State& state) {
  // Small budget: every set evicts, exercising link+unlink+digest twice.
  CacheConfig cfg = bench_config();
  cfg.memory_budget_bytes = 1 << 20;
  CacheServer cache(cfg);
  std::uint64_t k = 0;
  for (auto _ : state) {
    cache.set("page:" + std::to_string(k++), "value", 0, 4096);
  }
}
BENCHMARK(BM_CacheChurnWithEviction);

void BM_CacheMixedZipf(benchmark::State& state) {
  // 90% get / 10% set with Zipf-distributed keys, the realistic mix.
  CacheServer cache(bench_config());
  Rng rng(7);
  ZipfSampler zipf(100'000, 0.9);
  for (int i = 0; i < 50'000; ++i) {
    cache.set("page:" + std::to_string(zipf(rng)), "value", 0, 1024);
  }
  for (auto _ : state) {
    const std::string key = "page:" + std::to_string(zipf(rng));
    if (rng.next_double() < 0.9) {
      benchmark::DoNotOptimize(cache.get(key, 0));
    } else {
      cache.set(key, "value", 0, 1024);
    }
  }
}
BENCHMARK(BM_CacheMixedZipf);

void BM_SnapshotDigestWire(benchmark::State& state) {
  // Full SET_BLOOM_FILTER + BLOOM_FILTER protocol round trip.
  ShardedCacheServer cache(bench_config(), 1);
  for (int i = 0; i < 50'000; ++i) {
    cache.set("page:" + std::to_string(i), "v", 0, 1024);
  }
  for (auto _ : state) {
    cache.get(kSetBloomFilterKey, 0);
    benchmark::DoNotOptimize(cache.get(kGetBloomFilterKey, 0));
  }
}
BENCHMARK(BM_SnapshotDigestWire);

}  // namespace
