#include "cache/mattson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <vector>

#include "common/rng.h"

namespace proteus::cache {
namespace {

// Brute-force LRU of a fixed item capacity, for cross-checking.
std::uint64_t brute_force_lru_hits(const std::vector<std::string>& keys,
                                   std::size_t capacity) {
  std::list<std::string> lru;  // front = most recent
  std::uint64_t hits = 0;
  for (const std::string& key : keys) {
    auto it = std::find(lru.begin(), lru.end(), key);
    if (it != lru.end()) {
      ++hits;
      lru.erase(it);
    } else if (lru.size() == capacity) {
      lru.pop_back();
    }
    lru.push_front(key);
  }
  return hits;
}

TEST(StackDistance, HandComputedExample) {
  StackDistanceAnalyzer a;
  // a b c a : 'a' re-referenced with distance 3 (a,b,c distinct since).
  for (const char* k : {"a", "b", "c", "a"}) a.record(k);
  EXPECT_EQ(a.references(), 4u);
  EXPECT_EQ(a.cold_misses(), 3u);
  EXPECT_EQ(a.hits_at(2), 0u);
  EXPECT_EQ(a.hits_at(3), 1u);
  EXPECT_EQ(a.hits_at(1000), 1u);
}

TEST(StackDistance, ImmediateReuseIsDistanceOne) {
  StackDistanceAnalyzer a;
  a.record("x");
  a.record("x");
  a.record("x");
  EXPECT_EQ(a.hits_at(1), 2u);
}

TEST(StackDistance, MatchesBruteForceLruOnRandomTraces) {
  Rng rng(42);
  std::vector<std::string> keys;
  for (int i = 0; i < 3000; ++i) {
    keys.push_back("k" + std::to_string(rng.next_below(60)));
  }
  StackDistanceAnalyzer a;
  for (const auto& k : keys) a.record(k);

  for (std::size_t capacity : {1u, 2u, 5u, 10u, 25u, 60u, 100u}) {
    EXPECT_EQ(a.hits_at(capacity), brute_force_lru_hits(keys, capacity))
        << "capacity=" << capacity;
  }
}

TEST(StackDistance, MatchesBruteForceOnZipfTrace) {
  Rng rng(7);
  ZipfSampler zipf(500, 0.9);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back("p" + std::to_string(zipf(rng)));
  }
  StackDistanceAnalyzer a;
  for (const auto& k : keys) a.record(k);
  for (std::size_t capacity : {10u, 50u, 200u, 500u}) {
    EXPECT_EQ(a.hits_at(capacity), brute_force_lru_hits(keys, capacity))
        << "capacity=" << capacity;
  }
}

TEST(StackDistance, CurveIsMonotone) {
  Rng rng(9);
  ZipfSampler zipf(2000, 0.8);
  StackDistanceAnalyzer a;
  for (int i = 0; i < 50'000; ++i) {
    a.record("p" + std::to_string(zipf(rng)));
  }
  const std::vector<std::size_t> caps = {1, 10, 100, 500, 1000, 2000};
  const auto curve = a.hit_ratio_curve(caps);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
  // An infinite cache misses only the compulsory (cold) misses.
  EXPECT_NEAR(a.hit_ratio_at(1u << 20),
              1.0 - static_cast<double>(a.cold_misses()) /
                        static_cast<double>(a.references()),
              1e-12);
}

TEST(StackDistance, CapacityForHitRatio) {
  Rng rng(11);
  ZipfSampler zipf(1000, 1.0);
  StackDistanceAnalyzer a;
  for (int i = 0; i < 30'000; ++i) {
    a.record("p" + std::to_string(zipf(rng)));
  }
  const std::size_t c = a.capacity_for_hit_ratio(0.7);
  ASSERT_GT(c, 0u);
  EXPECT_GE(a.hit_ratio_at(c), 0.7);
  if (c > 1) {
    EXPECT_LT(a.hit_ratio_at(c - 1), 0.7);
  }
  // Unreachable targets return 0.
  EXPECT_EQ(a.capacity_for_hit_ratio(0.9999), 0u);
}

TEST(StackDistance, EmptyAnalyzer) {
  StackDistanceAnalyzer a;
  EXPECT_EQ(a.references(), 0u);
  EXPECT_EQ(a.hits_at(100), 0u);
  EXPECT_EQ(a.hit_ratio_at(100), 0.0);
}

}  // namespace
}  // namespace proteus::cache
