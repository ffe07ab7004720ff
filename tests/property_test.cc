// Parameterized property sweeps over the system's core invariants.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "bloom/config.h"
#include "bloom/counting_bloom_filter.h"
#include "cache/cache_server.h"
#include "common/rng.h"
#include "hashring/proteus_placement.h"
#include "hashring/random_vn_placement.h"

namespace proteus {
namespace {

// --- Placement invariants over cluster sizes -------------------------------

class PlacementProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlacementProperty, VirtualNodeCountMeetsTheorem1) {
  const int n = GetParam();
  ring::ProteusPlacement p(n);
  EXPECT_EQ(p.num_virtual_nodes(),
            static_cast<std::size_t>(n) * (n - 1) / 2 + 1);
}

TEST_P(PlacementProperty, BalanceConditionAtEveryPrefix) {
  const int n = GetParam();
  ring::ProteusPlacement p(n);
  for (int active = 1; active <= n; ++active) {
    for (int s = 0; s < active; ++s) {
      ASSERT_NEAR(p.share(s, active), 1.0 / active, 1e-9)
          << "N=" << n << " active=" << active << " s=" << s;
    }
  }
}

TEST_P(PlacementProperty, MinimalMigrationAtEveryStep) {
  const int n = GetParam();
  ring::ProteusPlacement p(n);
  for (int active = 1; active < n; ++active) {
    ASSERT_NEAR(p.migration_fraction(active, active + 1), 1.0 / (active + 1),
                1e-9);
  }
}

TEST_P(PlacementProperty, LookupNeverReturnsInactiveServer) {
  const int n = GetParam();
  ring::ProteusPlacement p(n);
  Rng rng(static_cast<std::uint64_t>(n));
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t h = rng.next_u64();
    for (int active = 1; active <= n; ++active) {
      const int s = p.server_for(h, active);
      ASSERT_GE(s, 0);
      ASSERT_LT(s, active);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, PlacementProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16,
                                           24, 32, 40, 48, 64));

// --- Consistent-hashing monotonicity across seeds ---------------------------

class RandomRingProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RandomRingProperty, MonotoneUnderShrink) {
  const auto [vnodes, seed] = GetParam();
  ring::RandomVirtualNodePlacement p(10, vnodes, seed);
  Rng rng(seed + 1);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t h = rng.next_u64();
    for (int active = 1; active < 10; ++active) {
      const int at_big = p.server_for(h, active + 1);
      if (at_big != active) {
        ASSERT_EQ(at_big, p.server_for(h, active));
      } else {
        ASSERT_LT(p.server_for(h, active), active);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    VnodeSeeds, RandomRingProperty,
    ::testing::Combine(::testing::Values(1, 3, 5, 50),
                       ::testing::Values(0ull, 42ull, 12345ull)));

// --- Bloom optimizer feasibility over a parameter grid ----------------------

class BloomOptimizerProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, unsigned, double>> {};

TEST_P(BloomOptimizerProperty, ResultSatisfiesBothBounds) {
  const auto [kappa, h, bound] = GetParam();
  const bloom::BloomParams p = bloom::optimize(kappa, h, bound, bound);
  EXPECT_LE(bloom::false_positive_rate(kappa, h, p.num_counters), bound);
  EXPECT_LE(bloom::false_negative_bound(kappa, h, p.num_counters,
                                        p.counter_bits),
            bound);
  // Minimality in b: one bit fewer must violate the FN bound.
  if (p.counter_bits > 1) {
    EXPECT_GT(bloom::false_negative_bound(kappa, h, p.num_counters,
                                          p.counter_bits - 1),
              bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BloomOptimizerProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1000, 10'000, 250'000),
                       ::testing::Values(2u, 4u, 8u),
                       ::testing::Values(1e-3, 1e-4, 1e-6)));

// --- Counting-Bloom digest consistency under random workloads ---------------

class DigestProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DigestProperty, DigestNeverFalselyNegativeForResidentKeys) {
  // Random interleaving of set/erase/evict against a small cache: the
  // digest must answer "yes" for every key actually resident.
  const std::uint64_t seed = GetParam();
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 40'000;
  cfg.per_item_overhead = 0;
  cfg.digest.num_counters = 1 << 14;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  cache::CacheServer cache(cfg);
  Rng rng(seed);

  for (int op = 0; op < 5000; ++op) {
    const std::string key = "k" + std::to_string(rng.next_below(800));
    const double action = rng.next_double();
    if (action < 0.6) {
      cache.set(key, "v", op, 100);
    } else if (action < 0.8) {
      cache.erase(key);
    } else {
      cache.get(key, op);
    }
  }
  // Every resident key must be claimed by the digest.
  for (int i = 0; i < 800; ++i) {
    const std::string key = "k" + std::to_string(i);
    if (cache.contains(key, 5000)) {
      ASSERT_TRUE(cache.digest().maybe_contains(key)) << key;
      ASSERT_TRUE(cache.snapshot_digest().maybe_contains(key)) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigestProperty,
                         ::testing::Values(1ull, 7ull, 99ull, 2024ull, 31337ull));

// --- Replication conflict probability over (r, n) ----------------------------

class ReplicationProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ReplicationProperty, Eq3IsAProbabilityAndMonotone) {
  const auto [r, n] = GetParam();
  const double p = ring::ProteusPlacement::replica_no_conflict_probability(r, n);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
  if (r <= n) {
    // More servers -> fewer conflicts.
    EXPECT_LE(p, ring::ProteusPlacement::replica_no_conflict_probability(
                     r, n + 10));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReplicationProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(1, 2, 10, 100, 1000)));

}  // namespace
}  // namespace proteus
