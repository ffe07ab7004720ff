// §III-E replication through cluster::Router: r rings share one placement
// and differ only in the key hash, so decide(key, ring) is the key's
// location on each ring.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "common/rng.h"
#include "hashring/proteus_placement.h"

namespace proteus::cluster {
namespace {

using ring::ProteusPlacement;

std::string random_key(Rng& rng) {
  return "k" + std::to_string(rng.next_u64());
}

// The key's server on every ring, in ring order. May repeat a server when
// two rings map the key to the same one (the conflict case of Eq. 3).
std::vector<int> servers_for(const Router& router, const std::string& key) {
  std::vector<int> out;
  for (int r = 0; r < router.replicas(); ++r) {
    out.push_back(router.decide(key, r).primary);
  }
  return out;
}

TEST(ReplicatedRing, SingleReplicaMatchesBarePlacement) {
  auto placement = std::make_shared<ProteusPlacement>(10);
  Rng rng(1);
  for (int n : {1, 5, 10}) {
    const Router router(placement, n, 1);
    for (int i = 0; i < 5000; ++i) {
      const std::string key = random_key(rng);
      const auto servers = servers_for(router, key);
      ASSERT_EQ(servers.size(), 1u);
      ASSERT_EQ(servers[0], placement->server_for(hash_bytes(key), n));
      ASSERT_EQ(router.decide(key).primary, servers[0]);
    }
  }
}

TEST(ReplicatedRing, ReturnsRequestedReplicaCount) {
  auto placement = std::make_shared<ProteusPlacement>(10);
  const Router router(placement, 10, 3);
  EXPECT_EQ(router.replicas(), 3);
  EXPECT_EQ(servers_for(router, "12345").size(), 3u);
}

TEST(ReplicatedRing, ReplicaSelectionIsDeterministic) {
  auto placement = std::make_shared<ProteusPlacement>(10);
  const Router a(placement, 8, 3);
  const Router b(placement, 8, 3);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = random_key(rng);
    EXPECT_EQ(servers_for(a, key), servers_for(b, key));
  }
}

TEST(ReplicatedRing, ConflictRateMatchesEq3) {
  // Measure the fraction of keys whose r replicas land on r distinct
  // servers; §III-E predicts Pnc = prod (n-i)/n.
  auto placement = std::make_shared<ProteusPlacement>(10);
  for (int r : {2, 3}) {
    const Router router(placement, 10, r);
    Rng rng(3);
    int distinct = 0;
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i) {
      const auto servers = servers_for(router, random_key(rng));
      const std::set<int> unique(servers.begin(), servers.end());
      distinct += unique.size() == servers.size();
    }
    const double expected =
        ProteusPlacement::replica_no_conflict_probability(r, 10);
    EXPECT_NEAR(static_cast<double>(distinct) / kSamples, expected, 0.02)
        << "r=" << r;
  }
}

TEST(ReplicatedRing, EachRingIsIndividuallyBalanced) {
  auto placement = std::make_shared<ProteusPlacement>(10);
  const Router router(placement, 10, 2);
  Rng rng(4);
  std::vector<int> counts(10, 0);
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) {
    for (int s : servers_for(router, random_key(rng))) {
      ++counts[static_cast<std::size_t>(s)];
    }
  }
  const double expected = 2.0 * kSamples / 10;
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.05);
}

TEST(ReplicatedRing, ReplicasStayWithinActiveSet) {
  auto placement = std::make_shared<ProteusPlacement>(10);
  const Router router(placement, 4, 3);
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    for (int s : servers_for(router, random_key(rng))) {
      ASSERT_GE(s, 0);
      ASSERT_LT(s, 4);
    }
  }
}

}  // namespace
}  // namespace proteus::cluster
