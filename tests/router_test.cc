#include "cluster/router.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hashring/proteus_placement.h"
#include "hashring/replicated_ring.h"

namespace proteus::cluster {
namespace {

std::shared_ptr<const ring::ProteusPlacement> placement10() {
  static auto p = std::make_shared<ring::ProteusPlacement>(10);
  return p;
}

// Digest vector where every old server claims to hold every key.
std::vector<std::optional<bloom::BloomFilter>> all_positive_digests(int n) {
  std::vector<std::optional<bloom::BloomFilter>> digests(10);
  for (int i = 0; i < n; ++i) {
    bloom::BloomFilter bf(64, 1);
    // Saturate: all bits set -> maybe_contains always true.
    for (std::uint64_t k = 0; k < 2000; ++k) bf.insert(k);
    digests[static_cast<std::size_t>(i)] = bf;
  }
  return digests;
}

std::vector<std::optional<bloom::BloomFilter>> empty_digests(int n) {
  std::vector<std::optional<bloom::BloomFilter>> digests(10);
  for (int i = 0; i < n; ++i) digests[static_cast<std::size_t>(i)] = bloom::BloomFilter(1 << 16, 4);
  return digests;
}

TEST(Router, NoFallbackOutsideTransition) {
  Router router(placement10(), 10);
  for (int i = 0; i < 500; ++i) {
    const auto d = router.decide("page:" + std::to_string(i));
    EXPECT_GE(d.primary, 0);
    EXPECT_LT(d.primary, 10);
    EXPECT_EQ(d.fallback, -1);
  }
}

TEST(Router, DecisionsMatchPlacement) {
  Router router(placement10(), 7);
  for (int i = 0; i < 500; ++i) {
    const std::string key = "page:" + std::to_string(i);
    EXPECT_EQ(router.decide(key).primary,
              placement10()->server_for(hash_bytes(key), 7));
  }
}

TEST(Router, SetActiveSwitchesInstantly) {
  Router router(placement10(), 10);
  router.set_active(5);
  EXPECT_EQ(router.active(), 5);
  EXPECT_FALSE(router.in_transition());
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(router.decide("k" + std::to_string(i)).primary, 5);
  }
}

TEST(Router, TransitionExposesOldLocationWhenDigestPositive) {
  Router router(placement10(), 10);
  router.begin_transition(5, 100 * kSecond, all_positive_digests(10));
  EXPECT_TRUE(router.in_transition());
  EXPECT_EQ(router.active(), 5);
  EXPECT_EQ(router.old_active(), 10);

  int fallbacks = 0;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const auto d = router.decide(key);
    EXPECT_LT(d.primary, 5);
    const int old_server = placement10()->server_for(hash_bytes(key), 10);
    if (old_server != d.primary) {
      // Digest always says yes, so the old location must be offered.
      EXPECT_EQ(d.fallback, old_server);
      ++fallbacks;
    } else {
      EXPECT_EQ(d.fallback, -1);
    }
  }
  // Shrinking 10 -> 5 remaps half the keys.
  EXPECT_NEAR(fallbacks, 1000, 100);
}

TEST(Router, NegativeDigestSuppressesFallback) {
  Router router(placement10(), 10);
  router.begin_transition(5, 100 * kSecond, empty_digests(10));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(router.decide("page:" + std::to_string(i)).fallback, -1);
  }
}

TEST(Router, ScaleUpFallsBackToOldSmallerMapping) {
  Router router(placement10(), 4);
  router.begin_transition(8, 100 * kSecond, all_positive_digests(4));
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "page:" + std::to_string(i);
    const auto d = router.decide(key);
    EXPECT_LT(d.primary, 8);
    if (d.fallback != -1) {
      EXPECT_LT(d.fallback, 4);  // old location is in the old active set
      EXPECT_EQ(d.fallback, placement10()->server_for(hash_bytes(key), 4));
    }
  }
}

TEST(Router, FinalizeEndsTransition) {
  Router router(placement10(), 10);
  router.begin_transition(5, 100 * kSecond, all_positive_digests(10));
  router.finalize_transition();
  EXPECT_FALSE(router.in_transition());
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(router.decide("page:" + std::to_string(i)).fallback, -1);
  }
}

TEST(Router, MissingDigestMeansNoFallback) {
  Router router(placement10(), 10);
  std::vector<std::optional<bloom::BloomFilter>> digests(10);  // all nullopt
  router.begin_transition(5, 100 * kSecond, std::move(digests));
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(router.decide("page:" + std::to_string(i)).fallback, -1);
  }
}

TEST(Router, ConsistentAcrossReplicas) {
  // Two routers built from the same placement and digests (two web servers
  // after the broadcast) must agree on every decision — §II objective 3.
  Router a(placement10(), 10);
  Router b(placement10(), 10);
  a.begin_transition(6, kSecond, all_positive_digests(10));
  b.begin_transition(6, kSecond, all_positive_digests(10));
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto da = a.decide(key);
    const auto db = b.decide(key);
    ASSERT_EQ(da.primary, db.primary);
    ASSERT_EQ(da.fallback, db.fallback);
  }
}

// One Router holds every §III-E ring and keeps one transition for all.
constexpr int kRings = 3;

int ring_server(const std::string& key, int ring, int n) {
  return placement10()->server_for(
      ring::replica_ring_hash(hash_bytes(key), ring), n);
}

TEST(Router, OneTransitionServesEveryRing) {
  Router router(placement10(), 10, kRings);
  router.begin_transition(5, 100 * kSecond, all_positive_digests(10));
  for (int r = 0; r < kRings; ++r) {
    int fallbacks = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "page:" + std::to_string(i);
      const auto d = router.decide(key, r);
      EXPECT_EQ(d.primary, ring_server(key, r, 5)) << "ring " << r;
      EXPECT_EQ(d.old, ring_server(key, r, 10)) << "ring " << r;
      EXPECT_EQ(d.fallback, d.old != d.primary ? d.old : -1) << "ring " << r;
      fallbacks += d.fallback != -1;
    }
    EXPECT_NEAR(fallbacks, 1000, 100) << "ring " << r;
  }
}

TEST(Router, DropOldDigestClearsEveryRing) {
  Router router(placement10(), 10, kRings);
  router.begin_transition(5, 100 * kSecond, all_positive_digests(10));
  router.drop_old_digest(7);
  for (int r = 0; r < kRings; ++r) {
    int dropped = 0;
    int kept = 0;
    for (int i = 0; i < 2000; ++i) {
      const std::string key = "page:" + std::to_string(i);
      const auto d = router.decide(key, r);
      EXPECT_NE(d.fallback, 7) << "ring " << r;
      dropped += d.old == 7;
      kept += d.fallback != -1;
    }
    EXPECT_GT(dropped, 0) << "ring " << r;  // server 7 was an old location
    EXPECT_GT(kept, 0) << "ring " << r;     // the other digests still steer
  }
}

TEST(Router, FinalizeAndSetActiveEndEveryRing) {
  for (const bool finalize : {true, false}) {
    Router router(placement10(), 10, kRings);
    router.begin_transition(5, 100 * kSecond, all_positive_digests(10));
    if (finalize) {
      router.finalize_transition();
    } else {
      router.set_active(5);
    }
    EXPECT_FALSE(router.in_transition());
    for (int r = 0; r < kRings; ++r) {
      for (int i = 0; i < 500; ++i) {
        const auto d = router.decide("page:" + std::to_string(i), r);
        EXPECT_EQ(d.old, -1) << "ring " << r;
        EXPECT_EQ(d.fallback, -1) << "ring " << r;
      }
    }
  }
}

TEST(Router, RingOutsideReplicasAssertsInDebugBuilds) {
  const Router router(placement10(), 10, kRings);
  EXPECT_DEBUG_DEATH(router.decide("page:1", kRings), "ring < replicas_");
}

}  // namespace
}  // namespace proteus::cluster
