#include "cache/cache_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <list>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/sharded_cache.h"

#include "common/hash.h"
#include "common/rng.h"

// Counts every allocation in this binary, so a test can check that a
// call makes none.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a caller, free() would meet a pointer from
// operator new there, which -Wmismatched-new-delete reports.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace proteus::cache {
namespace {

CacheConfig small_config(std::size_t budget = 1 << 20) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = budget;
  cfg.digest.num_counters = 1 << 14;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

TEST(CacheServer, SetGetRoundTrip) {
  CacheServer cache(small_config());
  cache.set("page:1", "hello", 0);
  auto v = cache.get("page:1", 1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CacheServer, MissOnAbsentKey) {
  CacheServer cache(small_config());
  EXPECT_FALSE(cache.get("nope", 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheServer, OverwriteReplacesValue) {
  CacheServer cache(small_config());
  cache.set("k", "v1", 0);
  cache.set("k", "v2", 1);
  EXPECT_EQ(*cache.get("k", 2), "v2");
  EXPECT_EQ(cache.item_count(), 1u);
}

TEST(CacheServer, LruEvictionOrder) {
  CacheConfig cfg = small_config();
  cfg.per_item_overhead = 0;
  // Budget for ~3 items of charge (1-char key + 10-byte charge).
  cfg.memory_budget_bytes = 3 * 11;
  CacheServer cache(cfg);
  cache.set("a", "x", 0, 10);
  cache.set("b", "x", 1, 10);
  cache.set("c", "x", 2, 10);
  // Touch "a" so "b" becomes LRU; inserting "d" must evict "b".
  EXPECT_TRUE(cache.get("a", 3).has_value());
  cache.set("d", "x", 4, 10);
  EXPECT_TRUE(cache.contains("a", 5));
  EXPECT_FALSE(cache.contains("b", 5));
  EXPECT_TRUE(cache.contains("c", 5));
  EXPECT_TRUE(cache.contains("d", 5));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheServer, BudgetIsRespected) {
  CacheConfig cfg = small_config(1000);
  cfg.per_item_overhead = 0;
  CacheServer cache(cfg);
  for (int i = 0; i < 100; ++i) {
    cache.set("key:" + std::to_string(i), "", 0, 90);
  }
  EXPECT_LE(cache.bytes_used(), 1000u);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(CacheServer, OversizedItemIsRejected) {
  CacheConfig cfg = small_config(100);
  CacheServer cache(cfg);
  cache.set("big", "", 0, 1000);
  EXPECT_EQ(cache.item_count(), 0u);
  EXPECT_FALSE(cache.contains("big", 0));
}

TEST(CacheServer, ChargeOverrideAccountsSyntheticSize) {
  CacheConfig cfg = small_config();
  cfg.per_item_overhead = 0;
  CacheServer cache(cfg);
  cache.set("k", "tiny", 0, 4096);
  EXPECT_EQ(cache.bytes_used(), 1 + 4096u);
}

TEST(CacheServer, TtlExpiryOnAccess) {
  CacheConfig cfg = small_config();
  cfg.item_ttl = 10 * kSecond;
  CacheServer cache(cfg);
  cache.set("k", "v", 0);
  EXPECT_TRUE(cache.get("k", 5 * kSecond).has_value());   // refreshes
  EXPECT_TRUE(cache.get("k", 14 * kSecond).has_value());  // within ttl of touch
  EXPECT_FALSE(cache.get("k", 30 * kSecond).has_value()); // expired
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.item_count(), 0u);
}

TEST(CacheServer, EraseRemovesItem) {
  CacheServer cache(small_config());
  cache.set("k", "v", 0);
  EXPECT_TRUE(cache.erase("k"));
  EXPECT_FALSE(cache.erase("k"));
  EXPECT_FALSE(cache.contains("k", 0));
  EXPECT_EQ(cache.stats().deletes, 1u);
}

TEST(CacheServer, FlushClearsEverything) {
  CacheServer cache(small_config());
  for (int i = 0; i < 50; ++i) cache.set("k" + std::to_string(i), "v", 0);
  cache.flush();
  EXPECT_EQ(cache.item_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.digest().nonzero_counters(), 0u);
}

// --- digest consistency (the do_item_link/unlink hook, §V-3) ---------------

TEST(CacheServer, DigestTracksResidentKeys) {
  CacheServer cache(small_config());
  for (int i = 0; i < 200; ++i) cache.set("k" + std::to_string(i), "v", 0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(cache.digest().maybe_contains("k" + std::to_string(i))) << i;
  }
  for (int i = 0; i < 100; ++i) cache.erase("k" + std::to_string(i));
  // Removed keys leave the digest (up to residual false positives).
  int still_positive = 0;
  for (int i = 0; i < 100; ++i) {
    still_positive += cache.digest().maybe_contains("k" + std::to_string(i));
  }
  EXPECT_LT(still_positive, 5);
}

TEST(CacheServer, DigestTracksEvictions) {
  CacheConfig cfg = small_config(500);
  cfg.per_item_overhead = 0;
  CacheServer cache(cfg);
  cache.set("victim", "", 0, 400);
  cache.set("newer", "", 1, 400);  // evicts "victim"
  EXPECT_FALSE(cache.contains("victim", 1));
  EXPECT_FALSE(cache.digest().maybe_contains("victim"));
  EXPECT_TRUE(cache.digest().maybe_contains("newer"));
}

TEST(CacheServer, SnapshotDigestMatchesContent) {
  CacheServer cache(small_config());
  for (int i = 0; i < 100; ++i) cache.set("k" + std::to_string(i), "v", 0);
  bloom::BloomFilter snap = cache.snapshot_digest();
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(snap.maybe_contains("k" + std::to_string(i)));
  }
}

// --- reserved protocol keys (§V-3), served by a 1-shard engine -------------

TEST(CacheServer, BloomFilterProtocolKeys) {
  ShardedCacheServer cache(small_config(), 1);
  for (int i = 0; i < 64; ++i) cache.set("k" + std::to_string(i), "v", 0);

  auto ok = cache.get(kSetBloomFilterKey, 0);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, "OK");

  auto blob = cache.get(kGetBloomFilterKey, 0);
  ASSERT_TRUE(blob.has_value());
  const bloom::BloomFilter decoded = decode_digest(*blob);
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(decoded.maybe_contains("k" + std::to_string(i)));
  }
}

TEST(CacheServer, SnapshotIsStableUntilRetaken) {
  ShardedCacheServer cache(small_config(), 1);
  cache.set("early", "v", 0);
  cache.get(kSetBloomFilterKey, 0);  // snapshot now
  cache.set("late", "v", 1);
  const bloom::BloomFilter snap = decode_digest(*cache.get(kGetBloomFilterKey, 1));
  EXPECT_TRUE(snap.maybe_contains("early"));
  EXPECT_FALSE(snap.maybe_contains("late"));
  // Re-snapshot picks up the new key.
  cache.get(kSetBloomFilterKey, 2);
  const bloom::BloomFilter snap2 = decode_digest(*cache.get(kGetBloomFilterKey, 2));
  EXPECT_TRUE(snap2.maybe_contains("late"));
}

TEST(CacheServer, ProtocolKeysDoNotPolluteStats) {
  ShardedCacheServer cache(small_config(), 1);
  cache.get(kSetBloomFilterKey, 0);
  cache.get(kGetBloomFilterKey, 0);
  EXPECT_EQ(cache.stats().gets, 0u);
}

TEST(CacheServer, DigestCodecRoundTrip) {
  bloom::BloomFilter bf(2048, 4, 77);
  for (int i = 0; i < 100; ++i) bf.insert("x" + std::to_string(i));
  const bloom::BloomFilter decoded = decode_digest(encode_digest(bf));
  EXPECT_EQ(bf, decoded);
}

// --- power states ------------------------------------------------------------

TEST(CacheServer, PowerCycleDropsData) {
  CacheServer cache(small_config());
  cache.set("k", "v", 0);
  cache.power_off();
  EXPECT_EQ(cache.power_state(), PowerState::kOff);
  cache.power_on();
  EXPECT_EQ(cache.power_state(), PowerState::kActive);
  EXPECT_FALSE(cache.contains("k", 0));
  EXPECT_EQ(cache.digest().nonzero_counters(), 0u);
}

TEST(CacheServer, DrainingServerStillServes) {
  CacheServer cache(small_config());
  cache.set("k", "v", 0);
  cache.begin_draining();
  EXPECT_EQ(cache.power_state(), PowerState::kDraining);
  EXPECT_TRUE(cache.get("k", 1).has_value());
}

TEST(CacheServer, HotItemCount) {
  CacheServer cache(small_config());
  cache.set("old", "v", 0);
  cache.set("new", "v", 100 * kSecond);
  EXPECT_EQ(cache.hot_item_count(100 * kSecond, 10 * kSecond), 1u);
  EXPECT_EQ(cache.hot_item_count(100 * kSecond, 200 * kSecond), 2u);
}

TEST(CacheServer, ResidencyFollowsStoresAndErases) {
  CacheServer cache(small_config());
  EXPECT_FALSE(cache.contains("a", 0));
  EXPECT_TRUE(cache.set("a", "1", 0));
  EXPECT_TRUE(cache.set("b", "1", 0));
  EXPECT_TRUE(cache.contains("a", 0));
  EXPECT_TRUE(cache.contains("b", 0));
  EXPECT_TRUE(cache.set("a", "2", 1));  // an overwrite stays resident
  EXPECT_TRUE(cache.contains("a", 1));
  EXPECT_EQ(*cache.get("a", 1), "2");
  EXPECT_TRUE(cache.erase("a"));
  EXPECT_FALSE(cache.contains("a", 1));
  EXPECT_FALSE(cache.contains("absent", 0));
}

TEST(CacheServer, SetReportsWhetherItStored) {
  CacheServer cache(small_config());
  EXPECT_TRUE(cache.set("k", "v1", 0, /*charge=*/0, /*flags=*/7));
  EXPECT_TRUE(cache.set("k", "v2", 1));
  // One lookup serves the bytes and the metadata.
  CacheServer::ItemMeta meta;
  EXPECT_EQ(*cache.get("k", 2, &meta), "v2");
  EXPECT_EQ(meta.flags, 0u);
  EXPECT_FALSE(meta.crc.has_value());
  // A value that can never fit is not stored, and drops the older copy.
  EXPECT_FALSE(cache.set("k", std::string(small_config().memory_budget_bytes,
                                          'x'),
                         3));
  EXPECT_FALSE(cache.contains("k", 3));
}

TEST(CacheServer, ExpireIdleSweepsColdTail) {
  CacheServer cache(small_config());
  cache.set("cold1", "v", 0);
  cache.set("cold2", "v", kSecond);
  cache.set("hot", "v", 20 * kSecond);
  // At t=30s with a 15 s idle limit, only "hot" (idle 10 s) survives.
  EXPECT_EQ(cache.expire_idle(30 * kSecond, 15 * kSecond), 2u);
  EXPECT_FALSE(cache.contains("cold1", 30 * kSecond));
  EXPECT_FALSE(cache.contains("cold2", 30 * kSecond));
  EXPECT_TRUE(cache.contains("hot", 30 * kSecond));
  EXPECT_EQ(cache.stats().expirations, 2u);
  // Idempotent.
  EXPECT_EQ(cache.expire_idle(30 * kSecond, 15 * kSecond), 0u);
}

TEST(CacheServer, ExpireIdleRespectsLruRefresh) {
  CacheServer cache(small_config());
  cache.set("a", "v", 0);
  cache.set("b", "v", 0);
  cache.get("a", 20 * kSecond);  // refresh a
  EXPECT_EQ(cache.expire_idle(25 * kSecond, 10 * kSecond), 1u);
  EXPECT_TRUE(cache.contains("a", 25 * kSecond));
  EXPECT_FALSE(cache.contains("b", 25 * kSecond));
}

TEST(CacheServer, AutoSizedDigestSatisfiesPaperBounds) {
  CacheConfig cfg;
  cfg.memory_budget_bytes = 64 << 20;  // ~16k 4KB objects
  CacheServer cache(cfg);
  const auto& params = cache.config().digest;
  EXPECT_EQ(params.num_hashes, 4u);
  EXPECT_LE(bloom::false_positive_rate(params.expected_keys, params.num_hashes,
                                       params.num_counters),
            1e-4);

  // Only a zero num_counters asks for auto-sizing: a geometry the caller
  // sets is kept, whatever the budget.
  cfg.digest = {1 << 12, 4, 4};
  CacheServer fixed(cfg);
  EXPECT_EQ(fixed.digest().num_counters(), std::size_t{1} << 12);
  EXPECT_EQ(fixed.digest().counter_bits(), 4u);
  EXPECT_EQ(fixed.digest().num_hashes(), 4u);
}

TEST(CacheServer, ServeTimeVerifyDropsCorruptStampedItems) {
  CacheServer cache(small_config());
  const std::string value = "payload-guarded-by-crc32c";
  cache.set("ck", value, 0, /*charge=*/0, /*flags=*/0, crc32c(value));
  CacheServer::ItemMeta meta;
  EXPECT_EQ(*cache.get("ck", 1, &meta), value);
  EXPECT_EQ(meta.crc, crc32c(value));
  EXPECT_EQ(cache.stats().corrupt_drops, 0u);

  // At-rest rot: flip one bit under the stored stamp. The next serve must
  // answer a miss (never the corrupt bytes), count the drop, and unlink the
  // item so later gets are ordinary misses counted only once.
  ASSERT_TRUE(cache.corrupt_value_for_test("ck", 13));
  EXPECT_FALSE(cache.get("ck", 2).has_value());
  EXPECT_EQ(cache.stats().corrupt_drops, 1u);
  EXPECT_FALSE(cache.get("ck", 3).has_value());
  EXPECT_EQ(cache.stats().corrupt_drops, 1u);

  // A fresh write under the same key serves again.
  cache.set("ck", value, 4, /*charge=*/0, /*flags=*/0, crc32c(value));
  EXPECT_EQ(*cache.get("ck", 5), value);
}

TEST(CacheServer, UnstampedItemsAreNotVerified) {
  CacheServer cache(small_config());
  cache.set("legacy", "no-stamp-here", 0);
  ASSERT_TRUE(cache.corrupt_value_for_test("legacy", 5));
  // No stamp means no way to tell rot from a legitimate value: the item
  // keeps serving (stock memcached behavior) and nothing is counted.
  CacheServer::ItemMeta meta;
  EXPECT_TRUE(cache.get("legacy", 1, &meta).has_value());
  EXPECT_EQ(cache.stats().corrupt_drops, 0u);
  EXPECT_FALSE(meta.crc.has_value());
}

TEST(CacheServer, GetIntoHitReusesTheBufferWithoutAllocating) {
  CacheServer cache(small_config());
  const std::string value(100, 'v');  // past the small-string buffer
  cache.set("k", value, 0, /*charge=*/0, /*flags=*/7, crc32c(value));
  std::string out;
  out.reserve(256);
  const char* buffer = out.data();
  CacheServer::ItemMeta meta;
  const std::uint64_t before = g_allocations.load();
  const bool hit = cache.get_into("k", 1, out, &meta);
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(hit);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(out, value);
  EXPECT_EQ(out.data(), buffer);
  EXPECT_EQ(meta.flags, 7u);
  EXPECT_EQ(meta.crc, crc32c(value));
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CacheServer, GetIntoMissesLeaveTheBufferUntouched) {
  CacheConfig cfg = small_config();
  cfg.item_ttl = 10 * kSecond;
  CacheServer cache(cfg);
  const std::string kept = "what the buffer held before the get";
  std::string out = kept;
  CacheServer::ItemMeta meta;
  meta.flags = 42;

  EXPECT_FALSE(cache.get_into("absent", 0, out, &meta));

  cache.set("old", "v", 0);
  EXPECT_FALSE(cache.get_into("old", 30 * kSecond, out, &meta));
  EXPECT_EQ(cache.stats().expirations, 1u);

  const std::string value = "payload-guarded-by-crc32c";
  cache.set("ck", value, 30 * kSecond, /*charge=*/0, /*flags=*/0,
            crc32c(value));
  ASSERT_TRUE(cache.corrupt_value_for_test("ck", 13));
  EXPECT_FALSE(cache.get_into("ck", 31 * kSecond, out, &meta));
  EXPECT_EQ(cache.stats().corrupt_drops, 1u);

  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(out, kept);
  EXPECT_EQ(meta.flags, 42u);
  EXPECT_FALSE(meta.crc.has_value());
}

// The LRU policy written the obvious way, as a reference for the
// randomized differential test below: one std::list and a std::map from key
// to list position, with the CacheServer rules restated (tail evicted
// first, hit moves to the head, lazy TTL, serve-time CRC verify).
class ReferenceLru {
 public:
  struct Entry {
    std::string key;
    std::string value;
    std::size_t charge;
    SimTime last_access;
    bool has_crc = false;
    std::uint32_t crc = 0;
  };
  using List = std::list<Entry>;

  explicit ReferenceLru(const CacheConfig& cfg) : cfg_(cfg) {}

  std::optional<std::string> get(const std::string& key, SimTime now) {
    const auto found = index_.find(key);
    if (found == index_.end()) {
      ++misses;
      return std::nullopt;
    }
    const List::iterator it = found->second;
    if (expired(*it, now)) {
      ++expirations;
      ++misses;
      unlink(it);
      return std::nullopt;
    }
    if (it->has_crc && crc32c(it->value) != it->crc) {
      ++misses;
      unlink(it);
      return std::nullopt;
    }
    ++hits;
    it->last_access = now;
    lru_.splice(lru_.begin(), lru_, it);
    return it->value;
  }

  bool set(const std::string& key, std::string value, SimTime now,
           std::size_t charge, std::optional<std::uint32_t> crc) {
    const std::size_t total = key.size() + (charge ? charge : value.size()) +
                              cfg_.per_item_overhead;
    if (const auto found = index_.find(key); found != index_.end()) {
      unlink(found->second);
    }
    if (total > cfg_.memory_budget_bytes) return false;
    while (bytes_used + total > cfg_.memory_budget_bytes && !lru_.empty()) {
      ++evictions;
      unlink(std::prev(lru_.end()));
    }
    lru_.push_front(Entry{key, std::move(value), total, now, crc.has_value(),
                          crc.value_or(0)});
    index_[key] = lru_.begin();
    bytes_used += total;
    return true;
  }

  bool erase(const std::string& key) {
    const auto found = index_.find(key);
    if (found == index_.end()) return false;
    unlink(found->second);
    return true;
  }

  bool contains(const std::string& key, SimTime now) const {
    const auto found = index_.find(key);
    return found != index_.end() && !expired(*found->second, now);
  }

  bool linked(const std::string& key) const { return index_.count(key) > 0; }

  std::size_t expire_idle(SimTime now, SimTime idle_limit) {
    std::size_t n = 0;
    while (!lru_.empty() && now - lru_.back().last_access > idle_limit) {
      unlink(std::prev(lru_.end()));
      ++n;
    }
    expirations += n;
    return n;
  }

  bool corrupt(const std::string& key, std::size_t bit_index) {
    const auto found = index_.find(key);
    if (found == index_.end() || found->second->value.empty()) return false;
    std::string& v = found->second->value;
    const std::size_t bit = bit_index % (v.size() * 8);
    v[bit / 8] = static_cast<char>(static_cast<unsigned char>(v[bit / 8]) ^
                                   (1u << (bit % 8)));
    return true;
  }

  void flush() {
    lru_.clear();
    index_.clear();
    bytes_used = 0;
  }

  std::size_t size() const { return index_.size(); }
  const std::map<std::string, List::iterator>& index() const { return index_; }

  std::vector<std::string> unlinked;  // keys unlinked since last cleared
  std::size_t bytes_used = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;

 private:
  bool expired(const Entry& e, SimTime now) const {
    return cfg_.item_ttl > 0 && now - e.last_access > cfg_.item_ttl;
  }

  void unlink(List::iterator it) {
    unlinked.push_back(it->key);
    bytes_used -= it->charge;
    index_.erase(it->key);
    lru_.erase(it);
  }

  CacheConfig cfg_;
  List lru_;
  std::map<std::string, List::iterator> index_;
};

// Drives CacheServer and ReferenceLru with the same random operations and
// compares them after every one. The mix is erase-heavy, so the key index
// keeps filling, emptying and refilling and erases land inside probe runs
// (backward shifts). With `max_items` set, every item is charged the same
// and the budget holds exactly that many: a cap just under a growth point
// keeps a small table near half full, where runs are long and many wrap
// past its end. With `max_items` 0, sizes vary. Gets alternate between
// get() and get_into().
void run_differential(std::size_t key_space, std::size_t max_items, int ops,
                      std::uint64_t seed) {
  constexpr std::size_t kItemCharge = 64;
  CacheConfig cfg =
      small_config(max_items ? max_items * kItemCharge : 26 * key_space);
  cfg.per_item_overhead = 8;
  cfg.digest.num_counters = 1 << 16;
  cfg.item_ttl = 400;
  CacheServer cache(cfg);
  ReferenceLru model(cfg);

  // The ops draw from a window of `key_space` keys that slides through a
  // pool eight times larger, so the set of home slots in play keeps
  // changing: a fixed small key set may never reach the table's last slot.
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < 8 * key_space; ++i) {
    // Short (inline) and long (heap-held) keys, sharing prefixes.
    keys.push_back(i % 3 == 0 ? "a-rather-longer-key-name:" + std::to_string(i)
                              : "k" + std::to_string(i));
  }
  // Sweeps of every resident key, about every 16 keys' worth of ops: an
  // entry a bad shift strands out of its probe run shows at the next one.
  const std::size_t sweep_every = std::max<std::size_t>(1, key_space / 16);
  Rng rng(seed);
  SimTime now = 0;
  std::uint64_t deletes = 0;
  std::size_t peak_items = 0;
  for (int op = 0; op < ops; ++op) {
    now += rng.next_int(0, 1);
    model.unlinked.clear();
    const std::string& key =
        keys[(op / 16 + rng.next_below(key_space)) % keys.size()];
    const std::uint64_t dice = rng.next_below(1000);
    if (dice < 400) {
      std::string value(rng.next_below(48), 'a');
      for (char& c : value) c = static_cast<char>('a' + rng.next_below(26));
      std::size_t charge = rng.next_bool(0.2) ? rng.next_below(200) : 0;
      if (max_items) charge = kItemCharge - key.size() - cfg.per_item_overhead;
      std::optional<std::uint32_t> crc;
      if (rng.next_bool(0.5)) crc = crc32c(value);
      ASSERT_EQ(cache.set(key, value, now, charge, 0, crc),
                model.set(key, value, now, charge, crc))
          << "op " << op;
    } else if (dice < 620) {
      const std::optional<std::string> want = model.get(key, now);
      if (op % 2 == 0) {
        ASSERT_EQ(cache.get(key, now), want) << "op " << op;
      } else {
        // get_into: a hit overwrites the buffer, a miss leaves it alone.
        std::string out = "stale";
        ASSERT_EQ(cache.get_into(key, now, out), want.has_value())
            << "op " << op;
        ASSERT_EQ(out, want.value_or("stale")) << "op " << op;
      }
    } else if (dice < 900) {
      const bool erased = model.erase(key);
      deletes += erased;
      ASSERT_EQ(cache.erase(key), erased) << "op " << op;
    } else if (dice < 960) {
      ASSERT_EQ(cache.contains(key, now), model.contains(key, now))
          << "op " << op;
    } else if (dice < 980) {
      const auto limit = rng.next_int(0, 1000);
      ASSERT_EQ(cache.expire_idle(now, limit), model.expire_idle(now, limit))
          << "op " << op;
    } else if (dice < 997) {
      const std::size_t bit = rng.next_below(1024);
      ASSERT_EQ(cache.corrupt_value_for_test(key, bit),
                model.corrupt(key, bit))
          << "op " << op;
    } else if (dice < 999) {
      cache.flush();
      model.flush();
    } else {
      cache.power_off();
      cache.power_on();
      model.flush();
    }

    ASSERT_EQ(cache.item_count(), model.size()) << "op " << op;
    ASSERT_EQ(cache.bytes_used(), model.bytes_used) << "op " << op;
    ASSERT_EQ(cache.stats().hits, model.hits) << "op " << op;
    ASSERT_EQ(cache.stats().misses, model.misses) << "op " << op;
    ASSERT_EQ(cache.stats().evictions, model.evictions) << "op " << op;
    ASSERT_EQ(cache.stats().expirations, model.expirations) << "op " << op;
    ASSERT_EQ(cache.stats().deletes, deletes) << "op " << op;
    // Residency and digest membership of the key the op named, of every
    // item it unlinked (eviction victims included) and, at sweeps, of every
    // resident key; with item_count equal, nothing else can be resident.
    // The digest must track exactly the linked items.
    const auto check = [&](const std::string& k) {
      ASSERT_EQ(cache.contains(k, now), model.contains(k, now))
          << "op " << op << " key " << k;
      ASSERT_EQ(cache.digest().maybe_contains(k), model.linked(k))
          << "op " << op << " key " << k;
    };
    check(key);
    for (const std::string& k : model.unlinked) check(k);
    if (op % sweep_every == 0) {
      for (const auto& [k, it] : model.index()) check(k);
    }
    if (testing::Test::HasFatalFailure()) return;
    peak_items = std::max(peak_items, model.size());
  }
  // The run filled the index and exercised every way out of it.
  EXPECT_GE(peak_items, key_space / 3);
  EXPECT_GT(cache.stats().evictions, 1000u);
  EXPECT_GT(cache.stats().expirations, 10u);
  EXPECT_GT(cache.stats().corrupt_drops, 0u);

  // Exact digest: counters equal a filter built from the resident keys.
  bloom::CountingBloomFilter expect(cfg.digest.num_counters,
                                    cfg.digest.counter_bits,
                                    cfg.digest.num_hashes);
  for (const auto& [k, it] : model.index()) expect.insert(k);
  for (std::size_t i = 0; i < expect.num_counters(); ++i) {
    ASSERT_EQ(cache.digest().counter_at(i), expect.counter_at(i)) << i;
  }
}

// The index seed differs per run, so each run probes a different table
// layout. Caps of 15 and 31 items hold 32- and 64-slot tables just under
// half full.
struct DifferentialRun {
  std::size_t key_space;
  std::size_t max_items;
  int ops;
};
constexpr DifferentialRun kDifferentialRuns[] = {
    {24, 15, 300'000}, {48, 31, 200'000}, {160, 0, 100'000}};

TEST(CacheServerDifferential, PlainLruMatchesReferenceModel) {
  for (const DifferentialRun& run : kDifferentialRuns) {
    SCOPED_TRACE(run.key_space);
    ASSERT_NO_FATAL_FAILURE(run_differential(run.key_space, run.max_items,
                                             run.ops, 101 + run.key_space));
  }
}

}  // namespace
}  // namespace proteus::cache
