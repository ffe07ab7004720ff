#include "cache/sharded_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace proteus::cache {

namespace {

bool is_power_of_two(std::size_t n) noexcept { return n && (n & (n - 1)) == 0; }

// Shard routing uses a seed distinct from the digest's DoubleHasher stream
// so the partition is independent of the Bloom probe positions (a digest
// collision must not imply a routing collision, or one shard would soak up
// every aliased key).
constexpr std::uint64_t kShardRouteSeed = 0x5ca1ab1e0ddba11ULL;

#ifndef NDEBUG
// Ascending-rank assertion state. Tracks the locks THIS thread holds; the
// rule "only acquire a rank strictly above every rank currently held" makes
// the all-shard fan-out deadlock-free and forbids lock-order inversions.
// Debug-only: release builds pay nothing.
thread_local int tl_held_shard_locks = 0;
thread_local int tl_highest_held_rank = -1;
#endif

void note_rank_acquired(int rank) {
#ifndef NDEBUG
  assert((tl_held_shard_locks == 0 || rank > tl_highest_held_rank) &&
         "shard locks must be acquired in ascending index order");
  ++tl_held_shard_locks;
  tl_highest_held_rank = std::max(tl_highest_held_rank, rank);
#else
  (void)rank;
#endif
}

void note_rank_released() {
#ifndef NDEBUG
  --tl_held_shard_locks;
  if (tl_held_shard_locks == 0) tl_highest_held_rank = -1;
#endif
}

}  // namespace

void ShardedCacheServer::Guard::release() noexcept {
  if (rank_ >= 0 && lock_.owns_lock()) {
    lock_.unlock();
    note_rank_released();
  }
  rank_ = -1;
}

int ShardedCacheServer::default_shards_for_threads(int threads) noexcept {
  const int want = std::max(1, std::min(threads, 8));
  int shards = 1;
  while (shards * 2 <= want) shards *= 2;
  return shards;
}

ShardedCacheServer::ShardedCacheServer(CacheConfig config, int num_shards) {
  if (num_shards <= 0) num_shards = 1;
  PROTEUS_CHECK_MSG(is_power_of_two(static_cast<std::size_t>(num_shards)),
                    "shard count must be a power of two");
  shard_mask_ = static_cast<std::size_t>(num_shards) - 1;
  total_budget_ = config.memory_budget_bytes;

  // Resolve the digest geometry ONCE from the full budget, then pin it on
  // every shard: identical (num_counters, counter_bits, num_hashes, seed)
  // everywhere is what makes the merged snapshot an exact union and the
  // wire blob byte-identical to the unsharded build. digest_params_for is
  // the rule every CacheServer sizes its own digest by, so the geometry
  // cannot drift from the single-cache build's.
  const bloom::BloomParams geometry = digest_params_for(config);
  if (config.incarnation != 0) incarnation_ = config.incarnation;

  const std::size_t per_shard =
      std::max<std::size_t>(1, total_budget_ / static_cast<std::size_t>(num_shards));
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    CacheConfig shard_config = config;
    shard_config.memory_budget_bytes = per_shard;
    // Shard 0 absorbs the division remainder so the slices sum to the
    // exact configured budget.
    if (i == 0) {
      shard_config.memory_budget_bytes =
          total_budget_ - per_shard * static_cast<std::size_t>(num_shards - 1);
    }
    shard_config.digest = geometry;
    shards_.push_back(std::make_unique<Shard>(std::move(shard_config)));
  }
}

std::size_t ShardedCacheServer::shard_index(std::string_view key) const noexcept {
  return static_cast<std::size_t>(hash_bytes(key, kShardRouteSeed)) &
         shard_mask_;
}

ShardedCacheServer::Guard ShardedCacheServer::lock_shard(std::size_t i) const {
  std::unique_lock<std::timed_mutex> lock(shards_[i]->mutex);
  note_rank_acquired(static_cast<int>(i));
  return Guard(std::move(lock), static_cast<int>(i));
}

ShardedCacheServer::Guard ShardedCacheServer::lock_shard_for(
    std::size_t i, SimTime deadline_us) const {
  if (deadline_us <= 0) return lock_shard(i);  // 0 = wait forever
  std::unique_lock<std::timed_mutex> lock(shards_[i]->mutex, std::defer_lock);
  // System-clock deadline on purpose: try_lock_for's steady-clock path
  // lowers to pthread_mutex_clocklock, which ThreadSanitizer does not
  // intercept (a successful timed acquire goes unrecorded and the later
  // unlock reports "unlock of an unlocked mutex"). The system-clock path
  // is the intercepted pthread_mutex_timedlock, and these deadlines are
  // sub-second shed bounds where a wall-clock step only sheds early/late.
  const auto deadline = std::chrono::system_clock::now() +
                        std::chrono::microseconds(deadline_us);
  if (!lock.try_lock_until(deadline)) {
    return Guard();  // unowned: the caller sheds the command
  }
  note_rank_acquired(static_cast<int>(i));
  return Guard(std::move(lock), static_cast<int>(i));
}

CacheStats ShardedCacheServer::stats() const {
  CacheStats merged;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Guard guard = lock_shard(i);  // one shard at a time, never two
    const CacheStats& s = shards_[i]->cache.stats();
    merged.gets += s.gets;
    merged.hits += s.hits;
    merged.misses += s.misses;
    merged.sets += s.sets;
    merged.deletes += s.deletes;
    merged.evictions += s.evictions;
    merged.expirations += s.expirations;
    merged.corrupt_drops += s.corrupt_drops;
    merged.corrupt_set_rejects += s.corrupt_set_rejects;
  }
  merged.admin_gets = admin_gets_.load(std::memory_order_relaxed);
  return merged;
}

void ShardedCacheServer::reset_stats() {
  std::vector<Guard> guards;
  guards.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    guards.push_back(lock_shard(i));  // ascending rank: deadlock-free
  }
  for (auto& shard : shards_) shard->cache.reset_stats();
  admin_gets_.store(0, std::memory_order_relaxed);
  stale_epoch_rejects_.store(0, std::memory_order_relaxed);
}

void ShardedCacheServer::flush() {
  {
    std::vector<Guard> guards;
    guards.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      guards.push_back(lock_shard(i));
    }
    for (auto& shard : shards_) shard->cache.flush();
  }
  const std::lock_guard<std::mutex> staged_lock(staged_mu_);
  staged_digest_.clear();
}

std::size_t ShardedCacheServer::item_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Guard guard = lock_shard(i);
    total += shards_[i]->cache.item_count();
  }
  return total;
}

std::size_t ShardedCacheServer::bytes_used() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Guard guard = lock_shard(i);
    total += shards_[i]->cache.bytes_used();
  }
  return total;
}

PowerState ShardedCacheServer::power_state() const {
  const Guard guard = lock_shard(0);  // shards transition together
  return shards_[0]->cache.power_state();
}

bloom::BloomFilter ShardedCacheServer::merged_digest_snapshot() const {
  bloom::BloomFilter merged = [this] {
    const Guard guard = lock_shard(0);
    return shards_[0]->cache.snapshot_digest();
  }();
  std::vector<std::uint64_t> words = merged.words();
  for (std::size_t i = 1; i < shards_.size(); ++i) {
    const bloom::BloomFilter part = [this, i] {
      const Guard guard = lock_shard(i);
      return shards_[i]->cache.snapshot_digest();
    }();
    PROTEUS_CHECK(part.words().size() == words.size());
    for (std::size_t w = 0; w < words.size(); ++w) {
      words[w] |= part.words()[w];  // identical geometry: union == OR
    }
  }
  return bloom::BloomFilter::from_words(std::move(words), merged.num_bits(),
                                        merged.num_hashes(), merged.seed());
}

std::string ShardedCacheServer::stage_digest_snapshot() {
  std::string blob = encode_digest(merged_digest_snapshot());
  const std::lock_guard<std::mutex> staged_lock(staged_mu_);
  staged_digest_ = std::move(blob);
  return "OK";
}

std::string ShardedCacheServer::staged_digest_blob() {
  {
    const std::lock_guard<std::mutex> staged_lock(staged_mu_);
    if (!staged_digest_.empty()) return staged_digest_;
  }
  // Nothing staged yet: snapshot on demand, outside staged_mu_ — shard
  // locks never nest inside the staging mutex.
  std::string blob = encode_digest(merged_digest_snapshot());
  const std::lock_guard<std::mutex> staged_lock(staged_mu_);
  if (staged_digest_.empty()) staged_digest_ = std::move(blob);
  return staged_digest_;
}

bool ShardedCacheServer::digest_maybe_contains(std::string_view key) const {
  const std::size_t i = shard_index(key);
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.digest().maybe_contains(key);
}

std::size_t ShardedCacheServer::digest_num_counters() const noexcept {
  return shards_[0]->cache.digest().num_counters();
}

unsigned ShardedCacheServer::digest_counter_bits() const noexcept {
  return shards_[0]->cache.digest().counter_bits();
}

std::size_t ShardedCacheServer::digest_memory_bytes() const noexcept {
  return shards_[0]->cache.digest().memory_bytes();
}

bool ShardedCacheServer::admit_epoch(std::uint64_t epoch) noexcept {
  return epoch == 0 || adopt_epoch(epoch);
}

bool ShardedCacheServer::adopt_epoch(std::uint64_t epoch) noexcept {
  // Unlike admit_epoch, 0 is a real (initial) epoch here.
  std::uint64_t cur = cluster_epoch_.load(std::memory_order_relaxed);
  for (;;) {
    if (epoch < cur) {
      stale_epoch_rejects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (cluster_epoch_.compare_exchange_weak(cur, epoch,
                                             std::memory_order_relaxed)) {
      return true;
    }
  }
}

void ShardedCacheServer::observe_epoch(std::uint64_t epoch) noexcept {
  std::uint64_t cur = cluster_epoch_.load(std::memory_order_relaxed);
  while (epoch > cur) {
    if (cluster_epoch_.compare_exchange_weak(cur, epoch,
                                             std::memory_order_relaxed)) {
      return;
    }
  }
}

std::optional<std::string> ShardedCacheServer::get(std::string_view key,
                                                   SimTime now) {
  // Reserved admin keys are engine-level: the digest must merge across
  // shards and the epoch hello reads engine atomics. Counted as admin
  // traffic, never as data-plane gets (see CacheStats::admin_gets).
  if (key == kSetBloomFilterKey) {
    admin_gets_.fetch_add(1, std::memory_order_relaxed);
    return stage_digest_snapshot();
  }
  if (key == kGetBloomFilterKey) {
    admin_gets_.fetch_add(1, std::memory_order_relaxed);
    return staged_digest_blob();
  }
  if (key == kEpochKey) {
    admin_gets_.fetch_add(1, std::memory_order_relaxed);
    return std::to_string(cluster_epoch()) + " " + std::to_string(incarnation_);
  }
  const std::size_t i = shard_index(key);
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.get(key, now);
}

void ShardedCacheServer::set(std::string_view key, std::string value,
                             SimTime now, std::size_t charge,
                             std::uint32_t flags,
                             std::optional<std::uint32_t> crc) {
  const std::size_t i = shard_index(key);
  const Guard guard = lock_shard(i);
  shards_[i]->cache.set(key, std::move(value), now, charge, flags, crc);
}

bool ShardedCacheServer::erase(std::string_view key) {
  const std::size_t i = shard_index(key);
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.erase(key);
}

bool ShardedCacheServer::contains(std::string_view key, SimTime now) const {
  const std::size_t i = shard_index(key);
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.contains(key, now);
}

CacheStats ShardedCacheServer::shard_stats(std::size_t i) const {
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.stats();
}

std::size_t ShardedCacheServer::shard_bytes_used(std::size_t i) const {
  const Guard guard = lock_shard(i);
  return shards_[i]->cache.bytes_used();
}

double ShardedCacheServer::shard_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t max_gets = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Guard guard = lock_shard(i);
    const std::uint64_t g = shards_[i]->cache.stats().gets;
    total += g;
    max_gets = std::max(max_gets, g);
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards_.size());
  return static_cast<double>(max_gets) / mean;
}

}  // namespace proteus::cache
