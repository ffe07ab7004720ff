// Lock-striped sharded cache engine — N independent CacheServer shards
// behind one wire-compatible facade.
//
// The daemon used to serialize ALL cache work (gets, sets, evictions,
// digest snapshots, the metrics sampler's registry sweep) behind a single
// global std::timed_mutex, so `--threads N` bought accept parallelism and
// zero execution parallelism. This engine hash-partitions the key space
// across a power-of-two number of CacheServer shards, each with its own
// mutex, LRU list, byte-budget slice, stats, and counting-Bloom digest
// segment. Two protocol threads touching different shards no longer
// contend; the asymptotic-miss-ratio result for LRU under consistent
// hashing (PAPERS.md) is what licenses the split — hash-partitioning one
// LRU into N shards preserves the aggregate hit ratio the provisioning
// model (Theorem 1, Eq. 5) depends on.
//
// Digest semantics stay byte-identical to an unsharded server (§V-3):
// every shard is built with the SAME Bloom geometry — sized for the FULL
// byte budget, same seed, same overflow policy — so a key hashes to the
// same counter positions regardless of which shard owns it. The merged
// broadcast snapshot is then simply the bitwise OR of the per-shard
// snapshots, and the SET_BLOOM_FILTER / BLOOM_FILTER wire blob an
// unmodified memcached client fetches is indistinguishable from the
// single-cache build. Per-shard counters see only ~1/N of the insertions,
// so the Eq. 5 false-negative behavior under kWrap is no worse than the
// unsharded baseline at equal budget (tests/sharded_cache_test.cc pins
// this).
//
// Epoch fencing (docs/PROTOCOL.md) is deliberately NOT sharded: the
// cluster epoch is a fleet-wide fencing token, so it lives here as engine
// atomics — a mutation fenced on shard 3 must also be fenced on shard 5.
//
// Locking discipline: shard mutexes are ranked by index. Single-key
// operations hold exactly one shard lock; merged readers (stats,
// item_count, the metrics sampler's registry sweep) visit shards ONE AT A
// TIME, never holding two locks; fan-out writers (flush, stats reset)
// take every lock in ascending rank so the operation is atomic across
// shards. Debug builds assert the ascending-rank rule on every
// acquisition, so a TSan/CI run catches an inversion before it can
// deadlock in production.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "common/time.h"

namespace proteus::cache {

class ShardedCacheServer {
 public:
  // `num_shards` must be a power of two (0 = 1). The config's byte budget
  // and digest geometry describe the WHOLE cache: each shard receives a
  // 1/N budget slice but the full-budget digest parameters (see above).
  explicit ShardedCacheServer(CacheConfig config, int num_shards = 1);

  ShardedCacheServer(const ShardedCacheServer&) = delete;
  ShardedCacheServer& operator=(const ShardedCacheServer&) = delete;

  // The daemon's default: min(threads, 8) rounded down to a power of two.
  static int default_shards_for_threads(int threads) noexcept;

  int num_shards() const noexcept { return static_cast<int>(shards_.size()); }
  std::size_t shard_index(std::string_view key) const noexcept;
  CacheServer& shard(std::size_t i) noexcept { return shards_[i]->cache; }
  const CacheServer& shard(std::size_t i) const noexcept {
    return shards_[i]->cache;
  }

  // --- shard locking -------------------------------------------------------
  // RAII shard-lock handle. Public so the text session can hold the
  // lock across one whole command (an incr's get+set must be atomic).
  // Debug builds maintain a per-thread rank watermark and assert that
  // locks are only ever acquired in ascending shard order.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& other) noexcept
        : lock_(std::move(other.lock_)), rank_(other.rank_) {
      other.rank_ = -1;
    }
    Guard& operator=(Guard&& other) noexcept {
      release();
      lock_ = std::move(other.lock_);
      rank_ = other.rank_;
      other.rank_ = -1;
      return *this;
    }
    ~Guard() { release(); }

    bool owns_lock() const noexcept { return lock_.owns_lock(); }
    explicit operator bool() const noexcept { return owns_lock(); }
    void unlock() { release(); }

   private:
    friend class ShardedCacheServer;
    Guard(std::unique_lock<std::timed_mutex> lock, int rank) noexcept
        : lock_(std::move(lock)), rank_(rank) {}
    void release() noexcept;

    std::unique_lock<std::timed_mutex> lock_;
    int rank_ = -1;  // -1 = no rank bookkeeping to unwind
  };

  // Blocking acquisition of shard i's mutex.
  Guard lock_shard(std::size_t i) const;
  // Deadline acquisition: 0 = wait forever ("unlimited", the same zero
  // semantics as PipelinePolicy::max_per_batch and AdmissionOptions::
  // queue_deadline_us). Returns an unowned Guard on timeout.
  Guard lock_shard_for(std::size_t i, SimTime deadline_us) const;

  // --- merged / broadcast operations (internally locked) -------------------
  // Merged counters across all shards plus the engine's admin-get count.
  // Visits shards one at a time — safe to call from the sampler thread or
  // any registry callback without external locking.
  CacheStats stats() const;
  // Fan-out under ALL shard locks (ascending), so no shard is reset while
  // another still carries pre-reset counts: `stats reset` means one thing.
  void reset_stats();
  // Fan-out under ALL shard locks: flush is atomic with respect to
  // writers — no set can land on one shard while another is still being
  // emptied, so a store admitted after the flush began only ever lands in
  // a fully flushed cache. Also drops the staged digest snapshot.
  void flush();
  std::size_t item_count() const;
  std::size_t bytes_used() const;
  std::size_t memory_budget() const noexcept { return total_budget_; }
  PowerState power_state() const;

  // --- digest (shard-merged, wire-unchanged) -------------------------------
  // The §IV-A broadcast snapshot: bitwise OR of the per-shard snapshots
  // (identical geometry makes the union exact — see the header comment).
  bloom::BloomFilter merged_digest_snapshot() const;
  // SET_BLOOM_FILTER: stage the merged snapshot, return "OK".
  // BLOOM_FILTER: serve the staged blob, staging one on demand.
  std::string stage_digest_snapshot();
  std::string staged_digest_blob();
  // Routed membership probe (each key lives in exactly one shard).
  bool digest_maybe_contains(std::string_view key) const;
  // Shared geometry accessors (every shard agrees by construction).
  std::size_t digest_num_counters() const noexcept;
  unsigned digest_counter_bits() const noexcept;
  std::size_t digest_memory_bytes() const noexcept;

  // --- epoch fencing (engine-wide, lock-free) ------------------------------
  std::uint64_t cluster_epoch() const noexcept {
    return cluster_epoch_.load(std::memory_order_relaxed);
  }
  bool admit_epoch(std::uint64_t epoch) noexcept;
  bool adopt_epoch(std::uint64_t epoch) noexcept;
  void observe_epoch(std::uint64_t epoch) noexcept;
  std::uint64_t stale_epoch_rejects() const noexcept {
    return stale_epoch_rejects_.load(std::memory_order_relaxed);
  }
  std::uint64_t incarnation() const noexcept { return incarnation_; }

  // --- convenience data plane (each call locks its shard internally) -------
  // Reserved protocol keys are intercepted here (merged digest / epoch
  // hello) and counted as admin traffic — never as data-plane gets.
  std::optional<std::string> get(std::string_view key, SimTime now);
  void set(std::string_view key, std::string value, SimTime now,
           std::size_t charge = 0, std::uint32_t flags = 0,
           std::optional<std::uint32_t> crc = std::nullopt);
  bool erase(std::string_view key);
  bool contains(std::string_view key, SimTime now) const;

  // Reserved-key probe shared with the text session.
  static bool is_reserved_key(std::string_view key) noexcept {
    return key == kSetBloomFilterKey || key == kGetBloomFilterKey ||
           key == kEpochKey;
  }

  // --- shard observability -------------------------------------------------
  // Locked copy of one shard's counters (per-shard /metrics gauges).
  CacheStats shard_stats(std::size_t i) const;
  std::size_t shard_bytes_used(std::size_t i) const;
  // Hot-shard skew: max per-shard gets / mean per-shard gets. 1.0 = evenly
  // spread, N = everything on one shard. 0 when no gets yet.
  double shard_imbalance() const;

 private:
  struct Shard {
    explicit Shard(CacheConfig config) : cache(std::move(config)) {}
    mutable std::timed_mutex mutex;
    CacheServer cache;
  };

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_mask_ = 0;  // shards - 1 (power of two)
  std::size_t total_budget_ = 0;
  std::uint64_t incarnation_ = 1;
  std::atomic<std::uint64_t> cluster_epoch_{0};
  std::atomic<std::uint64_t> stale_epoch_rejects_{0};
  // Reserved-key (admin) traffic served at engine level: BLOOM_FILTER /
  // SET_BLOOM_FILTER / PROTEUS_EPOCH gets. Kept out of gets/hits/misses so
  // hit_ratio() reflects only data-plane traffic (the SLO burn rate must
  // not be skewed by digest pulls during transitions).
  std::atomic<std::uint64_t> admin_gets_{0};
  // The blob SET_BLOOM_FILTER staged.
  mutable std::mutex staged_mu_;
  std::string staged_digest_;
};

}  // namespace proteus::cache
