// Memcached-like in-memory cache server with a built-in counting Bloom
// filter digest — the modified Memcached of paper §V-3.
//
// Differences from stock memcached that matter to Proteus are reproduced:
//   * every item link/unlink (do_item_link / do_item_unlink in the paper)
//     also inserts/removes the key in the server's counting Bloom filter, so
//     the digest is consistent with cache content by construction;
//   * the digest snapshots into the plain Bloom filter a web server
//     fetches; the engine (sharded_cache.h) serves it through the reserved
//     keys "SET_BLOOM_FILTER" and "BLOOM_FILTER" on the ordinary get path,
//     staying wire compatible with unmodified memcached clients (§V-3);
//   * a server has a power state so the cluster layer can model
//     active / draining (transition, §IV) / off.
//
// Eviction is LRU under a byte budget, like memcached's slab LRU collapsed
// to a single class (the paper assumes fixed-size objects, §II): one list
// per server, so the hot set is always a prefix of it. Keys are found
// through a flat open-addressing index over that list, in the manner of
// memcached's own item hash table. Time is injected (SimTime) so
// the whole server is deterministic under simulation.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "bloom/config.h"
#include "bloom/counting_bloom_filter.h"
#include "cache/slab_sizer.h"
#include "common/time.h"

namespace proteus::obs {
class TraceSink;
}  // namespace proteus::obs

namespace proteus::cache {

// Reserved protocol keys (§V-3).
inline constexpr std::string_view kSetBloomFilterKey = "SET_BLOOM_FILTER";
inline constexpr std::string_view kGetBloomFilterKey = "BLOOM_FILTER";
// Epoch/incarnation admin key: `get PROTEUS_EPOCH` answers
// "<cluster_epoch> <incarnation>"; `set PROTEUS_EPOCH` with a decimal epoch
// payload adopts it (or is rejected as stale). Wire compatible with stock
// memcached clients, like the digest keys above.
inline constexpr std::string_view kEpochKey = "PROTEUS_EPOCH";

enum class PowerState {
  kActive,    // serving requests
  kDraining,  // provisioning transition: still answering gets for TTL secs
  kOff,       // powered down; all state lost
};

struct CacheStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t sets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t expirations = 0;
  // Items whose stored CRC32C no longer matched their bytes when served;
  // each was dropped and answered as a miss (never served corrupt).
  std::uint64_t corrupt_drops = 0;
  // Storage commands refused at arrival because the data block did not
  // match its C<hex8> stamp (wire corruption caught before the store).
  std::uint64_t corrupt_set_rejects = 0;
  // Reserved-key (admin) gets: BLOOM_FILTER / SET_BLOOM_FILTER /
  // PROTEUS_EPOCH traffic. Deliberately EXCLUDED from gets/hits/misses so
  // hit_ratio() — and every SLO burn rate derived from it — reflects only
  // data-plane traffic; digest pulls during a transition must not read as
  // a hit-ratio change. Counted separately so the admin load stays visible.
  std::uint64_t admin_gets = 0;

  // Data-plane hit ratio; admin_gets never enters numerator or denominator.
  double hit_ratio() const noexcept {
    return gets ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
  }
};

struct CacheConfig {
  std::size_t memory_budget_bytes = 64 << 20;
  // Items untouched for longer than this are no longer "hot" (§II); they
  // lazily expire on access and during transitions. 0 disables expiry.
  SimTime item_ttl = 0;
  // Digest geometry. Left at num_counters == 0 (the default), it is sized
  // from the budget by the §IV-B optimizer (digest_params_for); any other
  // value is used as given.
  bloom::BloomParams digest;
  // Counter overflow policy. Saturate (default) trades false negatives for
  // extra false positives; Wrap reproduces the paper's Eq. 5 / Fig. 8
  // false-negative analysis on a live server.
  bloom::OverflowPolicy digest_policy = bloom::OverflowPolicy::kSaturate;
  // Per-item bookkeeping overhead charged against the budget, mirroring
  // memcached's ~48-56 byte item header.
  std::size_t per_item_overhead = 56;
  // Charge items the chunk size of their slab class (SlabSizer's memcached
  // defaults) instead of their exact size: memcached's real accounting,
  // including internal fragmentation.
  bool slab_accounting = false;
  // Observability (src/obs): when set, the server emits ttl_expiry trace
  // events — per key on lazy access-expiry, aggregated per expire_idle()
  // sweep — tagged with `trace_server_id`. Null disables tracing.
  obs::TraceSink* trace = nullptr;
  int trace_server_id = -1;
  // Incarnation id the engine (sharded_cache.h) carries in the PROTEUS_EPOCH
  // hello. 0 = start at 1; a daemon overrides it with a per-process unique
  // value so a cold restart is distinguishable from the previous life of the
  // same address.
  std::uint64_t incarnation = 0;
};

// The digest geometry a server built from `config` uses: `config.digest` if
// it sets num_counters, else the §IV-B optimum for the budget.
bloom::BloomParams digest_params_for(const CacheConfig& config);

class CacheServer {
 public:
  explicit CacheServer(CacheConfig config);

  // --- data plane ---------------------------------------------------------
  // What a hit carries besides its bytes, filled by the same index lookup.
  struct ItemMeta {
    std::uint32_t flags = 0;           // opaque client metadata
    std::optional<std::uint32_t> crc;  // CRC32C stamped at SET time, if any
  };
  // Returns the value and refreshes LRU/last-access, or nullopt on miss;
  // on a hit, `meta` (optional) receives the item's metadata.
  std::optional<std::string> get(std::string_view key, SimTime now,
                                 ItemMeta* meta = nullptr);
  // get() into a caller's buffer: on a hit assigns the value to `out`
  // (reusing its capacity) and returns true; a miss returns false and
  // leaves `out` and `meta` untouched.
  bool get_into(std::string_view key, SimTime now, std::string& out,
                ItemMeta* meta = nullptr);
  // get() without a copy: on a hit, a view of the item's bytes, valid until
  // the next call that mutates this server (a caller on another thread
  // holds the server's lock across its use); nullopt on a miss.
  std::optional<std::string_view> get_view(std::string_view key, SimTime now,
                                           ItemMeta* meta = nullptr);

  // Stores (key, value); `charge` overrides the accounted value size so a
  // simulation can model 4 KB pages without materialising 4 KB payloads.
  // `flags` are opaque client metadata round-tripped by the memcached
  // protocol (text_protocol.h). `crc` (optional) is the end-to-end CRC32C
  // the client stamped at SET time; when present the server re-verifies it
  // on every get and drops the item as corrupt on mismatch instead of
  // serving bad bytes (docs/PROTOCOL.md "Payload integrity").
  // Returns false if the item can never fit (nothing is stored).
  bool set(std::string_view key, std::string value, SimTime now,
           std::size_t charge = 0, std::uint32_t flags = 0,
           std::optional<std::uint32_t> crc = std::nullopt);

  // get_view() and set() for the touch, incr and decr commands, which
  // memcached counts in none of gets, hits, misses and sets. touch()
  // refreshes the item as a get does; expirations, corrupt drops and
  // evictions still count.
  std::optional<std::string_view> touch(std::string_view key, SimTime now,
                                        ItemMeta* meta = nullptr);
  bool rewrite(std::string_view key, std::string value, SimTime now,
               std::size_t charge = 0, std::uint32_t flags = 0,
               std::optional<std::uint32_t> crc = std::nullopt);

  bool erase(std::string_view key);
  void flush();

  // Peek without LRU side effects (used by tests and the transfer engine).
  bool contains(std::string_view key, SimTime now) const;

  // --- digest --------------------------------------------------------------
  const bloom::CountingBloomFilter& digest() const noexcept { return digest_; }
  // The §IV-A broadcast operation: CBF -> plain bloom snapshot.
  bloom::BloomFilter snapshot_digest() const { return digest_.snapshot(); }

  // --- power ---------------------------------------------------------------
  PowerState power_state() const noexcept { return power_state_; }
  void begin_draining() noexcept { power_state_ = PowerState::kDraining; }
  void reactivate() noexcept { power_state_ = PowerState::kActive; }
  // Powering off drops all items and the digest (cache contents are lost).
  void power_off();
  void power_on();

  // --- introspection --------------------------------------------------------
  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = CacheStats{}; }
  std::size_t item_count() const noexcept { return index_.size(); }
  std::size_t bytes_used() const noexcept { return bytes_used_; }
  std::size_t memory_budget() const noexcept { return config_.memory_budget_bytes; }
  const CacheConfig& config() const noexcept { return config_; }

  // Number of items whose last access is within `ttl` of `now` — the
  // paper's "hot" set. Linear scan; intended for tests/benches.
  std::size_t hot_item_count(SimTime now, SimTime ttl) const;

  // Proactively evicts every item idle for longer than `idle_limit`
  // (scanning from the LRU tail, so it stops at the first live item).
  // Returns the number evicted. Used when draining: cold data may be
  // discarded before the TTL deadline to release memory early.
  std::size_t expire_idle(SimTime now, SimTime idle_limit);

  // Test hook: flip one bit of a resident value in place, leaving its
  // stored CRC untouched — simulates at-rest corruption so the serve-time
  // verify path can be drilled. Returns false if the key is absent.
  bool corrupt_value_for_test(std::string_view key, std::size_t bit_index);

  // The protocol layer refused a storage command whose data block failed
  // its checksum stamp: count it and emit the corruption trace event.
  void note_corrupt_set_reject(SimTime now, std::string_view key);

 private:
  struct Item {
    std::string key;
    std::string value;
    std::size_t charge;       // accounted bytes (key + value-or-override + overhead)
    SimTime last_access;
    std::uint32_t flags;      // opaque client metadata (memcached semantics)
    bool has_crc = false;     // item carries an end-to-end checksum
    std::uint32_t crc = 0;    // CRC32C of `value`, stamped at SET time
    std::uint64_t hash = 0;   // KeyIndex::hash(key), kept for unlink
  };
  using LruList = std::list<Item>;

  // Flat open-addressing key -> item table: linear probing over a
  // power-of-two array of {hash, item} slots kept at most half full,
  // growing by doubling, deleting by backward shift (no tombstones). A
  // probe compares the stored 64-bit hash before it touches the item's key,
  // so a lookup costs one slot read and one list-node read. The hash seed
  // is drawn per instance, so a wire client cannot precompute keys that
  // pile into one probe run. Capacity survives clear().
  class KeyIndex {
   public:
    KeyIndex();
    // Never 0: a zero hash marks an empty slot.
    std::uint64_t hash(std::string_view key) const noexcept;
    // The item stored under `key` (whose hash is `h`), or nullptr.
    const LruList::iterator* find(std::string_view key,
                                  std::uint64_t h) const noexcept;
    // `item->key` must be absent; `item->hash` is its slot's hash.
    void insert(LruList::iterator item);
    // `item` must be present.
    void erase(LruList::iterator item) noexcept;
    void clear() noexcept;
    std::size_t size() const noexcept { return size_; }

   private:
    struct Slot {
      std::uint64_t hash = 0;  // 0 = empty
      LruList::iterator item;
    };
    void grow();

    std::uint64_t seed_;
    std::vector<Slot> slots_;
    std::size_t mask_;
    std::size_t size_ = 0;
  };

  void link(Item item);                 // insert + digest update
  void unlink(LruList::iterator it);    // remove + digest update
  void evict_to_fit(std::size_t incoming_charge);
  bool expired(const Item& item, SimTime now) const noexcept;

  CacheConfig config_;
  std::optional<SlabSizer> slab_sizer_;
  bloom::CountingBloomFilter digest_;
  LruList lru_;  // front = most recently used
  KeyIndex index_;
  std::size_t bytes_used_ = 0;
  CacheStats stats_;
  PowerState power_state_ = PowerState::kActive;
};

// Wire codec for broadcast digests: header + raw words, little-endian.
std::string encode_digest(const bloom::BloomFilter& filter);
bloom::BloomFilter decode_digest(std::string_view bytes);

}  // namespace proteus::cache
