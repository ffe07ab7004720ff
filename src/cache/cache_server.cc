#include "cache/cache_server.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <random>
#include <utility>

#include "common/check.h"
#include "common/hash.h"
#include "obs/trace.h"

namespace proteus::cache {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

std::uint64_t read_u64(std::string_view bytes, std::size_t offset) {
  std::uint64_t v;
  PROTEUS_CHECK(offset + 8 <= bytes.size());
  std::memcpy(&v, bytes.data() + offset, 8);
  return v;
}

// Seeds each KeyIndex differently: a per-process random base mixed with a
// running instance count.
std::uint64_t next_index_seed() {
  static const std::uint64_t base = [] {
    std::random_device rd;
    return (std::uint64_t{rd()} << 32) ^ rd();
  }();
  static std::atomic<std::uint64_t> instances{0};
  return hash_combine(base,
                      instances.fetch_add(1, std::memory_order_relaxed));
}

// Smallest table; it doubles whenever it would pass half full.
constexpr std::size_t kMinIndexSlots = 16;

}  // namespace

CacheServer::KeyIndex::KeyIndex()
    : seed_(next_index_seed()),
      slots_(kMinIndexSlots),
      mask_(kMinIndexSlots - 1) {}

std::uint64_t CacheServer::KeyIndex::hash(std::string_view key) const noexcept {
  const std::uint64_t h = hash_bytes(key, seed_);
  return h != 0 ? h : 1;
}

const CacheServer::LruList::iterator* CacheServer::KeyIndex::find(
    std::string_view key, std::uint64_t h) const noexcept {
  for (std::size_t i = h & mask_;; i = (i + 1) & mask_) {
    const Slot& slot = slots_[i];
    if (slot.hash == 0) return nullptr;
    if (slot.hash == h && slot.item->key == key) return &slot.item;
  }
}

void CacheServer::KeyIndex::insert(LruList::iterator item) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  std::size_t i = item->hash & mask_;
  while (slots_[i].hash != 0) i = (i + 1) & mask_;
  slots_[i] = Slot{item->hash, item};
  ++size_;
}

void CacheServer::KeyIndex::erase(LruList::iterator item) noexcept {
  std::size_t hole = item->hash & mask_;
  while (slots_[hole].hash != item->hash || slots_[hole].item != item) {
    hole = (hole + 1) & mask_;
  }
  // Backward shift: pull each later member of the probe run into the hole
  // unless its home slot lies cyclically in (hole, j], where it must stay.
  for (std::size_t j = (hole + 1) & mask_; slots_[j].hash != 0;
       j = (j + 1) & mask_) {
    const std::size_t home = slots_[j].hash & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].hash = 0;
  --size_;
}

void CacheServer::KeyIndex::clear() noexcept {
  for (Slot& slot : slots_) slot.hash = 0;
  size_ = 0;
}

void CacheServer::KeyIndex::grow() {
  const std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  mask_ = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.hash == 0) continue;
    std::size_t i = slot.hash & mask_;
    while (slots_[i].hash != 0) i = (i + 1) & mask_;
    slots_[i] = slot;
  }
}

// Auto-sizing assumes the paper's 4 KB fixed object size (§II, §VI-B) to
// estimate the resident key count kappa from the memory budget, then applies
// the §IV-B optimizer with the evaluation's h = 4 and the worked example's
// 1e-4 false positive/negative bounds.
bloom::BloomParams digest_params_for(const CacheConfig& config) {
  if (config.digest.num_counters != 0) return config.digest;
  const std::size_t kappa =
      std::max<std::size_t>(1024, config.memory_budget_bytes / 4096);
  return bloom::optimize(kappa, /*h=*/4, /*pp=*/1e-4, /*pn=*/1e-4);
}

std::string encode_digest(const bloom::BloomFilter& filter) {
  std::string out;
  out.reserve(24 + filter.words().size() * 8);
  append_u64(out, filter.num_bits());
  append_u64(out, filter.num_hashes());
  append_u64(out, filter.seed());
  for (std::uint64_t w : filter.words()) append_u64(out, w);
  return out;
}

bloom::BloomFilter decode_digest(std::string_view bytes) {
  PROTEUS_CHECK(bytes.size() >= 24 && bytes.size() % 8 == 0);
  const std::uint64_t num_bits = read_u64(bytes, 0);
  const auto num_hashes = static_cast<unsigned>(read_u64(bytes, 8));
  const std::uint64_t seed = read_u64(bytes, 16);
  std::vector<std::uint64_t> words;
  words.reserve((bytes.size() - 24) / 8);
  for (std::size_t off = 24; off < bytes.size(); off += 8) {
    words.push_back(read_u64(bytes, off));
  }
  return bloom::BloomFilter::from_words(std::move(words), num_bits,
                                        num_hashes, seed);
}

CacheServer::CacheServer(CacheConfig config)
    : config_(std::move(config)),
      slab_sizer_(config_.slab_accounting
                      ? std::optional<SlabSizer>(std::in_place)
                      : std::nullopt),
      digest_([&] {
        config_.digest = digest_params_for(config_);
        return bloom::CountingBloomFilter(
            config_.digest.num_counters, config_.digest.counter_bits,
            config_.digest.num_hashes, /*seed=*/0, config_.digest_policy);
      }()) {
  PROTEUS_CHECK(config_.memory_budget_bytes > 0);
}

bool CacheServer::expired(const Item& item, SimTime now) const noexcept {
  return config_.item_ttl > 0 && now - item.last_access > config_.item_ttl;
}

std::optional<std::string> CacheServer::get(std::string_view key, SimTime now,
                                            ItemMeta* meta) {
  std::string out;
  if (!get_into(key, now, out, meta)) return std::nullopt;
  return out;
}

bool CacheServer::get_into(std::string_view key, SimTime now,
                           std::string& out, ItemMeta* meta) {
  const std::optional<std::string_view> value = get_view(key, now, meta);
  if (!value.has_value()) return false;
  out.assign(*value);
  return true;
}

std::optional<std::string_view> CacheServer::get_view(std::string_view key,
                                                      SimTime now,
                                                      ItemMeta* meta) {
  ++stats_.gets;
  const std::optional<std::string_view> value = touch(key, now, meta);
  ++(value.has_value() ? stats_.hits : stats_.misses);
  return value;
}

std::optional<std::string_view> CacheServer::touch(std::string_view key,
                                                   SimTime now,
                                                   ItemMeta* meta) {
  PROTEUS_CHECK_MSG(power_state_ != PowerState::kOff,
                    "read on a powered-off cache server");
  const LruList::iterator* found = index_.find(key, index_.hash(key));
  if (found == nullptr) return std::nullopt;
  const LruList::iterator it = *found;
  if (expired(*it, now)) {
    ++stats_.expirations;
    obs::emit(config_.trace, now, obs::TraceEventKind::kTtlExpiry,
              config_.trace_server_id, -1, 1, key);
    unlink(it);
    return std::nullopt;
  }
  // End-to-end integrity: items stamped with a CRC32C at SET time are
  // re-verified on every serve. A mismatch means the bytes rotted at rest
  // (or were corrupted on the inbound wire past the parser): drop the item
  // and answer a miss so corrupt data never reaches a caller — the client
  // read-repairs from the database.
  if (it->has_crc && crc32c(it->value) != it->crc) {
    ++stats_.corrupt_drops;
    obs::emit(config_.trace, now, obs::TraceEventKind::kCorruption,
              config_.trace_server_id, -1, /*n=at-rest*/ 1, key);
    unlink(it);
    return std::nullopt;
  }
  it->last_access = now;
  lru_.splice(lru_.begin(), lru_, it);  // move to MRU
  if (meta != nullptr) {
    meta->flags = it->flags;
    meta->crc = it->has_crc ? std::optional(it->crc) : std::nullopt;
  }
  return std::string_view(it->value);
}

bool CacheServer::set(std::string_view key, std::string value, SimTime now,
                      std::size_t charge, std::uint32_t flags,
                      std::optional<std::uint32_t> crc) {
  ++stats_.sets;
  return rewrite(key, std::move(value), now, charge, flags, crc);
}

bool CacheServer::rewrite(std::string_view key, std::string value,
                          SimTime now, std::size_t charge, std::uint32_t flags,
                          std::optional<std::uint32_t> crc) {
  PROTEUS_CHECK_MSG(power_state_ != PowerState::kOff,
                    "set() on a powered-off cache server");
  PROTEUS_CHECK_MSG(key != kSetBloomFilterKey && key != kGetBloomFilterKey &&
                        key != kEpochKey,
                    "reserved protocol key");

  // Build the replacement first: `key` may alias the stored key of the item
  // about to be unlinked (e.g. a view obtained from this cache).
  Item item;
  item.key.assign(key);
  item.hash = index_.hash(item.key);
  item.charge = key.size() + (charge ? charge : value.size()) +
                config_.per_item_overhead;
  // A store that can never fit still drops the resident copy (memcached).
  if (const LruList::iterator* found = index_.find(item.key, item.hash)) {
    unlink(*found);
  }
  if (slab_sizer_.has_value()) {
    item.charge = slab_sizer_->chunk_size_for(item.charge);
    if (item.charge == 0) return false;  // exceeds the largest slab class
  }
  if (item.charge > config_.memory_budget_bytes) return false;  // never fits
  item.value = std::move(value);
  item.last_access = now;
  item.flags = flags;
  item.has_crc = crc.has_value();
  item.crc = crc.value_or(0);
  evict_to_fit(item.charge);
  link(std::move(item));
  return true;
}

bool CacheServer::erase(std::string_view key) {
  const LruList::iterator* found = index_.find(key, index_.hash(key));
  if (found == nullptr) return false;
  ++stats_.deletes;
  unlink(*found);
  return true;
}

void CacheServer::flush() {
  lru_.clear();
  index_.clear();
  bytes_used_ = 0;
  digest_.clear();
}

bool CacheServer::contains(std::string_view key, SimTime now) const {
  const LruList::iterator* found = index_.find(key, index_.hash(key));
  return found != nullptr && !expired(**found, now);
}

void CacheServer::note_corrupt_set_reject(SimTime now, std::string_view key) {
  ++stats_.corrupt_set_rejects;
  obs::emit(config_.trace, now, obs::TraceEventKind::kCorruption,
            config_.trace_server_id, -1, /*n=at-rest*/ 1, key);
}

bool CacheServer::corrupt_value_for_test(std::string_view key,
                                         std::size_t bit_index) {
  const LruList::iterator* found = index_.find(key, index_.hash(key));
  if (found == nullptr || (*found)->value.empty()) return false;
  std::string& v = (*found)->value;
  const std::size_t bit = bit_index % (v.size() * 8);
  v[bit / 8] = static_cast<char>(static_cast<unsigned char>(v[bit / 8]) ^
                                 (1u << (bit % 8)));
  return true;
}

void CacheServer::power_off() {
  flush();
  power_state_ = PowerState::kOff;
}

void CacheServer::power_on() {
  PROTEUS_CHECK(power_state_ == PowerState::kOff);
  power_state_ = PowerState::kActive;
}

std::size_t CacheServer::hot_item_count(SimTime now, SimTime ttl) const {
  std::size_t n = 0;
  for (const Item& item : lru_) n += (now - item.last_access) <= ttl;
  return n;
}

std::size_t CacheServer::expire_idle(SimTime now, SimTime idle_limit) {
  std::size_t evicted = 0;
  // The tail holds the oldest last_access: sweep it until every remaining
  // item is inside the idle limit.
  while (!lru_.empty() && now - lru_.back().last_access > idle_limit) {
    ++stats_.expirations;
    unlink(std::prev(lru_.end()));
    ++evicted;
  }
  if (evicted > 0) {
    obs::emit(config_.trace, now, obs::TraceEventKind::kTtlExpiry,
              config_.trace_server_id, -1, evicted);
  }
  return evicted;
}

void CacheServer::link(Item item) {
  digest_.insert(item.key);  // do_item_link hook
  bytes_used_ += item.charge;
  lru_.push_front(std::move(item));
  index_.insert(lru_.begin());
}

void CacheServer::unlink(LruList::iterator it) {
  digest_.remove(it->key);  // do_item_unlink hook
  bytes_used_ -= it->charge;
  index_.erase(it);
  lru_.erase(it);
}

void CacheServer::evict_to_fit(std::size_t incoming_charge) {
  while (bytes_used_ + incoming_charge > config_.memory_budget_bytes &&
         !lru_.empty()) {
    ++stats_.evictions;
    unlink(std::prev(lru_.end()));
  }
}

}  // namespace proteus::cache
