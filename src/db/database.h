// Sharded database tier simulator — substitutes the paper's 7 MySQL shards
// holding the Wikipedia dump (§V-4).
//
// What the experiments need from the database is (a) deterministic content
// for any key, (b) realistic miss latency (the page -> revision -> text
// triple lookup, seek-dominated), and (c) overload behaviour: each shard has
// bounded concurrency, so a cache-miss storm builds queues and response
// times explode — the mechanism behind the Fig. 9 Naive spikes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/callback.h"
#include "sim/queueing_server.h"
#include "sim/simulation.h"

namespace proteus::db {

struct DbConfig {
  int num_shards = 7;
  // InnoDB-ish: a few parallel query slots per shard.
  int per_shard_concurrency = 2;
  // Service time = base + Exp(jitter_mean): three index lookups worth of
  // page->latest->text traversal (§V-4), seek dominated.
  SimTime base_service_time = 6 * kMillisecond;
  SimTime service_jitter_mean = 6 * kMillisecond;
  // Logical object size (the paper's fixed-size cache unit, 4 KB pages).
  std::size_t object_size = 4096;
  std::uint64_t seed = 42;
};

class Database {
 public:
  Database(sim::Simulation& sim, DbConfig config);

  // Asynchronous lookup through the shard's queue; `done` receives the
  // deterministic value for the key once service completes.
  void async_get(std::string_view key, sim::Callback<void(std::string)> done);

  // Synchronous variant for the non-simulated library facade and examples.
  std::string get(std::string_view key) const { return value_for(key); }

  // Deterministic synthetic page content (stands in for the wiki dump).
  // Short payload; object_size() is the accounting charge for the cache.
  std::string value_for(std::string_view key) const;

  int shard_for(std::string_view key) const noexcept {
    return static_cast<int>(hash_bytes(key, config_.seed) %
                            static_cast<std::uint64_t>(config_.num_shards));
  }

  std::size_t object_size() const noexcept { return config_.object_size; }
  int num_shards() const noexcept { return config_.num_shards; }
  std::uint64_t total_queries() const noexcept { return total_queries_; }
  const sim::QueueingServer& shard(int i) const { return *shards_.at(static_cast<std::size_t>(i)); }

  std::size_t max_queue_depth() const;
  double mean_utilization() const;

 private:
  sim::Simulation& sim_;
  DbConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<sim::QueueingServer>> shards_;
  std::uint64_t total_queries_ = 0;
};

}  // namespace proteus::db
