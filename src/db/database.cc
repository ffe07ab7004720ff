#include "db/database.h"

#include <algorithm>

#include "common/check.h"

namespace proteus::db {

Database::Database(sim::Simulation& sim, DbConfig config)
    : sim_(sim), config_(config), rng_(config.seed) {
  PROTEUS_CHECK(config_.num_shards >= 1);
  shards_.reserve(static_cast<std::size_t>(config_.num_shards));
  for (int i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<sim::QueueingServer>(
        sim_, "db-shard-" + std::to_string(i), config_.per_shard_concurrency));
  }
}

void Database::async_get(std::string_view key,
                         sim::Callback<void(std::string)> done) {
  ++total_queries_;
  const int shard = shard_for(key);
  const SimTime service =
      config_.base_service_time +
      from_seconds(rng_.next_exponential(to_seconds(config_.service_jitter_mean)));
  std::string value = value_for(key);
  shards_[static_cast<std::size_t>(shard)]->submit(
      service, [done = std::move(done), value = std::move(value)]() mutable {
        done(std::move(value));
      });
}

std::string Database::value_for(std::string_view key) const {
  // Deterministic page body derived from the key; stands in for the
  // old_text column the paper's final SELECT returns.
  std::string out = "wiki:";
  out.append(key);
  out += ":rev";
  out += std::to_string(hash_bytes(key, config_.seed ^ 0xfeed) % 1000000);
  return out;
}

std::size_t Database::max_queue_depth() const {
  std::size_t m = 0;
  for (const auto& s : shards_) m = std::max(m, s->max_queue_depth());
  return m;
}

double Database::mean_utilization() const {
  double total = 0;
  for (const auto& s : shards_) total += s->utilization();
  return total / static_cast<double>(shards_.size());
}

}  // namespace proteus::db
