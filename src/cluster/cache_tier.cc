#include "cluster/cache_tier.h"

namespace proteus::cluster {

CacheTier::CacheTier(sim::Simulation& sim, CacheTierConfig config)
    : sim_(sim), config_(std::move(config)) {
  PROTEUS_CHECK(config_.num_servers >= 1);
  servers_.reserve(static_cast<std::size_t>(config_.num_servers));
  queues_.reserve(static_cast<std::size_t>(config_.num_servers));
  gets_served_.assign(static_cast<std::size_t>(config_.num_servers), 0);
  for (int i = 0; i < config_.num_servers; ++i) {
    servers_.push_back(std::make_unique<cache::CacheServer>(config_.per_server));
    queues_.push_back(std::make_unique<sim::QueueingServer>(
        sim_, "cache-" + std::to_string(i), config_.concurrency));
  }
}

void CacheTier::async_get(int server, const std::string& key,
                          GetCallback done) {
  PROTEUS_CHECK(server >= 0 && server < config_.num_servers);
  if (servers_[static_cast<std::size_t>(server)]->power_state() ==
      cache::PowerState::kOff) {
    // Routed against a mapping that was retired between the routing
    // decision and this hop (e.g. a drain window just ended): miss.
    sim_.schedule_after(2 * config_.hop_latency,
                        [done = std::move(done)]() mutable { done(std::nullopt); });
    return;
  }
  ++gets_served_[static_cast<std::size_t>(server)];
  // Request hop, queued service, then the in-memory lookup and reply hop.
  // Each closure moves the key and `done` on into the next, so the key is
  // copied once and no continuation is wrapped in another. (A plain `key`
  // capture would be a const std::string, whose "move" copies.)
  sim_.schedule_after(config_.hop_latency,
                      [this, server, key = std::string(key),
                       done = std::move(done)]() mutable {
    queues_[static_cast<std::size_t>(server)]->submit(
        config_.service_time,
        [this, server, key = std::move(key),
         done = std::move(done)]() mutable {
          // The server may have been powered off while this request was in
          // flight (brutal resize, or a drain window ending). Like a reset
          // TCP connection, that reads as a miss.
          auto& srv = *servers_[static_cast<std::size_t>(server)];
          auto value = srv.power_state() == cache::PowerState::kOff
                           ? std::nullopt
                           : srv.get(key, sim_.now());
          sim_.schedule_after(config_.hop_latency,
                              [done = std::move(done),
                               value = std::move(value)]() mutable {
                                done(std::move(value));
                              });
        });
  });
}

void CacheTier::async_set(int server, const std::string& key,
                          std::string value, std::size_t charge) {
  PROTEUS_CHECK(server >= 0 && server < config_.num_servers);
  sim_.schedule_after(
      config_.hop_latency,
      [this, server, key = std::string(key), value = std::move(value),
       charge]() mutable {
        if (servers_[static_cast<std::size_t>(server)]->power_state() ==
            cache::PowerState::kOff) {
          return;  // raced with a power-off; drop like a failed TCP write
        }
        queues_[static_cast<std::size_t>(server)]->submit(
            config_.service_time,
            [this, server, key = std::move(key), value = std::move(value),
             charge]() mutable {
              auto& srv = *servers_[static_cast<std::size_t>(server)];
              if (srv.power_state() != cache::PowerState::kOff) {
                srv.set(key, std::move(value), sim_.now(), charge);
              }
            });
      });
}

double CacheTier::aggregate_hit_ratio() const {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  for (const auto& s : servers_) {
    gets += s->stats().gets;
    hits += s->stats().hits;
  }
  return gets ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
}

}  // namespace proteus::cluster
