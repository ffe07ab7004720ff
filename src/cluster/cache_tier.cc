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

CacheTier::Op* CacheTier::acquire(int server, std::string_view key) {
  PROTEUS_CHECK(server >= 0 && server < config_.num_servers);
  Op* op;
  if (free_ops_.empty()) {
    ops_.push_back(std::make_unique<Op>());
    op = ops_.back().get();
  } else {
    op = free_ops_.back();
    free_ops_.pop_back();
  }
  op->server = server;
  op->key.assign(key);
  return op;
}

void CacheTier::release(Op* op) {
  op->done.reset();
  free_ops_.push_back(op);
}

void CacheTier::reply(Op* op) {
  op->done(op->hit ? std::optional<std::string_view>(op->value)
                   : std::nullopt);
  release(op);  // only now: the continuation read the hit in place
}

void CacheTier::async_get(int server, std::string_view key,
                          GetCallback done) {
  Op* op = acquire(server, key);
  op->done = std::move(done);
  op->hit = false;
  if (powered_off(server)) {
    // Routed against a mapping that was retired between the routing
    // decision and this hop (e.g. a drain window just ended): miss.
    sim_.schedule_after(2 * config_.hop_latency, [this, op] { reply(op); });
    return;
  }
  ++gets_served_[static_cast<std::size_t>(server)];
  // Request hop, queued service, then the in-memory lookup and reply hop.
  sim_.schedule_after(config_.hop_latency, [this, op] {
    queues_[static_cast<std::size_t>(op->server)]->submit(
        config_.service_time, [this, op] {
          // The server may have been powered off while this request was in
          // flight (brutal resize, or a drain window ending). Like a reset
          // TCP connection, that reads as a miss.
          op->hit = !powered_off(op->server) &&
                    servers_[static_cast<std::size_t>(op->server)]->get_into(
                        op->key, sim_.now(), op->value);
          sim_.schedule_after(config_.hop_latency, [this, op] { reply(op); });
        });
  });
}

void CacheTier::async_set(int server, std::string_view key,
                          std::string_view value, std::size_t charge) {
  Op* op = acquire(server, key);
  op->value.assign(value);
  op->charge = charge;
  sim_.schedule_after(config_.hop_latency, [this, op] {
    if (powered_off(op->server)) {
      release(op);  // raced with a power-off; drop like a failed TCP write
      return;
    }
    queues_[static_cast<std::size_t>(op->server)]->submit(
        config_.service_time, [this, op] {
          if (!powered_off(op->server)) {
            servers_[static_cast<std::size_t>(op->server)]->set(
                op->key, op->value, sim_.now(), op->charge);
          }
          release(op);
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
