// The simulated Memcached tier: N cache servers, each a CacheServer (state)
// fronted by a QueueingServer (service model), plus power-state bookkeeping
// and the provisioning actuator used by CacheCluster.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "common/check.h"
#include "common/time.h"
#include "sim/callback.h"
#include "sim/queueing_server.h"
#include "sim/simulation.h"

namespace proteus::cluster {

struct CacheTierConfig {
  int num_servers = 10;
  cache::CacheConfig per_server;
  int concurrency = 8;                       // memcached worker threads
  SimTime service_time = 150 * kMicrosecond; // per-op CPU cost
  SimTime hop_latency = 250 * kMicrosecond;  // web <-> cache network RTT/2
};

class CacheTier {
 public:
  CacheTier(sim::Simulation& sim, CacheTierConfig config);

  // A hit is a view into the operation's pooled buffer, valid only until
  // the continuation returns; nullopt is a miss.
  using GetCallback = sim::Callback<void(std::optional<std::string_view>)>;

  // Asynchronous GET: network hop + queued service, then the lookup.
  void async_get(int server, std::string_view key, GetCallback done);

  // Asynchronous SET, fire-and-forget (Algorithm 2 line 12 does not block
  // the response on the put). `key` and `value` are copied.
  void async_set(int server, std::string_view key, std::string_view value,
                 std::size_t charge);

  cache::CacheServer& server(int i) { return *servers_.at(static_cast<std::size_t>(i)); }
  const cache::CacheServer& server(int i) const { return *servers_.at(static_cast<std::size_t>(i)); }
  const sim::QueueingServer& queue(int i) const { return *queues_.at(static_cast<std::size_t>(i)); }

  int num_servers() const noexcept { return config_.num_servers; }
  const CacheTierConfig& config() const noexcept { return config_; }

  // Cumulative per-server GET counters (for load-balance accounting).
  std::uint64_t gets_served(int server) const {
    return gets_served_.at(static_cast<std::size_t>(server));
  }

  // Aggregate hit ratio across all servers since construction.
  double aggregate_hit_ratio() const;

  // Operation records ever allocated (the peak number of gets and sets in
  // flight at once), and those in flight now.
  std::size_t ops_pooled() const noexcept { return ops_.size(); }
  std::size_t ops_in_flight() const noexcept {
    return ops_.size() - free_ops_.size();
  }

 private:
  // One in-flight get or set, from its request hop to its reply (or its
  // store). Pooled, so each of its events captures only (this, Op*) and its
  // key and value buffers are reused once the pool is warm.
  struct Op {
    int server = 0;
    std::string key;
    GetCallback done;    // gets only
    std::string value;   // a get's hit, or the value a set stores
    std::size_t charge = 0;  // sets only
    bool hit = false;
  };

  Op* acquire(int server, std::string_view key);
  void release(Op* op);
  // The reply hop has landed: run the continuation, then free the record.
  void reply(Op* op);
  bool powered_off(int server) const {
    return servers_[static_cast<std::size_t>(server)]->power_state() ==
           cache::PowerState::kOff;
  }

  sim::Simulation& sim_;
  CacheTierConfig config_;
  std::vector<std::unique_ptr<cache::CacheServer>> servers_;
  std::vector<std::unique_ptr<sim::QueueingServer>> queues_;
  std::vector<std::uint64_t> gets_served_;
  std::vector<std::unique_ptr<Op>> ops_;  // the pool
  std::vector<Op*> free_ops_;
};

}  // namespace proteus::cluster
