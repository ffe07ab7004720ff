// The simulated Memcached tier: N cache servers, each a CacheServer (state)
// fronted by a QueueingServer (service model), plus power-state bookkeeping
// and the provisioning actuator used by CacheCluster.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
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

  using GetCallback = sim::Callback<void(std::optional<std::string>)>;

  // Asynchronous GET: network hop + queued service, then the lookup.
  void async_get(int server, const std::string& key, GetCallback done);

  // Asynchronous SET, fire-and-forget (Algorithm 2 line 12 does not block
  // the response on the put).
  void async_set(int server, const std::string& key, std::string value,
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

 private:
  sim::Simulation& sim_;
  CacheTierConfig config_;
  std::vector<std::unique_ptr<cache::CacheServer>> servers_;
  std::vector<std::unique_ptr<sim::QueueingServer>> queues_;
  std::vector<std::uint64_t> gets_served_;
};

}  // namespace proteus::cluster
