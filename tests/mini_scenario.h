// The small scenario configuration shared by the scenario tests and the
// simulator's allocation guard.
#pragma once

#include "cluster/scenario.h"

namespace proteus::cluster {

// A deliberately small, fast configuration with forced transitions and a
// database sized so that a miss storm overloads it (2 shards, 1 slot each).
inline ScenarioConfig mini_config(ScenarioKind kind) {
  ScenarioConfig cfg;
  cfg.kind = kind;
  cfg.schedule = {4, 2, 4, 2};
  cfg.slot_length = 20 * kSecond;
  cfg.metric_slot = 5 * kSecond;
  cfg.ttl = 8 * kSecond;

  cfg.diurnal.mean_rate = 200;
  cfg.diurnal.amplitude = 0;
  cfg.diurnal.jitter = 0;

  cfg.rbe.num_pages = 5000;
  cfg.rbe.pages_per_user = 20;

  // Capacity comfortably holds the hot working set even at n=2 (the point
  // of provisioning is that capacity tracks load), so transition behaviour
  // — not LRU thrash — is what differentiates the scenarios.
  cfg.cache.num_servers = 4;
  cfg.cache.per_server.memory_budget_bytes = 8 << 20;
  cfg.web.num_servers = 2;
  cfg.db.num_shards = 2;
  cfg.db.per_shard_concurrency = 1;
  cfg.db.base_service_time = 8 * kMillisecond;
  cfg.db.service_jitter_mean = 8 * kMillisecond;
  cfg.consistent_vnodes_per_server = 2;  // n^2/2 for n=4
  return cfg;
}

}  // namespace proteus::cluster
