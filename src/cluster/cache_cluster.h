// Provisioning actuator for the cache tier — executes resize decisions the
// way §IV prescribes.
//
// Brutal mode (Naive / Consistent scenarios): the mapping switches
// instantly; servers being removed are powered off at once, losing their
// hot data — the behaviour whose delay spikes Fig. 9 demonstrates.
//
// Smooth mode (Proteus): on every resize the digests of all servers active
// under the OLD mapping are snapshotted and broadcast to the web servers
// (via the shared Router), the mapping switches, and servers leaving the
// active set keep serving GETs in a draining state for TTL seconds. Hot
// data migrates on demand through Algorithm 2; after TTL the drained
// servers hold only cold data and power off safely (§IV-A property 2).
//
// With §III-E replication the one Router holds every hash ring, so one
// transition (one digest snapshot per old server) serves them all. A
// server is draining exactly while its power state is kDraining. Crash
// injection (`mark_failed`) powers a server off outside the provisioning
// protocol and keeps later resizes from powering it back on until
// `mark_recovered`.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/cache_tier.h"
#include "cluster/router.h"
#include "common/check.h"
#include "common/time.h"
#include "sim/simulation.h"

namespace proteus::cluster {

struct CacheClusterConfig {
  bool smooth_transitions = true;
  SimTime ttl = 60 * kSecond;  // the hotness window / drain duration (§IV)
};

class CacheCluster {
 public:
  CacheCluster(sim::Simulation& sim, CacheTier& tier,
               std::shared_ptr<Router> router, CacheClusterConfig config)
      : sim_(sim),
        tier_(tier),
        router_(std::move(router)),
        config_(config),
        failed_(static_cast<std::size_t>(tier.num_servers()), false) {
    PROTEUS_CHECK(router_ != nullptr);
    // Servers beyond the initial active count start powered off.
    for (int i = router_->active(); i < tier_.num_servers(); ++i) {
      tier_.server(i).power_off();
    }
  }

  // Applies a provisioning decision. Overlapping transitions are resolved
  // by finalizing the pending one first (with 30-minute provisioning slots
  // and TTLs of seconds-to-minutes they never overlap in practice).
  void resize(int n_new);

  // Crash injection: the server loses its memory immediately and stays
  // down (resizes skip it) until recovery.
  void mark_failed(int server);
  void mark_recovered(int server);
  bool is_failed(int server) const {
    return failed_.at(static_cast<std::size_t>(server));
  }

  int active() const noexcept { return router_->active(); }
  bool transition_pending() const noexcept { return router_->in_transition(); }
  const CacheClusterConfig& config() const noexcept { return config_; }

  // Count of servers drawing power (active or draining).
  int powered_servers() const;

  // Total bytes of digest snapshots taken across all transitions (one
  // broadcast copy; each web server receives this much per transition —
  // the "a few KB each" overhead of §IV-A).
  std::uint64_t digest_broadcast_bytes() const noexcept {
    return digest_broadcast_bytes_;
  }
  std::uint64_t transitions_started() const noexcept { return transitions_started_; }

 private:
  void finalize_pending();

  sim::Simulation& sim_;
  CacheTier& tier_;
  std::shared_ptr<Router> router_;
  CacheClusterConfig config_;
  std::vector<bool> failed_;
  std::uint64_t transition_epoch_ = 0;  // guards stale finalize timers
  std::uint64_t digest_broadcast_bytes_ = 0;
  std::uint64_t transitions_started_ = 0;
};

}  // namespace proteus::cluster
