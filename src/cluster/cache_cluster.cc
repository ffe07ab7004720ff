#include "cluster/cache_cluster.h"

namespace proteus::cluster {

void CacheCluster::resize(int n_new) {
  PROTEUS_CHECK(n_new >= 1 && n_new <= tier_.num_servers());
  const int n_old = router_->active();
  if (n_new == n_old) return;

  finalize_pending();

  if (!config_.smooth_transitions) {
    // Brutal actuation: power states and mapping flip at once.
    for (int i = n_old; i < n_new; ++i) {
      if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).power_on();
    }
    for (int i = n_new; i < n_old; ++i) {
      if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).power_off();
    }
    router_->set_active(n_new);
    return;
  }

  // Smooth actuation (§IV). Snapshot every old-mapping server's digest;
  // the router (shared by all web servers) is the broadcast destination.
  std::vector<std::optional<bloom::BloomFilter>> digests(
      static_cast<std::size_t>(tier_.num_servers()));
  for (int i = 0; i < n_old; ++i) {
    if (failed_[static_cast<std::size_t>(i)]) continue;  // nothing to digest
    digests[static_cast<std::size_t>(i)] = tier_.server(i).snapshot_digest();
    digest_broadcast_bytes_ +=
        digests[static_cast<std::size_t>(i)]->memory_bytes();
  }
  ++transitions_started_;

  for (int i = n_old; i < n_new; ++i) {
    if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).power_on();
  }
  for (int i = n_new; i < n_old; ++i) {
    if (!failed_[static_cast<std::size_t>(i)]) tier_.server(i).begin_draining();
  }

  const SimTime end = sim_.now() + config_.ttl;
  router_->begin_transition(n_new, end, std::move(digests));

  const std::uint64_t epoch = ++transition_epoch_;
  sim_.schedule_at(end, [this, epoch] {
    if (epoch == transition_epoch_) finalize_pending();
  });
}

void CacheCluster::mark_failed(int server) {
  PROTEUS_CHECK(server >= 0 && server < tier_.num_servers());
  if (failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = true;
  if (tier_.server(server).power_state() != cache::PowerState::kOff) {
    tier_.server(server).power_off();  // the crash loses the cache (§III-A)
  }
  // Restart-aware digests, sim side: any broadcast digest describing that
  // memory died with it. Drop it so mid-transition old-location probes stop
  // chasing phantom "hot" answers (the live client reaches the same verdict
  // through the incarnation hello — docs/OPERATIONS.md §11).
  router_->drop_old_digest(server);
}

void CacheCluster::mark_recovered(int server) {
  PROTEUS_CHECK(server >= 0 && server < tier_.num_servers());
  if (!failed_[static_cast<std::size_t>(server)]) return;
  failed_[static_cast<std::size_t>(server)] = false;
  // Rejoin cold if inside the active set.
  if (server < router_->active()) {
    tier_.server(server).power_on();
  }
}

void CacheCluster::finalize_pending() {
  for (int i = 0; i < tier_.num_servers(); ++i) {
    // After TTL seconds every datum touched during the window has already
    // been copied to its new server (Algorithm 2 property 2); whatever
    // remains is cold and may be discarded. A crashed leaver is already off.
    if (tier_.server(i).power_state() == cache::PowerState::kDraining) {
      tier_.server(i).power_off();
    }
  }
  router_->finalize_transition();
  ++transition_epoch_;  // cancel any outstanding finalize timer
}

int CacheCluster::powered_servers() const {
  int n = 0;
  for (int i = 0; i < tier_.num_servers(); ++i) {
    n += tier_.server(i).power_state() != cache::PowerState::kOff;
  }
  return n;
}

}  // namespace proteus::cluster
