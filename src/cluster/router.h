// Request routing state shared by all web servers — the deterministic,
// consistent, distributed decision logic of §II objective 3 and the data
// retrieval procedure of §IV Algorithm 2.
//
// Every web server holds an identical Router (same placement object, same
// broadcast digests), so routing decisions are consistent cluster-wide
// without coordination. Outside transitions a key maps straight to its
// server under the current active count. During a transition the router
// additionally knows the OLD mapping and the old servers' digests; decide()
// then reports the old location to consult when the key's mapping changed
// and the digest claims the data is resident there ("hot").
//
// One Router serves all r rings of §III-E: they share the virtual-node
// placement and differ only in the key hash (ring::replica_ring_hash). The
// transition state is kept once, because one digest per old server covers
// every key it holds, whichever ring put the key there.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "bloom/bloom_filter.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/time.h"
#include "hashring/placement.h"
#include "hashring/replicated_ring.h"

namespace proteus::cluster {

class Router {
 public:
  // `replicas` is r of §III-E; 1 is the paper's base single-ring design.
  Router(std::shared_ptr<const ring::PlacementStrategy> placement,
         int initial_active, int replicas = 1)
      : placement_(std::move(placement)),
        replicas_(replicas),
        active_(initial_active) {
    PROTEUS_CHECK(placement_ != nullptr);
    PROTEUS_CHECK(active_ >= 1 && active_ <= placement_->max_servers());
    PROTEUS_CHECK(replicas_ >= 1);
  }

  struct Decision {
    int primary;        // server under the NEW (current) mapping
    int fallback = -1;  // old location to consult on miss; -1 = none
    // Server under the OLD mapping during a transition, whatever its digest
    // says (may equal `primary`); -1 outside transitions.
    int old = -1;
  };

  // The key's locations on `ring` (0 <= ring < replicas()).
  Decision decide(std::string_view key, int ring = 0) const {
    assert(ring >= 0 && ring < replicas_);
    const std::uint64_t h = ring::replica_ring_hash(hash_bytes(key), ring);
    Decision d{placement_->server_for(h, active_)};
    if (in_transition_) {
      d.old = placement_->server_for(h, old_active_);
      if (d.old != d.primary &&
          static_cast<std::size_t>(d.old) < old_digests_.size() &&
          old_digests_[static_cast<std::size_t>(d.old)].has_value() &&
          old_digests_[static_cast<std::size_t>(d.old)]->maybe_contains(key)) {
        d.fallback = d.old;  // data is "hot" on the old server
      }
    }
    return d;
  }

  // Brutal switch (Naive/Consistent scenarios): mapping changes instantly,
  // no digest consultation.
  void set_active(int n) {
    PROTEUS_CHECK(n >= 1 && n <= placement_->max_servers());
    active_ = n;
    in_transition_ = false;
    old_digests_.clear();
  }

  // Smooth switch (Proteus): the old mapping and the old servers' broadcast
  // digests stay consultable until `transition_end` (now + TTL).
  void begin_transition(int n_new, SimTime transition_end,
                        std::vector<std::optional<bloom::BloomFilter>> digests) {
    PROTEUS_CHECK(n_new >= 1 && n_new <= placement_->max_servers());
    old_active_ = active_;
    active_ = n_new;
    in_transition_ = true;
    transition_end_ = transition_end;
    old_digests_ = std::move(digests);
  }

  void finalize_transition() {
    in_transition_ = false;
    old_digests_.clear();
  }

  // Restart-aware digests: a cold-restarted server's counting-Bloom state
  // died with its previous life, so the digest fetched from that life must
  // stop steering misses there (it would answer phantom "hot" claims for
  // keys that no longer exist). decide() then treats the server as cold —
  // misses fall through to the backend, repopulating the new location.
  void drop_old_digest(int server) {
    if (server >= 0 &&
        static_cast<std::size_t>(server) < old_digests_.size()) {
      old_digests_[static_cast<std::size_t>(server)].reset();
    }
  }

  int replicas() const noexcept { return replicas_; }
  int active() const noexcept { return active_; }
  int old_active() const noexcept { return old_active_; }
  bool in_transition() const noexcept { return in_transition_; }
  SimTime transition_end() const noexcept { return transition_end_; }
  const ring::PlacementStrategy& placement() const noexcept { return *placement_; }

 private:
  std::shared_ptr<const ring::PlacementStrategy> placement_;
  int replicas_;
  int active_;
  int old_active_ = 0;
  bool in_transition_ = false;
  SimTime transition_end_ = 0;
  std::vector<std::optional<bloom::BloomFilter>> old_digests_;
};

}  // namespace proteus::cluster
