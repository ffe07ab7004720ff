// Fault-tolerant replication — paper §III-E.
//
// Proteus keeps r replicas of every (key, data) pair by running r consistent
// hashing rings that SHARE the virtual-node placement but hash keys with r
// different hash functions (here: r seeds). A key is stored on every server
// whose host range contains it on any ring; Eq. (3) gives the probability
// that the r replicas land on r distinct servers. cluster::Router applies
// this hash per ring.
#pragma once

#include <cstdint>

#include "common/hash.h"

namespace proteus::ring {

// The per-ring key hash: ring 0 uses the key hash unchanged (so a 1-replica
// configuration is drop-in identical to the bare placement); ring i >= 1
// re-mixes with a ring-specific seed — the paper's "r different hash
// functions" over a shared virtual-node placement.
inline std::uint64_t replica_ring_hash(std::uint64_t key_hash,
                                       int ring) noexcept {
  return ring == 0 ? key_hash
                   : hash_u64(key_hash,
                              0xabcd1234u + static_cast<std::uint64_t>(ring));
}

}  // namespace proteus::ring
