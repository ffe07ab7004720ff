// Digest handoff walkthrough — the §IV machinery in slow motion, at the
// level a systems operator would trace it:
//
//   1. a cache server fills up and maintains its counting-Bloom digest;
//   2. the provisioning transition snapshots the digest through the
//      memcached-compatible reserved keys (SET_BLOOM_FILTER / BLOOM_FILTER);
//   3. web servers decode the broadcast and route per Algorithm 2;
//   4. hot data migrates on demand, exactly once per key.
#include <cstdio>
#include <memory>
#include <string>

#include "cache/cache_server.h"
#include "cluster/router.h"
#include "hashring/proteus_placement.h"

int main() {
  using namespace proteus;

  // -- 1. a cache server with live digest ---------------------------------
  cache::CacheConfig cc;
  cc.memory_budget_bytes = 4 << 20;
  cache::CacheServer old_server(cc);  // provisioning index 1: being removed
  cache::CacheServer new_server(cc);  // provisioning index 0: stays on
  auto placement = std::make_shared<ring::ProteusPlacement>(2);
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "page:" + std::to_string(i);
    // Populate each server with the keys it owns under the 2-server mapping.
    (placement->server_for(hash_bytes(key), 2) == 1 ? old_server : new_server)
        .set(key, "content", 0);
  }
  std::printf("old server holds %zu items; digest uses %zu KB (l=%zu, b=%u)\n",
              old_server.item_count(), old_server.digest().memory_bytes() / 1024,
              old_server.digest().num_counters(),
              old_server.digest().counter_bits());

  // -- 2. snapshot, encoded as the BLOOM_FILTER wire blob --------------------
  const std::string wire = cache::encode_digest(old_server.snapshot_digest());
  std::printf("broadcast digest: %zu bytes on the wire (\"a few KB\", §IV-A)\n",
              wire.size());

  // -- 3. web servers decode and route -------------------------------------
  cluster::Router web_server(placement, 2);
  std::vector<std::optional<bloom::BloomFilter>> digests(2);
  digests[1] = cache::decode_digest(wire);  // old server is index 1
  web_server.begin_transition(/*n_new=*/1, 10 * kSecond, std::move(digests));

  // -- 4. Algorithm 2, by hand ---------------------------------------------
  int migrated = 0, primary_hits = 0, would_hit_db = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < 1000; ++i) {
      const std::string key = "page:" + std::to_string(i);
      const auto d = web_server.decide(key);
      if (auto v = new_server.get(key, kSecond)) {
        ++primary_hits;                       // line 3: hit in new server
      } else if (d.fallback == 1) {
        if (auto old_v = old_server.get(key, kSecond)) {
          new_server.set(key, *old_v, kSecond);  // line 12: migrate
          ++migrated;
        } else {
          ++would_hit_db;                     // line 9: false positive
        }
      } else {
        ++would_hit_db;                       // cold data
      }
    }
    std::printf("pass %d: %d primary hits, %d on-demand migrations, "
                "%d database fetches\n",
                pass + 1, primary_hits, migrated, would_hit_db);
  }
  std::printf("every hot key migrated exactly once and the database saw "
              "%s traffic.\n", would_hit_db == 0 ? "zero" : "almost no");
  return 0;
}
