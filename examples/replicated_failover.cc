// Replication & failover walkthrough — §III-E in action.
//
// Runs an r=2 replicated Proteus cluster, crashes a cache server at full
// load, and shows (a) requests keep being served warm from the surviving
// replicas, (b) read-repair restores redundancy, and (c) a provisioning
// resize composed with the failure still causes no miss storm.
#include <cstdio>
#include <string>

#include "core/proteus.h"

int main() {
  using namespace proteus;

  ProteusOptions opt;
  opt.max_servers = 10;
  opt.replicas = 2;
  opt.per_server.memory_budget_bytes = 16 << 20;
  opt.ttl = 10 * kSecond;

  std::uint64_t db_calls = 0;
  Proteus cluster(opt, [&](std::string_view key) {
    ++db_calls;
    return "row:" + std::string(key);
  });

  std::printf("Eq.(3) check: P(2 replicas on distinct servers | n=10) = %.2f\n",
              ring::ProteusPlacement::replica_no_conflict_probability(2, 10));

  // Warm 2000 pages; each lands on (usually) two distinct servers.
  SimTime now = 0;
  for (int i = 0; i < 2000; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  std::printf("warmup: %llu db fetches for 2000 pages\n",
              static_cast<unsigned long long>(db_calls));

  // Crash server 4. Its memory is gone — but every page it held also lives
  // on its replica location.
  cluster.fail_server(4);
  const auto before_crash_reads = db_calls;
  for (int i = 0; i < 2000; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  std::printf("after crashing server 4: +%llu db fetches "
              "(%llu served by surviving replicas)\n",
              static_cast<unsigned long long>(db_calls - before_crash_reads),
              static_cast<unsigned long long>(cluster.stats().replica_ring_hits));

  // Recover it; read-repair refills it organically.
  cluster.recover_server(4);
  for (int i = 0; i < 2000; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  std::printf("after recovery: server 4 holds %zu items again (read-repair)\n",
              cluster.server(4).item_count());

  // Shrink to 6 servers while one box is freshly recovered: smooth as ever.
  const auto before_resize = db_calls;
  cluster.resize(6, now);
  for (int i = 0; i < 2000; ++i) {
    cluster.get("page:" + std::to_string(i), now);
    now += kMillisecond;
  }
  std::printf("after shrink to 6: +%llu db fetches (on-demand migrations: "
              "%llu)\n",
              static_cast<unsigned long long>(db_calls - before_resize),
              static_cast<unsigned long long>(cluster.stats().old_server_hits));
  return 0;
}
