// Proteus — the public library facade.
//
// An embeddable, power-proportional cache cluster front end: N in-process
// memcached-like servers behind the paper's two mechanisms —
//
//   * Algorithm 1 deterministic virtual-node placement (exact load balance
//     at every active size, minimal migration per resize), and
//   * Algorithm 2 smooth transitions (counting-Bloom digests + on-demand
//     hot-data migration; shrunk servers drain for TTL, then power off).
//
// With `replicas` = r > 1 it is the §III-E fault-tolerant form: r hash
// rings share the one placement but hash keys with r different functions
// (one cluster::Router holds every ring and the one transition, as in
// cluster::WebTier). Writes go to the key's server on every ring; reads
// walk the rings in order, skip crashed or powered-off servers, and
// read-repair the live locations that missed. One ring is exactly the
// paper's base design. A server is draining exactly while its power state
// is kDraining; the end of the transition powers those servers off.
//
// Typical use (see examples/quickstart.cc):
//
//   proteus::ProteusOptions opt;
//   opt.max_servers = 10;
//   proteus::Proteus cluster(opt, [&](std::string_view key) {
//     return database.get(key);            // your miss path
//   });
//   std::string v = cluster.get("page:42", now);
//   cluster.resize(4, now);                // shed 6 servers, no miss storm
//
// Time is explicit (SimTime, microseconds) so the facade is deterministic
// and unit-testable; wall-clock callers pass a monotonic clock reading.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_server.h"
#include "cluster/router.h"
#include "common/time.h"
#include "core/overload.h"
#include "core/retrieval.h"
#include "core/transition_journal.h"
#include "hashring/migration_plan.h"
#include "hashring/proteus_placement.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace proteus {

struct ProteusOptions {
  int max_servers = 10;
  int initial_servers = 0;  // 0 -> max_servers
  // r of §III-E: copies kept of every key, one per hash ring. 1 = the base
  // design (no replication).
  int replicas = 1;
  cache::CacheConfig per_server;
  SimTime ttl = 60 * kSecond;  // hotness window / drain duration
  // Accounting charge for values written through the miss path; 0 charges
  // the actual value size.
  std::size_t object_charge = 0;
  // Observability (src/obs): when set, every provisioning transition emits
  // its full lifecycle — resize_begin, per-server digest_snapshot,
  // power_on/drain_begin, migration_hit / digest_false_{positive,negative},
  // ttl_expiry (from the per-server caches), power_off, resize_end — into
  // this sink. Null disables tracing.
  obs::TraceSink* trace = nullptr;
  // Per-request distributed tracing: sampled get()s record a span tree
  // (root + tiled per-cause children on the steady clock) here. Null
  // disables tracing; sample_every on the collector sets the rate.
  obs::SpanCollector* spans = nullptr;
  // Transition-aware pacing of Algorithm 2 on-demand migration. When set
  // and the throttle reports overload, old-location hits are still served
  // but the line-12 write-back to the new primary is deferred (the next
  // request pays the old-location probe again instead of competing with
  // foreground traffic for write capacity). Null migrates unconditionally.
  // Not owned; must outlive this object.
  core::MigrationThrottle* migration_throttle = nullptr;
  // Crash recovery (core/transition_journal.h): when non-empty, every
  // resize is write-ahead journaled at this path and an interrupted
  // transition is resumed (or rolled forward) on construction instead of
  // being lost. Empty = volatile transitions, exactly as before.
  std::string journal_path;
  // Live power/model auditing (obs/audit.h): when set, tick() feeds the
  // fleet's per-server get/hit counters and power states into this auditor
  // about once per second of `now` — energy integration, PPI, and the
  // drift windows all happen inside the auditor, off the per-request path.
  // Digest false negatives and backend fetches ride along so the Eq. 5
  // bound is checked against observation. Not owned; must outlive this
  // object.
  obs::PowerAuditor* auditor = nullptr;
};

struct ProteusStats {
  std::uint64_t gets = 0;
  std::uint64_t new_server_hits = 0;   // served by ring 0's current location
  std::uint64_t replica_ring_hits = 0; // served by ring >= 1 (failover)
  std::uint64_t old_server_hits = 0;   // on-demand migrations (Algorithm 2)
  std::uint64_t backend_fetches = 0;
  std::uint64_t digest_false_positives = 0;
  // §IV-B false negatives, observed: the digest reported a key cold during
  // a transition although it was resident on its old server (detected by a
  // direct check on the backend-fetch path, so the bound is measurable).
  std::uint64_t digest_false_negatives = 0;
  std::uint64_t failed_server_skips = 0;  // crashed/off location skipped
  std::uint64_t puts = 0;
  std::uint64_t resizes = 0;
  // Old-location hits whose write-back to the new primary was deferred by
  // the migration throttle (served correctly, just not migrated yet).
  std::uint64_t migrations_deferred = 0;
  // Crash recovery: journal records replayed at construction, and whether
  // that replay resumed (still draining) or rolled forward (drain window
  // already over) an interrupted transition.
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t journal_transitions_resumed = 0;

  double hit_ratio() const noexcept {
    return gets ? static_cast<double>(new_server_hits + replica_ring_hits +
                                      old_server_hits) /
                      static_cast<double>(gets)
                : 0.0;
  }
};

class Proteus {
 public:
  // `backend` is the authoritative store consulted on a miss (the database
  // tier of Fig. 1). It must return the value for any key.
  using Backend = std::function<std::string(std::string_view)>;

  Proteus(ProteusOptions options, Backend backend);
  // Algorithm 2 counts into this object's stats.
  Proteus(const Proteus&) = delete;
  Proteus& operator=(const Proteus&) = delete;

  // Algorithm 2 data retrieval (core/retrieval.h). Never returns stale
  // data; reaches the backend only when the key is on none of its live
  // replica locations, new or old. Whatever is served is written back to
  // the live locations that missed (line-12 migration, §III-E read-repair,
  // the miss fill).
  std::string get(std::string_view key, SimTime now);

  // Explicit write: stores on the key's location on every ring (write-all)
  // after invalidating every other powered server, so readers cannot see
  // the overwritten value anywhere.
  void put(std::string_view key, std::string value, SimTime now);

  // Remove a key from wherever it may live.
  void erase(std::string_view key, SimTime now);

  // Provisioning actuation with a smooth transition. Growing powers servers
  // on immediately; shrinking drains the leaving servers until now + ttl.
  void resize(int n_active, SimTime now);

  // Advance internal time: finalizes transitions whose drain window ended.
  // get/put/resize call this implicitly with their `now`.
  void tick(SimTime now);

  // Crash / recovery injection. fail_server emulates a crash: the server's
  // memory (and digest) is lost and routing skips it. recover_server
  // re-admits it cold.
  void fail_server(int server);
  void recover_server(int server);
  bool is_failed(int server) const { return failed_.at(static_cast<std::size_t>(server)); }
  // The key's location on every ring under the current mapping (may repeat
  // a server — the Eq. 3 conflict case).
  std::vector<int> replica_servers(std::string_view key) const;

  int active_servers() const noexcept { return router_.active(); }
  int powered_servers() const noexcept;
  int max_servers() const noexcept { return options_.max_servers; }
  int replicas() const noexcept { return options_.replicas; }
  bool in_transition() const noexcept { return router_.in_transition(); }

  // Fencing epoch: bumped on every resize (and restored from the journal on
  // restart). Web tiers stamp it on wire mutations; see docs/PROTOCOL.md.
  std::uint64_t cluster_epoch() const noexcept { return epoch_; }
  const core::TransitionJournal& journal() const noexcept { return journal_; }

  const ProteusStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = ProteusStats{}; }

  // Registers the facade's counters, transition gauges, and per-server
  // load/hit gauges (the live §III K/n balance check) into `registry`.
  // The callbacks read this object directly, so they are only safe to
  // snapshot from the thread driving the facade (it is single-threaded by
  // design). `this` must outlive the registry's last snapshot.
  void register_metrics(obs::MetricsRegistry& registry) const;
  const cache::CacheServer& server(int i) const { return *servers_.at(static_cast<std::size_t>(i)); }
  const ring::ProteusPlacement& placement() const noexcept { return *placement_; }

  // Total bytes resident across powered servers (capacity introspection).
  std::size_t bytes_cached() const noexcept;

  // What WOULD a resize move? The exact per-(from,to) flows and byte
  // estimates for the current resident data — for operator dashboards and
  // capacity planning before actuating (hashring/migration_plan.h).
  ring::TransitionPlan plan_resize(int n_active) const;

 private:
  cache::CacheServer& mutable_server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  bool usable(int i) const {
    return !failed_[static_cast<std::size_t>(i)] &&
           server(i).power_state() != cache::PowerState::kOff;
  }
  // get() minus the trace envelope.
  std::string get_inner(std::string_view key, SimTime now,
                        obs::TraceContext& ctx);
  // Ends the transition at `now`, or at its drain deadline if that passed.
  void finalize_transition(SimTime now);
  // Feeds per-server counters into ProteusOptions::auditor (tick-gated).
  void feed_auditor(SimTime now);
  // Journal replay: re-enters the interrupted transition recorded in `t`
  // (ordinary tick() rolls it forward if the drain window already ended).
  void resume_transition(const core::PendingTransition& t);
  std::size_t charge_for(const std::string& value) const noexcept {
    return options_.object_charge ? options_.object_charge : value.size();
  }

  ProteusOptions options_;
  Backend backend_;
  std::shared_ptr<const ring::ProteusPlacement> placement_;
  cluster::Router router_;  // every ring, one transition
  std::vector<std::unique_ptr<cache::CacheServer>> servers_;
  std::vector<bool> failed_;
  ProteusStats stats_;
  core::Retrieval::Options retrieval_options_;
  core::TransitionJournal journal_;
  std::uint64_t epoch_ = 0;
  SimTime last_audit_feed_ = 0;
};

}  // namespace proteus
