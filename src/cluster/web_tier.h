// The web-server tier: executes Algorithm 2 (Data Retrieval) for every
// request, asynchronously over the simulation.
//
// Per paper §V-2 most logic lives here: hash the data key to a cache server
// via the shared Router (consistent across all web servers), fall back to
// the old location when the digest marks the data hot, reach the database
// only when both attempts miss, and repopulate the new cache server with
// whatever was fetched (Algorithm 2 line 12). The procedure itself is
// core::Retrieval; this tier is its transport onto simulated events.
//
// With §III-E replication enabled the shared Router holds every hash ring
// and the tier walks them in order: a ring whose server is powered off
// (crashed) is skipped, the first resident replica answers, and whatever
// was fetched repairs the replica locations that missed. One ring
// degenerates exactly to the paper's base design.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cache_tier.h"
#include "cluster/router.h"
#include "common/time.h"
#include "core/retrieval.h"
#include "db/database.h"
#include "obs/audit.h"
#include "obs/span.h"
#include "sim/callback.h"
#include "sim/queueing_server.h"
#include "sim/simulation.h"

namespace proteus::obs {
class MetricsRegistry;
}  // namespace proteus::obs

namespace proteus::cluster {

struct WebTierConfig {
  int num_servers = 10;
  int concurrency = 64;                        // servlet thread pool
  SimTime service_time = 300 * kMicrosecond;   // request-handling CPU cost
  SimTime rbe_hop_latency = 250 * kMicrosecond;
  // Dog-pile protection (the "memcache dog pile" strategy the paper cites
  // as ref. [12]): coalesce concurrent database fetches for the same key
  // into one query. Off by default — the paper's testbed did not use it —
  // and explored by bench/ablation_dogpile.
  bool coalesce_db_fetches = false;
  // Per-request distributed tracing: sampled requests record a span tree on
  // SIM time (hop, queue+service, per-ring cache fetches, db fetch), so
  // fig09 can attribute response-time tails to transition mechanisms. Null
  // disables tracing.
  obs::SpanCollector* spans = nullptr;
  // Live power/model auditing (obs/audit.h): when set, audit_observe()
  // feeds the cache tier's per-server counters into this auditor (call it
  // from the scenario driver's metric slots). Not owned.
  obs::PowerAuditor* auditor = nullptr;
};

struct WebTierStats {
  std::uint64_t requests = 0;
  std::uint64_t new_server_hits = 0;   // Algorithm 2 line 3: hit in s_{m_{t+1}}
  std::uint64_t old_server_hits = 0;   // line 7 succeeded: hot-data migration
  std::uint64_t replica_hits = 0;      // served by a ring >= 1 (failover)
  std::uint64_t failed_server_skips = 0;  // ring skipped: server powered off
  std::uint64_t db_fetches = 0;        // line 10 (queries actually issued)
  std::uint64_t coalesced_fetches = 0; // requests that piggybacked on one
  std::uint64_t digest_false_positives = 0;  // line 6 said yes, line 7 missed

  double cache_hit_ratio() const noexcept {
    return requests ? static_cast<double>(new_server_hits + old_server_hits +
                                          replica_hits) /
                          static_cast<double>(requests)
                    : 0.0;
  }
};

class WebTier {
 public:
  // `router` holds every §III-E ring; the tier walks them in order.
  WebTier(sim::Simulation& sim, WebTierConfig config,
          std::shared_ptr<Router> router, CacheTier& cache, db::Database& db);
  // In-flight requests point back at this tier and its stats.
  WebTier(const WebTier&) = delete;
  WebTier& operator=(const WebTier&) = delete;

  // One user request: RBE hop -> web service -> Algorithm 2 -> reply hop.
  // `done` fires when the response reaches the client.
  void handle(const std::string& key, sim::Callback<void()> done);

  const WebTierStats& stats() const noexcept { return stats_; }

  // Registers every WebTierStats counter plus the derived hit ratio into
  // `registry` (names prefixed proteus_webtier_). The callbacks read this
  // object; the simulation is single-threaded, so snapshot between sim
  // steps, and keep `this` alive past the registry's last snapshot.
  void register_metrics(obs::MetricsRegistry& registry) const;

  // Feeds the cache tier's per-server gets/hits/power-state into
  // WebTierConfig::auditor at sim time `now` (no-op when unset). Call from
  // the scenario's metric slots — the audit layer stays off the per-request
  // path by design.
  void audit_observe(SimTime now);

  const sim::QueueingServer& server_queue(int i) const {
    return *queues_.at(static_cast<std::size_t>(i));
  }
  int num_servers() const noexcept { return config_.num_servers; }
  int replicas() const noexcept { return router_->replicas(); }

 private:
  // One request's state, from the RBE hop to the reply hop. Pooled, so the
  // events and continuations of a request carry only (this, Request*), and
  // its key buffer and its retrieval's value buffer keep their capacity
  // from one request to the next, so a cache hit is copied in without
  // allocating.
  struct Request {
    explicit Request(const core::Retrieval::Options& options)
        : retrieval(options) {}
    std::string key;
    sim::Callback<void()> done;
    int web = 0;              // the web server handling it
    obs::TraceContext trace;  // inactive unless sampled
    SimTime start = 0;
    core::Retrieval retrieval;
  };

  bool server_alive(int server) const;
  Request* acquire_request();
  // Answers the machine's actions until one needs a simulated event (a
  // cache get, a database fetch) or the request is done.
  void advance(Request* req, core::Retrieval::Action a);
  void fetch_from_db(Request* req);
  // Reply hop back to the RBE, then the trace closes and `done` fires.
  void respond(Request* req);

  sim::Simulation& sim_;
  WebTierConfig config_;
  std::shared_ptr<Router> router_;
  CacheTier& cache_;
  db::Database& db_;
  std::vector<std::unique_ptr<sim::QueueingServer>> queues_;
  // The next request's web server: user requests are spread uniformly
  // (§VI-C), round robin.
  std::size_t next_server_ = 0;
  // In-flight database fetches by key (dog-pile coalescing): the requests
  // piggybacked on each.
  std::unordered_map<std::string, std::vector<Request*>> inflight_db_;
  WebTierStats stats_;
  core::Retrieval::Options retrieval_options_;
  std::vector<std::unique_ptr<Request>> requests_;  // the pool
  std::vector<Request*> free_requests_;
};

}  // namespace proteus::cluster
