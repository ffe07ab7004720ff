#include "cluster/web_tier.h"

#include "common/check.h"
#include "obs/metrics.h"

namespace proteus::cluster {

WebTier::WebTier(sim::Simulation& sim, WebTierConfig config,
                 std::shared_ptr<Router> router, CacheTier& cache,
                 db::Database& db)
    : sim_(sim),
      config_(config),
      router_(std::move(router)),
      cache_(cache),
      db_(db),
      retrieval_options_{
          .counters = {.primary_hits = &stats_.new_server_hits,
                       .replica_hits = &stats_.replica_hits,
                       .old_server_hits = &stats_.old_server_hits,
                       .skips = &stats_.failed_server_skips,
                       .false_positives = &stats_.digest_false_positives,
                       .backend_fetches = &stats_.db_fetches,
                       .coalesced_fetches = &stats_.coalesced_fetches},
          // Routing, digest consults and fire-and-forget stores take no sim
          // time, so they get no spans of their own.
          .span_bookkeeping = false,
          .span_clock = [this] { return sim_.now(); }} {
  PROTEUS_CHECK(router_ != nullptr);
  PROTEUS_CHECK(config_.num_servers >= 1);
  queues_.reserve(static_cast<std::size_t>(config_.num_servers));
  for (int i = 0; i < config_.num_servers; ++i) {
    queues_.push_back(std::make_unique<sim::QueueingServer>(
        sim_, "web-" + std::to_string(i), config_.concurrency));
  }
}

bool WebTier::server_alive(int server) const {
  return cache_.server(server).power_state() != cache::PowerState::kOff;
}

WebTier::Request* WebTier::acquire_request() {
  if (free_requests_.empty()) {
    requests_.push_back(std::make_unique<Request>(retrieval_options_));
    return requests_.back().get();
  }
  Request* req = free_requests_.back();
  free_requests_.pop_back();
  return req;
}

void WebTier::handle(const std::string& key, sim::Callback<void()> done) {
  ++stats_.requests;
  Request* req = acquire_request();
  req->key = key;
  req->done = std::move(done);
  req->web = static_cast<int>(next_server_);
  if (++next_server_ == queues_.size()) next_server_ = 0;
  req->start = sim_.now();
  req->trace = obs::TraceContext::begin(config_.spans, sim_.now());
  req->trace.in_transition = router_->in_transition();
  // RBE -> web hop, then servlet service, then the retrieval procedure.
  sim_.schedule_after(config_.rbe_hop_latency, [this, req] {
    if (req->trace.active()) {
      req->trace.child(sim_.now(), obs::SpanKind::kHop, req->web);
    }
    queues_[static_cast<std::size_t>(req->web)]->submit(
        config_.service_time, [this, req] {
          if (req->trace.active()) {
            req->trace.child(sim_.now(), obs::SpanKind::kWebService, req->web);
          }
          advance(req, req->retrieval.start(req->key, replicas(), sim_.now(),
                                            &req->trace));
        });
  });
}

void WebTier::advance(Request* req, core::Retrieval::Action a) {
  using Step = core::Retrieval::Step;
  using Reply = core::Retrieval::Reply;
  for (;;) {
    switch (a.step) {
      case Step::kRoute:
        a = req->retrieval.routed(router_->decide(req->key, a.ring));
        break;
      case Step::kGet:
        if (!server_alive(a.server)) {  // crashed or powered off
          a = req->retrieval.got(Reply::kDown);
          break;
        }
        cache_.async_get(a.server, req->key,
                         [this, req](std::optional<std::string_view> v) {
          advance(req, v ? req->retrieval.got(Reply::kHit, *v)
                         : req->retrieval.got(Reply::kMiss));
        });
        return;
      case Step::kProbe:  // never asked: no false_negatives counter
        a = req->retrieval.probed(false);
        break;
      case Step::kBackend:
        fetch_from_db(req);
        return;
      case Step::kStore:  // fire-and-forget: the response does not wait
        if (server_alive(a.server)) {
          cache_.async_set(a.server, req->key, req->retrieval.value(),
                           db_.object_size());
        }
        a = req->retrieval.stored(server_alive(a.server));
        break;
      case Step::kDone:
        respond(req);
        return;
    }
  }
}

void WebTier::fetch_from_db(Request* req) {
  // Dog-pile coalescing: if a query for this key is already in flight,
  // piggyback on it — the first fetch populates the caches, so this
  // request's response is complete the moment that query returns.
  if (config_.coalesce_db_fetches) {
    const auto [it, leader] = inflight_db_.try_emplace(req->key);
    if (!leader) {
      it->second.push_back(req);
      return;
    }
  }
  // Line 10: the database never notices the transition (§IV-A).
  db_.async_get(req->key, [this, req](std::string db_value) {
    std::vector<Request*> waiters;
    if (const auto it = inflight_db_.find(req->key); it != inflight_db_.end()) {
      waiters = std::move(it->second);
      inflight_db_.erase(it);
    }
    // Sim time passed during the query: fill wherever the key maps now.
    for (int r = 0; r < replicas(); ++r) {
      req->retrieval.add_repair(router_->decide(req->key, r).primary);
    }
    advance(req, req->retrieval.fetched(
                     core::Retrieval::Fetch::kValue,
                     waiters.empty() ? std::move(db_value) : db_value));
    // Release the piggybacked requests.
    for (Request* waiter : waiters) {
      advance(waiter, waiter->retrieval.fetched(
                          core::Retrieval::Fetch::kCoalesced, db_value));
    }
  });
}

void WebTier::respond(Request* req) {
  sim_.schedule_after(config_.rbe_hop_latency, [this, req] {
    if (req->trace.active()) {
      req->trace.finish(sim_.now(), req->start, req->key);
    }
    sim::Callback<void()> done = std::move(req->done);
    free_requests_.push_back(req);  // before done(): it may issue the next
    done();
  });
}

void WebTier::audit_observe(SimTime now) {
  if (config_.auditor == nullptr) return;
  const int n = cache_.num_servers();
  std::vector<obs::ServerAuditSample> fleet(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const cache::CacheServer& s = cache_.server(i);
    auto& sample = fleet[static_cast<std::size_t>(i)];
    sample.power_state = static_cast<int>(s.power_state());
    // gets_served counts routed requests (including those a draining server
    // absorbed); the server's own stats supply the hit side.
    sample.gets_total = static_cast<double>(cache_.gets_served(i));
    sample.hits_total = static_cast<double>(s.stats().hits);
  }
  config_.auditor->observe(now, fleet, 0,
                           static_cast<double>(stats_.db_fetches));
}

void WebTier::register_metrics(obs::MetricsRegistry& registry) const {
  const auto stat = [this, &registry](std::string name, std::string help,
                                      std::uint64_t WebTierStats::*field) {
    registry.counter_fn(std::move(name), std::move(help), [this, field] {
      return static_cast<double>(stats_.*field);
    });
  };
  stat("proteus_webtier_requests_total", "user requests handled",
       &WebTierStats::requests);
  stat("proteus_webtier_new_server_hits_total",
       "Algorithm 2 line 3 hits on the current mapping",
       &WebTierStats::new_server_hits);
  stat("proteus_webtier_old_server_hits_total", "line 7 hot-data migrations",
       &WebTierStats::old_server_hits);
  stat("proteus_webtier_replica_hits_total",
       "served by a SS III-E failover ring",
       &WebTierStats::replica_hits);
  stat("proteus_webtier_failed_server_skips_total",
       "rings skipped because the server was powered off",
       &WebTierStats::failed_server_skips);
  stat("proteus_webtier_db_fetches_total", "line 10 database queries issued",
       &WebTierStats::db_fetches);
  stat("proteus_webtier_coalesced_fetches_total",
       "requests piggybacked on an in-flight query (dog-pile)",
       &WebTierStats::coalesced_fetches);
  stat("proteus_webtier_digest_false_positives_total",
       "line 6 said hot, line 7 missed (SS IV-B p_p)",
       &WebTierStats::digest_false_positives);
  registry.gauge_fn("proteus_webtier_cache_hit_ratio",
                    "fraction of requests served from the cache tier",
                    [this] { return stats_.cache_hit_ratio(); });
}

}  // namespace proteus::cluster
