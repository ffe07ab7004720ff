#include "cluster/scenario.h"

#include <algorithm>
#include <memory>

#include "cluster/cache_cluster.h"
#include "cluster/router.h"
#include "common/check.h"
#include "hashring/modulo_placement.h"
#include "hashring/proteus_placement.h"
#include "hashring/random_vn_placement.h"
#include "sim/simulation.h"

namespace proteus::cluster {

std::string_view scenario_name(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kStatic: return "Static";
    case ScenarioKind::kNaive: return "Naive";
    case ScenarioKind::kConsistent: return "Consistent";
    case ScenarioKind::kProteus: return "Proteus";
  }
  return "?";
}

namespace {

std::shared_ptr<const ring::PlacementStrategy> make_placement(
    const ScenarioConfig& cfg) {
  const int n = cfg.cache.num_servers;
  switch (cfg.kind) {
    case ScenarioKind::kStatic:
    case ScenarioKind::kNaive:
      return std::make_shared<ring::ModuloPlacement>(n);
    case ScenarioKind::kConsistent:
      return std::make_shared<ring::RandomVirtualNodePlacement>(
          n, cfg.consistent_vnodes_per_server, cfg.consistent_seed);
    case ScenarioKind::kProteus:
      return std::make_shared<ring::ProteusPlacement>(n);
  }
  PROTEUS_CHECK(false);
  return nullptr;
}

// Snapshot of the cumulative counters we difference per metric slot.
struct TierSnapshot {
  std::vector<std::uint64_t> gets;
  std::uint64_t hits = 0;
  std::uint64_t total_gets = 0;
};

TierSnapshot snapshot_tier(const CacheTier& tier) {
  TierSnapshot s;
  s.gets.reserve(static_cast<std::size_t>(tier.num_servers()));
  for (int i = 0; i < tier.num_servers(); ++i) {
    s.gets.push_back(tier.gets_served(i));
    s.hits += tier.server(i).stats().hits;
    s.total_gets += tier.server(i).stats().gets;
  }
  return s;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  PROTEUS_CHECK(!config.schedule.empty());
  PROTEUS_CHECK(config.slot_length > 0);

  ScenarioConfig cfg = config;
  if (cfg.metric_slot <= 0) cfg.metric_slot = cfg.slot_length / 4;
  if (cfg.kind == ScenarioKind::kStatic) {
    std::fill(cfg.schedule.begin(), cfg.schedule.end(),
              cfg.cache.num_servers);
  }
  for (int n : cfg.schedule) {
    PROTEUS_CHECK(n >= 1 && n <= cfg.cache.num_servers);
  }

  PROTEUS_CHECK(cfg.replicas >= 1);
  sim::Simulation sim;
  db::Database database(sim, cfg.db);
  CacheTier tier(sim, cfg.cache);
  auto placement = make_placement(cfg);
  auto router =
      std::make_shared<Router>(placement, cfg.schedule.front(), cfg.replicas);
  CacheCluster cluster(
      sim, tier, router,
      CacheClusterConfig{cfg.kind == ScenarioKind::kProteus, cfg.ttl});
  WebTier web(sim, cfg.web, router, tier, database);

  for (const auto& crash : cfg.crashes) {
    PROTEUS_CHECK(crash.server >= 0 && crash.server < cfg.cache.num_servers);
    sim.schedule_at(crash.at, [&cluster, server = crash.server] {
      cluster.mark_failed(server);
    });
  }

  workload::RbeConfig rbe_cfg = cfg.rbe;
  rbe_cfg.metric_slot = cfg.metric_slot;
  workload::DiurnalModel model(cfg.diurnal);
  workload::RbeCluster rbe(sim, rbe_cfg, model,
                           [&web](const std::string& key,
                                  workload::RbeCluster::Done done) {
                             web.handle(key, std::move(done));
                           });

  const SimTime duration =
      static_cast<SimTime>(cfg.schedule.size()) * cfg.slot_length;

  // Provisioning actuations at slot boundaries: either the shared fixed
  // schedule or the closed delay-feedback loop of §VI.
  std::vector<int> applied_schedule;
  applied_schedule.reserve(cfg.schedule.size());
  applied_schedule.push_back(cfg.schedule.front());

  DelayFeedbackPolicy::Config fb = cfg.feedback;
  fb.max_servers = std::min(fb.max_servers, cfg.cache.num_servers);
  DelayFeedbackPolicy feedback(fb,
                               std::clamp(cfg.schedule.front(),
                                          fb.min_servers, fb.max_servers));
  PiDelayFeedbackPolicy::Config pi_fb = cfg.pi_feedback;
  pi_fb.max_servers = std::min(pi_fb.max_servers, cfg.cache.num_servers);
  PiDelayFeedbackPolicy pi_feedback(
      pi_fb, std::clamp(cfg.schedule.front(), pi_fb.min_servers,
                        pi_fb.max_servers));
  const bool closed_loop =
      cfg.use_delay_feedback && cfg.kind != ScenarioKind::kStatic;

  for (std::size_t s = 1; s < cfg.schedule.size(); ++s) {
    const SimTime at = static_cast<SimTime>(s) * cfg.slot_length;
    if (!closed_loop) {
      const int n = cfg.schedule[s];
      sim.schedule_at(at, [&cluster, &applied_schedule, n] {
        applied_schedule.push_back(n);
        cluster.resize(n);
      });
    } else {
      sim.schedule_at(at, [&, s] {
        // p99.9 of the previous provisioning slot, merged from the finer
        // metric-slot histograms the RBE maintains.
        const auto& hists = rbe.slot_histograms();
        const auto per_slot =
            static_cast<std::size_t>(cfg.slot_length / cfg.metric_slot);
        LatencyHistogram window;
        for (std::size_t m = (s - 1) * per_slot;
             m < s * per_slot && m < hists.size(); ++m) {
          window.merge(hists[m]);
        }
        const auto p999 =
            static_cast<SimTime>(window.percentile_us(0.999));
        const int n =
            cfg.feedback_kind == ScenarioConfig::FeedbackKind::kPi
                ? pi_feedback.update(p999)
                : feedback.update(p999);
        applied_schedule.push_back(n);
        cluster.resize(n);
      });
    }
  }

  // Power sampling, every 15 s like the paper's PDU.
  EnergyMeter web_meter(cfg.power_sample_interval);
  EnergyMeter cache_meter(cfg.power_sample_interval);
  EnergyMeter db_meter(cfg.power_sample_interval);
  EnergyMeter cluster_meter(cfg.power_sample_interval);
  std::vector<SimTime> prev_web_busy(
      static_cast<std::size_t>(cfg.web.num_servers), 0);
  std::vector<SimTime> prev_cache_busy(
      static_cast<std::size_t>(cfg.cache.num_servers), 0);
  std::vector<SimTime> prev_db_busy(
      static_cast<std::size_t>(cfg.db.num_shards), 0);

  std::function<void()> sample_power = [&] {
    const SimTime now = sim.now();
    const double interval_slots = static_cast<double>(cfg.power_sample_interval);

    double web_w = 0;
    for (int i = 0; i < cfg.web.num_servers; ++i) {
      const SimTime busy = web.server_queue(i).total_busy_time();
      const double util =
          static_cast<double>(busy - prev_web_busy[static_cast<std::size_t>(i)]) /
          (interval_slots * cfg.web.concurrency);
      prev_web_busy[static_cast<std::size_t>(i)] = busy;
      web_w += cfg.power.watts(true, util);
    }

    double cache_w = 0;
    for (int i = 0; i < cfg.cache.num_servers; ++i) {
      const SimTime busy = tier.queue(i).total_busy_time();
      const double util =
          static_cast<double>(busy - prev_cache_busy[static_cast<std::size_t>(i)]) /
          (interval_slots * cfg.cache.concurrency);
      prev_cache_busy[static_cast<std::size_t>(i)] = busy;
      const bool on =
          tier.server(i).power_state() != cache::PowerState::kOff;
      const ServerPowerProfile& profile =
          static_cast<std::size_t>(i) < cfg.cache_power_profiles.size()
              ? cfg.cache_power_profiles[static_cast<std::size_t>(i)]
              : cfg.power;
      cache_w += profile.watts(on, util);
    }

    double db_w = 0;
    for (int i = 0; i < cfg.db.num_shards; ++i) {
      const SimTime busy = database.shard(i).total_busy_time();
      const double util =
          static_cast<double>(busy - prev_db_busy[static_cast<std::size_t>(i)]) /
          (interval_slots * cfg.db.per_shard_concurrency);
      prev_db_busy[static_cast<std::size_t>(i)] = busy;
      db_w += cfg.power.watts(true, util);
    }

    web_meter.record_sample(now, web_w);
    cache_meter.record_sample(now, cache_w);
    db_meter.record_sample(now, db_w);
    cluster_meter.record_sample(now, web_w + cache_w + db_w);

    if (now + cfg.power_sample_interval <= duration) {
      sim.schedule_after(cfg.power_sample_interval, sample_power);
    }
  };
  sim.schedule_at(cfg.power_sample_interval, sample_power);

  // Per-metric-slot counters: active count and per-server load deltas.
  struct SlotSample {
    int n_active = 0;
    double min_max_ratio = 1.0;
    double hit_ratio = 0.0;
    double db_qps = 0.0;
  };
  std::vector<SlotSample> slot_samples;
  TierSnapshot prev_snap = snapshot_tier(tier);
  std::uint64_t prev_db_queries = 0;

  std::function<void()> sample_slot = [&] {
    const TierSnapshot snap = snapshot_tier(tier);
    SlotSample s;
    s.n_active = router->active();
    s.db_qps = static_cast<double>(database.total_queries() - prev_db_queries) /
               to_seconds(cfg.metric_slot);
    prev_db_queries = database.total_queries();
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (int i = 0; i < s.n_active; ++i) {
      const std::uint64_t load =
          snap.gets[static_cast<std::size_t>(i)] -
          prev_snap.gets[static_cast<std::size_t>(i)];
      lo = std::min(lo, load);
      hi = std::max(hi, load);
    }
    s.min_max_ratio =
        hi == 0 ? 1.0 : static_cast<double>(lo) / static_cast<double>(hi);
    const std::uint64_t dgets = snap.total_gets - prev_snap.total_gets;
    const std::uint64_t dhits = snap.hits - prev_snap.hits;
    s.hit_ratio =
        dgets ? static_cast<double>(dhits) / static_cast<double>(dgets) : 0.0;
    prev_snap = snap;
    slot_samples.push_back(s);
    if (sim.now() + cfg.metric_slot <= duration) {
      sim.schedule_after(cfg.metric_slot, sample_slot);
    }
  };
  sim.schedule_at(cfg.metric_slot, sample_slot);

  rbe.start(duration);
  sim.run_until(duration);
  sim.run();  // drain in-flight requests (no new ones issue past the horizon)

  // ---- assemble the result ----------------------------------------------
  ScenarioResult result;
  result.kind = cfg.kind;
  result.name = std::string(scenario_name(cfg.kind));
  result.total_requests = rbe.completed_requests();
  result.overall_hit_ratio = tier.aggregate_hit_ratio();
  result.db_queries = database.total_queries();
  result.old_server_hits = web.stats().old_server_hits;
  result.replica_hits = web.stats().replica_hits;
  result.coalesced_fetches = web.stats().coalesced_fetches;
  result.digest_false_positives = web.stats().digest_false_positives;
  result.transitions = cluster.transitions_started();
  result.digest_broadcast_bytes = cluster.digest_broadcast_bytes();
  result.overall_p999_ms = rbe.overall_histogram().percentile_us(0.999) / 1e3;
  result.applied_schedule = std::move(applied_schedule);

  result.web_energy_kwh = web_meter.total_energy_kwh();
  result.cache_energy_kwh = cache_meter.total_energy_kwh();
  result.db_energy_kwh = db_meter.total_energy_kwh();
  result.total_energy_kwh = cluster_meter.total_energy_kwh();
  result.cluster_power = cluster_meter.samples();
  result.cache_power = cache_meter.samples();

  const auto& histograms = rbe.slot_histograms();
  const std::size_t slots = slot_samples.size();
  result.slots.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    SlotMetrics m;
    m.start = static_cast<SimTime>(i) * cfg.metric_slot;
    m.n_active = slot_samples[i].n_active;
    m.min_max_load_ratio = slot_samples[i].min_max_ratio;
    m.hit_ratio = slot_samples[i].hit_ratio;
    m.db_qps = slot_samples[i].db_qps;
    if (i < histograms.size()) {
      const LatencyHistogram& h = histograms[i];
      m.requests = h.count();
      m.mean_ms = h.mean_us() / 1e3;
      m.p99_ms = h.percentile_us(0.99) / 1e3;
      m.p999_ms = h.percentile_us(0.999) / 1e3;
      m.max_ms = h.max_us() / 1e3;
      m.bound_violation_frac = h.fraction_at_or_above(
          static_cast<double>(cfg.feedback.bound));
    }
    m.cluster_watts = cluster_meter.mean_watts(
        m.start, m.start + cfg.metric_slot);
    m.cache_watts = cache_meter.mean_watts(m.start, m.start + cfg.metric_slot);
    result.slots.push_back(m);
  }
  return result;
}

ScenarioConfig default_experiment_config(ScenarioKind kind) {
  ScenarioConfig cfg;
  cfg.kind = kind;

  // Time compression: the paper's 33 x 1 h experiment becomes 33 x 2 min of
  // simulated time; the diurnal period compresses identically (24 slots),
  // so the workload shape — and every relative result — is preserved.
  cfg.slot_length = 2 * kMinute;
  cfg.metric_slot = 30 * kSecond;
  cfg.ttl = 40 * kSecond;

  cfg.diurnal.mean_rate = 300.0;
  cfg.diurnal.amplitude = 1.0 / 3.0;  // peak ~2x valley, as in the trace
  cfg.diurnal.period = 24 * cfg.slot_length;
  cfg.diurnal.phase = 9 * cfg.slot_length;
  cfg.diurnal.jitter = 0.05;
  cfg.diurnal.jitter_slot = cfg.slot_length;

  cfg.rbe.num_pages = 200'000;
  cfg.rbe.zipf_alpha = 0.9;
  cfg.rbe.pages_per_user = 50;
  cfg.rbe.think_time_sec = 0.5;
  // Exponential sessions (§V-1), compressed like the rest of the clock:
  // the working set churns gently across the run.
  cfg.rbe.mean_session_sec = 300.0;

  // Sized so aggregate capacity under the schedule tracks the hot working
  // set (the paper's 1 GB/server vs the wiki hot set): ~85-95% hit ratio.
  cfg.cache.num_servers = 10;
  cfg.cache.per_server.memory_budget_bytes = 4u << 20;
  cfg.web.num_servers = 10;
  // Seek-dominated page->revision->text lookups (§V-4): aggregate capacity
  // ~230 q/s, far below the request peak — a cache-miss storm therefore
  // overloads the database tier exactly as on the paper's testbed.
  cfg.db.num_shards = 7;
  cfg.db.per_shard_concurrency = 1;
  cfg.db.base_service_time = 15 * kMillisecond;
  cfg.db.service_jitter_mean = 15 * kMillisecond;

  // Shared schedule from the rate-proportional policy (Fig. 4 circles).
  workload::DiurnalModel model(cfg.diurnal);
  RateProportionalPolicy policy;
  policy.per_server_capacity_rps = 43.0;
  policy.min_servers = 1;
  policy.max_servers = cfg.cache.num_servers;
  cfg.schedule = rate_proportional_schedule(
      model, 33 * cfg.slot_length, cfg.slot_length, policy);
  return cfg;
}

}  // namespace proteus::cluster
