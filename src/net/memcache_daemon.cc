#include "net/memcache_daemon.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/check.h"

namespace proteus::net {

SimTime monotonic_now() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// The routing mask needs a power of two; operators ask in human numbers
// (--shards=6), so round UP — more stripes, never fewer than requested.
int round_up_pow2(int n) {
  int p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Shard-count resolution: an explicit ctor argument wins; otherwise the
// PROTEUS_TEST_SHARDS environment variable (the ctest matrix and
// chaos_smoke.sh re-run the whole daemon suite at 4 shards without
// touching every construction site); otherwise min(threads, 8).
int resolve_shards(int shards, int threads) {
  if (shards > 0) return round_up_pow2(shards);
  if (const char* env = std::getenv("PROTEUS_TEST_SHARDS")) {
    const int n = std::atoi(env);
    if (n > 0) return round_up_pow2(n);
  }
  return cache::ShardedCacheServer::default_shards_for_threads(threads);
}

// The store series the SLO engine reads (derived by the sampler from the
// metrics register_metrics() registers) and the breach series it writes.
const obs::SloSeries kSloSeries{
    "proteus_cache_cmd_get_rate",        "proteus_cache_get_hits_rate",
    "proteus_daemon_op_latency_us_p999", "proteus_audit_fleet_watts",
    "proteus_slo_p999_latency_bad",      "proteus_slo_power_budget_bad"};

// Cheap, allocation-free batch classification for two-priority admission.
// A batch is background when its first command that expects a reply is
// tagged with the `bg` meta token (instrumented clients mark migration
// fetches that way) or is a digest pull — both are §IV maintenance work
// that must yield to foreground gets under pressure. Leading noreply
// commands are stepped over: a client corks its fire-and-forget fills and
// migration stores into its next request, so a `bg` store ahead of a user
// get must not shed the get, nor a plain fill let a digest pull in as
// foreground. A batch of noreply commands only (a held store flushed on
// its own) is classified by its first line. Lines are read by the parser's
// own tail scan, so admission and the parser never disagree on `bg`.
bool batch_is_background(std::string_view bytes) {
  const std::string_view line = cache::first_reply_line(bytes).value_or(
      bytes.substr(0, bytes.find("\r\n")));
  return cache::is_background_line(line);
}

// Shed replies never touch the cache: one SERVER_ERROR line for the whole
// batch, none for a batch of noreply commands (a client's fire-and-forget
// fills), so its next reply stays its own.
std::string shed_reply(std::string_view bytes) {
  return cache::wants_shed_reply(bytes) ? "SERVER_ERROR overloaded\r\n"
                                        : std::string{};
}

// One connection's text session, built with the connection. Cache access is
// serialized per SHARD by the session itself (each command takes only its
// key's shard lock — see cache/sharded_cache.h), so two handlers on
// different worker threads contend only when their commands land on the
// same shard.
class TextProtocolHandler final : public ConnectionHandler {
 public:
  TextProtocolHandler(cache::ShardedCacheServer& cache, const ClockFn& clock,
                      const obs::MetricsRegistry* metrics,
                      obs::Histogram* op_latency, obs::SpanCollector* spans,
                      int server_id, const AdmissionOptions& admission_opts,
                      core::AdmissionController* admission,
                      DaemonShedCounters* sheds,
                      std::function<void()> stats_reset_hook)
      : clock_(clock),
        op_latency_(op_latency),
        admission_(admission),
        sheds_(sheds),
        // The shard-lock deadline rides the pipeline policy: each command
        // bounds its own lock wait (0 = wait forever), and a pipeline-shed
        // command never attempts the lock, so the pipeline and
        // queue-deadline counters can never both count one command.
        session_(cache, metrics, spans, server_id,
                 cache::PipelinePolicy{
                     admission_opts.pipeline_cap,
                     sheds != nullptr ? &sheds->pipeline : nullptr,
                     admission_opts.queue_deadline_us,
                     sheds != nullptr ? &sheds->queue_deadline : nullptr}) {
    session_.set_stats_reset_hook(std::move(stats_reset_hook));
  }

  std::string on_data(std::string_view bytes, bool& close) override {
    const SimTime now = clock_();
    // Admission: shed whole batches before any parsing or locking. The
    // shed reply is well-formed and the connection stays open — the client
    // degrades instead of reconnecting. (A batch that splits one command
    // across chunks loses its remnant; the parser resynchronizes on the
    // next line, answered with a recoverable ERROR.)
    bool admitted = false;
    if (admission_ != nullptr && admission_->enabled()) {
      switch (admission_->try_admit(batch_is_background(bytes))) {
        case core::Admission::kAdmit:
          admitted = true;
          break;
        case core::Admission::kShedOverCap:
          sheds_->over_cap.fetch_add(1, std::memory_order_relaxed);
          return shed_reply(bytes);
        case core::Admission::kShedBackground:
          sheds_->background.fetch_add(1, std::memory_order_relaxed);
          return shed_reply(bytes);
      }
    }
    // No daemon-level lock: the session takes each command's shard lock
    // itself and records per-command kServerLockWait spans attributed to
    // the command's key (so contention is billed to the shard that caused
    // it, not to the whole batch). Commands that wait past
    // queue_deadline_us are shed inside the session, which counts them in
    // sheds_->queue_deadline.
    std::string out = session_.feed(bytes, now);
    if (admitted) admission_->release();
    // The measured interval covers shard-lock waits + protocol work — the
    // server-side component of what a client sees. A traced batch leaves
    // its id as the bucket's exemplar so /metrics can link p99.9 to a span.
    if (op_latency_ != nullptr) {
      op_latency_->record(static_cast<double>(monotonic_now() - now),
                          session_.last_trace_id());
    }
    close = session_.closed();
    return out;
  }

 private:
  const ClockFn& clock_;
  obs::Histogram* op_latency_;
  core::AdmissionController* admission_;
  DaemonShedCounters* sheds_;
  cache::TextProtocolSession session_;
};

}  // namespace

std::unique_ptr<ConnectionHandler> MemcacheDaemon::make_handler() {
  std::unique_ptr<ConnectionHandler> handler =
      std::make_unique<TextProtocolHandler>(
          cache_, clock_, &metrics_, op_latency_, &spans_, server_id_,
          admission_opts_, &admission_, &sheds_,
          [this] { reset_obs_counters(); });
  const std::lock_guard<std::mutex> lock(wrapper_mutex_);
  return wrapper_ ? wrapper_(std::move(handler)) : std::move(handler);
}

void MemcacheDaemon::reset_obs_counters() {
  // `stats reset` clears EVERY drop/shed counter the daemon owns, so the
  // obs surfaces agree on what "since reset" means (the cache counters are
  // cleared by the session before this hook runs).
  sheds_.over_cap.store(0, std::memory_order_relaxed);
  sheds_.background.store(0, std::memory_order_relaxed);
  sheds_.queue_deadline.store(0, std::memory_order_relaxed);
  sheds_.pipeline.store(0, std::memory_order_relaxed);
  trace_.reset_dropped();
  spans_.reset_dropped();
}

void MemcacheDaemon::register_metrics() {
  // Cache-reading callbacks go through the engine's merged accessors,
  // which lock one shard at a time internally — safe from any thread
  // (`stats proteus` on a protocol thread, the sampler thread, the HTTP
  // exposition thread) with no daemon-level lock and no nested shard
  // locks: the calling session never holds a shard lock while the
  // registry is visited.
  const auto cache_stat = [this](std::string name, std::string help,
                                 auto getter) {
    metrics_.counter_fn(std::move(name), std::move(help),
                        [this, getter]() -> double {
                          return static_cast<double>(getter(cache_.stats()));
                        });
  };
  cache_stat("proteus_cache_cmd_get_total", "get operations served",
             [](const cache::CacheStats& s) { return s.gets; });
  cache_stat("proteus_cache_get_hits_total", "gets answered from cache",
             [](const cache::CacheStats& s) { return s.hits; });
  cache_stat("proteus_cache_get_misses_total", "gets that missed",
             [](const cache::CacheStats& s) { return s.misses; });
  cache_stat("proteus_cache_cmd_set_total", "store operations",
             [](const cache::CacheStats& s) { return s.sets; });
  cache_stat("proteus_cache_delete_hits_total", "successful deletes",
             [](const cache::CacheStats& s) { return s.deletes; });
  cache_stat("proteus_cache_evictions_total", "LRU evictions under the budget",
             [](const cache::CacheStats& s) { return s.evictions; });
  cache_stat("proteus_cache_expired_total",
             "items expired past the idle TTL (SS IV drain visibility)",
             [](const cache::CacheStats& s) { return s.expirations; });
  // Reserved-key admin traffic (digest pulls, epoch hellos) — excluded
  // from gets/hits/misses so hit_ratio and the audit/SLO burn rates stay
  // data-plane only (a transition's digest chatter must not skew them).
  cache_stat("proteus_cache_admin_gets_total",
             "reserved-key (digest/epoch) gets, excluded from hit ratios",
             [](const cache::CacheStats& s) { return s.admin_gets; });
  metrics_.gauge_fn("proteus_cache_hit_ratio",
                    "data-plane hits / gets since start or stats reset",
                    [this] { return cache_.stats().hit_ratio(); });
  metrics_.gauge_fn("proteus_cache_items", "resident items",
                    [this] { return static_cast<double>(cache_.item_count()); });
  metrics_.gauge_fn("proteus_cache_bytes", "accounted bytes resident",
                    [this] { return static_cast<double>(cache_.bytes_used()); });
  metrics_.gauge_fn(
      "proteus_cache_limit_bytes", "memory budget",
      [this] { return static_cast<double>(cache_.memory_budget()); });
  metrics_.gauge_fn(
      "proteus_cache_power_state",
      "0=active 1=draining (SS IV transition) 2=off",
      [this] { return static_cast<double>(cache_.power_state()); });
  metrics_.counter_fn(
      "proteus_net_connections_accepted_total", "connections accepted",
      [this] { return static_cast<double>(connections_accepted()); });
  metrics_.counter_fn(
      "proteus_net_connections_rejected_total",
      "accepts shed over the connection cap",
      [this] { return static_cast<double>(connections_rejected()); });
  metrics_.counter_fn(
      "proteus_net_idle_reaped_total", "idle connections reaped",
      [this] { return static_cast<double>(idle_reaped()); });
  metrics_.counter_fn(
      "proteus_net_slow_reader_drops_total",
      "slow readers dropped over the outbox bound",
      [this] { return static_cast<double>(slow_reader_drops()); });
  metrics_.counter_fn(
      "proteus_net_fd_exhausted_rejects_total",
      "accepts refused via the reserved descriptor under EMFILE/ENFILE",
      [this] { return static_cast<double>(fd_exhausted_rejects()); });
  // End-to-end integrity: at-rest corruption caught at serve time and wire
  // corruption caught before the store (the chaos smoke greps for these).
  cache_stat("proteus_cache_corrupt_drops_total",
             "stored values failing their checksum at serve time "
             "(dropped, answered as a miss)",
             [](const cache::CacheStats& s) { return s.corrupt_drops; });
  cache_stat("proteus_cache_corrupt_set_rejects_total",
             "stores refused because the payload failed its C token",
             [](const cache::CacheStats& s) { return s.corrupt_set_rejects; });
  metrics_.counter_fn(
      "proteus_trace_events_total", "transition trace events emitted",
      [this] { return static_cast<double>(trace_.total_emitted()); });
  metrics_.counter_fn(
      "proteus_trace_dropped_total",
      "trace events overwritten before a poller fetched them",
      [this] { return static_cast<double>(trace_.dropped()); });
  metrics_.counter_fn(
      "proteus_spans_recorded_total", "server-side spans recorded",
      [this] { return static_cast<double>(spans_.total_recorded()); });
  metrics_.counter_fn(
      "proteus_spans_dropped_total",
      "spans overwritten because the collector ring was full",
      [this] { return static_cast<double>(spans_.dropped()); });
  // Overload protection: one counter per shed reason plus the live
  // in-flight gauge (the CI overload smoke greps for these).
  metrics_.counter_fn(
      "proteus_daemon_shed_over_cap_total",
      "batches shed because the in-flight budget was exhausted",
      [this] { return static_cast<double>(shed_over_cap()); });
  metrics_.counter_fn(
      "proteus_daemon_shed_background_total",
      "background batches shed to preserve foreground headroom",
      [this] { return static_cast<double>(shed_background()); });
  metrics_.counter_fn(
      "proteus_daemon_shed_queue_deadline_total",
      "batches shed after waiting past the queue deadline",
      [this] { return static_cast<double>(shed_queue_deadline()); });
  metrics_.counter_fn(
      "proteus_daemon_shed_pipeline_total",
      "pipelined commands shed over the per-batch cap",
      [this] { return static_cast<double>(shed_pipeline()); });
  metrics_.gauge_fn(
      "proteus_daemon_inflight", "protocol batches currently being served",
      [this] { return static_cast<double>(inflight()); });
  // Crash recovery / fencing (docs/PROTOCOL.md): the epoch this daemon
  // fences mutations against, its process incarnation, and how many stale
  // mutations it has refused (the CI crash-recovery smoke greps for this).
  metrics_.gauge_fn(
      "proteus_daemon_epoch", "highest cluster epoch this daemon has seen",
      [this] { return static_cast<double>(cache_.cluster_epoch()); });
  metrics_.gauge_fn(
      "proteus_daemon_incarnation", "per-process daemon incarnation id",
      [this] { return static_cast<double>(cache_.incarnation()); });
  metrics_.counter_fn(
      "proteus_daemon_stale_epoch_rejects_total",
      "mutations refused for carrying a stale epoch",
      [this] { return static_cast<double>(cache_.stale_epoch_rejects()); });
  // Lock striping (docs/OPERATIONS.md §15): stripe count, hot-shard skew
  // (max per-shard gets over the mean; 1.0 = even, N = one shard takes
  // everything), and per-shard get counters for drill-down.
  metrics_.gauge_fn(
      "proteus_daemon_shards", "lock-striped cache shard count",
      [this] { return static_cast<double>(cache_.num_shards()); });
  metrics_.gauge_fn(
      "proteus_cache_shard_imbalance",
      "max per-shard gets / mean per-shard gets (hot-shard skew)",
      [this] { return cache_.shard_imbalance(); });
  for (int i = 0; i < cache_.num_shards(); ++i) {
    metrics_.counter_fn(
        "proteus_cache_shard" + std::to_string(i) + "_gets_total",
        "get operations routed to shard " + std::to_string(i),
        [this, i] {
          return static_cast<double>(
              cache_.shard_stats(static_cast<std::size_t>(i)).gets);
        });
  }
  op_latency_ = metrics_.histogram(
      "proteus_daemon_op_latency_us",
      "server-side protocol batch service time (lock wait + cache work)");
  if (auditor_ != nullptr) auditor_->register_metrics(metrics_);
  if (slo_ != nullptr && slo_->enabled()) {
    slo_->register_metrics(metrics_, clock_);
  }
}

MemcacheDaemon::MemcacheDaemon(cache::CacheConfig config, std::uint16_t port,
                               ClockFn clock, int threads,
                               TcpServer::Limits limits,
                               AdmissionOptions admission, AuditOptions audit,
                               TsdbOptions tsdb, int shards)
    : trace_(4096),
      cache_(
          [&] {
            if (config.trace == nullptr) config.trace = &trace_;
            // Restart-aware digests need each daemon PROCESS to be
            // distinguishable from its predecessor on the same port: seed
            // the incarnation with a per-process unique value (monotonic
            // boot time mixed with the pid) unless the caller pinned one.
            if (config.incarnation == 0) {
              config.incarnation =
                  (static_cast<std::uint64_t>(monotonic_now()) << 8) ^
                  static_cast<std::uint64_t>(::getpid());
              if (config.incarnation == 0) config.incarnation = 1;
            }
            return std::move(config);
          }(),
          resolve_shards(shards, threads)),
      admission_opts_(admission),
      admission_(core::AdmissionController::Options{
          admission.max_inflight, admission.background_fill}),
      clock_(std::move(clock)),
      audit_opts_(std::move(audit)) {
  PROTEUS_CHECK(threads >= 1);
  tsdb_opts_ = std::move(tsdb);
  // Auditing reads retained history: it brings up the store and sampler.
  if (tsdb_opts_.enabled || audit_opts_.enabled) {
    tsdb_ = std::make_unique<obs::TimeSeriesStore>(tsdb_opts_.store);
  }
  if (audit_opts_.enabled) {
    if (audit_opts_.audit.trace == nullptr) audit_opts_.audit.trace = &trace_;
    auditor_ = std::make_unique<obs::PowerAuditor>(audit_opts_.audit);
    slo_ = std::make_unique<obs::SloEngine>(audit_opts_.slo, tsdb_.get(),
                                            kSloSeries);
  }
  register_metrics();
  if (tsdb_ != nullptr) {
    obs::AnomalyConfig ac = tsdb_opts_.anomaly;
    if (ac.watch.empty()) {
      // The daemon's default watch list: the four series an operator pages
      // on — load, efficacy, tail latency, power.
      ac.watch = {kSloSeries.gets, "proteus_cache_hit_ratio",
                  kSloSeries.p999_us, kSloSeries.watts};
    }
    if (ac.trace == nullptr) ac.trace = &trace_;
    anomaly_ = std::make_unique<obs::AnomalyDetector>(std::move(ac),
                                                      tsdb_.get());
    if (!tsdb_opts_.dump_dir.empty()) {
      obs::FlightRecorderConfig fc;
      fc.dir = tsdb_opts_.dump_dir;
      fc.checkpoint_interval = tsdb_opts_.checkpoint_interval;
      flight_ = std::make_unique<obs::FlightRecorder>(
          std::move(fc), tsdb_.get(), &trace_,
          [this] { return spans_.jsonl(); });
      flight_->register_metrics(metrics_);
    }
    obs::SamplerConfig sc;
    sc.interval = tsdb_opts_.sample_interval;
    sc.on_tick = [this](SimTime now) { on_sample_tick(now); };
    // The registry's cache-reading callbacks go through the engine's
    // internally locked merged views (one shard at a time), so a sampler
    // tick never serializes the whole cache and never holds two shard
    // locks.
    sampler_ = std::make_unique<obs::MetricsSampler>(sc, &metrics_,
                                                     tsdb_.get(),
                                                     anomaly_.get());
    sampler_->register_metrics(metrics_);
    anomaly_->register_metrics(metrics_);
  }
  const bool reuse_port = threads > 1;
  servers_.push_back(std::make_unique<TcpServer>(
      port, [this] { return make_handler(); }, reuse_port, limits));
  if (!servers_.front()->ok()) return;
  // Workers bind the (possibly ephemeral) port the first listener got.
  for (int t = 1; t < threads; ++t) {
    servers_.push_back(std::make_unique<TcpServer>(
        servers_.front()->port(), [this] { return make_handler(); },
        /*reuse_port=*/true, limits));
  }
  // Started last: the sampler thread visits registry callbacks that read
  // servers_ (connections_accepted et al.), so the daemon must be fully
  // constructed before the first tick can run.
  if (sampler_ != nullptr) sampler_->start([this] { return clock_(); });
}

MemcacheDaemon::~MemcacheDaemon() {
  // Join the sampler thread before anything it samples is torn down.
  if (sampler_ != nullptr) sampler_->stop();
}

bool MemcacheDaemon::ok() const noexcept {
  for (const auto& s : servers_) {
    if (!s->ok()) return false;
  }
  return true;
}

void MemcacheDaemon::run() {
  std::vector<std::thread> workers;
  workers.reserve(servers_.size() - 1);
  for (std::size_t t = 1; t < servers_.size(); ++t) {
    workers.emplace_back([server = servers_[t].get()] { server->run(); });
  }
  servers_.front()->run();
  for (auto& w : workers) w.join();
}

void MemcacheDaemon::stop() {
  for (auto& s : servers_) s->stop();
}

void MemcacheDaemon::begin_drain(SimTime timeout_us) {
  // Async-signal-safe fan-out (clock_gettime + atomics + pipe writes): a
  // SIGTERM handler may call this directly.
  const SimTime deadline = timeout_us > 0 ? monotonic_now() + timeout_us : 0;
  for (auto& s : servers_) s->begin_drain(deadline);
}

bool MemcacheDaemon::draining() const noexcept {
  for (const auto& s : servers_) {
    if (s->draining()) return true;
  }
  return false;
}

cache::CacheStats MemcacheDaemon::stats_snapshot() const {
  return cache_.stats();  // engine-merged, internally locked
}

std::size_t MemcacheDaemon::item_count() const { return cache_.item_count(); }

std::size_t MemcacheDaemon::bytes_used() const { return cache_.bytes_used(); }

std::string MemcacheDaemon::metrics_text() const {
  return metrics_text_prefix({});
}

std::string MemcacheDaemon::metrics_text_prefix(
    std::string_view prefix) const {
  // Cache-reading callbacks lock shards internally; no daemon-level lock.
  return obs::render_prometheus(metrics_.snapshot_prefix(prefix));
}

std::string MemcacheDaemon::timeseries_json(std::string_view metric,
                                            SimTime since,
                                            SimTime step) const {
  if (tsdb_ == nullptr) return {};
  if (metric.empty()) return tsdb_->index_json();
  return tsdb_->query_json(metric, since, step);
}

void MemcacheDaemon::on_sample_tick(SimTime now) {
  if (auditor_ != nullptr) {
    // The daemon audits itself as a one-server fleet.
    const cache::CacheStats s = cache_.stats();  // engine-merged
    std::vector<obs::ServerAuditSample> fleet(1);
    fleet[0].power_state = static_cast<int>(cache_.power_state());
    fleet[0].gets_total = static_cast<double>(s.gets);
    fleet[0].hits_total = static_cast<double>(s.hits);
    auditor_->observe(now, fleet);
    slo_->tick(now);
  }
  if (flight_ != nullptr) flight_->maybe_checkpoint(now);
}

std::pair<int, std::string> MemcacheDaemon::health() const {
  const std::uint64_t epoch = cache_.cluster_epoch();  // engine atomics
  const std::uint64_t incarnation = cache_.incarnation();
  std::string extra = "\"epoch\":" + std::to_string(epoch) +
                      ",\"incarnation\":" + std::to_string(incarnation);
  if (auditor_ != nullptr) {
    const obs::AuditSnapshot a = auditor_->snapshot();
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",\"ppi\":%.6g,\"window_ppi\":%.6g,\"fleet_watts\":%.6g"
                  ",\"share_drift\":%.6g,\"hit_ratio_drift\":%.6g"
                  ",\"fn_drift\":%.6g,\"drift_events\":%llu",
                  a.ppi, a.window_ppi, a.fleet_watts, a.share_drift,
                  a.hit_ratio_drift, a.fn_drift,
                  static_cast<unsigned long long>(a.drift_events));
    extra += buf;
  }
  if (anomaly_ != nullptr) {
    extra += ",\"anomaly_events\":" + std::to_string(anomaly_->events()) +
             ",\"anomaly_active\":" + std::to_string(anomaly_->active());
  }
  if (slo_ == nullptr || !slo_->enabled()) {
    return {200, "{\"status\":\"ok\",\"slos\":[]," + extra + "}\n"};
  }
  return obs::render_health(slo_->status(clock_()), extra);
}

std::uint64_t MemcacheDaemon::connections_accepted() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->connections_accepted();
  return total;
}

std::uint64_t MemcacheDaemon::connections_rejected() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->connections_rejected();
  return total;
}

std::uint64_t MemcacheDaemon::idle_reaped() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->idle_reaped();
  return total;
}

std::uint64_t MemcacheDaemon::slow_reader_drops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->slow_reader_drops();
  return total;
}

std::uint64_t MemcacheDaemon::fd_exhausted_rejects() const noexcept {
  std::uint64_t total = 0;
  for (const auto& s : servers_) total += s->fd_exhausted_rejects();
  return total;
}

}  // namespace proteus::net
