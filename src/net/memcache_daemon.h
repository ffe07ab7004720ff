// A deployable memcached-compatible daemon around ShardedCacheServer.
//
// Every connection speaks the memcached text protocol through its own
// cache::TextProtocolSession, built when the connection is accepted; a
// binary client is closed on its first byte (docs/PROTOCOL.md
// "Compatibility"). All connections share one lock-striped cache engine
// (and therefore one merged digest), mirroring the paper's
// one-Memcached-process-per-node setup.
//
// Worker threads (memcached's -t): with `threads > 1` the daemon runs one
// poll loop per thread, all bound to the same port via SO_REUSEPORT so the
// kernel spreads connections across them. Cache execution parallelism
// comes from lock striping: the key space is hash-partitioned across a
// power-of-two number of CacheServer shards (default min(threads, 8)
// rounded down to a power of two, override via the `shards` ctor arg),
// each with its own mutex, LRU, budget slice, stats, and digest segment —
// two threads touching different shards never contend. Each text session
// takes each command's shard lock itself (see
// cache/sharded_cache.h for the locking discipline); the reserved digest
// and epoch keys are served by engine-level merged/broadcast paths so the
// wire contract is byte-identical at any shard count (§V-3).
//
// Observability: the daemon owns an obs::MetricsRegistry holding the cache
// counters, hardening counters, and a per-operation service-latency
// histogram. It is exposed three ways — `stats proteus` on the wire,
// metrics_text() (Prometheus format, served by net/metrics_http.h), and
// stats_snapshot()/item_count()/bytes_used() for in-process readers. The
// snapshot accessors and every registry callback read through the engine's
// internally-locked merged views (one shard at a time, never two), so they
// are race-free against concurrent protocol operations and safe from the
// sampler thread without any daemon-level lock. A built-in obs::TraceRing
// collects ttl_expiry events unless the caller supplies its own sink via
// CacheConfig::trace.
//
// Time is wall-clock here (the daemon is the real-deployment path; the
// evaluation uses the simulator instead).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_server.h"
#include "cache/sharded_cache.h"
#include "cache/text_protocol.h"
#include "core/overload.h"
#include "net/tcp_server.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/tsdb/anomaly.h"
#include "obs/tsdb/flight_recorder.h"
#include "obs/tsdb/sampler.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::net {

// Supplies "now" to the cache; defaults to a monotonic wall clock.
using ClockFn = std::function<SimTime()>;
SimTime monotonic_now();

// Overload-protection knobs (all off by default — a bare daemon behaves
// exactly as before). See core/overload.h for the mechanism and
// docs/OPERATIONS.md §10 for tuning guidance.
struct AdmissionOptions {
  // Concurrent protocol batches served across all connections/threads;
  // excess batches are answered `SERVER_ERROR overloaded`.
  // 0 = unlimited.
  std::size_t max_inflight = 0;
  // Longest one command may wait for its shard's mutex before being shed
  // (stale work is not worth doing — the client has likely timed out).
  // 0 = wait forever ("unlimited") — the same zero semantics as
  // pipeline_cap. A command
  // shed by the pipeline cap never attempts the lock, so the two shed
  // counters never double-count one command. Microseconds, same unit as
  // the daemon clock.
  SimTime queue_deadline_us = 0;
  // Cache-touching commands served per protocol batch; the rest of the
  // batch is answered with per-command shed replies. 0 = unlimited.
  int pipeline_cap = 0;
  // Two-priority scheduling: background batches (trailing `bg` token or
  // digest-key traffic) are shed once in-flight exceeds this fraction of
  // max_inflight, reserving headroom for foreground requests.
  double background_fill = 0.5;
};

// Power/SLO auditing knobs (off by default — a bare daemon carries no
// auditor). When enabled the daemon audits ITSELF as a one-server fleet:
// energy integration + PPI from its own op rate, drift windows from its
// own cache counters, and the SLO engine driving GET /health. Auditing
// reads retained history, so it starts the time-series store and sampler
// (TsdbOptions) even when TsdbOptions::enabled is false; all audit work
// runs on the sampler tick, never on a request thread, and
// metrics_text()/health() only read.
struct AuditOptions {
  bool enabled = false;
  obs::AuditConfig audit;  // power model, window, drift tolerances
  obs::SloConfig slo;      // zero targets disable each objective
};

// Flight-recorder / retained-history knobs (off by default — a bare daemon
// carries no sampler thread and no time-series store; AuditOptions::enabled
// turns them on as well). When enabled the
// daemon samples its own MetricsRegistry into a fixed-memory
// obs::TimeSeriesStore on `sample_interval` cadence, scores the watched
// series against their diurnal baseline (kAnomaly trace events +
// proteus_anomaly_* counters), and — when `dump_dir` is set — writes
// periodic atomic flight.jsonl checkpoints and a clean-shutdown dump.
struct TsdbOptions {
  bool enabled = false;
  SimTime sample_interval = kSecond;
  obs::TsdbConfig store;      // tier geometry (defaults retain ~8 h)
  obs::AnomalyConfig anomaly;  // empty watch list = daemon's default four
  std::string dump_dir;        // empty = no flight recorder
  SimTime checkpoint_interval = 60 * kSecond;
};

// Daemon-wide shed accounting, one counter per reason (all on /metrics).
struct DaemonShedCounters {
  std::atomic<std::uint64_t> over_cap{0};        // in-flight budget exhausted
  std::atomic<std::uint64_t> background{0};      // bg shed under priority rule
  std::atomic<std::uint64_t> queue_deadline{0};  // shard-lock wait too long
  std::atomic<std::uint64_t> pipeline{0};        // per-batch pipeline cap
};

class MemcacheDaemon {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral). The daemon owns the cache.
  // `limits` hardens the byte server against misbehaving peers (connection
  // cap, slow-reader outbox bound, idle reaping) — see TcpServer::Limits.
  // `admission` turns on overload protection (off by default).
  // `shards` fixes the lock-stripe count (power of two); 0 = auto, i.e.
  // min(threads, 8) rounded down to a power of two. The config's byte
  // budget and digest geometry describe the WHOLE cache regardless.
  MemcacheDaemon(cache::CacheConfig config, std::uint16_t port,
                 ClockFn clock = monotonic_now, int threads = 1,
                 TcpServer::Limits limits = {},
                 AdmissionOptions admission = {}, AuditOptions audit = {},
                 TsdbOptions tsdb = {}, int shards = 0);
  ~MemcacheDaemon();

  bool ok() const noexcept;
  std::uint16_t port() const noexcept { return servers_.front()->port(); }

  // Interpose on every future connection's handler (e.g. a FaultInjector
  // proxy for failure testing). Thread-safe; affects connections accepted
  // after the call.
  using HandlerWrapper = std::function<std::unique_ptr<ConnectionHandler>(
      std::unique_ptr<ConnectionHandler>)>;
  void set_handler_wrapper(HandlerWrapper wrapper) {
    const std::lock_guard<std::mutex> lock(wrapper_mutex_);
    wrapper_ = std::move(wrapper);
  }

  // Blocking: serves until stop(). Extra worker threads (if configured)
  // are spawned here and joined before returning.
  void run();
  void stop();

  // Graceful shutdown: stop accepting, serve established connections until
  // they close or `timeout_us` elapses (0 = wait forever), then run()
  // returns. Async-signal-safe — callable from a SIGTERM handler.
  void begin_drain(SimTime timeout_us);
  bool draining() const noexcept;

  // The sharded cache engine. Merged/broadcast accessors (stats, digest,
  // epoch, convenience get/set) lock internally and are safe at any time;
  // shard() references are only safe while no worker thread is serving
  // (before run() / after stop()+join) unless you hold that shard's lock.
  cache::ShardedCacheServer& cache() noexcept { return cache_; }
  const cache::ShardedCacheServer& cache() const noexcept { return cache_; }
  int shards() const noexcept { return cache_.num_shards(); }

  // --- race-free introspection (engine merged views) -----------------------
  cache::CacheStats stats_snapshot() const;
  std::size_t item_count() const;
  std::size_t bytes_used() const;
  // Registry snapshot rendered as Prometheus text (for /metrics). The
  // registry's cache-reading callbacks go through the engine's internally
  // locked merged views (one shard at a time).
  std::string metrics_text() const;
  // Prefix-filtered variant backing GET /metrics?name=P. An unmatched
  // prefix renders an empty body (a filtered scrape, not an error).
  std::string metrics_text_prefix(std::string_view prefix) const;

  // GET /timeseries backing: empty metric renders the series index, an
  // unknown metric renders an empty string (the endpoint answers 404).
  // Empty whenever the daemon keeps no store (see tsdb()).
  std::string timeseries_json(std::string_view metric, SimTime since,
                              SimTime step) const;

  // GET /health backing: {status code, JSON body}. 200 while no SLO pages,
  // 503 once one does; the body lists each objective's state/burn plus
  // epoch, incarnation, PPI, and the drift gauges. Callable with auditing
  // disabled (always 200, minimal body).
  std::pair<int, std::string> health() const;

  // Null when AuditOptions::enabled was false.
  const obs::PowerAuditor* auditor() const noexcept { return auditor_.get(); }
  const obs::SloEngine* slo() const noexcept { return slo_.get(); }

  // Null when neither TsdbOptions::enabled nor AuditOptions::enabled was
  // set (recorder additionally requires dump_dir).
  const obs::TimeSeriesStore* tsdb() const noexcept { return tsdb_.get(); }
  const obs::AnomalyDetector* anomaly_detector() const noexcept {
    return anomaly_.get();
  }
  obs::MetricsSampler* sampler() noexcept { return sampler_.get(); }
  obs::FlightRecorder* flight_recorder() noexcept { return flight_.get(); }

  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }
  // The built-in transition/TTL event ring (or the caller's sink if
  // CacheConfig::trace was set, in which case this ring stays empty).
  const obs::TraceRing& trace() const noexcept { return trace_; }

  // Server-side span sink (parse / cache-lock wait / op, per traced
  // request). The daemon never samples — spans appear whenever a request
  // carries a trace id on the wire (see obs/span.h). Thread-safe.
  obs::SpanCollector& spans() noexcept { return spans_; }
  const obs::SpanCollector& spans() const noexcept { return spans_; }

  // Fleet index stamped on server-side spans (-1 = standalone). Set before
  // run(); connections accepted later pick it up.
  void set_server_id(int id) noexcept { server_id_ = id; }

  int threads() const noexcept { return static_cast<int>(servers_.size()); }
  std::uint64_t connections_accepted() const noexcept;
  // Hardening counters aggregated across worker listeners.
  std::uint64_t connections_rejected() const noexcept;
  std::uint64_t idle_reaped() const noexcept;
  std::uint64_t slow_reader_drops() const noexcept;
  std::uint64_t fd_exhausted_rejects() const noexcept;

  // --- overload protection introspection -----------------------------------
  const AdmissionOptions& admission_options() const noexcept {
    return admission_opts_;
  }
  std::size_t inflight() const noexcept { return admission_.inflight(); }
  std::uint64_t shed_over_cap() const noexcept {
    return sheds_.over_cap.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_background() const noexcept {
    return sheds_.background.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_queue_deadline() const noexcept {
    return sheds_.queue_deadline.load(std::memory_order_relaxed);
  }
  std::uint64_t shed_pipeline() const noexcept {
    return sheds_.pipeline.load(std::memory_order_relaxed);
  }
  std::uint64_t sheds_total() const noexcept {
    return shed_over_cap() + shed_background() + shed_queue_deadline() +
           shed_pipeline();
  }

 private:
  std::unique_ptr<ConnectionHandler> make_handler();
  void register_metrics();
  // Clears shed/trace-drop/span-drop counters — the `stats reset` hook.
  void reset_obs_counters();
  // The sampler's per-tick consumer (hand-driven or threaded ticks alike):
  // feeds the auditor, appends the SLO breach series, and paces the flight
  // recorder's checkpoints.
  void on_sample_tick(SimTime now);

  obs::TraceRing trace_;  // must precede cache_: CacheConfig may point here
  obs::SpanCollector spans_{/*capacity=*/16384};
  int server_id_ = -1;
  cache::ShardedCacheServer cache_;
  AdmissionOptions admission_opts_;
  core::AdmissionController admission_;
  mutable DaemonShedCounters sheds_;
  std::mutex wrapper_mutex_;
  HandlerWrapper wrapper_;
  ClockFn clock_;
  obs::MetricsRegistry metrics_;
  obs::Histogram* op_latency_ = nullptr;  // owned by metrics_
  AuditOptions audit_opts_;
  std::vector<std::unique_ptr<TcpServer>> servers_;
  // Retained-history and audit layers (null unless enabled, see tsdb()
  // and auditor()). The sampler is declared LAST: its destructor joins the
  // sampling thread before anything it feeds is torn down.
  TsdbOptions tsdb_opts_;
  std::unique_ptr<obs::TimeSeriesStore> tsdb_;
  std::unique_ptr<obs::PowerAuditor> auditor_;
  std::unique_ptr<obs::SloEngine> slo_;
  std::unique_ptr<obs::AnomalyDetector> anomaly_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::MetricsSampler> sampler_;
};

}  // namespace proteus::net
