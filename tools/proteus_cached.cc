// proteus-cached — a runnable memcached-compatible cache daemon with the
// built-in counting-Bloom digest (the paper's modified memcached, §V-3).
//
//   proteus-cached --port=11211 --mem-mb=64 --ttl-s=0 --threads=4
//   proteus-cached --max-conns=4096 --idle-timeout-s=30 --max-outbox-mb=64
//   proteus-cached --max-inflight=256 --queue-deadline-ms=20
//   proteus-cached --pipeline-cap=64 --migration-priority=0.5
//
// Speaks the memcached text protocol only: a binary client is closed on
// its first byte (docs/PROTOCOL.md "Compatibility"). The digest snapshot
// is reachable through the reserved keys SET_BLOOM_FILTER / BLOOM_FILTER
// with any unmodified memcached text client:
//
//   $ printf 'set k 0 0 5\r\nhello\r\nget k\r\n' | nc 127.0.0.1 11211
//
// With --metrics-port=P a Prometheus text endpoint is served on
// 127.0.0.1:P (GET /metrics; GET /trace?since=N streams the transition/TTL
// event ring as JSONL incrementally; GET /spans streams the server-side
// per-request span records — see obs/span.h and tools/proteus-spans; GET
// /health answers 200/503 from the SLO burn-rate engine when auditing is
// enabled; the engine reads the sampler's retained history, so auditing
// requires the sampler). The same registry is reachable in-band via the `stats proteus`
// protocol extension. --server-id=N stamps that fleet index on every span.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "net/memcache_daemon.h"
#include "net/metrics_http.h"

namespace {

proteus::net::MemcacheDaemon* g_daemon = nullptr;
// SIGTERM drain budget, set from --drain-timeout-ms before signals are
// installed (microseconds; 0 = drain until the last connection closes).
proteus::SimTime g_drain_timeout_us = 5'000'000;

void handle_signal(int sig) {
  if (g_daemon == nullptr) return;
  if (sig == SIGTERM) {
    // Graceful: stop accepting, serve established connections until they
    // close or the drain budget runs out, then exit 0 through main().
    // begin_drain is async-signal-safe. A second SIGTERM escalates to an
    // immediate stop (kill -TERM twice = "really, now").
    if (!g_daemon->draining()) {
      g_daemon->begin_drain(g_drain_timeout_us);
      return;
    }
  }
  g_daemon->stop();
}

bool parse_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

void print_help(std::FILE* out) {
  std::fprintf(
      out,
      "usage: proteus-cached [flags]\n"
      "\n"
      "Serves the memcached text protocol; a binary-protocol client is\n"
      "closed on its first byte.\n"
      "\n"
      "  --port=P             listen port (default 11211; 0 = ephemeral)\n"
      "  --metrics-port=P     Prometheus /metrics + /trace + /spans HTTP port\n"
      "  --mem-mb=M           cache memory budget in MB (default 64)\n"
      "  --ttl-s=S            item TTL in seconds (0 = no expiry)\n"
      "  --threads=N          SO_REUSEPORT worker poll loops (default 1)\n"
      "  --shards=N           lock-striped cache shards; N is rounded up to\n"
      "                       a power of two. 0 = auto: min(threads, 8).\n"
      "                       See docs/OPERATIONS.md section 15.\n"
      "  --server-id=N        fleet index stamped on server-side spans\n"
      "  --max-conns=C        connection cap; excess accepts are told\n"
      "                       'SERVER_ERROR overloaded' and closed\n"
      "  --idle-timeout-s=S   reap connections idle this long\n"
      "  --max-outbox-mb=M    slow-reader reply backlog bound\n"
      "  --drain-timeout-ms=D graceful-shutdown budget: on SIGTERM stop\n"
      "                       accepting and serve established connections\n"
      "                       up to D ms before exiting (default 5000;\n"
      "                       0 = wait for the last connection; a second\n"
      "                       SIGTERM or SIGINT exits immediately)\n"
      "  --incarnation=N      pin the process incarnation id (default: a\n"
      "                       per-process unique value; see docs/PROTOCOL.md)\n"
      "\n"
      "overload protection (all off by default — see docs/OPERATIONS.md "
      "section 10):\n"
      "  --max-inflight=N     concurrent protocol batches across all\n"
      "                       connections; excess batches get 'SERVER_ERROR\n"
      "                       overloaded' instead of queueing. 0 = unlimited.\n"
      "  --queue-deadline-ms=D  longest a batch may wait for the cache lock\n"
      "                       before being shed (the client has likely timed\n"
      "                       out; stale work is wasted work). 0 = forever.\n"
      "  --pipeline-cap=N     cache-touching commands served per batch; the\n"
      "                       rest are shed per-command. 0 = unlimited.\n"
      "  --migration-priority=F  fraction of --max-inflight available to\n"
      "                       background traffic (migration fetches / digest\n"
      "                       pulls, marked by a trailing 'bg' token or the\n"
      "                       digest keys). Below 1.0 foreground requests\n"
      "                       keep headroom during a transition. Default "
      "0.5.\n"
      "\n"
      "power & SLO audit (all off by default — see docs/OPERATIONS.md "
      "section 12):\n"
      "  --power-budget-watts=W  enable the live power auditor (energy\n"
      "                       accounting, PPI, model-drift gauges) and add a\n"
      "                       power-budget SLO at W watts. 0 = audit without\n"
      "                       a power objective.\n"
      "  --slo-hit-ratio=R    hit-ratio SLO target in [0,1]; burn-rate\n"
      "                       breaches flip GET /health to 503.\n"
      "  --slo-p999-ms=L      p99.9 latency SLO target in milliseconds\n"
      "                       (judged per sampler tick).\n"
      "  --audit-window-s=S   model-drift / energy audit window (default "
      "15)\n"
      "  --slo-fast-window-s=S  burn-rate fast window, > 0 (default 60;\n"
      "                       the slow window stays at least 10x the fast\n"
      "                       one).\n"
      "                       Short windows make smoke tests react in\n"
      "                       seconds; production wants the default.\n"
      "  --peak-ops=N         ops/s treated as 100%% utilisation for the\n"
      "                       power model (default 50000)\n"
      "\n"
      "flight recorder (docs/OPERATIONS.md section 13):\n"
      "  --sample-interval-ms=D  cadence of the background metrics sampler\n"
      "                       feeding the in-process time-series store and\n"
      "                       the diurnal anomaly detector (default 1000;\n"
      "                       0 disables the sampler, the store, and\n"
      "                       GET /timeseries entirely; the audit flags\n"
      "                       need the sampler and refuse 0)\n"
      "  --dump-dir=DIR       write flight-recorder artifacts here:\n"
      "                       flight.jsonl (periodic atomic checkpoint,\n"
      "                       survives kill -9; also written on a clean\n"
      "                       shutdown)\n"
      "  --checkpoint-interval-s=S  checkpoint cadence (default 60)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace proteus;

  std::uint16_t port = 11211;
  std::uint16_t metrics_port = 0;  // 0 = no HTTP exposition
  bool metrics_enabled = false;
  std::size_t mem_mb = 64;
  double ttl_s = 0;
  int threads = 1;
  int shards = 0;  // 0 = auto: min(threads, 8)
  int server_id = -1;
  std::uint64_t incarnation = 0;  // 0 = per-process unique (daemon seeds it)
  net::TcpServer::Limits limits;
  net::AdmissionOptions admission;
  net::AuditOptions audit;
  bool audit_requested = false;
  net::TsdbOptions tsdb;
  tsdb.enabled = true;  // --sample-interval-ms=0 turns it off

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_help(stdout);
      return 0;
    } else if (parse_value(argv[i], "--port", value)) {
      port = static_cast<std::uint16_t>(std::atoi(value.c_str()));
    } else if (parse_value(argv[i], "--metrics-port", value)) {
      metrics_port = static_cast<std::uint16_t>(std::atoi(value.c_str()));
      metrics_enabled = true;
    } else if (parse_value(argv[i], "--mem-mb", value)) {
      mem_mb = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (parse_value(argv[i], "--ttl-s", value)) {
      ttl_s = std::atof(value.c_str());
    } else if (parse_value(argv[i], "--threads", value)) {
      threads = std::atoi(value.c_str());
    } else if (parse_value(argv[i], "--shards", value)) {
      shards = std::atoi(value.c_str());
    } else if (parse_value(argv[i], "--server-id", value)) {
      server_id = std::atoi(value.c_str());
    } else if (parse_value(argv[i], "--max-conns", value)) {
      limits.max_connections =
          static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (parse_value(argv[i], "--idle-timeout-s", value)) {
      limits.idle_timeout = from_seconds(std::atof(value.c_str()));
    } else if (parse_value(argv[i], "--max-outbox-mb", value)) {
      limits.max_outbox_bytes =
          static_cast<std::size_t>(std::atoll(value.c_str())) << 20;
    } else if (parse_value(argv[i], "--drain-timeout-ms", value)) {
      g_drain_timeout_us =
          static_cast<proteus::SimTime>(std::atof(value.c_str()) * 1000.0);
    } else if (parse_value(argv[i], "--incarnation", value)) {
      incarnation = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (parse_value(argv[i], "--max-inflight", value)) {
      admission.max_inflight =
          static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (parse_value(argv[i], "--queue-deadline-ms", value)) {
      admission.queue_deadline_us =
          static_cast<proteus::SimTime>(std::atof(value.c_str()) * 1000.0);
    } else if (parse_value(argv[i], "--pipeline-cap", value)) {
      admission.pipeline_cap = std::atoi(value.c_str());
    } else if (parse_value(argv[i], "--migration-priority", value)) {
      admission.background_fill = std::atof(value.c_str());
    } else if (parse_value(argv[i], "--power-budget-watts", value)) {
      audit.slo.power_budget_watts = std::atof(value.c_str());
      audit_requested = true;
    } else if (parse_value(argv[i], "--slo-hit-ratio", value)) {
      audit.slo.hit_ratio_target = std::atof(value.c_str());
      audit_requested = true;
    } else if (parse_value(argv[i], "--slo-p999-ms", value)) {
      audit.slo.p999_target_us = std::atof(value.c_str()) * 1000.0;
      audit_requested = true;
    } else if (parse_value(argv[i], "--audit-window-s", value)) {
      audit.audit.window = from_seconds(std::atof(value.c_str()));
      audit_requested = true;
    } else if (parse_value(argv[i], "--slo-fast-window-s", value)) {
      audit.slo.windows.fast_window = from_seconds(std::atof(value.c_str()));
      if (audit.slo.windows.slow_window <
          10 * audit.slo.windows.fast_window) {
        audit.slo.windows.slow_window = 10 * audit.slo.windows.fast_window;
      }
      audit_requested = true;
    } else if (parse_value(argv[i], "--peak-ops", value)) {
      audit.audit.peak_ops_per_server = std::atof(value.c_str());
      audit_requested = true;
    } else if (parse_value(argv[i], "--sample-interval-ms", value)) {
      const double ms = std::atof(value.c_str());
      if (ms <= 0) {
        tsdb.enabled = false;
      } else {
        tsdb.sample_interval = static_cast<proteus::SimTime>(ms * 1000.0);
      }
    } else if (parse_value(argv[i], "--dump-dir", value)) {
      tsdb.dump_dir = value;
    } else if (parse_value(argv[i], "--checkpoint-interval-s", value)) {
      tsdb.checkpoint_interval = from_seconds(std::atof(value.c_str()));
    } else {
      print_help(stderr);
      return 2;
    }
  }
  if (threads < 1) {
    std::fprintf(stderr, "--threads must be >= 1\n");
    return 2;
  }
  if (shards < 0) {
    std::fprintf(stderr, "--shards must be >= 0\n");
    return 2;
  }
  if (admission.background_fill < 0.0 || admission.background_fill > 1.0) {
    std::fprintf(stderr, "--migration-priority must be in [0, 1]\n");
    return 2;
  }
  if (audit.slo.hit_ratio_target < 0.0 || audit.slo.hit_ratio_target > 1.0) {
    std::fprintf(stderr, "--slo-hit-ratio must be in [0, 1]\n");
    return 2;
  }
  if (audit.slo.windows.fast_window <= 0) {
    std::fprintf(stderr, "--slo-fast-window-s must be > 0\n");
    return 2;
  }
  if (audit_requested && !tsdb.enabled) {
    std::fprintf(stderr,
                 "the audit flags read the sampler's history: "
                 "--sample-interval-ms=0 cannot be combined with them\n");
    return 2;
  }
  audit.enabled = audit_requested;

  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = mem_mb << 20;
  cfg.item_ttl = from_seconds(ttl_s);
  cfg.incarnation = incarnation;

  net::MemcacheDaemon daemon(cfg, port, net::monotonic_now, threads, limits,
                             admission, audit, tsdb, shards);
  if (!daemon.ok()) {
    std::fprintf(stderr, "failed to bind 127.0.0.1:%u\n", port);
    return 1;
  }
  daemon.set_server_id(server_id);
  g_daemon = &daemon;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Optional Prometheus exposition, on its own poll-loop thread so a stuck
  // scraper can never stall the cache protocol.
  std::unique_ptr<net::MetricsHttpServer> metrics_http;
  std::thread metrics_thread;
  if (metrics_enabled) {
    metrics_http = std::make_unique<net::MetricsHttpServer>(
        metrics_port, [&daemon] { return daemon.metrics_text(); },
        [&daemon](std::uint64_t since) {
          return daemon.trace().jsonl_since(since);
        },
        [&daemon] { return daemon.spans().jsonl(); },
        [&daemon] { return daemon.health(); });
    metrics_http->set_metrics_prefix([&daemon](std::string_view prefix) {
      return daemon.metrics_text_prefix(prefix);
    });
    if (daemon.tsdb() != nullptr) {
      metrics_http->set_timeseries(
          [&daemon](std::string_view metric, proteus::SimTime since,
                    proteus::SimTime step) {
            return daemon.timeseries_json(metric, since, step);
          });
    }
    if (!metrics_http->ok()) {
      std::fprintf(stderr, "failed to bind metrics port 127.0.0.1:%u\n",
                   metrics_port);
      return 1;
    }
    metrics_thread = std::thread([&metrics_http] { metrics_http->run(); });
    std::fprintf(stderr, "metrics on http://127.0.0.1:%u/metrics\n",
                 metrics_http->port());
  }

  std::fprintf(stderr,
               "proteus-cached listening on 127.0.0.1:%u (%zu MB budget, "
               "%d shards, digest: %zu counters x %u bits)\n",
               daemon.port(), mem_mb, daemon.shards(),
               daemon.cache().digest_num_counters(),
               daemon.cache().digest_counter_bits());
  daemon.run();
  // Final flight-recorder checkpoint on the clean-shutdown path (SIGTERM
  // drain or stop): the artifact then reflects the very last samples.
  if (daemon.flight_recorder() != nullptr) {
    daemon.flight_recorder()->dump(net::monotonic_now(), "shutdown",
                                   "flight.jsonl");
  }
  if (metrics_thread.joinable()) {
    metrics_http->stop();
    metrics_thread.join();
  }
  std::fprintf(stderr,
               "%s; served %llu connections (rejected %llu, "
               "idle-reaped %llu, slow-reader drops %llu)\n",
               daemon.draining() ? "drained" : "shutting down",
               static_cast<unsigned long long>(daemon.connections_accepted()),
               static_cast<unsigned long long>(daemon.connections_rejected()),
               static_cast<unsigned long long>(daemon.idle_reaped()),
               static_cast<unsigned long long>(daemon.slow_reader_drops()));
  // Final state flush: after run() returns no worker thread serves, so the
  // cache and trace ring are safe to read directly. This is the last word a
  // crashed-and-restarted operator sees in the unit log.
  {
    const cache::CacheStats final_stats = daemon.cache().stats();
    std::fprintf(
        stderr,
        "final: %zu items, %zu bytes, %llu gets (%llu hits), %llu sets, "
        "epoch %llu, incarnation %llu, stale-epoch rejects %llu, "
        "%llu trace events (%llu dropped)\n",
        daemon.cache().item_count(), daemon.cache().bytes_used(),
        static_cast<unsigned long long>(final_stats.gets),
        static_cast<unsigned long long>(final_stats.hits),
        static_cast<unsigned long long>(final_stats.sets),
        static_cast<unsigned long long>(daemon.cache().cluster_epoch()),
        static_cast<unsigned long long>(daemon.cache().incarnation()),
        static_cast<unsigned long long>(daemon.cache().stale_epoch_rejects()),
        static_cast<unsigned long long>(daemon.trace().total_emitted()),
        static_cast<unsigned long long>(daemon.trace().dropped()));
  }
  if (daemon.sheds_total() > 0) {
    std::fprintf(
        stderr,
        "overload sheds: %llu over-cap, %llu background, %llu "
        "queue-deadline, %llu pipeline\n",
        static_cast<unsigned long long>(daemon.shed_over_cap()),
        static_cast<unsigned long long>(daemon.shed_background()),
        static_cast<unsigned long long>(daemon.shed_queue_deadline()),
        static_cast<unsigned long long>(daemon.shed_pipeline()));
  }
  return 0;
}
