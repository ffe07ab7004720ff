// Race-freedom of the daemon's stats surfaces and the HTTP exposition
// endpoint: protocol worker threads hammer the shared cache while other
// threads concurrently take stats_snapshot()/metrics_text() and issue
// `stats proteus` / `stats reset` on the wire. Run under TSan (scripts/
// check.sh thread) this is the regression test for torn CacheStats reads.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "net/memcache_daemon.h"
#include "net/metrics_http.h"

namespace proteus::net {
namespace {

cache::CacheConfig small_config() {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  cfg.digest.num_counters = 1 << 12;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

struct RunningDaemon {
  explicit RunningDaemon(int threads)
      : daemon(small_config(), 0, monotonic_now, threads) {
    EXPECT_TRUE(daemon.ok());
    runner = std::thread([this] { daemon.run(); });
  }
  ~RunningDaemon() {
    daemon.stop();
    runner.join();
  }
  MemcacheDaemon daemon;
  std::thread runner;
};

TEST(StatsSnapshot, RaceFreeUnderMultithreadedLoad) {
  RunningDaemon rig(2);
  const std::uint16_t port = rig.daemon.port();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> wire_ops{0};

  // Two connections hammering sets/gets through the protocol threads.
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      client::MemcacheConnection conn(port);
      ASSERT_TRUE(conn.ok());
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = "k" + std::to_string(t) + ":" +
                                std::to_string(i % 500);
        ASSERT_TRUE(conn.set(key, "value"));
        (void)conn.get(key);
        ++i;
        wire_ops.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  // A wire client exercising `stats proteus` and `stats reset` concurrently.
  std::thread stats_client([&] {
    client::MemcacheConnection conn(port);
    ASSERT_TRUE(conn.ok());
    int rounds = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      auto pairs = conn.stats("proteus");
      ASSERT_TRUE(pairs.has_value());
      EXPECT_FALSE(pairs->empty());
      if (++rounds % 7 == 0) {
        auto plain = conn.stats();
        ASSERT_TRUE(plain.has_value());
      }
      if (rounds % 11 == 0) {
        // `stats reset` races the writers; it must never wedge the session.
        auto reset = conn.stats("reset");
        ASSERT_TRUE(reset.has_value());
        EXPECT_TRUE(reset->empty());  // RESET carries no STAT lines
      }
    }
  });

  // In-process pollers of the race-free accessors.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const cache::CacheStats s = rig.daemon.stats_snapshot();
      EXPECT_GE(s.gets, s.hits);
      (void)rig.daemon.item_count();
      (void)rig.daemon.bytes_used();
      const std::string text = rig.daemon.metrics_text();
      EXPECT_NE(text.find("proteus_cache_cmd_get_total"), std::string::npos);
    }
  });

  while (wire_ops.load(std::memory_order_relaxed) < 4000) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  stats_client.join();
  poller.join();

  // Occupancy survives the resets; item_count is bounded by distinct keys.
  EXPECT_GT(rig.daemon.item_count(), 0u);
  EXPECT_LE(rig.daemon.item_count(), 1000u);
}

TEST(StatsSnapshot, WireStatsResetZeroesDaemonCounters) {
  RunningDaemon rig(1);
  client::MemcacheConnection conn(rig.daemon.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.set("k", "v"));
  (void)conn.get("k");
  EXPECT_GT(rig.daemon.stats_snapshot().gets, 0u);
  auto reset = conn.stats("reset");
  ASSERT_TRUE(reset.has_value());
  EXPECT_EQ(rig.daemon.stats_snapshot().gets, 0u);
  EXPECT_EQ(rig.daemon.stats_snapshot().sets, 0u);
}

// `stats reset` must clear the observability drop/shed counters with the
// same sweep that clears the cache counters — a dashboard that zeroes
// cmd_get but keeps stale shed counts misattributes past overload to the
// fresh measurement interval.
TEST(StatsSnapshot, WireStatsResetClearsShedAndDropCounters) {
  AdmissionOptions admission;
  admission.pipeline_cap = 1;  // a 3-get batch sheds two commands
  MemcacheDaemon daemon(small_config(), 0, monotonic_now, 1,
                        TcpServer::Limits{}, admission);
  ASSERT_TRUE(daemon.ok());
  std::thread runner([&daemon] { daemon.run(); });

  {
    client::MemcacheConnection conn(daemon.port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.set("k", "v"));

    // One pipelined write of three gets = one protocol batch; the cap
    // admits the first and sheds the rest.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    const std::string batch = "get k\r\nget k\r\nget k\r\n";
    ASSERT_EQ(::send(fd, batch.data(), batch.size(), 0),
              static_cast<ssize_t>(batch.size()));
    std::string reply;
    char buf[4096];
    while (reply.find("SERVER_ERROR overloaded") == std::string::npos) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_GT(daemon.shed_pipeline(), 0u);
    EXPECT_GT(daemon.sheds_total(), 0u);

    auto reset = conn.stats("reset");
    ASSERT_TRUE(reset.has_value());
    EXPECT_EQ(daemon.shed_pipeline(), 0u);
    EXPECT_EQ(daemon.shed_over_cap(), 0u);
    EXPECT_EQ(daemon.shed_background(), 0u);
    EXPECT_EQ(daemon.shed_queue_deadline(), 0u);
    EXPECT_EQ(daemon.sheds_total(), 0u);
    EXPECT_EQ(daemon.trace().dropped(), 0u);
    EXPECT_EQ(daemon.spans().dropped(), 0u);
  }

  daemon.stop();
  runner.join();
}

// --- the HTTP exposition endpoint, end to end --------------------------------

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(MetricsHttp, ServesPrometheusTextTraceAndSpans) {
  RunningDaemon rig(1);
  client::MemcacheConnection conn(rig.daemon.port());
  ASSERT_TRUE(conn.set("k", "v"));
  (void)conn.get("k");
  // A traced text-protocol get populates the daemon-side span collector.
  (void)conn.get("k", /*trace_id=*/0xabcdef12u);

  MetricsHttpServer http(
      0, [&] { return rig.daemon.metrics_text(); },
      [&](std::uint64_t since) { return rig.daemon.trace().jsonl_since(since); },
      [&] { return rig.daemon.spans().jsonl(); });
  ASSERT_TRUE(http.ok());
  std::thread http_thread([&http] { http.run(); });

  const std::string metrics = http_get(http.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE proteus_cache_cmd_get_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("proteus_cache_get_hits_total 2"), std::string::npos);
  EXPECT_NE(metrics.find("proteus_daemon_op_latency_us{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("proteus_spans_recorded_total"), std::string::npos);
  EXPECT_NE(metrics.find("proteus_trace_dropped_total"), std::string::npos);

  const std::string trace = http_get(http.port(), "/trace");
  EXPECT_NE(trace.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(trace.find("application/x-ndjson"), std::string::npos);
  // Incremental fetch far past the ring returns an empty 200 body.
  const std::string tail = http_get(http.port(), "/trace?since=999999999");
  EXPECT_NE(tail.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(tail.find("Content-Length: 0"), std::string::npos);

  const std::string spans = http_get(http.port(), "/spans");
  EXPECT_NE(spans.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(spans.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(spans.find("\"trace\":\"00000000abcdef12\""), std::string::npos);
  EXPECT_NE(spans.find("\"kind\":\"server_op\""), std::string::npos);

  const std::string index = http_get(http.port(), "/");
  EXPECT_NE(index.find("200 OK"), std::string::npos);
  EXPECT_NE(index.find("/spans"), std::string::npos);
  EXPECT_NE(http_get(http.port(), "/nope").find("404"), std::string::npos);

  http.stop();
  http_thread.join();
}

}  // namespace
}  // namespace proteus::net
