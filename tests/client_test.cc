// End-to-end over real sockets: ProteusClient (the web-server role) against
// a fleet of MemcacheDaemon processes-in-threads — Algorithm 2 with digests
// fetched through the memcached protocol, exactly as the paper deployed it.
#include "client/memcache_client.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/memcache_daemon.h"
#include "obs/trace.h"

namespace proteus::client {
namespace {

class Fleet : public ::testing::Test {
 protected:
  static constexpr int kServers = 3;

  void SetUp() override {
    for (int i = 0; i < kServers; ++i) {
      cache::CacheConfig cfg;
      cfg.memory_budget_bytes = 8 << 20;
      daemons_.push_back(std::make_unique<net::MemcacheDaemon>(cfg, 0));
      ASSERT_TRUE(daemons_.back()->ok());
      ports_.push_back(daemons_.back()->port());
      threads_.emplace_back([d = daemons_.back().get()] { d->run(); });
    }
  }

  void TearDown() override {
    for (auto& d : daemons_) d->stop();
    for (auto& t : threads_) t.join();
  }

  ProteusClient::Options client_options(SimTime ttl = 60 * kSecond) {
    ProteusClient::Options opt;
    opt.endpoints = ports_;
    opt.ttl = ttl;
    // These suites assert exact backend-fetch counts; latency-phi accrual
    // reacts to wall-clock scheduling jitter (CI runs many tests per core),
    // so widen the deviation floor until only hard errors move the health
    // machine. gray_failure_test covers the latency-sensitive paths.
    opt.health.min_deviation_usec = 1e9;
    return opt;
  }

  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::uint16_t> ports_;
  std::vector<std::thread> threads_;
};

TEST_F(Fleet, ConnectionBasics) {
  MemcacheConnection conn(ports_[0]);
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn.version(), "VERSION proteus-1.0");
  EXPECT_FALSE(conn.get("missing").has_value());
  EXPECT_TRUE(conn.set("k", "hello world", 7));
  const auto v = conn.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello world");
  EXPECT_TRUE(conn.erase("k"));
  EXPECT_FALSE(conn.erase("k"));
}

TEST_F(Fleet, BinarySafeValuesOverTheWire) {
  MemcacheConnection conn(ports_[0]);
  std::string payload = "with\r\nnewlines\0and nul";
  payload.resize(22);
  ASSERT_TRUE(conn.set("bin", payload));
  const auto v = conn.get("bin");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, payload);
}

TEST_F(Fleet, DigestFetchOverTheWire) {
  MemcacheConnection conn(ports_[1]);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(conn.set("page:" + std::to_string(i), "x"));
  }
  const auto digest = conn.fetch_digest();
  ASSERT_TRUE(digest.has_value());
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(digest->maybe_contains("page:" + std::to_string(i))) << i;
  }
  EXPECT_FALSE(digest->maybe_contains("absent:key"));
}

TEST_F(Fleet, ClientRoutesAndCaches) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 90; ++i) {
    EXPECT_EQ(client.get("page:" + std::to_string(i), 0),
              "db:page:" + std::to_string(i));
  }
  EXPECT_EQ(backend, 90u);
  for (int i = 0; i < 90; ++i) {
    client.get("page:" + std::to_string(i), kSecond);
  }
  EXPECT_EQ(backend, 90u) << "second pass should be all cache hits";
  EXPECT_EQ(client.stats().new_server_hits, 90u);

  // The keys actually landed on all three daemons.
  for (const auto& d : daemons_) {
    EXPECT_GT(d->cache().item_count(), 10u);
  }
}

TEST_F(Fleet, SmoothShrinkOverRealSockets) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 120; ++i) client.get("page:" + std::to_string(i), 0);
  ASSERT_EQ(backend, 120u);

  // Shrink 3 -> 2: digests travel through the protocol; re-reading the hot
  // set must cost ZERO backend fetches.
  ASSERT_TRUE(client.resize(2, kSecond));
  EXPECT_TRUE(client.in_transition());
  for (int i = 0; i < 120; ++i) {
    EXPECT_EQ(client.get("page:" + std::to_string(i), 2 * kSecond),
              "db:page:" + std::to_string(i));
  }
  EXPECT_EQ(backend, 120u) << "shrink caused a miss storm over the wire";
  EXPECT_GT(client.stats().old_server_hits, 20u);

  // Past the TTL the transition finalizes; migrated keys still hit.
  for (int i = 0; i < 120; ++i) {
    client.get("page:" + std::to_string(i), 100 * kSecond);
  }
  EXPECT_FALSE(client.in_transition());
  EXPECT_EQ(backend, 120u);
}

TEST_F(Fleet, OverlappingResizeEmitsOneResizeEndPerBegin) {
  obs::TraceRing ring(1 << 12);
  ProteusClient::Options opt = client_options();
  opt.trace = &ring;
  ProteusClient client(opt, [](std::string_view key) {
    return "db:" + std::string(key);
  });
  for (int i = 0; i < 30; ++i) client.get("page:" + std::to_string(i), 0);

  ASSERT_TRUE(client.resize(2, kSecond));      // drains until 61 s
  ASSERT_TRUE(client.resize(1, 2 * kSecond));  // overtakes it at 2 s
  client.tick(100 * kSecond);                  // past the second window

  std::vector<obs::TraceEvent> begins, ends;
  for (const obs::TraceEvent& e : ring.snapshot()) {
    if (e.kind == obs::TraceEventKind::kResizeBegin) begins.push_back(e);
    if (e.kind == obs::TraceEventKind::kResizeEnd) ends.push_back(e);
  }
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(ends.size(), 2u) << "an overtaken transition never ended";
  EXPECT_EQ(ends[0].t, 2 * kSecond);
  EXPECT_EQ(ends[0].server, 2);
  EXPECT_LT(ends[0].seq, begins[1].seq);
  EXPECT_EQ(ends[1].t, 100 * kSecond);
  EXPECT_EQ(ends[1].server, 1);
}

TEST_F(Fleet, PutInvalidatesOldLocationDuringTransition) {
  ProteusClient client(client_options(),
                       [](std::string_view) { return std::string("stale"); });
  // Find a key that moves when shrinking 3 -> 2.
  ring::ProteusPlacement placement(3);
  std::string moving;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "page:" + std::to_string(i);
    if (placement.server_for(hash_bytes(k), 3) !=
        placement.server_for(hash_bytes(k), 2)) {
      moving = k;
      break;
    }
  }
  ASSERT_FALSE(moving.empty());
  client.get(moving, 0);  // cache the backend value on the old server
  client.resize(2, kSecond);
  client.put(moving, "fresh", 2 * kSecond);
  EXPECT_EQ(client.get(moving, 3 * kSecond), "fresh");
  EXPECT_EQ(client.get(moving, 100 * kSecond), "fresh");
}

}  // namespace
}  // namespace proteus::client
