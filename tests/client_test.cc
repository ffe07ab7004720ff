// End-to-end over real sockets: ProteusClient (the web-server role) against
// a fleet of MemcacheDaemon processes-in-threads — Algorithm 2 with digests
// fetched through the memcached protocol, exactly as the paper deployed it.
#include "client/memcache_client.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/text_protocol.h"
#include "common/rng.h"
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
    for (auto& d : daemons_) {
      if (d != nullptr) d->stop();
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  // Stops daemon `i` and closes its sockets, as a dead process would.
  void kill(int i) {
    const auto s = static_cast<std::size_t>(i);
    daemons_[s]->stop();
    threads_[s].join();
    daemons_[s].reset();
  }

  bool resident(int server, const std::string& key) const {
    return daemons_[static_cast<std::size_t>(server)]->cache().contains(
        key, net::monotonic_now());
  }

  // Keys whose primary changes when the fleet shrinks 3 -> 2.
  static std::vector<std::string> moving_keys(int count) {
    ring::ProteusPlacement placement(kServers);
    std::vector<std::string> keys;
    for (int i = 0; static_cast<int>(keys.size()) < count; ++i) {
      const std::string k = "page:" + std::to_string(i);
      if (placement.server_for(hash_bytes(k), kServers) !=
          placement.server_for(hash_bytes(k), kServers - 1)) {
        keys.push_back(k);
      }
    }
    return keys;
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
  const std::string moving = moving_keys(1).front();
  client.get(moving, 0);  // cache the backend value on the old server
  client.resize(2, kSecond);
  client.put(moving, "fresh", 2 * kSecond);
  EXPECT_EQ(client.get(moving, 3 * kSecond), "fresh");
  EXPECT_EQ(client.get(moving, 100 * kSecond), "fresh");
}

// Algorithm 2 line 12 stores are noreply: get() returns without waiting for
// them. Each check below follows a later round trip on the same connection,
// which the daemon serves only after the store.

TEST_F(Fleet, MissFillLandsOnTheCurrentPrimary) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  ring::ProteusPlacement placement(kServers);
  for (int i = 0; i < 30; ++i) {
    const std::string k = "page:" + std::to_string(i);
    ASSERT_EQ(client.get(k, 0), "db:" + k);  // miss: fill sent
    ASSERT_EQ(client.get(k, 0), "db:" + k);  // hit on the primary
    const int primary = placement.server_for(hash_bytes(k), kServers);
    for (int s = 0; s < kServers; ++s) {
      EXPECT_EQ(resident(s, k), s == primary) << k << " on " << s;
    }
  }
  EXPECT_EQ(backend, 30u);
  EXPECT_EQ(client.stats().new_server_hits, 30u);
}

TEST_F(Fleet, OldServerHitMigratesToTheNewServer) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  const std::vector<std::string> keys = moving_keys(20);
  for (const std::string& k : keys) client.get(k, 0);
  ASSERT_TRUE(client.resize(kServers - 1, kSecond));
  ring::ProteusPlacement placement(kServers);
  for (const std::string& k : keys) {
    ASSERT_EQ(client.get(k, 2 * kSecond), "db:" + k);  // old-server hit
    ASSERT_EQ(client.get(k, 2 * kSecond), "db:" + k);  // new-server hit
    EXPECT_TRUE(
        resident(placement.server_for(hash_bytes(k), kServers - 1), k))
        << k;
  }
  EXPECT_EQ(backend, keys.size());
  EXPECT_EQ(client.stats().old_server_hits, keys.size());
  EXPECT_EQ(client.stats().new_server_hits, keys.size());
}

TEST_F(Fleet, ResizeDigestIncludesTheFillsBeforeIt) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  const std::vector<std::string> keys = moving_keys(20);
  // The digest pulls follow the fills on each connection with no other
  // round trip in between.
  for (const std::string& k : keys) client.get(k, 0);
  ASSERT_TRUE(client.resize(kServers - 1, kSecond));
  for (const std::string& k : keys) client.get(k, 2 * kSecond);
  EXPECT_EQ(backend, keys.size()) << "a fill missing from its digest";
  EXPECT_EQ(client.stats().old_server_hits, keys.size());
  EXPECT_EQ(client.stats().digest_false_positives, 0u);
}

TEST_F(Fleet, FillsFeedTheHealthDetectorNoLatencySample) {
  ring::ProteusPlacement placement(kServers);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 5; ++i) {
    const std::string k = "page:" + std::to_string(i);
    if (placement.server_for(hash_bytes(k), kServers) == 0) keys.push_back(k);
  }
  ProteusClient::Options opt = client_options();
  opt.health.warmup_samples = static_cast<int>(keys.size()) + 1;
  ProteusClient client(opt, [](std::string_view key) {
    return "db:" + std::string(key);
  });
  for (const std::string& k : keys) client.get(k, 0);
  EXPECT_FALSE(client.endpoint_health(0).warmed_up())
      << "a fill fed the detector a latency sample";
  client.get(keys.front(), 0);
  EXPECT_TRUE(client.endpoint_health(0).warmed_up())
      << "each get feeds one sample";
}

// A fill carries no trace token: the daemon would close its span after the
// get that sent it had returned. Each traced get is one daemon op.
TEST_F(Fleet, FillsCarryNoTraceToken) {
  obs::SpanCollector spans(1u << 12, /*sample_every=*/1);
  ProteusClient::Options opt = client_options();
  opt.spans = &spans;
  ProteusClient client(opt, [](std::string_view key) {
    return "db:" + std::string(key);
  });
  constexpr int kKeys = 30;
  for (int pass = 0; pass < 2; ++pass) {  // misses, then hits after fills
    for (int i = 0; i < kKeys; ++i) client.get("page:" + std::to_string(i), 0);
  }
  ASSERT_EQ(client.stats().new_server_hits, static_cast<std::uint64_t>(kKeys));
  std::map<std::uint64_t, int> ops;  // daemon ops per trace
  for (const auto& d : daemons_) {
    for (const obs::SpanRecord& s : d->spans().snapshot()) {
      if (s.kind == obs::SpanKind::kServerOp) ++ops[s.trace_id];
    }
  }
  EXPECT_EQ(ops.size(), static_cast<std::size_t>(2 * kKeys));
  for (const auto& [trace, n] : ops) EXPECT_EQ(n, 1) << trace;
}

// Fills are corked (MSG_MORE) until the connection's next request. With no
// next request the kernel flushes them by itself after its cork ceiling.
TEST_F(Fleet, CorkedFillReachesTheDaemonWithoutALaterRequest) {
  const std::string key = "page:0";
  const int primary =
      ring::ProteusPlacement(kServers).server_for(hash_bytes(key), kServers);
  ProteusClient client(client_options(), [](std::string_view k) {
    return "db:" + std::string(k);
  });
  ASSERT_EQ(client.get(key, 0), "db:" + key);  // miss: the fill is held
  MemcacheConnection other(ports_[static_cast<std::size_t>(primary)]);
  const SimTime deadline = net::monotonic_now() + 2 * kSecond;
  std::optional<std::string> seen;
  while (!seen.has_value() && net::monotonic_now() < deadline) {
    seen = other.get(key);
    ASSERT_TRUE(other.ok());
  }
  EXPECT_EQ(seen, std::optional<std::string>("db:" + key))
      << "a corked fill never left the client's socket";
}

// put() is acknowledged, hence uncorked: it pushes the held fill ahead of
// itself, so the daemon stores the fill first and the put's value last.
TEST_F(Fleet, FillThenPutOfTheSameKeyLeavesThePutsValue) {
  const std::string key = "page:0";
  const int primary =
      ring::ProteusPlacement(kServers).server_for(hash_bytes(key), kServers);
  ProteusClient client(client_options(), [](std::string_view k) {
    return "db:" + std::string(k);
  });
  ASSERT_EQ(client.get(key, 0), "db:" + key);  // miss: the fill is held
  client.put(key, "fresh", 0);
  MemcacheConnection other(ports_[static_cast<std::size_t>(primary)]);
  EXPECT_EQ(other.get(key), std::optional<std::string>("fresh"));
  EXPECT_EQ(client.get(key, 0), "fresh");
}

// Every migration store of the pass below waits in the new server's socket
// until the second pass's first get there; each later get must hit.
TEST_F(Fleet, CorkedMigrationStoresAreServedBeforeTheNextGet) {
  std::uint64_t backend = 0;
  ProteusClient client(client_options(), [&](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  const std::vector<std::string> keys = moving_keys(20);
  for (const std::string& k : keys) client.get(k, 0);
  ASSERT_TRUE(client.resize(kServers - 1, kSecond));
  for (const std::string& k : keys) {
    ASSERT_EQ(client.get(k, 2 * kSecond), "db:" + k);  // old-server hit
  }
  ASSERT_EQ(client.stats().old_server_hits, keys.size());
  ASSERT_EQ(client.stats().new_server_hits, 0u);
  for (const std::string& k : keys) {
    ASSERT_EQ(client.get(k, 2 * kSecond), "db:" + k);  // new-server hit
  }
  EXPECT_EQ(client.stats().new_server_hits, keys.size());
  EXPECT_EQ(client.stats().old_server_hits, keys.size());
  EXPECT_EQ(backend, keys.size());
}

TEST_F(Fleet, FillToAStoppedDaemonRecordsAFailure) {
  const std::string key = "page:0";
  const int primary =
      ring::ProteusPlacement(kServers).server_for(hash_bytes(key), kServers);
  ProteusClient client(client_options(), [&](std::string_view k) {
    kill(primary);  // between the get's miss and its fill
    return "db:" + std::string(k);
  });
  EXPECT_EQ(client.get(key, 0), "db:" + key);
  EXPECT_EQ(client.stats().resets, 1u);
  EXPECT_EQ(client.endpoint_health(primary).consecutive_errors(), 1);
}

// --- request bytes -------------------------------------------------------------
//
// The exact bytes MemcacheConnection puts on the wire, against literals. A
// one-connection loopback listener records everything it receives and
// answers through a real TextProtocolSession, so the client runs its normal
// reply path. Each recv takes at most `read_chunk` bytes, so a large
// request arrives in many pieces and the client's sends come back short.
class CapturingListener {
 public:
  explicit CapturingListener(std::size_t read_chunk = 64 << 10)
      : read_chunk_(read_chunk), engine_(config(), 1), session_(engine_) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0) {
      ADD_FAILURE() << "loopback listener failed";
    }
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~CapturingListener() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes an accept nobody answered
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

  // Waits for the client to close its connection; every byte it sent.
  std::string take() {
    thread_.join();
    return received_;
  }

 private:
  static cache::CacheConfig config() {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 32 << 20;
    return cfg;
  }

  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    std::vector<char> buf(read_chunk_);
    for (;;) {
      const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
      if (n <= 0) break;
      const std::string_view bytes(buf.data(), static_cast<std::size_t>(n));
      received_.append(bytes);
      const std::string reply = session_.feed(bytes, 0);
      for (std::size_t off = 0; off < reply.size();) {
        const ssize_t w = ::send(fd, reply.data() + off, reply.size() - off,
                                 MSG_NOSIGNAL);
        if (w <= 0) break;
        off += static_cast<std::size_t>(w);
      }
    }
    ::close(fd);
  }

  std::size_t read_chunk_;
  cache::ShardedCacheServer engine_;
  cache::TextProtocolSession session_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::string received_;
  std::thread thread_;
};

// What `op` sends on a fresh connection. Closing the connection flushes a
// corked store and ends the capture.
template <class Op>
std::string bytes_sent(Op op) {
  CapturingListener listener;
  {
    MemcacheConnection conn(listener.port());
    EXPECT_TRUE(conn.ok());
    op(conn);
  }
  return listener.take();
}

constexpr std::uint64_t kTraceId = 0x0123456789abcdefULL;

TEST(RequestBytes, GetWithEachMetaTokenCombination) {
  // Indexed by want_checksum | epoch << 1 | trace << 2 | background << 3.
  const std::array<std::string_view, 16> expected = {
      "get k\r\n",
      "get k C00000000\r\n",
      "get k E0000000000000007\r\n",
      "get k C00000000 E0000000000000007\r\n",
      "get k O0123456789abcdef\r\n",
      "get k C00000000 O0123456789abcdef\r\n",
      "get k E0000000000000007 O0123456789abcdef\r\n",
      "get k C00000000 E0000000000000007 O0123456789abcdef\r\n",
      "get k bg\r\n",
      "get k C00000000 bg\r\n",
      "get k E0000000000000007 bg\r\n",
      "get k C00000000 E0000000000000007 bg\r\n",
      "get k O0123456789abcdef bg\r\n",
      "get k C00000000 O0123456789abcdef bg\r\n",
      "get k E0000000000000007 O0123456789abcdef bg\r\n",
      "get k C00000000 E0000000000000007 O0123456789abcdef bg\r\n",
  };
  for (unsigned mask = 0; mask < expected.size(); ++mask) {
    const std::string sent = bytes_sent([mask](MemcacheConnection& c) {
      EXPECT_FALSE(c.get("k", (mask & 4) != 0 ? kTraceId : 0,
                         (mask & 8) != 0, (mask & 2) != 0 ? 7 : 0,
                         (mask & 1) != 0)
                       .has_value());
      EXPECT_EQ(c.last_error(), net::NetError::kNone);
    });
    EXPECT_EQ(sent, expected[mask]) << "mask " << mask;
  }
}

TEST(RequestBytes, Set) {
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", "hello", 5));
            }),
            "set k 5 0 5\r\nhello\r\n");
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", "hello", 0, kTraceId, true, 7, true));
            }),
            "set k 0 0 5 C9a71bb4c E0000000000000007 O0123456789abcdef bg"
            "\r\nhello\r\n");
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", ""));
            }),
            "set k 0 0 0\r\n\r\n");
}

TEST(RequestBytes, CorkedNoreplySetLeavesWithTheNextRequest) {
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", "hello", 0, 0, false, 7, true, true));
            }),
            "set k 0 0 5 noreply C9a71bb4c E0000000000000007\r\nhello\r\n");
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", "hello", 0, 0, true, 7, true, true));
              EXPECT_EQ(c.get("k", 0, false, 7, true), "hello");
            }),
            "set k 0 0 5 noreply C9a71bb4c E0000000000000007 bg\r\nhello\r\n"
            "get k C00000000 E0000000000000007\r\n");
}

TEST(RequestBytes, Delete) {
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_FALSE(c.erase("k"));
              EXPECT_EQ(c.last_error(), net::NetError::kNone);
            }),
            "delete k\r\n");
  EXPECT_EQ(bytes_sent([](MemcacheConnection& c) {
              EXPECT_TRUE(c.set("k", "v"));
              EXPECT_TRUE(c.erase("k", 7));
            }),
            "set k 0 0 1\r\nv\r\ndelete k E0000000000000007\r\n");
}

TEST(RequestBytes, ValueLargerThanTheSendBufferArrivesWhole) {
  // 8 MiB against a reader taking 4 KiB per recv: the socket's send buffer
  // fills, so the request leaves in many short sends.
  std::string value(8u << 20, '\0');
  Rng rng(42);
  for (char& c : value) c = static_cast<char>(rng.next_below(256));
  CapturingListener listener(/*read_chunk=*/4096);
  {
    MemcacheConnection::Options opt;
    opt.op_timeout = 30 * kSecond;
    MemcacheConnection conn(listener.port(), opt);
    ASSERT_TRUE(conn.ok());
    EXPECT_TRUE(conn.set("big", value, 0, 0, false, 0, true));
    const auto back = conn.get("big", 0, false, 0, true);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(*back == value);
  }
  const std::string header =
      "set big 0 0 8388608 " + obs::encode_checksum_token(crc32c(value)) +
      "\r\n";
  const std::string sent = listener.take();
  EXPECT_TRUE(sent == header + value + "\r\nget big C00000000\r\n")
      << "sent " << sent.size() << " bytes";
}

}  // namespace
}  // namespace proteus::client
