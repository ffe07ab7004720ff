// End-to-end socket tests: run the memcached-compatible daemon on an
// ephemeral loopback port and drive it with raw sockets, exactly as an
// unmodified client library would.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "net/memcache_daemon.h"
#include "net/metrics_http.h"
#include "obs/span.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::net {
namespace {

class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  // Bounds every subsequent read: a server that never answers turns into a
  // failed read instead of a hung test.
  void set_recv_timeout(int seconds) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  void send(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Sends what the peer takes before it closes, without raising SIGPIPE.
  void send_until_closed(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

  // Reads until `expected` bytes arrive (blocking socket).
  std::string recv_exact(std::size_t expected) {
    std::string out;
    char buf[4096];
    while (out.size() < expected) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  // Reads until the buffer ends with `terminator`.
  std::string recv_until(std::string_view terminator) {
    std::string out;
    char buf[4096];
    while (out.size() < terminator.size() ||
           out.compare(out.size() - terminator.size(), terminator.size(),
                       terminator) != 0) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class DaemonFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 8 << 20;
    daemon_ = std::make_unique<MemcacheDaemon>(cfg, 0);
    ASSERT_TRUE(daemon_->ok());
    thread_ = std::thread([this] { daemon_->run(); });
  }

  void TearDown() override {
    daemon_->stop();
    thread_.join();
  }

  std::unique_ptr<MemcacheDaemon> daemon_;
  std::thread thread_;
};

TEST_F(DaemonFixture, TextProtocolOverRealSocket) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.send("set greeting 3 0 5\r\nhello\r\n");
  EXPECT_EQ(client.recv_until("\r\n"), "STORED\r\n");
  client.send("get greeting\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"),
            "VALUE greeting 3 5\r\nhello\r\nEND\r\n");
}

TEST_F(DaemonFixture, CommandSplitAcrossTwoWritesIsServed) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  // The daemon stops reading after a short read, so each half arrives on
  // its own poll pass; the session must join them.
  client.send("set spl");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send("it 0 0 5\r\nhel");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send("lo\r\n");
  EXPECT_EQ(client.recv_until("\r\n"), "STORED\r\n");
  client.send("get sp");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send("lit\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"), "VALUE split 0 5\r\nhello\r\nEND\r\n");
}

TEST_F(DaemonFixture, SetLargerThanTheReadBufferIsStored) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  // Three 16 KiB read buffers and a bit: full reads keep the loop reading,
  // the short tail ends the pass.
  std::string value(3 * 16 * 1024 + 100, 'v');
  for (std::size_t i = 0; i < value.size(); i += 997) value[i] = 'w';
  client.send("set big 0 0 " + std::to_string(value.size()) + "\r\n" + value +
              "\r\nget big\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"),
            "STORED\r\nVALUE big 0 " + std::to_string(value.size()) + "\r\n" +
                value + "\r\nEND\r\n");
}

// A stock memcached binary GET: 24-byte header (magic 0x80, opcode 0x00,
// key length 3, total body 3) followed by the key.
std::string binary_get_frame() {
  std::string frame(24, '\0');
  frame[0] = '\x80';
  frame[3] = 3;   // key length, low byte
  frame[11] = 3;  // total body length, low byte
  return frame + "key";
}

TEST_F(DaemonFixture, BinaryClientIsClosedWithoutReply) {
  Client binary(daemon_->port());
  ASSERT_TRUE(binary.connected());
  binary.set_recv_timeout(5);
  const auto start = std::chrono::steady_clock::now();
  binary.send(binary_get_frame());
  // EOF, not a reply and not a wait for the client's own timeout.
  EXPECT_EQ(binary.recv_exact(1), "");
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(2));
}

TEST_F(DaemonFixture, TextClientIsServedAfterBinaryClientIsClosed) {
  Client text(daemon_->port());
  ASSERT_TRUE(text.connected());
  text.send("set shared 0 0 4\r\ndata\r\n");
  EXPECT_EQ(text.recv_until("\r\n"), "STORED\r\n");
  Client binary(daemon_->port());
  ASSERT_TRUE(binary.connected());
  binary.set_recv_timeout(5);
  binary.send(binary_get_frame());
  EXPECT_EQ(binary.recv_exact(1), "");
  text.send("get shared\r\n");
  EXPECT_EQ(text.recv_until("END\r\n"), "VALUE shared 0 4\r\ndata\r\nEND\r\n");
}

TEST_F(DaemonFixture, OversizedSetIsRefusedAndTheConnectionKept) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  client.send("set big 0 0 5\r\nsmall\r\n");
  EXPECT_EQ(client.recv_until("\r\n"), "STORED\r\n");
  // Larger than the whole 8 MiB budget, so larger than any shard's slice.
  const std::size_t size = (8 << 20) + 1;
  client.send("set big 0 0 " + std::to_string(size) + "\r\n" +
              std::string(size, 'x') + "\r\n");
  EXPECT_EQ(client.recv_until("\r\n"),
            "SERVER_ERROR object too large for cache\r\n");
  // Nothing stored, the older copy dropped, the stream still in sync.
  client.send("get big\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"), "END\r\n");
}

// ProteusClient's fills: `noreply` with C and E meta tokens. Each get
// after one must read exactly its own reply, stored or refused.
TEST_F(DaemonFixture, NoreplyStoresAnswerNothingAndKeepTheStreamInSync) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  const std::string value = "filled";
  const auto store = [&](std::string_view key, std::uint32_t crc) {
    return "set " + std::string(key) + " 0 0 " +
           std::to_string(value.size()) + " noreply " +
           obs::encode_checksum_token(crc) + " " + obs::encode_epoch_token(1) +
           "\r\n" + value + "\r\n";
  };
  client.send(store("good", crc32c(value)));
  client.send("get good\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"),
            "VALUE good 0 6\r\nfilled\r\nEND\r\n");
  client.send(store("bad", crc32c(value) ^ 1u));
  client.send("get bad\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"), "END\r\n");
  // Too large for the whole budget: refused, its data block dropped unread.
  const std::size_t size = (8 << 20) + 1;
  client.send("set big 0 0 " + std::to_string(size) + " noreply\r\n" +
              std::string(size, 'x') + "\r\nget good\r\n");
  EXPECT_EQ(client.recv_until("END\r\n"),
            "VALUE good 0 6\r\nfilled\r\nEND\r\n");
}

TEST_F(DaemonFixture, UnterminatedLineIsRefusedThenClosed) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  // The daemon may close before the whole run is written.
  client.send_until_closed(std::string(128 << 10, 'a'));
  EXPECT_EQ(client.recv_until("\r\n"), "CLIENT_ERROR line too long\r\n");
  EXPECT_EQ(client.recv_exact(1), "");
}

TEST_F(DaemonFixture, DigestSnapshotThroughRealSocket) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 20; ++i) {
    client.send("set page:" + std::to_string(i) + " 0 0 1\r\nx\r\n");
    EXPECT_EQ(client.recv_until("\r\n"), "STORED\r\n");
  }
  client.send("get SET_BLOOM_FILTER\r\n");
  client.recv_until("END\r\n");
  client.send("get BLOOM_FILTER\r\n");
  const std::string reply = client.recv_until("END\r\n");
  // Extract the blob after the VALUE header line.
  const std::size_t header_end = reply.find("\r\n");
  ASSERT_NE(header_end, std::string::npos);
  const std::size_t size_pos = reply.rfind(' ', header_end);
  const std::size_t size = std::stoul(reply.substr(size_pos + 1));
  const std::string blob = reply.substr(header_end + 2, size);
  const bloom::BloomFilter digest = cache::decode_digest(blob);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(digest.maybe_contains("page:" + std::to_string(i))) << i;
  }
}

TEST_F(DaemonFixture, ManySequentialConnections) {
  for (int c = 0; c < 20; ++c) {
    Client client(daemon_->port());
    ASSERT_TRUE(client.connected());
    client.send("version\r\n");
    EXPECT_EQ(client.recv_until("\r\n"), "VERSION proteus-1.0\r\n");
  }
  // All data persists across connections in the shared cache.
  EXPECT_GE(daemon_->connections_accepted(), 20u);
}

TEST(MultiThreadedDaemon, ConcurrentClientsShareOneConsistentCache) {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 16 << 20;
  MemcacheDaemon daemon(cfg, 0, monotonic_now, /*threads=*/4);
  ASSERT_TRUE(daemon.ok());
  EXPECT_EQ(daemon.threads(), 4);
  std::thread server([&] { daemon.run(); });

  // Hammer from several client threads, disjoint key ranges.
  constexpr int kClients = 8;
  constexpr int kKeysPerClient = 200;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(daemon.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kKeysPerClient; ++i) {
        const std::string key =
            "c" + std::to_string(c) + ":" + std::to_string(i);
        client.send("set " + key + " 0 0 " + std::to_string(key.size()) +
                    "\r\n" + key + "\r\n");
        if (client.recv_until("\r\n") != "STORED\r\n") ++failures;
      }
      for (int i = 0; i < kKeysPerClient; ++i) {
        const std::string key =
            "c" + std::to_string(c) + ":" + std::to_string(i);
        client.send("get " + key + "\r\n");
        const std::string reply = client.recv_until("END\r\n");
        if (reply.find(key + "\r\nEND") == std::string::npos) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  daemon.stop();
  server.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(daemon.cache().item_count(),
            static_cast<std::size_t>(kClients) * kKeysPerClient);
  // The merged digest saw every insertion exactly once.
  EXPECT_TRUE(daemon.cache().digest_maybe_contains("c0:0"));
  EXPECT_TRUE(daemon.cache().digest_maybe_contains("c7:199"));
}

TEST_F(DaemonFixture, QuitClosesConnection) {
  Client client(daemon_->port());
  ASSERT_TRUE(client.connected());
  client.send("quit\r\n");
  // Server closes: read returns EOF (empty).
  EXPECT_EQ(client.recv_exact(1), "");
}

// --- the metrics/health HTTP endpoint's protocol edges -----------------------

// A running exposition server with trivial render callbacks and a settable
// health answer.
class HttpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    health_code_ = 200;
    http_ = std::make_unique<MetricsHttpServer>(
        0, [] { return std::string("metric 1\n"); }, nullptr, nullptr,
        [this] {
          return std::make_pair(health_code_.load(),
                                std::string("{\"status\":\"x\"}\n"));
        });
    ASSERT_TRUE(http_->ok());
    thread_ = std::thread([this] { http_->run(); });
  }

  void TearDown() override {
    http_->stop();
    thread_.join();
  }

  // Sends `raw` verbatim and reads to EOF with a receive deadline, so a
  // half-handled connection fails the test instead of hanging it.
  std::string roundtrip(const std::string& raw) {
    Client client(http_->port());
    EXPECT_TRUE(client.connected());
    client.set_recv_timeout(5);
    client.send(raw);
    return client.recv_exact(1 << 20);  // reads until EOF
  }

  std::atomic<int> health_code_{200};
  std::unique_ptr<MetricsHttpServer> http_;
  std::thread thread_;
};

TEST_F(HttpFixture, UnknownPathGets404WithContentLength) {
  const std::string reply = roundtrip("GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.0 404 Not Found"), std::string::npos);
  // The 404 must carry a Content-Length matching its body so HTTP/1.0
  // clients that trust the header (instead of reading to EOF) see the
  // whole error page.
  const std::size_t cl = reply.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  const std::size_t declared = static_cast<std::size_t>(
      std::atoll(reply.c_str() + cl + std::strlen("Content-Length: ")));
  const std::size_t body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(reply.size() - (body_at + 4), declared);
  EXPECT_GT(declared, 0u);
}

TEST_F(HttpFixture, SimpleHttp09RequestIsAnsweredNotHalfHandled) {
  // An HTTP/0.9 simple request is just the request line — no headers, no
  // blank line ever arrives. Waiting for \r\n\r\n would wedge the
  // connection forever; the server must answer from the line alone.
  const std::string reply = roundtrip("GET /metrics\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("metric 1"), std::string::npos);
}

TEST_F(HttpFixture, HealthRouteReflectsCallbackCode) {
  std::string reply = roundtrip("GET /health HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("application/json"), std::string::npos);
  EXPECT_NE(reply.find("{\"status\":\"x\"}"), std::string::npos);

  health_code_.store(503);
  reply = roundtrip("GET /health HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("HTTP/1.0 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(reply.find("{\"status\":\"x\"}"), std::string::npos);
}

TEST_F(HttpFixture, MetricsNameFilterWithoutPrefixFnFallsBack) {
  // The fixture registers no PrefixFn, so `?name=` degrades to the full
  // render instead of 404ing a filtered scrape.
  const std::string reply = roundtrip("GET /metrics?name=met HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("metric 1"), std::string::npos);
}

TEST_F(HttpFixture, TimeseriesWithoutCallbackIs404) {
  const std::string reply =
      roundtrip("GET /timeseries?metric=x HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("404 Not Found"), std::string::npos);
  EXPECT_NE(reply.find("timeseries not enabled"), std::string::npos);
}

// Filtered /metrics and /timeseries wired the way proteus-cached wires
// them: prefix filter backed by the registry snapshot, timeseries backed
// by a store.
class HttpRoutesFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = std::make_unique<obs::TimeSeriesStore>();
    store_->append(kSecond, "reqs_rate", 10.0);
    store_->append(2 * kSecond, "reqs_rate", 12.0);
    http_ = std::make_unique<MetricsHttpServer>(
        0, [] { return std::string("alpha_total 1\nbeta_total 2\n"); });
    http_->set_metrics_prefix([](std::string_view prefix) {
      const std::string all = "alpha_total 1\nbeta_total 2\n";
      std::string out;
      std::size_t pos = 0;
      while (pos < all.size()) {
        const std::size_t eol = all.find('\n', pos);
        const std::string_view line =
            std::string_view(all).substr(pos, eol - pos + 1);
        if (line.substr(0, prefix.size()) == prefix) out += line;
        pos = eol + 1;
      }
      return out;
    });
    http_->set_timeseries(
        [this](std::string_view metric, SimTime since, SimTime step) {
          if (metric.empty()) return store_->index_json();
          return store_->query_json(metric, since, step);
        });
    ASSERT_TRUE(http_->ok());
    thread_ = std::thread([this] { http_->run(); });
  }

  void TearDown() override {
    http_->stop();
    thread_.join();
  }

  std::string roundtrip(const std::string& raw) {
    Client client(http_->port());
    EXPECT_TRUE(client.connected());
    client.set_recv_timeout(5);
    client.send(raw);
    return client.recv_exact(1 << 20);
  }

  std::unique_ptr<obs::TimeSeriesStore> store_;
  std::unique_ptr<MetricsHttpServer> http_;
  std::thread thread_;
};

TEST_F(HttpRoutesFixture, MetricsNameFilterRestrictsFamilies) {
  const std::string reply =
      roundtrip("GET /metrics?name=alpha HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("alpha_total 1"), std::string::npos);
  EXPECT_EQ(reply.find("beta_total"), std::string::npos);
}

TEST_F(HttpRoutesFixture, MetricsNameFilterZeroMatchesIsEmpty200) {
  // Zero matches mirrors a filtered Prometheus scrape: success, no
  // families — NOT a 404 (the route exists, the set is just empty).
  const std::string reply =
      roundtrip("GET /metrics?name=nosuch HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  const std::size_t body_at = reply.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(reply.substr(body_at + 4), "");
  EXPECT_NE(reply.find("Content-Length: 0"), std::string::npos);
}

TEST_F(HttpRoutesFixture, TimeseriesKnownUnknownAndIndex) {
  std::string reply =
      roundtrip("GET /timeseries?metric=reqs_rate HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("application/json"), std::string::npos);
  EXPECT_NE(reply.find("\"metric\":\"reqs_rate\""), std::string::npos);

  reply = roundtrip("GET /timeseries?metric=nosuch HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("404 Not Found"), std::string::npos);
  EXPECT_NE(reply.find("unknown metric"), std::string::npos);

  reply = roundtrip("GET /timeseries HTTP/1.0\r\n\r\n");
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("\"metrics\":[\"reqs_rate\"]"), std::string::npos);
}

TEST(MetricsHttpSlowLoris, DrippedRequestGets408PastReadDeadline) {
  // A peer that drips one byte at a time defeats the idle reaper (every
  // drip refreshes activity); the read deadline bounds it wall-clock.
  MetricsHttpServer::Options options;
  options.read_deadline = 100 * kMillisecond;
  MetricsHttpServer http(
      0, [] { return std::string("m 1\n"); }, nullptr, nullptr, nullptr,
      options);
  ASSERT_TRUE(http.ok());
  std::thread t([&http] { http.run(); });
  Client client(http.port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  client.send("GET /metr");  // incomplete forever
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  client.send("i");  // the drip that trips the deadline check
  const std::string reply = client.recv_exact(1 << 20);
  EXPECT_NE(reply.find("408 Request Timeout"), std::string::npos);
  EXPECT_NE(reply.find("read deadline"), std::string::npos);
  http.stop();
  t.join();
}

TEST(MetricsHttpSlowLoris, CompleteRequestWithinDeadlineStillServed) {
  MetricsHttpServer::Options options;
  options.read_deadline = 5 * kSecond;
  MetricsHttpServer http(
      0, [] { return std::string("m 1\n"); }, nullptr, nullptr, nullptr,
      options);
  ASSERT_TRUE(http.ok());
  std::thread t([&http] { http.run(); });
  Client client(http.port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  client.send("GET /metrics HT");  // split across two writes, both prompt
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send("TP/1.0\r\n\r\n");
  const std::string reply = client.recv_exact(1 << 20);
  EXPECT_NE(reply.find("200 OK"), std::string::npos);
  EXPECT_NE(reply.find("m 1"), std::string::npos);
  http.stop();
  t.join();
}

TEST(MetricsHttpNoHealth, HealthWithoutCallbackIs404) {
  MetricsHttpServer http(0, [] { return std::string("m 1\n"); });
  ASSERT_TRUE(http.ok());
  std::thread t([&http] { http.run(); });
  Client client(http.port());
  ASSERT_TRUE(client.connected());
  client.set_recv_timeout(5);
  client.send("GET /health HTTP/1.0\r\n\r\n");
  const std::string reply = client.recv_exact(1 << 20);
  EXPECT_NE(reply.find("404"), std::string::npos);
  http.stop();
  t.join();
}

}  // namespace
}  // namespace proteus::net
