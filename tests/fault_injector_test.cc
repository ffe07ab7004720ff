// Scripted wire faults: the FaultInjector proxy sits between TcpServer and
// the protocol sessions, and every client failure path — timeout, reset,
// garbage bytes, truncated reply — is driven deterministically. Also covers
// the daemon-side hardening: protocol sessions that survive garbage input,
// SIGPIPE-free writes to disconnected peers, and TcpServer's limits
// (connection cap, idle reaping, slow-reader outbox bound).
#include "net/fault_injector.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "net/memcache_daemon.h"

namespace proteus::net {
namespace {

std::int64_t elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Raw blocking socket, for driving the daemon below the client library.
class RawClient {
 public:
  explicit RawClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawClient() { close(); }

  bool connected() const { return connected_; }
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void send(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }

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

  // Reads until EOF or `max` bytes.
  std::string recv_all(std::size_t max = 1 << 20) {
    std::string out;
    char buf[4096];
    while (out.size() < max) {
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

class FaultyDaemon : public ::testing::Test {
 protected:
  void SetUp() override {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 64 << 20;
    daemon_ = std::make_unique<MemcacheDaemon>(cfg, 0);
    ASSERT_TRUE(daemon_->ok());
    daemon_->set_handler_wrapper(
        [this](std::unique_ptr<ConnectionHandler> inner) {
          return injector_.wrap(std::move(inner));
        });
    thread_ = std::thread([this] { daemon_->run(); });
  }

  void TearDown() override {
    daemon_->stop();
    thread_.join();
  }

  client::MemcacheConnection connect(SimTime op_timeout = 200 * kMillisecond) {
    client::MemcacheConnection::Options opt;
    opt.connect_timeout = kSecond;
    opt.op_timeout = op_timeout;
    return client::MemcacheConnection(daemon_->port(), std::move(opt));
  }

  FaultInjector injector_;
  std::unique_ptr<MemcacheDaemon> daemon_;
  std::thread thread_;
};

TEST_F(FaultyDaemon, StallTimesOutWithinDeadlineAndKillsConnection) {
  auto conn = connect(/*op_timeout=*/150 * kMillisecond);
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.set("k", "v"));

  injector_.inject(FaultKind::kStall);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(conn.get("k").has_value());
  const auto ms = elapsed_ms(start);
  EXPECT_GE(ms, 100) << "timed out before the deadline";
  EXPECT_LT(ms, 2000) << "blocked far past the deadline";
  EXPECT_EQ(conn.last_error(), NetError::kTimeout);
  EXPECT_FALSE(conn.ok()) << "a timed-out connection must not be reused";
  EXPECT_EQ(injector_.faults_injected(), 1u);
}

TEST_F(FaultyDaemon, GarbageReplyIsProtocolErrorAndKillsConnection) {
  auto conn = connect();
  ASSERT_TRUE(conn.set("k", "v"));
  injector_.inject(FaultKind::kGarbageReply);
  EXPECT_FALSE(conn.get("k").has_value());
  EXPECT_EQ(conn.last_error(), NetError::kProtocol);
  EXPECT_FALSE(conn.ok()) << "a desynced stream must never be read again";
}

TEST_F(FaultyDaemon, GarbageReplyToSetKillsConnection) {
  auto conn = connect();
  injector_.inject(FaultKind::kGarbageReply);
  EXPECT_FALSE(conn.set("k", "v"));
  EXPECT_EQ(conn.last_error(), NetError::kProtocol);
  EXPECT_FALSE(conn.ok());
}

TEST_F(FaultyDaemon, TruncatedReplyIsTransportErrorAndKillsConnection) {
  auto conn = connect();
  ASSERT_TRUE(conn.set("k", std::string(4096, 'x')));
  injector_.inject(FaultKind::kTruncateReply);
  EXPECT_FALSE(conn.get("k").has_value());
  EXPECT_NE(conn.last_error(), NetError::kNone);
  EXPECT_FALSE(conn.ok());
}

TEST_F(FaultyDaemon, DroppedConnectionIsReset) {
  auto conn = connect();
  ASSERT_TRUE(conn.ok());
  injector_.inject(FaultKind::kDropConnection);
  EXPECT_FALSE(conn.get("k").has_value());
  EXPECT_EQ(conn.last_error(), NetError::kReset);
  EXPECT_FALSE(conn.ok());
}

TEST_F(FaultyDaemon, CleanMissIsNotAnError) {
  auto conn = connect();
  EXPECT_FALSE(conn.get("absent").has_value());
  EXPECT_EQ(conn.last_error(), NetError::kNone);
  EXPECT_TRUE(conn.ok());
}

TEST_F(FaultyDaemon, RecoversAfterFaultWindowViaFreshConnection) {
  auto conn = connect();
  ASSERT_TRUE(conn.set("k", "v"));
  injector_.inject(FaultKind::kDropConnection, 1);
  EXPECT_FALSE(conn.get("k").has_value());
  EXPECT_FALSE(conn.ok());
  // Fault budget exhausted: a fresh connection works again.
  auto conn2 = connect();
  const auto v = conn2.get("k");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "v");
}

// --- daemon-side hardening ---------------------------------------------------

TEST_F(FaultyDaemon, TextSessionSurvivesGarbageRequestBytes) {
  RawClient garbage(daemon_->port());
  ASSERT_TRUE(garbage.connected());
  garbage.send("\x01\xff\x02 utter nonsense\r\n");
  EXPECT_EQ(garbage.recv_until("\r\n"), "ERROR\r\n");
  garbage.close();

  RawClient fresh(daemon_->port());
  ASSERT_TRUE(fresh.connected());
  fresh.send("version\r\n");
  EXPECT_EQ(fresh.recv_until("\r\n"), "VERSION proteus-1.0\r\n");
}

TEST_F(FaultyDaemon, DaemonSurvivesClientDisconnectMidReply) {
  // Store a value far larger than the socket buffers, request it several
  // times pipelined, and disconnect without reading: the daemon's writes
  // hit a dead peer. Without MSG_NOSIGNAL this raises SIGPIPE and kills
  // the process — the daemon still answering afterwards IS the assertion.
  auto conn = connect(/*op_timeout=*/5 * kSecond);
  ASSERT_TRUE(conn.set("big", std::string(4u << 20, 'x')));

  RawClient rude(daemon_->port());
  ASSERT_TRUE(rude.connected());
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += "get big\r\n";
  rude.send(burst);
  rude.close();  // unread replies -> RST against the daemon's sends

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  RawClient fresh(daemon_->port());
  ASSERT_TRUE(fresh.connected());
  fresh.send("version\r\n");
  EXPECT_EQ(fresh.recv_until("\r\n"), "VERSION proteus-1.0\r\n");
}

TEST_F(FaultyDaemon, SlowLorisTricklesButDaemonStaysLive) {
  injector_.inject(FaultKind::kSlowLoris, 1);

  RawClient loris(daemon_->port());
  ASSERT_TRUE(loris.connected());
  // The whole command arrives as one chunk, but only one byte of it
  // reaches the protocol session per network event — the connection and
  // its partial parse state stay pinned.
  loris.send("version\r\n");
  const auto sent = std::chrono::steady_clock::now();
  while (injector_.faults_injected() < 1 && elapsed_ms(sent) < 1000) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(injector_.faults_injected(), 1u);

  // Everyone else is unaffected: the mode is sticky per connection and
  // the daemon keeps serving.
  auto conn = connect();
  ASSERT_TRUE(conn.set("k", "v"));
  EXPECT_EQ(conn.get("k").value_or(""), "v");

  // Each further event drains exactly one buffered byte, so the victim's
  // command still completes — crawling, never deadlocked. 40 nudges is
  // ample margin over the 9 events the command needs even if the kernel
  // coalesces some.
  for (int i = 0; i < 40; ++i) {
    loris.send("version\r\n");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // (more than one nudged command may have completed — assert the first)
  const std::string reply = loris.recv_until("\r\n");
  EXPECT_EQ(reply.rfind("VERSION proteus-1.0\r\n", 0), 0u) << reply;
}

TEST_F(FaultyDaemon, LatencyRampGrowsReplyDelayThenRecovers) {
  auto conn = connect(/*op_timeout=*/kSecond);
  ASSERT_TRUE(conn.set("k", "v"));

  injector_.inject_latency_ramp(30 * kMillisecond, 3);
  for (int n = 1; n <= 3; ++n) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(conn.get("k").value_or(""), "v");
    EXPECT_GE(elapsed_ms(start), 30 * n - 5)
        << "faulted chunk " << n << " must sleep n * ramp_step";
  }
  // Budget exhausted: latency snaps back.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(conn.get("k").value_or(""), "v");
  EXPECT_LT(elapsed_ms(start), 80);
  EXPECT_EQ(injector_.faults_injected(), 3u);
}

TEST_F(FaultyDaemon, BitFlipCorruptsOnePayloadBitKeepingFramingIntact) {
  auto conn = connect();
  const std::string value = "payload-under-test-0123456789";
  ASSERT_TRUE(conn.set("k", value));

  // One bit rots on the wire AFTER the protocol layer framed the reply:
  // the header, byte count, and terminator all stay valid, so nothing but
  // an end-to-end checksum can tell this reply from a clean one.
  injector_.inject(FaultKind::kBitFlip, 1);
  RawClient raw(daemon_->port());
  ASSERT_TRUE(raw.connected());
  raw.send("get k\r\n");
  const std::string reply = raw.recv_until("END\r\n");
  const std::string header = "VALUE k 0 " + std::to_string(value.size()) +
                             "\r\n";
  ASSERT_EQ(reply.rfind(header, 0), 0u) << reply;
  ASSERT_EQ(reply.substr(header.size() + value.size()), "\r\nEND\r\n");
  const std::string body = reply.substr(header.size(), value.size());
  int differing_bits = 0;
  for (std::size_t i = 0; i < value.size(); ++i) {
    differing_bits += __builtin_popcount(
        static_cast<unsigned char>(body[i] ^ value[i]));
  }
  EXPECT_EQ(differing_bits, 1) << "exactly one payload bit must flip";
  EXPECT_NE(crc32c(body), crc32c(value))
      << "the end-to-end stamp must catch the flip";
  EXPECT_EQ(injector_.faults_injected(), 1u);

  // The stored copy was never touched: the next read is clean.
  EXPECT_EQ(conn.get("k").value_or(""), value);

  // Replies without a flippable payload pass through unchanged.
  injector_.inject(FaultKind::kBitFlip, 1);
  RawClient raw2(daemon_->port());
  ASSERT_TRUE(raw2.connected());
  raw2.send("get missing\r\n");
  EXPECT_EQ(raw2.recv_until("END\r\n"), "END\r\n");
}

// --- TcpServer limits --------------------------------------------------------

// Replies with a fixed blob per received chunk; lets tests inflate the
// outbox without a protocol in the way.
class BlobHandler final : public ConnectionHandler {
 public:
  explicit BlobHandler(std::size_t blob_size) : blob_(blob_size, 'b') {}
  std::string on_data(std::string_view, bool&) override { return blob_; }

 private:
  std::string blob_;
};

TEST(TcpServerLimits, ConnectionCapShedsExcessClients) {
  TcpServer::Limits limits;
  limits.max_connections = 2;
  TcpServer server(
      0, [] { return std::make_unique<BlobHandler>(4); }, false, limits);
  ASSERT_TRUE(server.ok());
  std::thread t([&] { server.run(); });

  RawClient a(server.port()), b(server.port());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b.connected());
  a.send("x");
  EXPECT_EQ(a.recv_until("bbbb"), "bbbb");
  b.send("x");
  EXPECT_EQ(b.recv_until("bbbb"), "bbbb");

  RawClient c(server.port());
  ASSERT_TRUE(c.connected());  // accepted by the kernel...
  c.send("x");
  // Shed, but told why first: the server best-effort-writes the overload
  // line before closing so the client can tell shed from crash.
  EXPECT_EQ(c.recv_all(), "SERVER_ERROR overloaded\r\n")
      << "over-cap connection must be shed with the overload line";

  server.stop();
  t.join();
  EXPECT_EQ(server.connections_rejected(), 1u);
  EXPECT_EQ(server.connections_accepted(), 2u);
}

TEST(TcpServerLimits, IdleConnectionsAreReaped) {
  TcpServer::Limits limits;
  limits.idle_timeout = 100 * kMillisecond;
  TcpServer server(
      0, [] { return std::make_unique<BlobHandler>(4); }, false, limits);
  ASSERT_TRUE(server.ok());
  std::thread t([&] { server.run(); });

  RawClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(idle.recv_all(), "") << "idle connection should be closed";
  EXPECT_LT(elapsed_ms(start), 5000);

  server.stop();
  t.join();
  EXPECT_EQ(server.idle_reaped(), 1u);
}

TEST(TcpServerLimits, SlowReaderOutboxIsBounded) {
  TcpServer::Limits limits;
  limits.max_outbox_bytes = 64 * 1024;
  // One request inflates the outbox past the bound in a single step.
  TcpServer server(
      0, [] { return std::make_unique<BlobHandler>(128 * 1024); }, false,
      limits);
  ASSERT_TRUE(server.ok());
  std::thread t([&] { server.run(); });

  RawClient slow(server.port());
  ASSERT_TRUE(slow.connected());
  slow.send("x");
  // The connection is dropped rather than buffering without bound; we see
  // EOF after at most the partial write.
  const std::string got = slow.recv_all();
  EXPECT_LT(got.size(), 256u * 1024);

  server.stop();
  t.join();
  EXPECT_EQ(server.slow_reader_drops(), 1u);
}

// Counts this process's open file descriptors via /proc/self/fd.
std::size_t open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n >= 3 ? n - 3 : 0;  // ".", "..", and the opendir fd itself
}

TEST(TcpServerLimits, FdExhaustionShedsWithOverloadLineAndRecovers) {
  TcpServer server(
      0, [] { return std::make_unique<BlobHandler>(4); }, false,
      TcpServer::Limits{});
  ASSERT_TRUE(server.ok());
  std::thread t([&] { server.run(); });

  // Pre-open the client sockets so the CLIENT side needs no fds later,
  // then clamp RLIMIT_NOFILE to exactly what is open right now: the next
  // accept() inside the server hits EMFILE. The reserved emergency fd is
  // the only headroom left, which is precisely the scenario it exists for.
  int pre = ::socket(AF_INET, SOCK_STREAM, 0);
  int post = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(pre, 0);
  ASSERT_GE(post, 0);
  rlimit old{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
  rlimit clamped = old;
  clamped.rlim_cur = static_cast<rlim_t>(open_fd_count());
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &clamped), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(
      ::connect(pre, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Accept-and-close via the released emergency fd: the client learns WHY
  // it was shed (overload line, then EOF) instead of hanging in the
  // backlog until its connect timeout.
  std::string got;
  char buf[64];
  for (;;) {
    const ssize_t n = ::read(pre, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got, "SERVER_ERROR overloaded\r\n");
  EXPECT_GE(server.fd_exhausted_rejects(), 1u);
  ::close(pre);

  // Budget restored: the very same listener serves new connections (the
  // emergency fd was re-armed, the accept backoff expires).
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old), 0);
  ASSERT_EQ(
      ::connect(post, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::send(post, "x", 1, MSG_NOSIGNAL), 1);
  got.clear();
  const auto start = std::chrono::steady_clock::now();
  while (got != "bbbb" && elapsed_ms(start) < 3000) {
    const ssize_t n = ::read(post, buf, sizeof(buf));
    if (n <= 0) break;
    got.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(got, "bbbb") << "the listener must recover after exhaustion";
  ::close(post);

  server.stop();
  t.join();
}

}  // namespace
}  // namespace proteus::net
