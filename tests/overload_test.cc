// Overload protection end to end: the core primitives (admission budget,
// AIMD limiter, singleflight, migration throttle), per-batch pipeline
// shedding with well-formed replies in BOTH wire protocols, daemon-side
// two-priority admission over real sockets, and the client's degraded
// response + dogpile collapse — including their span cause tags.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/text_protocol.h"
#include "client/memcache_client.h"
#include "core/overload.h"
#include "core/proteus.h"
#include "net/memcache_daemon.h"
#include "obs/span.h"

namespace proteus {
namespace {

// --- AdmissionController -----------------------------------------------------

TEST(AdmissionController, BudgetAndTwoPrioritySheds) {
  core::AdmissionController::Options opt;
  opt.max_inflight = 4;
  opt.background_fill = 0.5;  // background only while inflight <= 2
  core::AdmissionController ac(opt);

  EXPECT_EQ(ac.try_admit(/*background=*/false), core::Admission::kAdmit);
  EXPECT_EQ(ac.try_admit(/*background=*/true), core::Admission::kAdmit);
  EXPECT_EQ(ac.inflight(), 2u);
  // Past the background fill mark: maintenance traffic is shed first...
  EXPECT_EQ(ac.try_admit(/*background=*/true),
            core::Admission::kShedBackground);
  // ...while foreground still fits in the budget.
  EXPECT_EQ(ac.try_admit(/*background=*/false), core::Admission::kAdmit);
  EXPECT_EQ(ac.try_admit(/*background=*/false), core::Admission::kAdmit);
  EXPECT_EQ(ac.try_admit(/*background=*/false), core::Admission::kShedOverCap);
  EXPECT_EQ(ac.inflight(), 4u) << "shed verdicts must not leak slots";

  ac.release();
  EXPECT_EQ(ac.try_admit(/*background=*/false), core::Admission::kAdmit);
}

TEST(AdmissionController, DisabledAdmitsEverything) {
  core::AdmissionController ac;  // max_inflight = 0
  EXPECT_FALSE(ac.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ac.try_admit(i % 2 == 0), core::Admission::kAdmit);
  }
}

// --- AdaptiveLimiter ---------------------------------------------------------

TEST(AdaptiveLimiter, AimdShrinksOnSlowGrowsOnFast) {
  core::AdaptiveLimiter::Options opt;
  opt.initial_limit = 10.0;
  opt.latency_target = 20 * kMillisecond;
  opt.decrease_factor = 0.7;
  core::AdaptiveLimiter limiter(opt);

  ASSERT_TRUE(limiter.try_begin());
  limiter.end(/*observed_latency=*/100 * kMillisecond);  // slow sample
  EXPECT_NEAR(limiter.limit(), 7.0, 1e-9);
  EXPECT_TRUE(limiter.overloaded());

  ASSERT_TRUE(limiter.try_begin());
  limiter.end(/*observed_latency=*/kMillisecond);  // fast sample
  EXPECT_GT(limiter.limit(), 7.0);
  EXPECT_FALSE(limiter.overloaded());
}

TEST(AdaptiveLimiter, ShedsOverTheLimitAndLatchesOverload) {
  core::AdaptiveLimiter::Options opt;
  opt.initial_limit = 1.0;
  opt.min_limit = 1.0;
  core::AdaptiveLimiter limiter(opt);

  ASSERT_TRUE(limiter.try_begin());
  EXPECT_FALSE(limiter.try_begin()) << "limit 1: second fetch must shed";
  EXPECT_EQ(limiter.sheds(), 1u);
  EXPECT_TRUE(limiter.overloaded());
  limiter.cancel();
  EXPECT_EQ(limiter.inflight(), 0);
}

// The ISSUE's TSan target: concurrent resize (configure) racing
// try_begin/end/overloaded from worker threads must be clean.
TEST(AdaptiveLimiter, ConcurrentReconfigureIsThreadSafe) {
  core::AdaptiveLimiter limiter;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&limiter, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (limiter.try_begin()) {
          limiter.end((limiter.inflight() % 2 == 0) ? kMillisecond
                                                    : 50 * kMillisecond);
        }
        (void)limiter.overloaded();
        (void)limiter.limit();
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    core::AdaptiveLimiter::Options opt;
    opt.initial_limit = 4.0 + static_cast<double>(i % 8);
    opt.max_limit = 64.0;
    limiter.configure(opt);
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_GE(limiter.limit(), 1.0);
  EXPECT_LE(limiter.limit(), 64.0);
}

// --- SingleflightGroup -------------------------------------------------------

TEST(Singleflight, NConcurrentFetchesCollapseToOne) {
  core::SingleflightGroup group;
  std::mutex mu;
  std::condition_variable cv;
  bool leader_entered = false;
  bool release_leader = false;
  std::atomic<int> fetches{0};

  const auto fetch = [&]() -> std::optional<std::string> {
    ++fetches;
    std::unique_lock<std::mutex> lock(mu);
    leader_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_leader; });
    return "the-value";
  };

  constexpr int kCallers = 8;
  std::atomic<int> leaders{0};
  std::atomic<int> got_value{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      const core::SingleflightGroup::Result r = group.run("hot-key", fetch);
      if (r.leader) ++leaders;
      if (r.value == "the-value") ++got_value;
    });
  }
  {
    // Wait for the leader to be inside the fetch, give followers time to
    // pile up behind it, then release.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_entered; });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    const std::lock_guard<std::mutex> lock(mu);
    release_leader = true;
  }
  cv.notify_all();
  for (auto& c : callers) c.join();

  EXPECT_EQ(fetches.load(), 1) << "N concurrent misses must cost ONE fetch";
  EXPECT_EQ(leaders.load(), 1);
  EXPECT_EQ(got_value.load(), kCallers);
  EXPECT_EQ(group.collapsed(), static_cast<std::uint64_t>(kCallers - 1));
}

TEST(Singleflight, ShedLeaderPropagatesNulloptToFollowers) {
  core::SingleflightGroup group;
  // Sequential sanity: a nullopt leader result reaches the caller, and the
  // entry retires so the next run starts fresh.
  auto r = group.run("k", [] { return std::optional<std::string>{}; });
  EXPECT_TRUE(r.leader);
  EXPECT_FALSE(r.value.has_value());
  r = group.run("k", [] { return std::optional<std::string>("v"); });
  EXPECT_TRUE(r.leader);
  EXPECT_EQ(r.value, "v");
}

TEST(Singleflight, DistinctKeysDoNotSerialize) {
  core::SingleflightGroup group;
  // Two keys fetched from two threads, each fetch blocking until the OTHER
  // fetch has started: deadlocks unless fn runs without the group lock.
  std::atomic<int> started{0};
  const auto make_fetch = [&]() {
    return [&]() -> std::optional<std::string> {
      ++started;
      while (started.load() < 2) std::this_thread::yield();
      return "v";
    };
  };
  std::thread a([&] { group.run("a", make_fetch()); });
  std::thread b([&] { group.run("b", make_fetch()); });
  a.join();
  b.join();
  EXPECT_EQ(group.collapsed(), 0u);
}

// --- MigrationThrottle -------------------------------------------------------

TEST(MigrationThrottle, FreeWhenCalmBucketedWhenOverloaded) {
  core::MigrationThrottle::Options opt;
  opt.rate_per_sec = 10.0;
  opt.burst = 2.0;
  core::MigrationThrottle throttle(opt);

  // Calm: everything migrates (the paper's unconditional line 12).
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(throttle.allow(i * kMillisecond));
  EXPECT_EQ(throttle.deferred(), 0u);

  throttle.set_overloaded(true);
  const SimTime t0 = kSecond;
  EXPECT_TRUE(throttle.allow(t0));   // burst token 1
  EXPECT_TRUE(throttle.allow(t0));   // burst token 2
  EXPECT_FALSE(throttle.allow(t0));  // bucket empty
  EXPECT_EQ(throttle.deferred(), 1u);
  // 10/s refills one token every 100 ms.
  EXPECT_TRUE(throttle.allow(t0 + 150 * kMillisecond));
  EXPECT_FALSE(throttle.allow(t0 + 150 * kMillisecond));

  throttle.set_overloaded(false);
  EXPECT_TRUE(throttle.allow(t0 + 151 * kMillisecond));
}

TEST(MigrationThrottle, RateZeroDefersEverythingWhileOverloaded) {
  core::MigrationThrottle::Options opt;
  opt.rate_per_sec = 0.0;
  core::MigrationThrottle throttle(opt);
  throttle.set_overloaded(true);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(throttle.allow(i));
  EXPECT_EQ(throttle.deferred(), 10u);
}

// --- protocol-level pipeline shedding ----------------------------------------

cache::CacheConfig proto_config() {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 4 << 20;
  cfg.digest.num_counters = 1 << 14;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

TEST(TextPipelineCap, ShedsExcessCommandsWithWellFormedReplies) {
  cache::ShardedCacheServer server(proto_config(), 1);
  std::atomic<std::uint64_t> sheds{0};
  cache::TextProtocolSession session(server, nullptr, nullptr, -1,
                                     cache::PipelinePolicy{1, &sheds});

  EXPECT_EQ(session.feed("set a 0 0 1\r\nx\r\n", 0), "STORED\r\n");
  // Batch of two gets, cap 1: the second is shed with a well-formed error
  // line, not silence and not a closed connection.
  EXPECT_EQ(session.feed("get a\r\nget a\r\n", 0),
            "VALUE a 0 1\r\nx\r\nEND\r\nSERVER_ERROR overloaded\r\n");
  EXPECT_EQ(sheds.load(), 1u);
  // The cap is per batch: the next feed() serves normally again.
  EXPECT_EQ(session.feed("get a\r\n", 0), "VALUE a 0 1\r\nx\r\nEND\r\n");
}

TEST(TextPipelineCap, ShedStorageCommandStillConsumesItsDataBlock) {
  cache::ShardedCacheServer server(proto_config(), 1);
  std::atomic<std::uint64_t> sheds{0};
  cache::TextProtocolSession session(server, nullptr, nullptr, -1,
                                     cache::PipelinePolicy{1, &sheds});

  // get serves (1/1), the set is shed — but its 5-byte payload MUST still
  // be consumed or the stream desyncs and "hello" parses as a command.
  EXPECT_EQ(
      session.feed("get a\r\nset b 0 0 5\r\nhello\r\nget a\r\n", 0),
      "END\r\nSERVER_ERROR overloaded\r\nSERVER_ERROR overloaded\r\n");
  EXPECT_EQ(sheds.load(), 2u);
  // b was not stored, and the session is still in protocol sync.
  EXPECT_EQ(session.feed("get b\r\n", 0), "END\r\n");
}

TEST(TextPipelineCap, QuitIsExemptFromTheCap) {
  cache::ShardedCacheServer server(proto_config(), 1);
  std::atomic<std::uint64_t> sheds{0};
  cache::TextProtocolSession session(server, nullptr, nullptr, -1,
                                     cache::PipelinePolicy{1, &sheds});
  // Even with the batch budget spent, quit must still work: shedding the
  // goodbye would pin the connection.
  EXPECT_EQ(session.feed("get a\r\nget a\r\nquit\r\n", 0),
            "END\r\nSERVER_ERROR overloaded\r\n");
  EXPECT_TRUE(session.closed());
}

TEST(TextProtocol, BackgroundTokenParsesAndStrips) {
  const cache::TextCommand cmd = cache::parse_command_line("get foo bg");
  EXPECT_EQ(cmd.op, cache::TextCommand::Op::kGet);
  ASSERT_EQ(cmd.keys.size(), 1u);
  EXPECT_EQ(cmd.keys[0], "foo");
  EXPECT_TRUE(cmd.background);
  // A bare get of a key literally named "bg" still addresses that key.
  const cache::TextCommand literal = cache::parse_command_line("get bg");
  EXPECT_FALSE(literal.background);
  ASSERT_EQ(literal.keys.size(), 1u);
  EXPECT_EQ(literal.keys[0], "bg");
}

// --- daemon admission over real sockets --------------------------------------

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
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send(std::string_view bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  // Reads until one CRLF-terminated text line arrives (or EOF).
  std::string recv_line() {
    std::string line;
    char c = 0;
    while (line.size() < 2 || line.compare(line.size() - 2, 2, "\r\n") != 0) {
      if (::read(fd_, &c, 1) <= 0) break;
      line += c;
    }
    return line;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class OverloadedDaemon : public ::testing::Test {
 protected:
  void SetUp() override {
    net::AdmissionOptions admission;
    admission.max_inflight = 1;
    admission.background_fill = 0.0;  // shed ALL background traffic
    daemon_ = std::make_unique<net::MemcacheDaemon>(
        proto_config(), /*port=*/0, net::monotonic_now, /*threads=*/1,
        net::TcpServer::Limits{}, admission);
    ASSERT_TRUE(daemon_->ok());
    thread_ = std::thread([this] { daemon_->run(); });
  }
  void TearDown() override {
    daemon_->stop();
    thread_.join();
  }

  std::unique_ptr<net::MemcacheDaemon> daemon_;
  std::thread thread_;
};

TEST_F(OverloadedDaemon, TextBackgroundGetShedsForegroundServes) {
  client::MemcacheConnection conn(daemon_->port());
  ASSERT_TRUE(conn.ok());

  // Background traffic is shed (fill fraction 0) with a well-formed reply:
  // the client sees kOverloaded and the connection STAYS USABLE.
  EXPECT_FALSE(conn.get("k", 0, /*background=*/true).has_value());
  EXPECT_EQ(conn.last_error(), net::NetError::kOverloaded);
  ASSERT_TRUE(conn.ok());

  // Foreground work on the very same connection proceeds.
  EXPECT_TRUE(conn.set("k", "v"));
  const auto value = conn.get("k");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, "v");

  EXPECT_GE(daemon_->shed_background(), 1u);
  EXPECT_NE(daemon_->metrics_text().find("proteus_daemon_shed_background_total"),
            std::string::npos);
}

// Admission reads `bg` with the parser's own tail scan, so the marker counts
// wherever it sits among the meta tokens.
TEST_F(OverloadedDaemon, TextBackgroundTokenShedsInAnyTailPosition) {
  RawClient raw(daemon_->port());
  ASSERT_TRUE(raw.connected());
  const std::string trace = obs::encode_trace_token(0x0123456789abcdefULL);
  for (const std::string& line :
       {"get k " + trace + " bg", "get k bg " + trace}) {
    raw.send(line + "\r\n");
    EXPECT_EQ(raw.recv_line(), "SERVER_ERROR overloaded\r\n") << line;
  }
  EXPECT_GE(daemon_->shed_background(), 2u);
}

// `gets` is `get` to the parser, so a `gets` digest pull is background too.
TEST_F(OverloadedDaemon, TextGetsDigestPullSheds) {
  RawClient raw(daemon_->port());
  ASSERT_TRUE(raw.connected());
  raw.send("gets BLOOM_FILTER\r\n");
  EXPECT_EQ(raw.recv_line(), "SERVER_ERROR overloaded\r\n");
  EXPECT_GE(daemon_->shed_background(), 1u);
}

// A shed batch of noreply stores (the client's fire-and-forget migration
// stores are `bg`) is as silent as the stores: the connection's next get
// reads exactly its own reply.
TEST_F(OverloadedDaemon, ShedNoreplyStoreIsSilent) {
  client::MemcacheConnection conn(daemon_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.set("k", "v", 0, 0, /*background=*/true, 0,
                       /*with_checksum=*/true, /*noreply=*/true));
  // The get must arrive in a batch of its own, after the store's was shed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (daemon_->shed_background() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(daemon_->shed_background(), 1u);
  EXPECT_FALSE(conn.get("k").has_value());
  EXPECT_EQ(conn.last_error(), net::NetError::kNone) << "a clean miss";
  EXPECT_TRUE(conn.ok());
}

// A client corks its noreply stores into its next request, so admission
// classifies a batch by its first command that expects a reply: a `bg`
// migration store at the head of a user get does not shed the get.
TEST_F(OverloadedDaemon, CorkedBackgroundStoreDoesNotShedTheGetBehindIt) {
  RawClient raw(daemon_->port());
  ASSERT_TRUE(raw.connected());
  raw.send("set k 0 0 1 noreply bg\r\nv\r\nget k\r\n");
  ASSERT_EQ(raw.recv_line(), "VALUE k 0 1\r\n");
  EXPECT_EQ(raw.recv_line(), "v\r\n");
  EXPECT_EQ(raw.recv_line(), "END\r\n");
  EXPECT_EQ(daemon_->shed_background(), 0u);
}

// ... and a plain fill at the head of a digest pull or a `bg` get does not
// let the maintenance work in as foreground.
TEST_F(OverloadedDaemon, CorkedFillDoesNotAdmitTheBackgroundGetBehindIt) {
  RawClient raw(daemon_->port());
  ASSERT_TRUE(raw.connected());
  for (const char* request : {"get k bg", "gets BLOOM_FILTER"}) {
    raw.send(std::string("set k 0 0 1 noreply\r\nv\r\n") + request + "\r\n");
    ASSERT_EQ(raw.recv_line(), "SERVER_ERROR overloaded\r\n") << request;
  }
  EXPECT_EQ(daemon_->shed_background(), 2u);
}

// --- client: degraded responses and dogpile suppression ----------------------

class LiveDaemon : public ::testing::Test {
 protected:
  void SetUp() override {
    daemon_ = std::make_unique<net::MemcacheDaemon>(proto_config(), 0);
    ASSERT_TRUE(daemon_->ok());
    thread_ = std::thread([this] { daemon_->run(); });
  }
  void TearDown() override {
    daemon_->stop();
    thread_.join();
  }

  client::ProteusClient::Options base_options() {
    client::ProteusClient::Options opt;
    opt.endpoints = {daemon_->port()};
    opt.connect_timeout = 500 * kMillisecond;
    opt.op_timeout = 500 * kMillisecond;
    return opt;
  }

  std::unique_ptr<net::MemcacheDaemon> daemon_;
  std::thread thread_;
};

TEST_F(LiveDaemon, LimiterShedServesDegradedResponseWithShedSpan) {
  core::AdaptiveLimiter::Options lopt;
  lopt.initial_limit = 1.0;
  lopt.min_limit = 1.0;
  lopt.max_limit = 1.0;
  core::AdaptiveLimiter limiter(lopt);
  obs::SpanCollector spans(1024, /*sample_every=*/1);

  auto opt = base_options();
  opt.limiter = &limiter;
  opt.degraded_response = "degraded";
  opt.spans = &spans;
  std::uint64_t backend_calls = 0;
  client::ProteusClient web(opt, [&](std::string_view key) {
    ++backend_calls;
    return "db:" + std::string(key);
  });

  // Occupy the single limiter slot, as a concurrent fetch would.
  ASSERT_TRUE(limiter.try_begin());
  EXPECT_EQ(web.get("missing-key", 0), "degraded");
  EXPECT_EQ(backend_calls, 0u) << "a shed fetch must never reach the backend";
  EXPECT_EQ(web.stats().load_sheds, 1u);
  limiter.cancel();

  // With the slot free the same key is a normal backend fill.
  EXPECT_EQ(web.get("missing-key", kSecond), "db:missing-key");
  EXPECT_EQ(backend_calls, 1u);

  bool saw_shed_cause = false;
  for (const auto& span : spans.snapshot()) {
    if (span.cause == obs::SpanCause::kShed) saw_shed_cause = true;
  }
  EXPECT_TRUE(saw_shed_cause) << "the shed must be visible as a span cause";
}

TEST_F(LiveDaemon, SingleflightCollapsesAcrossClientsWithCoalescedSpan) {
  core::SingleflightGroup group;
  obs::SpanCollector spans(1024, /*sample_every=*/1);

  // Two per-thread clients sharing one group, as a web process would.
  auto opt = base_options();
  opt.singleflight = &group;
  opt.spans = &spans;

  std::mutex mu;
  std::condition_variable cv;
  bool leader_entered = false;
  bool release_leader = false;
  std::atomic<int> backend_calls{0};
  const auto slow_backend = [&](std::string_view key) {
    ++backend_calls;
    std::unique_lock<std::mutex> lock(mu);
    leader_entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release_leader; });
    return "db:" + std::string(key);
  };

  client::ProteusClient leader(opt, slow_backend);
  client::ProteusClient follower(opt, slow_backend);

  std::string leader_value, follower_value;
  std::thread leader_thread(
      [&] { leader_value = leader.get("dogpile-key", 0); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return leader_entered; });
  }
  std::thread follower_thread(
      [&] { follower_value = follower.get("dogpile-key", 0); });
  // Give the follower time to miss the cache and park in the group, then
  // let the leader's backend fetch complete.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    const std::lock_guard<std::mutex> lock(mu);
    release_leader = true;
  }
  cv.notify_all();
  leader_thread.join();
  follower_thread.join();

  EXPECT_EQ(backend_calls.load(), 1) << "N concurrent misses -> 1 fetch";
  EXPECT_EQ(leader_value, "db:dogpile-key");
  EXPECT_EQ(follower_value, "db:dogpile-key");
  EXPECT_EQ(follower.stats().coalesced_fetches, 1u);
  EXPECT_EQ(leader.stats().backend_fetches, 1u);

  bool saw_coalesced_cause = false;
  for (const auto& span : spans.snapshot()) {
    if (span.cause == obs::SpanCause::kCoalesced) saw_coalesced_cause = true;
  }
  EXPECT_TRUE(saw_coalesced_cause)
      << "the collapse must be visible as a span cause";
}

// --- facade: transition-aware migration throttling ---------------------------

ProteusOptions facade_options() {
  ProteusOptions opt;
  opt.max_servers = 10;
  opt.per_server.memory_budget_bytes = 4 << 20;
  opt.per_server.digest.num_counters = 1 << 14;
  opt.per_server.digest.counter_bits = 4;
  opt.per_server.digest.num_hashes = 4;
  opt.ttl = 10 * kSecond;
  return opt;
}

TEST(OverloadFacade, MigrationThrottleDefersWriteBacksUnderOverload) {
  core::MigrationThrottle::Options topt;
  topt.rate_per_sec = 0.0;  // defer every write-back while overloaded
  core::MigrationThrottle throttle(topt);
  throttle.set_overloaded(true);

  std::uint64_t backend_calls = 0;
  ProteusOptions opt = facade_options();
  opt.migration_throttle = &throttle;
  Proteus cluster(opt, [&](std::string_view key) {
    ++backend_calls;
    return "v:" + std::string(key);
  });

  for (int i = 0; i < 300; ++i) {
    cluster.get("page:" + std::to_string(i), kSecond);
  }
  ASSERT_EQ(backend_calls, 300u);
  cluster.resize(5, 2 * kSecond);

  // Old-location hits still serve correctly — no miss storm — but every
  // line-12 write-back is deferred, so a re-get hits the OLD location
  // again instead of the new primary.
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(cluster.get("page:" + std::to_string(i), 3 * kSecond),
              "v:page:" + std::to_string(i));
  }
  EXPECT_EQ(backend_calls, 300u) << "throttling must not cause a miss storm";
  ASSERT_GT(cluster.stats().old_server_hits, 0u);
  EXPECT_EQ(cluster.stats().migrations_deferred,
            cluster.stats().old_server_hits);
  const std::uint64_t first_pass_old_hits = cluster.stats().old_server_hits;

  for (int i = 0; i < 300; ++i) {
    cluster.get("page:" + std::to_string(i), 4 * kSecond);
  }
  EXPECT_EQ(cluster.stats().old_server_hits, 2 * first_pass_old_hits)
      << "deferred keys must keep serving from their old location";

  // Pressure clears: migration resumes and keys land on the new primary.
  throttle.set_overloaded(false);
  for (int i = 0; i < 300; ++i) {
    cluster.get("page:" + std::to_string(i), 5 * kSecond);
  }
  EXPECT_EQ(cluster.stats().migrations_deferred, 2 * first_pass_old_hits);
  EXPECT_EQ(backend_calls, 300u);
  const std::uint64_t hits_before = cluster.stats().new_server_hits;
  for (int i = 0; i < 300; ++i) {
    cluster.get("page:" + std::to_string(i), 6 * kSecond);
  }
  EXPECT_EQ(cluster.stats().new_server_hits, hits_before + 300)
      << "after the throttle lifts, keys migrate to the new primary";
}

}  // namespace
}  // namespace proteus
