// Differential test: one scripted sequence of gets, puts, resizes and
// crash/restarts, run through the in-process facade and through a live
// loopback fleet (ProteusClient over real daemons, no hedge), at r = 1
// and r = 2. Both run Algorithm 2 through core::Retrieval, so per request
// they must agree on the value, the server that served it, whether the
// backend was fetched, and the repair set. The span trees supply all four.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "core/proteus.h"
#include "net/memcache_daemon.h"
#include "obs/span.h"

namespace proteus {
namespace {

constexpr int kServers = 4;
constexpr SimTime kDrain = 10 * kSecond;

cache::CacheConfig cache_config() {
  cache::CacheConfig cfg;
  cfg.memory_budget_bytes = 8 << 20;
  // One digest shape on both sides, big enough that a few hundred keys see
  // no false positive on either.
  cfg.digest.num_counters = 1 << 16;
  cfg.digest.counter_bits = 4;
  cfg.digest.num_hashes = 4;
  return cfg;
}

// What one get did, read back from its span tree.
struct Outcome {
  std::string value;
  int source = -1;  // server whose hit served it; -1 = none
  bool backend = false;
  std::vector<int> repairs;  // stored locations, in order
  bool operator==(const Outcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  os << "{value=" << o.value << " source=" << o.source
     << " backend=" << o.backend << " repairs=[";
  for (int s : o.repairs) os << s << ' ';
  return os << "]}";
}

Outcome outcome_of(std::string value, obs::SpanCollector& spans) {
  Outcome o;
  o.value = std::move(value);
  for (const obs::SpanRecord& r : spans.snapshot()) {
    switch (r.kind) {
      case obs::SpanKind::kCacheGet:
      case obs::SpanKind::kFailover:
      case obs::SpanKind::kMigrationFetch:
      case obs::SpanKind::kRetry:
        if (r.cause == obs::SpanCause::kHit) o.source = r.server;
        break;
      case obs::SpanKind::kBackendFetch:
        o.backend = true;
        break;
      case obs::SpanKind::kFill:
      case obs::SpanKind::kMigrationStore:
        if (r.cause == obs::SpanCause::kStored) o.repairs.push_back(r.server);
        break;
      default:
        break;
    }
  }
  spans.clear();
  return o;
}

// The authoritative store both sides read: puts update it first.
struct Database {
  std::map<std::string, std::string> rows;
  std::string get(std::string_view key) const {
    const auto it = rows.find(std::string(key));
    return it != rows.end() ? it->second : "db:" + std::string(key);
  }
};

class FacadeSide {
 public:
  explicit FacadeSide(int replicas)
      : cluster_(options(replicas, &spans_),
                 [this](std::string_view key) { return db_.get(key); }) {}

  Outcome get(const std::string& key, SimTime now) {
    return outcome_of(cluster_.get(key, now), spans_);
  }
  void put(const std::string& key, const std::string& value, SimTime now) {
    db_.rows[key] = value;
    cluster_.put(key, value, now);
  }
  void resize(int n, SimTime now) { cluster_.resize(n, now); }
  // Past the drain window: the facade powers the leavers off by itself.
  void finalize(SimTime now) { cluster_.tick(now); }
  void crash(int i) { cluster_.fail_server(i); }
  void restart(int i) { cluster_.recover_server(i); }

 private:
  static ProteusOptions options(int replicas, obs::SpanCollector* spans) {
    ProteusOptions opt;
    opt.max_servers = kServers;
    opt.replicas = replicas;
    opt.per_server = cache_config();
    opt.ttl = kDrain;
    opt.spans = spans;
    return opt;
  }

  obs::SpanCollector spans_{4096, /*sample_every=*/1};
  Database db_;
  Proteus cluster_;
};

class FleetSide {
 public:
  explicit FleetSide(int replicas) {
    for (int i = 0; i < kServers; ++i) start(i, 0);
    client::ProteusClient::Options opt;
    opt.endpoints = ports_;
    opt.replicas = replicas;
    opt.ttl = kDrain;
    opt.spans = &spans_;
    opt.connect_timeout = 200 * kMillisecond;
    opt.op_timeout = 2 * kSecond;
    // No hedge: the deadline always comes before the hedge delay.
    opt.health.hedge_delay_floor = 2 * opt.op_timeout;
    opt.health.hedge_delay_cap = 2 * opt.op_timeout;
    // A retry reconnects after a restart; the health gate never
    // quarantines (the facade's detector does not either), so a restarted
    // daemon answers at once on both sides.
    opt.max_attempts = 2;
    opt.health.error_threshold = 1 << 20;
    opt.health.phi_suspect = 1e9;
    opt.health.phi_quarantine = 1e9;
    client_ = std::make_unique<client::ProteusClient>(
        opt, [this](std::string_view key) { return db_.get(key); });
  }
  ~FleetSide() {
    client_.reset();
    for (int i = 0; i < kServers; ++i) crash(i);
  }

  Outcome get(const std::string& key, SimTime now) {
    return outcome_of(client_->get(key, now), spans_);
  }
  void put(const std::string& key, const std::string& value, SimTime now) {
    db_.rows[key] = value;
    client_->put(key, value, now);
  }
  void resize(int n, SimTime now) {
    for (int i = n; i < client_->active_servers(); ++i) leavers_.push_back(i);
    client_->resize(n, now);
  }
  // Past the drain window the client finalizes; powering the leavers off
  // is the operator's job, done here as a cold restart.
  void finalize(SimTime now) {
    client_->tick(now);
    for (int i : leavers_) {
      crash(i);
      restart(i);
    }
    leavers_.clear();
  }
  void crash(int i) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    if (!d) return;
    d->stop();
    threads_[static_cast<std::size_t>(i)].join();
    d.reset();
  }
  void restart(int i) { start(i, ports_[static_cast<std::size_t>(i)]); }

 private:
  void start(int i, std::uint16_t port) {
    auto& d = daemons_[static_cast<std::size_t>(i)];
    d = std::make_unique<net::MemcacheDaemon>(cache_config(), port);
    ASSERT_TRUE(d->ok());
    ports_[static_cast<std::size_t>(i)] = d->port();
    threads_[static_cast<std::size_t>(i)] =
        std::thread([daemon = d.get()] { daemon->run(); });
  }

  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_{kServers};
  std::vector<std::thread> threads_{kServers};
  std::vector<std::uint16_t> ports_ = std::vector<std::uint16_t>(kServers);
  std::vector<int> leavers_;
  obs::SpanCollector spans_{4096, /*sample_every=*/1};
  Database db_;
  std::unique_ptr<client::ProteusClient> client_;
};

struct Step {
  std::string what;
  Outcome outcome;
};

// The script. Puts come first, before any resize: a put's invalidation
// differs by design (the facade erases every powered copy, the client only
// the transition's old locations), so later puts would test that, not
// Algorithm 2.
template <typename Side>
std::vector<Step> run_script(Side& side) {
  std::vector<Step> log;
  SimTime now = kSecond;
  const auto pass = [&](int n_keys, const char* phase) {
    for (int i = 0; i < n_keys; ++i) {
      const std::string key = "diff:" + std::to_string(i);
      log.push_back({std::string(phase) + " get " + key, side.get(key, now)});
    }
    now += kSecond;
  };
  pass(40, "cold");
  for (int i = 0; i < 10; ++i) {
    const std::string key = "diff:" + std::to_string(i);
    side.put(key, "put:" + key, now);
  }
  now += kSecond;
  pass(50, "warm");
  side.resize(3, now);  // shrink: server 3 drains
  pass(60, "shrinking");
  side.crash(1);
  pass(60, "crashed-1");
  side.restart(1);
  pass(60, "restarted-1");
  now += kDrain;
  side.finalize(now);
  pass(60, "shrunk");
  side.resize(4, now);  // grow: server 3 rejoins cold
  pass(60, "growing");
  side.crash(2);
  pass(60, "crashed-2");
  side.restart(2);
  pass(60, "restarted-2");
  now += kDrain;
  side.finalize(now);
  pass(60, "grown");
  return log;
}

void expect_same_retrievals(int replicas) {
  FacadeSide facade(replicas);
  FleetSide fleet(replicas);
  const std::vector<Step> in_process = run_script(facade);
  const std::vector<Step> live = run_script(fleet);
  ASSERT_EQ(in_process.size(), live.size());
  int old_hits = 0, failovers = 0, backend = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(in_process[i].outcome, live[i].outcome) << live[i].what;
    const Outcome& o = in_process[i].outcome;
    backend += o.backend;
    if (o.source >= 0 && !o.repairs.empty()) {
      (replicas > 1 ? failovers : old_hits) += 1;
    }
  }
  // The script must exercise every path it is meant to compare.
  EXPECT_GT(backend, 0);
  EXPECT_GT(old_hits + failovers, 0);
}

TEST(RetrievalDifferential, FacadeAndLiveFleetAgreeSingleRing) {
  expect_same_retrievals(1);
}

TEST(RetrievalDifferential, FacadeAndLiveFleetAgreeTwoRings) {
  expect_same_retrievals(2);
}

}  // namespace
}  // namespace proteus
