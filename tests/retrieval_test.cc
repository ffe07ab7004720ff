// core::Retrieval driven with scripted replies: each unified Algorithm 2
// rule (docs/ALGORITHMS.md, "Algorithm 2, one state machine") pinned as the
// exact sequence of actions the machine asks its transport for.
#include "core/retrieval.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace proteus::core {
namespace {

using Decision = cluster::Router::Decision;
using Fetch = Retrieval::Fetch;
using Reply = Retrieval::Reply;
using Step = Retrieval::Step;

struct Stats {
  std::uint64_t primary_hits = 0, replica_hits = 0, old_hits = 0, skips = 0,
                fps = 0, fns = 0, backend = 0, coalesced = 0, load_sheds = 0,
                deferred = 0, read_repairs = 0;
};

// A scripted transport: replies per (server, span kind), one backend
// answer, and a log of every action the machine asked for.
class Script {
 public:
  explicit Script(std::vector<Decision> rings) : rings_(std::move(rings)) {
    options_.counters = {.primary_hits = &stats_.primary_hits,
                         .replica_hits = &stats_.replica_hits,
                         .old_server_hits = &stats_.old_hits,
                         .skips = &stats_.skips,
                         .false_positives = &stats_.fps,
                         .false_negatives = &stats_.fns,
                         .backend_fetches = &stats_.backend,
                         .coalesced_fetches = &stats_.coalesced,
                         .load_sheds = &stats_.load_sheds,
                         .migrations_deferred = &stats_.deferred,
                         .read_repairs = &stats_.read_repairs};
    options_.span_clock = [this] { return clock_++; };
  }

  Script& reply(int server, obs::SpanKind kind, Reply r) {
    replies_[{server, kind}] = r;
    return *this;
  }
  Script& backend(Fetch f) {
    backend_ = f;
    return *this;
  }
  Script& resident(bool r) {
    resident_ = r;
    return *this;
  }

  // Runs one retrieval; returns the action log.
  std::vector<std::string> run(obs::TraceContext* ctx = nullptr) {
    Retrieval m(options_);
    std::vector<std::string> log;
    Retrieval::Action a =
        m.start("k", static_cast<int>(rings_.size()), 0, ctx);
    for (;;) {
      switch (a.step) {
        case Step::kRoute:
          log.push_back("route " + std::to_string(a.ring));
          a = m.routed(rings_[static_cast<std::size_t>(a.ring)]);
          break;
        case Step::kGet: {
          log.push_back("get " + std::to_string(a.server) + " " +
                        std::string(obs::span_kind_name(a.kind)));
          const auto it = replies_.find({a.server, a.kind});
          const Reply r = it == replies_.end() ? Reply::kMiss : it->second;
          a = m.got(r, std::string(r == Reply::kHit ? "cached" : ""));
          break;
        }
        case Step::kProbe:
          log.push_back("probe " + std::to_string(a.server));
          a = m.probed(resident_);
          break;
        case Step::kBackend:
          log.push_back("backend");
          a = m.fetched(backend_, "db");
          break;
        case Step::kStore:
          log.push_back("store " + std::to_string(a.server) + " " +
                        std::string(obs::span_kind_name(a.kind)));
          a = m.stored(true);
          break;
        case Step::kDone:
          log.push_back(m.degraded() ? "degraded" : "done " + m.value());
          return log;
      }
    }
  }

  Retrieval::Options& options() { return options_; }
  const Stats& stats() const { return stats_; }

 private:
  std::vector<Decision> rings_;
  std::map<std::pair<int, obs::SpanKind>, Reply> replies_;
  Fetch backend_ = Fetch::kValue;
  bool resident_ = false;
  Retrieval::Options options_;
  Stats stats_;
  SimTime clock_ = 1;
};

using V = std::vector<std::string>;
constexpr auto kGet = obs::SpanKind::kCacheGet;
constexpr auto kFailover = obs::SpanKind::kFailover;
constexpr auto kOld = obs::SpanKind::kMigrationFetch;

// (a) A clean miss on ring i's primary tries ring i's digest-hot old
// location, then ring i+1.
TEST(Retrieval, CleanMissTriesOldLocationThenNextRing) {
  Script s({{.primary = 1, .fallback = 2, .old = 2}, {.primary = 3}});
  s.reply(3, kFailover, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "get 2 migration_fetch",
                        "route 1", "get 3 failover", "store 1 migration_store",
                        "done cached"}));
  EXPECT_EQ(s.stats().replica_hits, 1u);
  EXPECT_EQ(s.stats().fps, 1u);
  EXPECT_EQ(s.stats().backend, 0u);
}

TEST(Retrieval, RingOneOldLocationIsConsultedToo) {
  Script s({{.primary = 1}, {.primary = 3, .fallback = 4, .old = 4}});
  s.reply(4, kOld, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 3 failover", "get 4 migration_fetch",
                        "store 1 migration_store", "store 3 migration_store",
                        "done cached"}));
  EXPECT_EQ(s.stats().old_hits, 1u);
}

// (b) A down or quarantined primary still lets its ring's old location
// answer; the skipped primary is not repaired.
TEST(Retrieval, SkippedPrimaryStillLetsOldLocationAnswer) {
  for (Reply skip : {Reply::kDown, Reply::kQuarantined}) {
    Script s({{.primary = 1, .fallback = 2, .old = 2}});
    s.reply(1, kGet, skip).reply(2, kOld, Reply::kHit);
    EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get",
                          "get 2 migration_fetch", "done cached"}));
    EXPECT_EQ(s.stats().skips, 1u);
    EXPECT_EQ(s.stats().old_hits, 1u);
    EXPECT_EQ(s.stats().fps, 0u);
  }
  // A skipped old location is not counted as a skip: the counters keep
  // their per-ring meaning.
  Script s({{.primary = 1, .fallback = 2, .old = 2}});
  s.reply(2, kOld, Reply::kDown);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "get 2 migration_fetch",
                        "backend", "store 1 fill", "done db"}));
  EXPECT_EQ(s.stats().skips, 0u);
}

// (c) A cache-served value with a non-empty repair set asks the throttle
// once; a refusal defers the whole set.
TEST(Retrieval, ThrottleIsAskedOnceAndDefersTheWholeSet) {
  MigrationThrottle throttle(MigrationThrottle::Options{.rate_per_sec = 0.0});
  throttle.set_overloaded(true);
  Script s({{.primary = 1}, {.primary = 2}, {.primary = 3}});
  s.options().throttle = &throttle;
  s.reply(3, kFailover, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "route 2", "get 3 failover",
                        "done cached"}));
  EXPECT_EQ(throttle.deferred(), 1u) << "one allow() per request";
  EXPECT_EQ(s.stats().deferred, 1u);

  throttle.set_overloaded(false);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "route 2", "get 3 failover",
                        "store 1 migration_store", "store 2 migration_store",
                        "done cached"}));
  EXPECT_EQ(s.stats().deferred, 1u);
}

TEST(Retrieval, EmptyRepairSetNeverAsksTheThrottle) {
  MigrationThrottle throttle(MigrationThrottle::Options{.rate_per_sec = 0.0});
  throttle.set_overloaded(true);
  Script s({{.primary = 1}, {.primary = 2}});
  s.options().throttle = &throttle;
  s.reply(1, kGet, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "done cached"}));
  EXPECT_EQ(throttle.deferred(), 0u);
  EXPECT_EQ(s.stats().primary_hits, 1u);
}

TEST(Retrieval, ThrottleSignalFollowsTheLimiter) {
  MigrationThrottle throttle(MigrationThrottle::Options{.rate_per_sec = 0.0});
  AdaptiveLimiter limiter;
  Script s({{.primary = 1}, {.primary = 2}});
  s.options().throttle = &throttle;
  s.options().throttle_signal = &limiter;
  throttle.set_overloaded(true);  // stale: the limiter says calm
  s.reply(2, kFailover, Reply::kHit);
  EXPECT_EQ(s.run().back(), "done cached");
  EXPECT_EQ(s.stats().deferred, 0u);
  EXPECT_FALSE(throttle.overloaded());
}

// (d) A hit on ring >= 1 repairs every live location that missed, in ring
// order; a backend value fills exactly those locations, each server once.
TEST(Retrieval, BackendFillsExactlyTheLiveLocationsThatMissed) {
  Script s({{.primary = 1}, {.primary = 2}, {.primary = 3}});
  s.reply(2, kFailover, Reply::kDown);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "route 2", "get 3 failover",
                        "backend", "store 1 fill", "store 3 fill", "done db"}));
  EXPECT_EQ(s.stats().backend, 1u);
  EXPECT_EQ(s.stats().skips, 1u);
}

TEST(Retrieval, RepairSetHoldsEachServerOnce) {
  // Eq. 3 conflict: both rings map the key to server 4.
  Script s({{.primary = 4}, {.primary = 4}});
  EXPECT_EQ(s.run(), (V{"route 0", "get 4 cache_get", "route 1",
                        "get 4 failover", "backend", "store 4 fill",
                        "done db"}));
}

TEST(Retrieval, OldLocationHitRepairsTheMissedPrimary) {
  Script s({{.primary = 1, .fallback = 2, .old = 2}});
  s.reply(2, kOld, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "get 2 migration_fetch",
                        "store 1 migration_store", "done cached"}));
}

TEST(Retrieval, AddedRepairLocationIsFilledAfterTheMissedOnes) {
  Script s({Decision{.primary = 1}});
  Retrieval m(s.options());
  Retrieval::Action a = m.start("k", 1, 0, nullptr);
  a = m.routed({.primary = 1});
  a = m.got(Reply::kMiss);
  ASSERT_EQ(a.step, Step::kBackend);
  m.add_repair(1);  // already there
  m.add_repair(5);  // the key moved while the fetch was in flight
  a = m.fetched(Fetch::kValue, "db");
  ASSERT_EQ(a.step, Step::kStore);
  EXPECT_EQ(a.server, 1);
  a = m.stored(true);
  ASSERT_EQ(a.step, Step::kStore);
  EXPECT_EQ(a.server, 5);
  EXPECT_EQ(m.stored(true).step, Step::kDone);
}

// (e) A shed ring-0 primary -> degraded; corrupt -> miss counted as a read
// repair; coalesced -> no fills.
TEST(Retrieval, ShedReplyIsDegradedWithoutTheBackend) {
  Script s({{.primary = 1}, {.primary = 2}});
  s.reply(1, kGet, Reply::kShed);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "degraded"}));
  EXPECT_EQ(s.stats().backend, 0u);
}

// Only the foreground ring-0 primary's shed degrades. A shed old-location
// fetch (client `bg` traffic, shed first) or failover get is a non-answer:
// no false positive, no repair, the walk goes on.
TEST(Retrieval, ShedOldLocationFallsThroughToTheBackend) {
  Script s({{.primary = 1, .fallback = 2, .old = 2}});
  s.reply(2, kOld, Reply::kShed);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "get 2 migration_fetch",
                        "backend", "store 1 fill", "done db"}));
  EXPECT_EQ(s.stats().fps, 0u);
  EXPECT_EQ(s.stats().backend, 1u);
}

TEST(Retrieval, ShedFailoverTriesTheNextRing) {
  Script s({{.primary = 1}, {.primary = 2}, {.primary = 3}});
  s.reply(1, kGet, Reply::kDown)
      .reply(2, kFailover, Reply::kShed)
      .reply(3, kFailover, Reply::kHit);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "route 2", "get 3 failover",
                        "done cached"}));
  EXPECT_EQ(s.stats().replica_hits, 1u);
  EXPECT_EQ(s.stats().skips, 1u);
}

TEST(Retrieval, ShedBackendFetchIsDegraded) {
  Script s({Decision{.primary = 1}});
  s.backend(Fetch::kShed);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "backend", "degraded"}));
  EXPECT_EQ(s.stats().load_sheds, 1u);
  EXPECT_EQ(s.stats().backend, 0u);
}

TEST(Retrieval, CorruptReplyIsAMissAndItsRefillARepair) {
  Script s({Decision{.primary = 1}});
  s.reply(1, kGet, Reply::kCorrupt);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "backend",
                        "store 1 fill", "done db"}));
  EXPECT_EQ(s.stats().read_repairs, 1u);

  Script r({{.primary = 1}, {.primary = 2}});
  r.reply(1, kGet, Reply::kCorrupt).reply(2, kFailover, Reply::kHit);
  EXPECT_EQ(r.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "store 1 migration_store",
                        "done cached"}));
  EXPECT_EQ(r.stats().read_repairs, 1u);

  // Eq. 3 conflict: the same server answers corrupt for both rings. Each
  // corrupt reply is one read repair; the location is stored once.
  Script c({{.primary = 1}, {.primary = 1}});
  c.reply(1, kGet, Reply::kCorrupt).reply(1, kFailover, Reply::kCorrupt);
  EXPECT_EQ(c.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 1 failover", "backend", "store 1 fill",
                        "done db"}));
  EXPECT_EQ(c.stats().read_repairs, 2u);
}

TEST(Retrieval, CoalescedBackendAnswerFillsNothing) {
  Script s({{.primary = 1}, {.primary = 2}});
  s.backend(Fetch::kCoalesced);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "route 1",
                        "get 2 failover", "backend", "done db"}));
  EXPECT_EQ(s.stats().coalesced, 1u);
  EXPECT_EQ(s.stats().backend, 0u);
}

// (f) A false positive is counted only on a clean miss at an old location.
TEST(Retrieval, FalsePositiveOnlyForACleanOldLocationMiss) {
  const struct {
    Reply old_reply;
    std::uint64_t fps;
  } cases[] = {{Reply::kMiss, 1},
               {Reply::kDown, 0},
               {Reply::kQuarantined, 0},
               {Reply::kCorrupt, 0}};
  for (const auto& c : cases) {
    Script s({{.primary = 1, .fallback = 2, .old = 2}});
    s.reply(2, kOld, c.old_reply);
    s.run();
    EXPECT_EQ(s.stats().fps, c.fps) << static_cast<int>(c.old_reply);
  }
  Script cold({{.primary = 1, .old = 2}});  // digest said cold: no fallback
  cold.run();
  EXPECT_EQ(cold.stats().fps, 0u);
}

// The probe is asked for only by a transport that keeps the count, and only
// after a clean miss at a current location the digest called cold.
TEST(Retrieval, FalseNegativeProbeOnlyWhenCounted) {
  Script quiet({{.primary = 1, .old = 2}});
  quiet.options().counters.false_negatives = nullptr;
  EXPECT_EQ(quiet.run(),
            (V{"route 0", "get 1 cache_get", "backend", "store 1 fill",
               "done db"}));

  Script down({{.primary = 1, .old = 2}});
  down.reply(1, kGet, Reply::kDown).resident(true);
  EXPECT_EQ(down.run(), (V{"route 0", "get 1 cache_get", "backend",
                           "done db"}));
  EXPECT_EQ(down.stats().fns, 0u);

  Script s({{.primary = 1, .old = 2}, {.primary = 3, .old = 3}});
  s.resident(true);
  EXPECT_EQ(s.run(), (V{"route 0", "get 1 cache_get", "probe 2", "route 1",
                        "get 3 failover", "backend", "store 1 fill",
                        "store 3 fill", "done db"}));
  EXPECT_EQ(s.stats().fns, 1u) << "ring 1's key did not move: no probe";
}

// (g) The skip cause: kDown for crashed/off/unreachable, kQuarantined only
// for a health-gate refusal.
TEST(Retrieval, SkipCausesFollowTheReply) {
  obs::SpanCollector spans(64, /*sample_every=*/1);
  obs::TraceContext ctx = obs::TraceContext::begin(&spans, 0);
  ASSERT_TRUE(ctx.active());
  Script s({{.primary = 1}, {.primary = 2}, {.primary = 3}});
  s.reply(1, kGet, Reply::kDown)
      .reply(2, kFailover, Reply::kQuarantined)
      .reply(3, kFailover, Reply::kHit);
  s.run(&ctx);
  ctx.finish(100, 0, "k");
  std::vector<std::pair<int, obs::SpanCause>> gets;
  for (const obs::SpanRecord& r : spans.snapshot()) {
    if (r.kind == obs::SpanKind::kCacheGet ||
        r.kind == obs::SpanKind::kFailover) {
      gets.emplace_back(r.server, r.cause);
    }
    if (r.kind == obs::SpanKind::kRequest) {
      EXPECT_EQ(r.cause, obs::SpanCause::kFailoverHit);
    }
  }
  EXPECT_EQ(gets, (std::vector<std::pair<int, obs::SpanCause>>{
                      {1, obs::SpanCause::kDown},
                      {2, obs::SpanCause::kQuarantined},
                      {3, obs::SpanCause::kHit}}));
}

TEST(Retrieval, BookkeepingSpansCanBeLeftToTheTransport) {
  obs::SpanCollector spans(64, /*sample_every=*/1);
  obs::TraceContext ctx = obs::TraceContext::begin(&spans, 0);
  Script s({{.primary = 1, .old = 1}});
  s.options().span_bookkeeping = false;
  s.options().span_gets = false;
  s.run(&ctx);
  std::vector<obs::SpanKind> kinds;
  for (const obs::SpanRecord& r : spans.snapshot()) kinds.push_back(r.kind);
  EXPECT_EQ(kinds, std::vector<obs::SpanKind>{obs::SpanKind::kBackendFetch});
}

}  // namespace
}  // namespace proteus::core
