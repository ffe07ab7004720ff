// Algorithm 2 (FETCH_DATA), generalized to §III-E's r rings, as one
// transport-free step machine. The in-process facade (core/proteus.h), the
// live client (client/memcache_client.h) and the simulator's web tier
// (cluster/web_tier.h) each only turn its actions into CacheServer calls,
// socket round trips or simulated events, and feed the outcomes back. Every
// Algorithm 2 counter, trace event and span cause is produced here. The
// rules, one per line, are in docs/ALGORITHMS.md ("Algorithm 2, one state
// machine").
//
// Usage: a = m.start(...), then answer each action with the matching call
// (kRoute -> routed, kGet -> got, kProbe -> probed, kBackend -> fetched,
// kStore -> stored) until kDone; then serve value() unless degraded(). A
// machine allocates only when its repair set first grows, so a reused one
// (the web tier pools them) allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/router.h"
#include "common/time.h"
#include "core/overload.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace proteus::core {

class Retrieval {
 public:
  // Pointers into the transport's own stats, so each keeps its field and
  // /metrics names. Null = not kept.
  struct Counters {
    std::uint64_t* primary_hits = nullptr;     // ring 0's current location
    std::uint64_t* replica_hits = nullptr;     // ring >= 1's current location
    std::uint64_t* old_server_hits = nullptr;  // a digest-hot old location
    std::uint64_t* skips = nullptr;  // current location down or quarantined
    std::uint64_t* false_positives = nullptr;
    // Set: ask for kProbe where the digest called a moved key cold (§IV-B
    // false negatives). Only worth it where residency checks are free.
    std::uint64_t* false_negatives = nullptr;
    std::uint64_t* backend_fetches = nullptr;  // fetches this request led
    std::uint64_t* coalesced_fetches = nullptr;
    std::uint64_t* load_sheds = nullptr;       // backend fetch shed
    std::uint64_t* migrations_deferred = nullptr;
    std::uint64_t* read_repairs = nullptr;     // corrupt replies stored over
  };

  struct Options {
    Counters counters;
    obs::TraceSink* trace = nullptr;
    // Line-12 pacing of cache-served repairs; null stores unconditionally.
    // With `throttle_signal` set, the throttle's overload signal follows
    // that limiter at each decision.
    MigrationThrottle* throttle = nullptr;
    const AdaptiveLimiter* throttle_signal = nullptr;
    bool span_gets = true;  // false: the transport spans each wire attempt
    // Also span route, digest consult and each store (steps that take no
    // time in a simulation).
    bool span_bookkeeping = true;
    std::function<SimTime()> span_clock;  // empty = obs::span_clock_now
  };

  enum class Step { kRoute, kGet, kProbe, kBackend, kStore, kDone };
  struct Action {
    Step step = Step::kDone;
    int ring = 0;     // kRoute: the ring whose decision is wanted
    int server = -1;  // kGet, kProbe, kStore
    // kGet: kCacheGet, kFailover or kMigrationFetch; kStore: kFill or
    // kMigrationStore.
    obs::SpanKind kind = obs::SpanKind::kCacheGet;
  };
  enum class Reply { kHit, kMiss, kDown, kQuarantined, kShed, kCorrupt };
  enum class Fetch { kValue, kCoalesced, kShed };

  explicit Retrieval(const Options& options) : opt_(&options) {}  // not owned

  // `key` and `ctx` (may be null) must outlive the retrieval; `now` stamps
  // trace events and throttle decisions.
  Action start(std::string_view key, int replicas, SimTime now,
               obs::TraceContext* ctx);
  Action routed(const cluster::Router::Decision& decision);
  // value: kHit only. The view form assigns into the machine's own buffer,
  // so a reused machine takes a hit without allocating.
  Action got(Reply reply, std::string value = {});
  Action got(Reply reply, std::string_view value);
  Action probed(bool resident);
  Action fetched(Fetch result, std::string value = {});
  Action stored(bool ok);
  // For a transport where time passes during the backend fetch: the key's
  // locations may have moved (a resize) or come back (a recovery) since the
  // walk, so the fill should reach them too.
  void add_repair(int server);

  std::string& value() noexcept { return value_; }  // to store or serve
  bool degraded() const noexcept { return degraded_; }

 private:
  Action on_reply(Reply reply);  // got()'s body, once value_ holds a hit
  Action next_ring();
  Action store(obs::SpanKind kind);
  Action next_store();
  Action finish(bool degraded) noexcept {
    degraded_ = degraded;
    return {Step::kDone};
  }
  void bump(std::uint64_t* c, std::uint64_t n = 1) noexcept { if (c) *c += n; }
  void span(obs::SpanKind kind, int server = -1,
            obs::SpanCause cause = obs::SpanCause::kNone);
  void root(obs::SpanCause cause) noexcept {
    if (ctx_ != nullptr) ctx_->root_cause = cause;
  }
  void emit(obs::TraceEventKind kind, int server, int peer, std::uint64_t n) {
    obs::emit(opt_->trace, now_, kind, server, peer, n, key_);
  }

  const Options* opt_;
  std::string_view key_;
  SimTime now_ = 0;
  obs::TraceContext* ctx_ = nullptr;
  int replicas_ = 1;
  int ring_ = 0;
  cluster::Router::Decision d_{-1};
  bool at_old_ = false;  // the pending kGet is the ring's old location
  std::vector<int> repair_;
  std::size_t next_store_ = 0;
  obs::SpanKind store_kind_ = obs::SpanKind::kFill;
  std::uint64_t corrupt_ = 0;  // corrupt replies this walk
  bool degraded_ = false;
  std::string value_;
};

}  // namespace proteus::core
