// Per-request distributed tracing — span records, the bounded collector,
// and the wire trace-context conventions.
//
// The paper's §IV claim is that provisioning transitions are invisible to
// clients; PR 2's metrics prove it in aggregate (fleet histograms) but
// cannot say WHY one particular request landed in the tail. This module
// answers that per request: every sampled retrieval becomes one trace — a
// root `request` span plus child spans for each cause a transition can
// add latency through (digest consult, old-location migration fetch,
// retry/backoff, failover, database fill) — so `proteus-spans` can
// attribute Fig. 9 tails to their mechanism.
//
// Children are TILED: each child starts where the previous one ended (see
// TraceContext), so per-cause durations sum to the root's end-to-end
// latency by construction, and the analyzer's sum check catches any
// instrumentation that breaks the invariant.
//
// Trace context crosses the wire invisibly to stock memcached software:
// text commands may append a memcached-meta-style token `O<hex64>` (e.g.
// `get page:7 O00f3a2...`), which this repo's parser strips and stock
// parsers treat as one more (always-missing) key.
//
// Sampling is decided ONCE at the root (should_sample) and propagates by
// the presence of the token: servers never sample independently, they tag
// along whenever a request carries a trace id. With sampling disabled the
// whole layer costs one relaxed atomic load per request (micro_spans
// measures it; the budget is <= 5 ns).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"

namespace proteus::obs {

// A steady-clock microsecond timestamp for span endpoints. All in-process
// emitters (client, daemon sessions, facade) share this clock, so one
// process's client and server spans align on a single timeline.
SimTime span_clock_now() noexcept;

enum class SpanKind {
  kRequest,         // root: one end-to-end retrieval
  kRoute,           // tick + mapping decision (Algorithm 1 hash)
  kDigestConsult,   // transition-only: old-mapping digest check (§IV-A)
  kCacheGet,        // fetch from the key's primary location
  kMigrationFetch,  // Algorithm 2 line 7: old-location fetch
  kMigrationStore,  // Algorithm 2 line 12: write-back to the new location(s)
  kFailover,        // §III-E replica fetch after a down primary
  kRetry,           // extra wire attempt after a failure (reconnect + resend)
  kBackendFetch,    // database fill (Algorithm 2 line 10)
  kFill,            // cache population after a backend fetch
  kRespond,         // tail work after the serving fetch (bookkeeping, return)
  kHop,             // sim: RBE <-> web-server network hop
  kWebService,      // sim: servlet queue wait + service time
  kServerParse,     // daemon: command parse
  kServerLockWait,  // daemon: cache-mutex wait (cross-connection contention)
  kServerOp,        // daemon: protocol work against the cache
};

// Outcome/cause tag. On child spans it records what the step observed; on
// the root it records which path ultimately served the request.
enum class SpanCause {
  kNone,
  kHit,            // served by the current-mapping primary
  kMiss,           // clean miss (on kMigrationFetch this is a §IV-B FP)
  kDown,           // server unreachable after all attempts
  kTimeout,        // attempt hit its deadline
  kReset,          // connection reset / EOF mid-op
  kProtocolError,  // desynced reply
  kBreakerOpen,    // endpoint skipped, circuit breaker open
  kDigestHot,      // digest marked the key hot on its old location
  kDigestCold,     // digest consulted, key cold
  kOldHit,         // served via on-demand migration (Algorithm 2 line 7)
  kFailoverHit,    // served by a §III-E replica
  kBackendFill,    // served by the database
  kStored,         // write-back / fill stored
  kShed,           // request shed by overload protection (server or limiter)
  kCoalesced,      // backend fetch piggybacked on a singleflight leader
  kThrottled,      // migration write-back deferred by the overload throttle
  kStaleEpoch,     // mutation fenced off: request epoch < server epoch
  kCorrupt,        // payload failed its end-to-end CRC32C; treated as a miss
  kHedged,         // served by a hedged backup request, not the primary
  kQuarantined,    // endpoint skipped: quarantined by the health detector
};

std::string_view span_kind_name(SpanKind kind) noexcept;
std::string_view span_cause_name(SpanCause cause) noexcept;

struct SpanRecord {
  std::uint64_t trace_id = 0;   // shared by every span of one request
  std::uint64_t span_id = 0;    // unique per span (collector-assigned ids)
  std::uint64_t parent_id = 0;  // 0 = root (or a server span: wire parent
                                // unknown, correlated by trace_id alone)
  SpanKind kind = SpanKind::kRequest;
  SimTime start_us = 0;     // emitter's clock (span_clock_now or sim time)
  SimTime duration_us = 0;
  int server = -1;          // subject server index, -1 if not applicable
  SpanCause cause = SpanCause::kNone;
  bool in_transition = false;  // request overlapped a §IV transition
  std::string key;             // involved key, truncated to 64 bytes
};

// One span as a single-line JSON object (no trailing newline). Trace/span
// ids render as 16-digit lowercase hex strings.
std::string to_json(const SpanRecord& span);

// --- wire trace context ------------------------------------------------------

// "O" + 16 lowercase hex digits (memcached meta-protocol opaque style).
std::string encode_trace_token(std::uint64_t trace_id);
// Strict decode: returns false (out untouched) unless `token` is exactly
// the encode_trace_token shape. Keys that merely start with 'O' never
// parse as tokens.
bool decode_trace_token(std::string_view token, std::uint64_t& out);

// "E" + 16 lowercase hex digits — the cluster-epoch fencing stamp carried on
// mutations (docs/PROTOCOL.md). Same stock-memcached-invisible shape as the
// trace token; decode is equally strict.
std::string encode_epoch_token(std::uint64_t epoch);
bool decode_epoch_token(std::string_view token, std::uint64_t& out);

// "C" + 8 lowercase hex digits — the end-to-end CRC32C payload checksum
// (docs/PROTOCOL.md "Payload integrity"). On storage lines it stamps the
// data block's CRC32C; on get lines its value is ignored and its presence
// asks the server to echo stored checksums on VALUE lines. Same
// stock-memcached-invisible shape as the trace token; decode is equally
// strict (exactly 9 bytes, keys that merely start with 'C' never parse).
std::string encode_checksum_token(std::uint32_t crc);
bool decode_checksum_token(std::string_view token, std::uint32_t& out);

// The encoders' append forms, for the wire path: the token goes straight
// onto `out`, its digits from a table, with no temporary string.
void append_trace_token(std::string& out, std::uint64_t trace_id);
void append_epoch_token(std::string& out, std::uint64_t epoch);
void append_checksum_token(std::string& out, std::uint32_t crc);

// --- the collector -----------------------------------------------------------

// Bounded, thread-safe span sink: a ring like TraceRing (old spans are
// overwritten, never blocked on) plus the sampling decision and the id
// source. All methods are safe to call concurrently.
class SpanCollector {
 public:
  explicit SpanCollector(std::size_t capacity = 8192,
                         std::uint32_t sample_every = 1);

  // 1-in-N head sampling; 0 disables collection entirely. The decision is
  // taken at the root only — child/server spans follow the root's verdict.
  void set_sample_every(std::uint32_t n) noexcept {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  std::uint32_t sample_every() const noexcept {
    return sample_every_.load(std::memory_order_relaxed);
  }

  // The per-request hot-path cost when disabled: one relaxed load + compare.
  bool should_sample() noexcept {
    const std::uint32_t every = sample_every_.load(std::memory_order_relaxed);
    if (every == 0) return false;
    if (every == 1) return true;
    return sample_tick_.fetch_add(1, std::memory_order_relaxed) % every == 0;
  }

  // Id source for trace and span ids; never returns 0 (0 means "absent").
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(SpanRecord span);

  // Retained spans in recording order.
  std::vector<SpanRecord> snapshot() const;
  // snapshot() rendered one JSON object per line (GET /spans body).
  std::string jsonl() const;

  std::uint64_t total_recorded() const;
  // Spans overwritten because the ring was full (since the last
  // reset_dropped()).
  std::uint64_t dropped() const;
  void clear();
  // Re-zeroes dropped() without touching retained spans — the `stats
  // reset` hook.
  void reset_dropped();

 private:
  std::atomic<std::uint32_t> sample_every_;
  std::atomic<std::uint64_t> sample_tick_{0};
  std::atomic<std::uint64_t> next_id_{0};

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_base_ = 0;
};

// --- tiled child emission ----------------------------------------------------

// Per-request trace state threaded through a retrieval. Children pick up
// exactly where the previous child ended (`cursor`), so the per-cause
// durations of one trace tile the root interval and sum to the end-to-end
// latency — the invariant proteus-spans verifies. Inactive contexts
// (collector null or the request unsampled) make every call a no-op.
struct TraceContext {
  SpanCollector* collector = nullptr;
  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;
  SimTime cursor = 0;           // end of the last emitted child
  bool in_transition = false;
  SpanCause root_cause = SpanCause::kNone;  // serving path, set en route
  bool emitted_child = false;

  // Starts a sampled trace at `now`; leaves the context inactive when the
  // collector is null or the sampler says no.
  static TraceContext begin(SpanCollector* collector, SimTime now);

  bool active() const noexcept {
    return collector != nullptr && trace_id != 0;
  }

  // Records [cursor, now] as a child of the root and advances the cursor.
  void child(SimTime now, SpanKind kind, int server = -1,
             SpanCause cause = SpanCause::kNone, std::string_view key = {});

  // Closes the trace: emits a kRespond child covering [cursor, now] (so the
  // tiling reaches the root's end) and then the root span [start, now].
  void finish(SimTime now, SimTime start, std::string_view key);
};

}  // namespace proteus::obs
