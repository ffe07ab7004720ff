// Client side of the wire: a deadline-aware memcached text-protocol
// connection plus ProteusClient — the paper's web-server role speaking to
// REAL cache daemons over TCP.
//
// The simulation path (src/cluster) models the web tier; this module IS
// the web tier for live deployments: it routes through the Algorithm 1
// placement, fetches digests from the daemons via the reserved keys
// (§V-3), and executes Algorithm 2 against remote servers during
// provisioning transitions. Together with tools/proteus-cached this makes
// the repo runnable end-to-end on real sockets.
//
// Fault model (this is the live analogue of what src/cluster simulates):
// every wire operation is bounded by a deadline, writes are SIGPIPE-safe,
// and a server that times out / resets / desyncs is health-gated behind a
// phi-accrual EndpointHealth detector (core/endpoint_health.h) whose
// quarantine/probation machine replaces the old binary breaker: gray
// failures (slow-but-alive, rising error mix) accrue suspicion instead of
// needing hard consecutive failures, and a quarantined endpoint is always
// re-probed on a decorrelated-jitter schedule — never blacklisted. A down
// server degrades to a backend fetch (the paper's web tier consults the
// database) or, when §III-E replication is configured, fails over to the
// key's replica ring locations. resize() is transactional against
// failures: a digest that cannot be fetched is recorded as absent — the
// transition still completes, that server is never consulted as "hot".
//
// Every cache get (current location, migration fetch, failover) runs one
// streaming attempt loop: each attempt has a full op_timeout, and a reset,
// desync, failed send or timeout is retried on a fresh connection while
// max_attempts allows; a shed or stale-epoch reply never is. Tail defense
// is one branch of that loop: once a ring-0 current-location get has been
// outstanding past its endpoint's adaptive delay (baseline mean + k
// deviations), a budgeted (at most 5% of those gets, burst 8: the
// core::HedgeBudget defaults) backup GET races it on the key's replica
// location and the first well-formed answer wins.
//
// Algorithm 2 line 12 does not hold up the response: backend fills and
// migration stores go out as `noreply` sets, so get() returns without
// waiting a round trip for them. They are corked (MSG_MORE) and share the
// transmit of the connection's next request, which the daemon then serves
// after the store, in FIFO order. A store the daemon refuses (shed,
// fenced, corrupt, too large) is dropped silently and costs a later miss;
// put() and erases stay acknowledged.
//
// End-to-end payload integrity: every fill/put stamps the value's CRC32C
// on the wire (C<hex8> meta-token, docs/PROTOCOL.md); every get asks the
// daemon to echo the stored checksum and re-verifies it at arrival. A
// mismatch — wire corruption either direction, or daemon memory gone bad —
// is counted, traced, and served as a MISS so the value is read-repaired
// from the database instead of propagating.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cluster/router.h"
#include "common/rng.h"
#include "common/time.h"
#include "core/endpoint_health.h"
#include "core/overload.h"
#include "core/retrieval.h"
#include "hashring/proteus_placement.h"
#include "net/net_error.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace proteus::client {

// One TCP connection speaking the memcached text protocol over a
// non-blocking socket: connect and every operation complete within their
// deadline or fail with net::NetError::kTimeout. After any transport or
// protocol error the connection is dead (ok() == false) — a desynced byte
// stream must never be read again — and the owner reconnects.
//
// The connection keeps two buffers for its whole life and copies a value
// once each way. A request is encoded into the reused request buffer; set()
// sends that header, the caller's value and the CRLF in one sendmsg over
// iovecs, so the value is not copied, and a short send finishes the rest
// through send_all. Replies land in the reused receive buffer, up to 16 KiB
// per recv, and are parsed at a read offset instead of erasing consumed
// bytes; a get's value is copied once, into the string it returns.
class MemcacheConnection {
 public:
  struct Options {
    std::string host = "127.0.0.1";  // numeric IPv4 or "localhost"
    SimTime connect_timeout = kSecond;
    SimTime op_timeout = kSecond;
  };

  MemcacheConnection(std::uint16_t port, Options options);
  // Connects to 127.0.0.1:port with default deadlines.
  explicit MemcacheConnection(std::uint16_t port)
      : MemcacheConnection(port, Options{}) {}
  ~MemcacheConnection();

  MemcacheConnection(const MemcacheConnection&) = delete;
  MemcacheConnection& operator=(const MemcacheConnection&) = delete;
  MemcacheConnection(MemcacheConnection&& other) noexcept;
  MemcacheConnection& operator=(MemcacheConnection&&) = delete;

  bool ok() const noexcept { return fd_ >= 0; }
  // The error that killed (or last afflicted) this connection. A clean
  // miss leaves it kNone — callers distinguish "not cached" from "server
  // unreachable" through this.
  net::NetError last_error() const noexcept { return last_error_; }

  // A nonzero `trace_id` propagates trace context to the daemon as a
  // trailing O<hex64> token (see obs/span.h); stock servers ignore it.
  // `background` additionally appends the `bg` priority token (see
  // cache/text_protocol.h) marking the request as sheddable maintenance
  // traffic. A daemon shed reply (`SERVER_ERROR overloaded`) surfaces as
  // last_error() == kOverloaded with the connection still usable.
  //
  // A nonzero `epoch` stamps the command with the E<hex64> fencing token
  // (docs/PROTOCOL.md): mutations carrying an epoch older than the daemon's
  // view are refused with `SERVER_ERROR stale-epoch`, surfaced as
  // last_error() == kStaleEpoch with the connection still usable — the
  // caller must refresh its view (hello()), never retry.
  // `want_checksum` appends the C meta-token asking this repo's daemons to
  // echo the stored CRC32C on the VALUE line (see last_value_checksum());
  // stock servers treat it as one more always-missing key.
  std::optional<std::string> get(std::string_view key,
                                 std::uint64_t trace_id = 0,
                                 bool background = false,
                                 std::uint64_t epoch = 0,
                                 bool want_checksum = false);
  // `with_checksum` stamps the value's CRC32C as a C meta-token; this
  // repo's daemons verify it at arrival (refusing corrupted frames with
  // `SERVER_ERROR bad-checksum`) and store it for at-rest verification.
  // `noreply` writes memcached's `noreply` flag and returns once the
  // command is handed to the socket: true means queued on a connection the
  // peer has not closed, not stored. The store is corked (MSG_MORE): it
  // leaves in the same transmit as the connection's next request, or when
  // the kernel flushes it if none comes: on Linux after about one
  // retransmission timeout, at least 200 ms. The daemon
  // answers nothing, so a refusal (bad checksum, stale epoch, shed, too
  // large) is silent, and FIFO order on the connection still serves a later
  // request on it after the store. Leave `trace_id` 0 on such a store: its
  // daemon span would close after the request that sent it.
  bool set(std::string_view key, std::string_view value,
           std::uint32_t flags = 0, std::uint64_t trace_id = 0,
           bool background = false, std::uint64_t epoch = 0,
           bool with_checksum = false, bool noreply = false);
  bool erase(std::string_view key, std::uint64_t epoch = 0);
  std::string version();

  // --- streaming GET (the hedged-read primitive) -----------------------------
  // begin_get() sends the request and arms the reply parser; poll_get()
  // consumes whatever bytes are available WITHOUT blocking and reports
  // whether the reply is complete. Between polls the owner multiplexes this
  // connection's fd() against others (that is how a hedge races two
  // servers). On kDone the result carries the same semantics as get():
  // value or nullopt with last_error() distinguishing miss / shed / fence /
  // transport death. The blocking get() is this same machine driven by an
  // internal poll loop.
  enum class GetProgress { kPending, kDone };
  bool begin_get(std::string_view key, std::uint64_t trace_id = 0,
                 bool background = false, std::uint64_t epoch = 0,
                 bool want_checksum = false);
  GetProgress poll_get(std::optional<std::string>& value);
  // The pollable socket, -1 when dead.
  int fd() const noexcept { return fd_; }
  // Quietly closes the connection without recording an error — used to
  // abandon an in-flight request whose peer lost a hedge race (its reply,
  // still in flight, would desync the stream if we kept reading). The
  // owner reconnects on next use.
  void abandon() noexcept { close_now(); }
  // The CRC32C echoed on the last completed get (nullopt when the server
  // sent none — stock daemon, unstamped item, or echo not requested).
  std::optional<std::uint32_t> last_value_checksum() const noexcept {
    return value_checksum_;
  }

  // The epoch/incarnation handshake: `get PROTEUS_EPOCH` answered as
  // "<epoch> <incarnation>". The incarnation identifies this daemon
  // process's lifetime — it changes exactly when the daemon cold-restarted
  // (losing its memory and digest with it).
  std::optional<std::pair<std::uint64_t, std::uint64_t>> hello();
  // Teaches the daemon a (presumably newer) cluster epoch via
  // `set PROTEUS_EPOCH`. False with last_error() == kStaleEpoch means the
  // daemon already fences a newer epoch than `epoch`.
  bool push_epoch(std::uint64_t epoch);

  // `stats [arg]`: the STAT lines as (name, value) pairs in server order.
  // arg "proteus" fetches the daemon's unified metrics registry (counters,
  // gauges, latency quantiles) — the wire source for proteus-top.
  std::optional<std::vector<std::pair<std::string, std::string>>> stats(
      std::string_view arg = {});

  // The §IV digest handshake: get SET_BLOOM_FILTER then get BLOOM_FILTER,
  // decoded into the broadcastable filter.
  std::optional<bloom::BloomFilter> fetch_digest();

 private:
  // Deadline plumbing: each public op computes an absolute deadline on the
  // process monotonic clock; the primitives poll() against it.
  bool await_io(short events, SimTime deadline);
  // `flags` is OR-ed into MSG_NOSIGNAL; MSG_MORE holds the bytes in the
  // socket until the next uncorked send on it (or the kernel's flush, about
  // one retransmission timeout and at least 200 ms) so they share that
  // request's transmit. A `deadline` of 0 is op_timeout from the first
  // wait, so a send the kernel takes at once never reads the clock.
  bool send_all(std::string_view bytes, SimTime deadline, int flags = 0);
  // Sends `parts` in order with one sendmsg; what the kernel does not take
  // at once (a full send buffer) follows through send_all.
  bool send_parts(const std::array<std::string_view, 3>& parts,
                  SimTime deadline, int flags);
  // Reads until a full line is buffered and consumes it; returns it without
  // CRLF, viewed in the receive buffer (valid until the next read).
  std::optional<std::string_view> read_line(SimTime deadline);
  // The complete line at the read offset, CRLF excluded, viewed in place
  // (advance read_pos_ by size() + 2 once done with it). nullopt while the
  // line is still arriving, or after a line past the reply bound failed
  // the connection (kProtocol; ok() tells the two apart).
  std::optional<std::string_view> front_line();
  // The received bytes not yet parsed.
  std::string_view unread() const noexcept {
    return std::string_view(buffer_.data() + read_pos_, read_end_ - read_pos_);
  }
  // A daemon refusal that keeps the stream in sync — the admission shed
  // (kOverloaded) or the fence (kStaleEpoch) — is recorded in last_error_;
  // false for any other reply.
  bool refused(std::string_view reply);
  SimTime op_deadline() const noexcept;
  void fail(net::NetError error);
  void close_now();

  // Non-blocking buffer fill: >0 bytes appended, 0 = would block,
  // -1 = connection failed (error recorded).
  int fill_nonblocking();
  // Reply-parser stages for the streaming GET.
  enum class GetStage { kIdle, kHeader, kBody, kEnd };
  // Advances the parser as far as buffer_ allows; kDone when the reply is
  // complete (value/miss/refusal) or the stream died.
  GetProgress step_get(std::optional<std::string>& value);

  int fd_ = -1;
  Options options_;
  net::NetError last_error_ = net::NetError::kNone;
  // The request being sent, encoded in place; its capacity is kept.
  std::string request_;
  // Receive buffer, sized once and grown only for a line that does not fit:
  // [read_pos_, read_end_) is received and not yet parsed, and recv writes
  // at read_end_.
  std::string buffer_;
  std::size_t read_pos_ = 0;
  std::size_t read_end_ = 0;
  // Streaming-GET parser state. The value streams into pending_value_,
  // which moves out to the caller.
  GetStage get_stage_ = GetStage::kIdle;
  std::size_t pending_bytes_ = 0;
  std::string pending_value_;
  std::optional<std::uint32_t> value_checksum_;
};

// The web-server role: Algorithm 2 routing across a fleet of real daemons,
// with per-endpoint health gating and graceful degradation.
class ProteusClient {
 public:
  // The authoritative miss path (your database).
  using Backend = std::function<std::string(std::string_view)>;

  struct Options {
    // Daemon ports in the FIXED PROVISIONING ORDER (§III-A). Index 0 turns
    // on first / off last.
    std::vector<std::uint16_t> endpoints;
    // Optional per-endpoint hosts, parallel to `endpoints`; entries beyond
    // its size (or an empty vector) default to 127.0.0.1.
    std::vector<std::string> hosts;
    int initial_active = 0;  // 0 -> all endpoints
    // Transition drain window. The client finalizes lazily on the next
    // operation past the deadline (like Proteus::tick).
    SimTime ttl = 60 * kSecond;

    // --- fault tolerance ---------------------------------------------------
    SimTime connect_timeout = kSecond;  // wall-clock bound per connect
    SimTime op_timeout = kSecond;       // wall-clock bound per wire op
    // Total attempts per wire op (1 = no retry). Retries reconnect first,
    // spaced by decorrelated jitter drawn from `jitter_seed`.
    int max_attempts = 2;
    // Endpoint health policy (core::EndpointHealth::Policy): the fail-stop
    // dials (`error_threshold` consecutive hard errors quarantine an
    // endpoint; `quarantine_base`/`quarantine_cap` bound its re-probe
    // dwell) plus the gray-failure ones (phi thresholds, latency EWMA
    // gains, hedge-delay shaping).
    core::EndpointHealth::Policy health;
    std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ULL;
    // Hedged reads are always on: past the primary's adaptive delay
    // (`health`'s hedge-delay dials) a ring-0 get races a backup GET on
    // the key's replica location (needs replicas > 1 for a distinct
    // backup), within core::HedgeBudget's fixed budget of 5% extra GETs. A
    // hedge delay floor above op_timeout means the deadline always comes
    // first, i.e. no hedge.
    // §III-E replication degree. With r > 1 every fill/put writes all r
    // ring locations and reads fail over to them when the primary is down.
    int replicas = 1;
    // Observability (src/obs): transition lifecycle events (resize_begin,
    // digest_fetch/digest_skip per endpoint, migration_hit,
    // digest_false_positive, resize_end) are emitted here when set.
    obs::TraceSink* trace = nullptr;
    // Per-request distributed tracing: sampled get()s become span trees
    // (root + tiled per-cause children) recorded here, with trace context
    // propagated to the daemons on the wire. Null disables tracing; the
    // collector's sample_every controls the head-sampling rate.
    obs::SpanCollector* spans = nullptr;

    // --- overload protection (core/overload.h; all optional) ---------------
    // Dogpile suppression: concurrent misses on one key collapse into one
    // backend fetch. SHARE one group across the process's per-thread
    // clients — the backend it protects is shared.
    core::SingleflightGroup* singleflight = nullptr;
    // AIMD concurrency cap on backend fetches; when it sheds, get()
    // returns `degraded_response` instead of queueing on the backend.
    // Share across threads like the singleflight group.
    core::AdaptiveLimiter* limiter = nullptr;
    // Transition-aware pacing of Algorithm 2 line 12 write-backs. Its
    // overload signal follows `limiter` automatically when both are set.
    core::MigrationThrottle* migration_throttle = nullptr;
    // Served when a fetch is shed (by the daemon or the limiter) — the
    // explicit degraded answer. Empty mimics a database default.
    std::string degraded_response;
    // Live power/model auditing (obs/audit.h): when set, tick() feeds the
    // client's per-endpoint get/hit counters and routing-derived power
    // states into this auditor about once per second of `now`. Not owned;
    // share one auditor across the clients of a fleet only if they are
    // driven from one thread.
    obs::PowerAuditor* auditor = nullptr;
  };

  ProteusClient(Options options, Backend backend);
  // Algorithm 2 counts into this object's stats.
  ProteusClient(const ProteusClient&) = delete;
  ProteusClient& operator=(const ProteusClient&) = delete;

  // Algorithm 2 over the wire. `now` is any monotonic microsecond clock
  // (it also drives quarantine/retry scheduling). Never blocks longer than
  // max_attempts * (connect_timeout + op_timeout) per consulted server.
  std::string get(std::string_view key, SimTime now);
  void put(std::string_view key, std::string_view value, SimTime now);

  // Smooth provisioning transition: fetches the digests of every server
  // active under the old mapping THROUGH the protocol, then switches the
  // mapping. Unreachable servers are skipped — their digest is recorded as
  // absent, so their keys simply refill from the backend — and the
  // transition ALWAYS completes. Returns false if any digest was skipped.
  bool resize(int n_active, SimTime now);
  void tick(SimTime now);

  int active_servers() const noexcept { return router_.active(); }
  bool in_transition() const noexcept { return router_.in_transition(); }
  // Fencing epoch: bumped on every resize, taught to daemons, stamped on
  // every wire mutation, and refreshed whenever a daemon fences us off.
  std::uint64_t cluster_epoch() const noexcept { return epoch_; }

  struct Stats {
    std::uint64_t gets = 0;
    std::uint64_t new_server_hits = 0;
    std::uint64_t old_server_hits = 0;
    std::uint64_t backend_fetches = 0;
    // Fault-path observability.
    std::uint64_t timeouts = 0;            // ops that hit their deadline
    std::uint64_t resets = 0;              // connection reset / EOF mid-op
    std::uint64_t protocol_errors = 0;     // desynced replies
    std::uint64_t retries = 0;             // extra attempts after a failure
    std::uint64_t reconnects = 0;          // fresh connection attempts
    std::uint64_t breaker_open_skips = 0;  // ops skipped: breaker open
    std::uint64_t failover_hits = 0;       // served by a §III-E replica
    std::uint64_t degraded_misses = 0;     // down server treated as miss
    std::uint64_t digest_skips = 0;        // resize() digests not fetched
    std::uint64_t digest_false_positives = 0;  // fallback consulted, clean miss
    // Overload-path observability.
    std::uint64_t server_sheds = 0;        // daemon answered overloaded/EBUSY
    std::uint64_t load_sheds = 0;          // AdaptiveLimiter refused a fetch
    std::uint64_t coalesced_fetches = 0;   // singleflight follower piggybacks
    std::uint64_t migrations_deferred = 0; // write-backs paced off
    // Crash-recovery observability.
    std::uint64_t stale_epoch_rejects = 0;   // mutations fenced by a daemon
    std::uint64_t incarnation_changes = 0;   // cold restarts seen on reconnect
    std::uint64_t epoch_pushes = 0;          // epochs taught to daemons
    // Gray-failure observability.
    std::uint64_t hedges_fired = 0;       // backup GETs actually sent
    std::uint64_t hedge_wins = 0;         // backup answered first
    std::uint64_t hedge_losses = 0;       // primary answered first anyway
    std::uint64_t hedges_suppressed = 0;  // delay hit but budget refused
    std::uint64_t hedges_to_backend = 0;  // no replica: slow primary abandoned
    std::uint64_t quarantine_enters = 0;  // endpoints taken out of rotation
    std::uint64_t quarantine_exits = 0;   // probation probes re-admitted one
    std::uint64_t corrupt_values = 0;     // CRC32C mismatches caught on get
    std::uint64_t read_repairs = 0;       // corrupt hits refilled from the DB
  };
  const Stats& stats() const noexcept { return stats_; }

  // End-to-end get() latency (wall clock, includes retries and the backend
  // on a miss) — the client-side view of the §VI response-time claim.
  LatencyHistogram get_latency_snapshot() const {
    return get_latency_us_.snapshot();
  }

  // Registers every Stats counter, the per-endpoint health state, and the
  // get-latency histogram into `registry`. Callbacks read this object;
  // snapshot from the thread driving the client (it is not thread-safe
  // anyway), and keep `this` alive past the registry's last snapshot.
  void register_metrics(obs::MetricsRegistry& registry) const;
  // Direct view of the phi-accrual detector gating `server`.
  const core::EndpointHealth& endpoint_health(int server) const {
    return endpoints_.at(static_cast<std::size_t>(server)).health;
  }

 private:
  struct Endpoint {
    std::string host;
    std::uint16_t port = 0;
    std::unique_ptr<MemcacheConnection> conn;  // lazily (re)established
    core::EndpointHealth health;
    // Last incarnation seen from this daemon (0 = never spoken to). A
    // different value on reconnect means the process cold-restarted: its
    // memory — and any transition digest describing it — died with it.
    std::uint64_t incarnation = 0;
    // Client-observed per-endpoint load, the audit feed's fleet view:
    // fetch calls routed here and how many answered with a hit.
    std::uint64_t gets = 0;
    std::uint64_t hits = 0;
    // health's transition counters already surfaced as Stats/trace events.
    std::uint64_t seen_quarantine_enters = 0;
    std::uint64_t seen_quarantine_exits = 0;
  };

  // kShed: the daemon refused the request (admission control) — the server
  // is healthy but saturated. Distinct from kMiss so shed fallback fetches
  // never count as digest false positives, and from kDown so the health
  // detector takes no penalty and no retry feeds the overload. kCorrupt: a
  // hit whose payload failed its CRC32C — served as a miss so the caller
  // read-repairs it.
  using FetchStatus = core::Retrieval::Reply;
  struct FetchResult {
    FetchStatus status;
    std::string value;
  };

  // get() minus the latency-histogram / trace envelope.
  std::string get_inner(std::string_view key, SimTime now,
                        obs::TraceContext& ctx);

  // Health-gated access: returns a live connection or nullptr (endpoint
  // quarantined, or reconnect failed — failure already recorded).
  MemcacheConnection* acquire(int server, SimTime now);
  void record_failure(int server, net::NetError error, SimTime now);
  void record_success(int server, SimTime now, SimTime latency_us);
  // Diffs the endpoint's quarantine transition counters against Stats and
  // emits the enter/exit trace events for any change the last health call
  // produced.
  void note_health_events(int server, SimTime now);
  // Client-side integrity check: the daemon echoed a stored CRC32C and it
  // does not match the bytes that arrived. Counts + traces the corruption.
  bool value_corrupt(int server, MemcacheConnection& c, std::string_view key,
                     std::string_view value, SimTime now);

  // Every Algorithm 2 cache get (`kind`: kCacheGet, kMigrationFetch or
  // kFailover), with retry + health bookkeeping. Each attempt has a full
  // op_timeout and becomes a tiled child span (first attempt = `kind`,
  // retries = kRetry); the trace id rides the wire to the daemon. Transport
  // deaths retry while max_attempts allows; a shed or fence never does. A
  // kCacheGet also hedges: past the primary's adaptive delay it spends the
  // hedge budget on a backup GET at the key's replica location (first
  // well-formed answer wins, the loser's connection is abandoned) or, with
  // no distinct replica, abandons a suspect primary for the database.
  FetchResult fetch(int server, std::string_view key, SimTime now,
                    obs::TraceContext& ctx, obs::SpanKind kind);
  // Books one completed GET reply from `server` (health, hit count,
  // CRC32C verify, one `kind` span) and classifies it; a transport failure
  // comes back kDown for the caller to retry or give up on.
  FetchResult read_reply(int server, MemcacheConnection& c,
                         std::optional<std::string>& value, SimTime latency,
                         std::string_view key, SimTime now,
                         obs::TraceContext& ctx, obs::SpanKind kind);
  // The first non-quarantined ring >= 1 location of `key` other than
  // `primary`, or -1.
  int pick_backup(std::string_view key, int primary) const;
  bool quarantined(int server) const;
  // A read acquire() refused: kQuarantined by the health gate, else kDown
  // (reconnect failed), spanned as such.
  FetchResult skipped(int server, std::string_view key,
                      obs::TraceContext& ctx, obs::SpanKind kind);
  // An acknowledged store, or with `noreply` a fire-and-forget one (the
  // Algorithm 2 line-12 fills and migration stores): true then means sent,
  // and a store the daemon refuses only costs a later miss. Stores carry no
  // trace token, so a daemon span never outlives the get that caused it.
  bool cache_set(int server, std::string_view key, std::string_view value,
                 SimTime now, bool noreply = false, bool background = false);
  // The guarded miss path: backend_ behind the optional singleflight group
  // and AIMD limiter, its answer (value, coalesced, or shed) fed to the
  // retrieval.
  core::Retrieval::Action fetch_backend(std::string_view key,
                                        core::Retrieval& retrieval);
  void cache_erase(int server, std::string_view key, SimTime now);
  // Health bookkeeping for a finished mutation started at `t0`; a
  // stale-epoch fence refreshes the view.
  void settle(int server, const MemcacheConnection& c, SimTime t0,
              SimTime now);
  std::optional<bloom::BloomFilter> fetch_digest(int server, SimTime now);
  // The hello, on a fresh connection and after a stale-epoch fence: re-read
  // the daemon's (epoch, incarnation), drop the transition digest of a
  // restarted daemon, adopt a newer epoch and push ours when it is ahead.
  void refresh_view(int server, SimTime now);
  // Ends the in-flight transition at `now` (drain window over, or overtaken
  // by the next resize) and emits its one resize_end.
  void finalize_transition(SimTime now);

  Options options_;
  Backend backend_;
  cluster::Router router_;  // every §III-E ring, one transition
  std::vector<Endpoint> endpoints_;
  Rng rng_;  // deterministic jitter for backoff/probe schedules
  core::DecorrelatedJitter retry_jitter_;  // spacing between wire retries
  core::HedgeBudget hedge_budget_;
  Stats stats_;
  obs::Histogram get_latency_us_;
  std::uint64_t epoch_ = 0;  // fencing epoch (docs/PROTOCOL.md)
  SimTime last_audit_feed_ = 0;
  SimTime last_probe_sweep_ = 0;  // tick()'s background-probe rate gate
  core::Retrieval::Options retrieval_options_;
  // put()'s location lists, kept so that a put allocates nothing.
  std::vector<int> put_locations_;
  std::vector<int> put_old_locations_;
};

}  // namespace proteus::client
