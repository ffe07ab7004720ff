// Memcached text protocol codec over the sharded cache engine.
//
// The paper modified stock memcached and kept wire compatibility: "It
// exactly follows Memcached protocol, and should be compatible with all
// Memcached client packages" (§V-3), validated against spymemcached and
// python-memcached. This module implements the subset of the memcached
// text protocol those clients use, so the digest operations
// (SET_BLOOM_FILTER / BLOOM_FILTER) are reachable through an unmodified
// client exactly as in the paper:
//
//   get <key>[ <key>...]\r\n
//   set|add|replace <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
//   delete <key> [noreply]\r\n
//   incr|decr <key> <value> [noreply]\r\n
//   touch <key> <exptime> [noreply]\r\n
//   flush_all [noreply]\r\n
//   stats [reset|proteus]\r\n   version\r\n     quit\r\n
//
// Trace-context extension (src/obs/span.h): get/storage/delete lines may
// carry a trailing memcached-meta-style opaque token `O<hex64>` (exactly
// "O" + 16 lowercase hex digits). The parser strips it into
// TextCommand::trace_id; a stock memcached treats the token as one more
// (always-missing) key on a get, or rejects the line harmlessly on other
// verbs — the extension never changes what a compliant client observes.
// When a session is given a SpanCollector, commands carrying a trace id
// additionally record server-side parse/op spans correlated by that id.
//
// Priority extension (src/core/overload.h): get/storage/delete lines may
// additionally carry a literal `bg` meta token (see below for ordering) that
// marks the request as background/maintenance traffic — the daemon sheds it
// first under overload. Like the trace token it is invisible to stock
// memcached semantics.
//
// Epoch fencing extension (docs/PROTOCOL.md): get/storage/delete lines may
// carry an `E<hex64>` cluster-epoch stamp. A mutation stamped below the
// server's current epoch is refused with `SERVER_ERROR stale-epoch` — the
// fencing-token check that keeps a client routing on a pre-resize view from
// writing into a draining or re-owned key range. The reserved key
// PROTEUS_EPOCH reads back "<epoch> <incarnation>" and accepts a decimal
// epoch via set.
//
// Payload integrity extension (docs/PROTOCOL.md): storage lines may carry a
// `C<hex8>` CRC32C stamp of the data block, verified at arrival
// (`SERVER_ERROR bad-checksum`) and re-verified every time the item is
// served (corrupt items are dropped and answered as misses, never served).
// A `C00000000` token on a get line asks the server to echo stored
// checksums as a trailing `C<hex8>` on each VALUE line; clients that did
// not opt in (including stock clients) see unchanged VALUE lines.
//
// A noreply mutation refused as stale-epoch has no reply to say so; the
// connection's next get of a data key (not a reserved one) is answered
// `SERVER_ERROR stale-epoch` in its place, once, so a client that writes
// fire-and-forget still learns that its epoch is old.
//
// The meta tokens (`bg`, `O…`, `E…`, `C…`) trail the command line in ANY
// order — the parser strips recognized tokens from the tail until none
// match, so instrumented clients may append them independently.
//
// `stats reset` zeroes the per-server counters (memcached parity) and
// `stats proteus` dumps the attached obs::MetricsRegistry — counters,
// gauges, and latency quantiles — as STAT lines (docs/OPERATIONS.md
// "Observability" lists the catalog).
//
// The session is push-parsed: feed() accepts arbitrary byte chunks (TCP
// segmentation agnostic) and emits complete protocol responses. It parses
// in place, straight out of the bytes it is handed, and keeps only an
// unfinished tail between feeds (a partial line, or the last byte of a data
// block's CRLF); a data block still arriving is copied once, into the value
// that moves into the item. Every reply of a feed is appended to the one
// string it returns.
//
// The session is also where each command's rules live, applied straight to
// the parsed TextCommand:
//   * the per-shard pipeline budget (cache/pipeline_policy.h);
//   * shard locking under `lock_deadline_us`, counting deadline sheds;
//   * the epoch fence: mutations admit, reads observe, PROTEUS_EPOCH adopts;
//   * CRC32C verification of stamped payloads on arrival;
//   * reserved-key dispatch (digest blob, epoch hello);
//   * server-side parse, lock-wait and op spans, with their causes;
//   * the `stats` name/value list.
// A get hit is copied once, from the item into the reply, while the key's
// shard lock is held (CacheServer::get_view verifies a stamped item first).
// Storage commands run their checks in one order:
//   1. checksum verify — before the payload is interpreted and outside the
//      shard lock (counting a reject takes the key's shard lock);
//   2. reserved or epoch key;
//   3. epoch fence;
//   4. shard lock;
//   5. the store, refused when the item can never fit its shard.
//
// Text is the only wire protocol (docs/PROTOCOL.md "Compatibility"). A
// connection whose first byte is the binary protocol's 0x80 request magic
// is closed without a reply, so a binary client fails fast. A command line
// longer than kMaxLineBytes is answered `CLIENT_ERROR line too long` and
// the connection closed, and a storage line whose <bytes> can never fit
// its shard is answered `SERVER_ERROR object too large for cache` at once,
// its data block discarded as it streams in: no peer makes the session
// buffer more than one bounded line or one storable value.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/pipeline_policy.h"
#include "cache/sharded_cache.h"
#include "common/time.h"

namespace proteus::obs {
class MetricsRegistry;
class SpanCollector;
enum class SpanKind;
enum class SpanCause;
}  // namespace proteus::obs

namespace proteus::cache {

// Longest command line accepted, CRLF excluded: far above any in-repo
// client's line, with room for stock clients' multi-key gets.
inline constexpr std::size_t kMaxLineBytes = 64 << 10;

// The keys of a parsed line, viewed in that line: the first inline, a
// multi-get's others on the heap, so a single-key command allocates
// nothing.
class KeyList {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  std::string_view operator[](std::size_t i) const noexcept {
    return i == 0 ? first_ : more_[i - 1];
  }
  void push_back(std::string_view key) {
    if (size_++ == 0) {
      first_ = key;
    } else {
      more_.push_back(key);
    }
  }

 private:
  std::string_view first_;
  std::vector<std::string_view> more_;
  std::size_t size_ = 0;
};

// A parsed request line (exposed for tests and for servers that want to
// route commands themselves). Its keys and stats argument view the line it
// was parsed from, which must outlive it.
struct TextCommand {
  enum class Op {
    kGet,
    kSet,
    kAdd,
    kReplace,
    kDelete,
    kIncr,
    kDecr,
    kTouch,
    kFlushAll,
    kStats,
    kVersion,
    kQuit,
    kInvalid,
  };
  Op op = Op::kInvalid;
  KeyList keys;  // get: all keys; others: keys[0]
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;
  std::size_t bytes = 0;        // storage commands: payload length
  std::uint64_t delta = 0;      // incr/decr
  bool noreply = false;
  std::string_view stats_arg;   // stats subcommand ("", "reset", "proteus")
  // Wire trace context: nonzero when the line carried a trailing O<hex64>
  // token (stripped before key handling).
  std::uint64_t trace_id = 0;
  // Priority extension: true when the line carried a `bg` meta token
  // (anywhere among the tail tokens). Instrumented clients tag
  // maintenance traffic — migration fetches, digest pulls — so the daemon
  // can shed it first under overload. A stock memcached sees one more
  // (always-missing) get key, exactly like the trace token.
  bool background = false;
  // Epoch fencing extension (docs/PROTOCOL.md): nonzero when the line
  // carried an E<hex64> stamp (before any trace/bg token). Mutations whose
  // stamp is below the server's cluster epoch are refused with
  // `SERVER_ERROR stale-epoch`; stamped reads only teach the server.
  std::uint64_t epoch = 0;
  // Payload integrity extension (docs/PROTOCOL.md): set when the line
  // carried a C<hex8> CRC32C token. On storage lines it is the client's
  // checksum of the data block — verified at arrival (`SERVER_ERROR
  // bad-checksum` on mismatch) and stored with the item. On get lines the
  // value is ignored; its presence asks the server to echo stored checksums
  // on VALUE lines.
  std::optional<std::uint32_t> checksum;
};

// Parses one command line (no trailing CRLF). Returns Op::kInvalid with no
// side effects on malformed input.
TextCommand parse_command_line(std::string_view line);

// Admission's view of one command line, without allocating: true when the
// parser would tag it background (a `bg` meta token anywhere in its tail)
// or it is a digest pull (get/gets whose first key is SET_BLOOM_FILTER or
// BLOOM_FILTER) — §IV maintenance traffic either way.
bool is_background_line(std::string_view line);

// The first command line of `batch` (CRLF excluded) that expects a reply,
// past any leading noreply commands and their stores' data blocks; nullopt
// when every command in the batch is a noreply one. Allocation-free:
// admission classifies every batch by this line, since a client's corked
// fire-and-forget store rides at the head of its next request.
std::optional<std::string_view> first_reply_line(std::string_view batch);

// Admission's view of a batch it sheds whole: false when every command in
// it is a noreply one (first_reply_line is nullopt), so the shed stays as
// silent as the per-command refusals those commands get. A batch that
// wants a reply gets one shed line, however many it holds.
bool wants_shed_reply(std::string_view batch);

// One client connection worth of protocol state over a ShardedCacheServer.
// Each command routes to its key's shard and takes ONLY that shard's mutex,
// bounded by `pipeline.lock_deadline_us` (0 = wait forever); a timed-out
// command is shed with `SERVER_ERROR overloaded` and counted in
// `pipeline.deadline_sheds`. Reserved digest/epoch keys are served by the
// engine's merged/broadcast paths, so the wire bytes do not depend on the
// shard count (§V-3).
class TextProtocolSession {
 public:
  // `metrics` (optional) backs the `stats proteus` extension; the registry
  // must outlive the session. Callback metrics registered there are polled
  // on the protocol thread — see the contract in obs/metrics.h.
  // `spans` (optional) records server-side parse/op spans for commands
  // carrying a trace token; `server_id` tags them with this daemon's fleet
  // index (-1 = unknown). Both must outlive the session.
  // `pipeline` caps cache-touching commands per shard per feed() batch (see
  // cache/pipeline_policy.h); excess commands get `SERVER_ERROR overloaded`
  // while their storage payloads are still consumed.
  explicit TextProtocolSession(ShardedCacheServer& engine,
                               const obs::MetricsRegistry* metrics = nullptr,
                               obs::SpanCollector* spans = nullptr,
                               int server_id = -1,
                               PipelinePolicy pipeline = {})
      : engine_(engine),
        metrics_(metrics),
        spans_(spans),
        server_id_(server_id),
        pipeline_(pipeline),
        served_(static_cast<std::size_t>(engine.num_shards()), 0) {}

  // Feeds raw bytes; returns the replies of every command they complete,
  // in order. The bytes are parsed where they lie; only an unfinished tail
  // is kept for the next feed. "quit", a binary first byte or an over-long
  // line sets closed(), and further input is ignored.
  std::string feed(std::string_view bytes, SimTime now);

  bool closed() const noexcept { return closed_; }

  // Trace id of the most recent command that carried one (0 = none yet) —
  // the daemon reads this after feed() to correlate its lock-wait span.
  std::uint64_t last_trace_id() const noexcept { return last_trace_id_; }

  // Invoked on `stats reset` after the cache counters clear, so an owning
  // daemon can reset its own counters (sheds, trace/span drops) in the same
  // breath — `stats reset` then means ONE thing across every surface. Runs
  // on the protocol thread with NO shard lock held (the engine's fan-out
  // reset locks internally); keep it to leaf locks / atomics.
  void set_stats_reset_hook(std::function<void()> hook) {
    stats_reset_hook_ = std::move(hook);
  }

 private:
  // Parses commands out of `in`, appending their replies to `out`; returns
  // where parsing stopped (the start of an unfinished tail).
  std::size_t consume(std::string_view in, SimTime now, std::string& out);
  // Each handler appends its command's reply to `out` (nothing under
  // noreply).
  void handle_line(std::string_view line, SimTime now, std::string& out);
  // Runs a single-key command (storage commands carry their data block).
  // `charge` is the value size to account in place of a data block too
  // large for its shard, which is discarded unread.
  void handle_keyed(const TextCommand& cmd, std::string payload, SimTime now,
                    std::string& out, std::size_t charge = 0);
  void handle_get(const TextCommand& cmd, SimTime now, std::string& out);
  void handle_stats(const TextCommand& cmd, std::string& out);

  // Spends one unit of `key`'s shard budget for this batch (keyless
  // commands: shard 0). False = over the cap, already counted in
  // `pipeline_.sheds`; the command never attempts its shard lock, so it can
  // never also count as a deadline shed.
  bool admit(std::string_view key);
  // set/add/replace, delete/incr/decr/touch: the reply line.
  std::string_view store(const TextCommand& cmd, std::string payload,
                         SimTime now, std::size_t charge, std::uint64_t tid);
  std::string_view update(const TextCommand& cmd, SimTime now,
                          std::uint64_t tid);
  // Appends `key`'s VALUE entry to `out` on a hit, copying the item under
  // its shard lock; false when the lock deadline passed.
  bool append_hit(std::string_view key, bool echo_crc, SimTime now,
                  std::uint64_t tid, std::string& out);
  // Locks `key`'s shard under the lock deadline, recording the lock-wait
  // span; returns the shard, or nullptr after counting one deadline shed.
  CacheServer* acquire(std::string_view key, ShardedCacheServer::Guard& guard,
                       std::uint64_t tid);
  // Records [start, now] on the span clock; `key` attributes the span.
  void record_span(std::uint64_t tid, obs::SpanKind kind, SimTime start,
                   obs::SpanCause cause, std::string_view key = {});

  ShardedCacheServer& engine_;
  const obs::MetricsRegistry* metrics_;
  obs::SpanCollector* spans_;
  int server_id_;
  PipelinePolicy pipeline_;
  std::function<void()> stats_reset_hook_;
  std::vector<int> served_;  // commands admitted this batch, per shard
  std::uint64_t last_trace_id_ = 0;
  std::string counter_reply_;  // an incr/decr's reply line
  // The unfinished tail of earlier feeds: a partial command line, or the
  // start of a pending store's CRLF. Empty between whole commands.
  std::string buffer_;
  bool started_ = false;  // the connection's first byte has been seen
  bool closed_ = false;
  bool resync_ = false;  // discarding to the next CRLF after a bad chunk
  // Data-block bytes (CRLF included) still to drop unread: an answered
  // store that was shed or can never fit.
  std::size_t discard_ = 0;
  // Pending storage command waiting for its data block: its key lives in
  // pending_key_ (the line it was parsed from may be gone by the next
  // feed), the block's bytes so far in payload_ (CRLF excluded).
  std::optional<TextCommand> pending_;
  std::string pending_key_;
  std::string payload_;
  // A noreply mutation was refused as stale-epoch and the next data-plane
  // get has not yet answered `SERVER_ERROR stale-epoch` in its place.
  bool stale_noreply_ = false;
};

}  // namespace proteus::cache
