// Protocol-neutral command execution: the one place the memcached command
// semantics live, apart from the text framing that decodes them.
//
// The paper's cache server is one modified memcached (§V-3). The text
// session (cache/text_protocol.h) frames a request into a Command, calls
// CommandExecutor::execute, and encodes the typed CommandResult; every
// rule between decode and encode lives here exactly once, testable without
// a wire:
//   * the per-shard pipeline budget (cache/pipeline_policy.h);
//   * shard locking under `lock_deadline_us`, counting deadline sheds;
//   * the epoch fence: mutations admit, reads observe, PROTEUS_EPOCH adopts;
//   * CRC32C verification of stamped payloads on arrival;
//   * reserved-key dispatch (digest blob, epoch hello);
//   * server-side parse, lock-wait and op spans, with their causes;
//   * the `stats` name/value list.
//
// A get hit is copied once: the executor hands a view of the item's bytes
// to the command's HitReader while it still holds the key's shard lock, and
// the reader copies them straight into its reply. Serve-time CRC32C
// verification (CacheServer::get_view) runs before the view is handed out.
//
// Storage commands run their checks in one order:
//   1. checksum verify — before the payload is interpreted and outside the
//      shard lock (counting a reject takes the key's shard lock);
//   2. reserved or epoch key;
//   3. epoch fence;
//   4. shard lock;
//   5. the store, refused when the item can never fit its shard.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cache/pipeline_policy.h"
#include "cache/sharded_cache.h"
#include "common/time.h"

namespace proteus::obs {
class SpanCollector;
enum class SpanKind;
enum class SpanCause;
}  // namespace proteus::obs

namespace proteus::cache {

// A get hit as the executor hands it to its reader.
struct Hit {
  std::string_view value;            // the item's bytes
  std::uint32_t flags = 0;           // the item's client flags
  std::optional<std::uint32_t> crc;  // stored checksum, when asked for
};

// Reads a get hit in place, under the key's shard lock: `hit.value` views
// the item and is valid only during the call. Borrows the callable it is
// built from, which must outlive every call.
class HitReader {
 public:
  HitReader() = default;
  template <class F>
    requires(!std::is_same_v<std::remove_cv_t<F>, HitReader>)
  HitReader(F& read) noexcept  // NOLINT: implicit, like a function_ref
      : obj_(&read), call_([](void* obj, const Hit& hit) {
          (*static_cast<F*>(obj))(hit);
        }) {}
  void operator()(const Hit& hit) const { call_(obj_, hit); }

 private:
  void* obj_ = nullptr;
  void (*call_)(void*, const Hit&) = nullptr;
};

// One decoded request against one key.
struct Command {
  enum class Op : std::uint8_t {
    kGet,
    kSet,
    kAdd,
    kReplace,
    kDelete,
    kIncr,
    kDecr,
    kTouch,
  };
  Op op = Op::kGet;
  std::string_view key;
  std::string payload;      // storage commands: the value, moved into the cache
  std::uint32_t flags = 0;  // storage commands: opaque client flags
  // Cluster-epoch stamp; 0 = unstamped (stock client), always admitted.
  std::uint64_t epoch = 0;
  // Storage: the client's CRC32C of the payload. Get: present = echo the
  // stored checksum (the value itself is ignored).
  std::optional<std::uint32_t> checksum;
  // Storage: the value size to account in place of `payload`, for a data
  // block too large for its shard that is discarded unread (0 = payload's).
  std::size_t charge = 0;
  std::uint64_t delta = 0;     // incr/decr
  std::uint64_t trace_id = 0;  // wire trace id; 0 = untraced
  HitReader on_hit;            // get: receives a hit (required)
};

enum class CommandStatus : std::uint8_t {
  kOk,
  kNotFound,     // miss; replace on an absent key
  kExists,       // add over a resident key
  kNonNumeric,   // incr/decr on a value that is not a decimal counter
  kReserved,     // store to a read-only digest key
  kBadEpoch,     // PROTEUS_EPOCH store that is not a set of a decimal epoch
  kStaleEpoch,   // fenced: stamped below the cluster epoch
  kBadChecksum,  // the payload failed its CRC32C stamp
  kBusy,         // the shard-lock deadline passed (counted as a shed)
  kTooLarge,     // the item can never fit its shard; a resident copy is dropped
};

struct CommandResult {
  // Implicit: a bare status is a whole result.
  CommandResult(CommandStatus s = CommandStatus::kOk) : status(s) {}

  CommandStatus status;
  std::uint64_t counter = 0;  // incr/decr: the new value
};

class CommandExecutor {
 public:
  // `spans` (optional) records server-side spans for traced commands,
  // tagged with `server_id` (-1 = unknown); it must outlive the executor.
  CommandExecutor(ShardedCacheServer& engine, obs::SpanCollector* spans,
                  int server_id, PipelinePolicy pipeline);

  // --- pipeline budget ------------------------------------------------------
  // Opens a feed() batch: every shard's budget refills.
  void begin_batch();
  // Spends one unit of `key`'s shard budget (keyless commands: shard 0).
  // False = over the cap: the caller sheds the command, already counted in
  // `pipeline.sheds`; it never attempts its shard lock, so it can never
  // also count as a deadline shed.
  bool admit(std::string_view key);
  // False when a `bytes`-long value can never fit `key`'s shard, so its
  // data block need not be buffered to refuse the store.
  bool fits(std::string_view key, std::size_t bytes) const;

  // --- spans ----------------------------------------------------------------
  // Start of `line`'s parse span: the span clock when a collector is
  // attached and the line can carry a trace token (it holds " O"), else 0
  // without reading the clock.
  SimTime parse_clock(std::string_view line) const;
  // Notes a parsed command's wire trace id (0 = none) and records its parse
  // span from `parse_start`.
  void parsed(std::uint64_t trace_id, SimTime parse_start);
  // Trace id of the most recent command that carried one (0 = none yet).
  std::uint64_t last_trace_id() const noexcept { return last_trace_id_; }

  // --- commands -------------------------------------------------------------
  // Runs one command and records its op span. Consumes `cmd.payload`; a
  // get hands its hit to `cmd.on_hit` under the shard lock and returns kOk,
  // a miss kNotFound.
  CommandResult execute(Command& cmd, SimTime now);
  // Fan-outs under every shard lock; the caller holds none.
  void flush() { engine_.flush(); }
  void reset_stats() { engine_.reset_stats(); }

  struct Stat {
    std::string_view name;
    std::uint64_t value;
  };
  // The `stats` list in wire order, merged across shards.
  std::array<Stat, 18> stats() const;

 private:
  CommandResult get(const Command& cmd, SimTime now, std::uint64_t tid);
  CommandResult store(Command& cmd, SimTime now, std::uint64_t tid);
  // delete, incr, decr, touch.
  CommandResult update(const Command& cmd, SimTime now, std::uint64_t tid);
  // Locks `key`'s shard under the lock deadline, recording the lock-wait
  // span; returns the shard, or nullptr after counting one deadline shed.
  CacheServer* acquire(std::string_view key, ShardedCacheServer::Guard& guard,
                       std::uint64_t tid);
  // Records [start, now] on the span clock; `key` attributes the span.
  void record_span(std::uint64_t tid, obs::SpanKind kind, SimTime start,
                   obs::SpanCause cause, std::string_view key = {});

  ShardedCacheServer& engine_;
  obs::SpanCollector* spans_;
  int server_id_;
  PipelinePolicy pipeline_;
  std::vector<int> served_;  // commands admitted this batch, per shard
  std::uint64_t last_trace_id_ = 0;
};

}  // namespace proteus::cache
