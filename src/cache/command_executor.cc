#include "cache/command_executor.h"

#include <algorithm>
#include <charconv>

#include "common/hash.h"
#include "obs/span.h"

namespace proteus::cache {

namespace {

bool parse_decimal(std::string_view s, std::uint64_t& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool is_store(Command::Op op) {
  return op == Command::Op::kSet || op == Command::Op::kAdd ||
         op == Command::Op::kReplace;
}

}  // namespace

CommandExecutor::CommandExecutor(ShardedCacheServer& engine,
                                 obs::SpanCollector* spans, int server_id,
                                 PipelinePolicy pipeline)
    : engine_(engine),
      spans_(spans),
      server_id_(server_id),
      pipeline_(pipeline),
      served_(static_cast<std::size_t>(engine.num_shards()), 0) {}

void CommandExecutor::begin_batch() {
  std::fill(served_.begin(), served_.end(), 0);
}

bool CommandExecutor::admit(std::string_view key) {
  if (pipeline_.max_per_batch <= 0) return true;
  int& served = served_[key.empty() ? 0 : engine_.shard_index(key)];
  if (served >= pipeline_.max_per_batch) {
    if (pipeline_.sheds != nullptr) {
      pipeline_.sheds->fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }
  ++served;
  return true;
}

bool CommandExecutor::fits(std::string_view key, std::size_t bytes) const {
  // A shard's budget is fixed at construction: no lock needed to read it.
  return bytes <= engine_.shard(engine_.shard_index(key)).memory_budget();
}

SimTime CommandExecutor::parse_clock(std::string_view line) const {
  return spans_ != nullptr && line.find(" O") != std::string_view::npos
             ? obs::span_clock_now()
             : 0;
}

void CommandExecutor::parsed(std::uint64_t trace_id, SimTime parse_start) {
  if (trace_id == 0) return;
  last_trace_id_ = trace_id;
  if (spans_ != nullptr) {
    record_span(trace_id, obs::SpanKind::kServerParse, parse_start,
                obs::SpanCause::kNone);
  }
}

CommandResult CommandExecutor::execute(Command& cmd, SimTime now) {
  const std::uint64_t tid = spans_ != nullptr ? cmd.trace_id : 0;
  const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
  CommandResult r = cmd.op == Command::Op::kGet ? get(cmd, now, tid)
                    : is_store(cmd.op)          ? store(cmd, now, tid)
                                                : update(cmd, now, tid);
  if (tid != 0) {
    const obs::SpanCause cause =
        r.status == CommandStatus::kStaleEpoch    ? obs::SpanCause::kStaleEpoch
        : r.status == CommandStatus::kBadChecksum ? obs::SpanCause::kCorrupt
                                                  : obs::SpanCause::kNone;
    record_span(tid, obs::SpanKind::kServerOp, op_start, cause, cmd.key);
  }
  return r;
}

CommandResult CommandExecutor::get(const Command& cmd, SimTime now,
                                   std::uint64_t tid) {
  engine_.observe_epoch(cmd.epoch);  // reads teach the fence, never trip it
  if (ShardedCacheServer::is_reserved_key(cmd.key)) {
    // Admin reads (digest blob, epoch hello) take the engine's merged and
    // broadcast paths without a shard lock: the blob is the OR of every
    // shard's digest segment, byte-identical on the wire at any shard
    // count (§V-3). Counted as admin traffic, never as data-plane gets.
    const std::string value = *engine_.get(cmd.key, now);
    cmd.on_hit(Hit{value, 0, std::nullopt});
    return CommandStatus::kOk;
  }
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(cmd.key, guard, tid);
  if (cache == nullptr) return CommandStatus::kBusy;
  CacheServer::ItemMeta meta;
  const std::optional<std::string_view> value =
      cache->get_view(cmd.key, now, &meta);
  if (!value.has_value()) return CommandStatus::kNotFound;
  // Copied by the reader while the guard still holds the shard: the view
  // dies with the next mutation of this shard. Only a get that opted in
  // echoes, and only a stamped item has a stamp.
  cmd.on_hit(Hit{*value, meta.flags,
                 cmd.checksum.has_value() ? meta.crc : std::nullopt});
  return CommandStatus::kOk;
}

CommandResult CommandExecutor::store(Command& cmd, SimTime now,
                                     std::uint64_t tid) {
  if (cmd.checksum.has_value() && crc32c(cmd.payload) != *cmd.checksum) {
    // The payload rotted between the client's stamp and here (wire
    // corruption or a buggy middlebox). Refuse it before it means anything
    // — an epoch proposal included — rather than store bad bytes; the
    // client re-sends. The reject count is shard state, hence the lock.
    ShardedCacheServer::Guard guard;
    CacheServer* cache = acquire(cmd.key, guard, tid);
    if (cache == nullptr) return CommandStatus::kBusy;
    cache->note_corrupt_set_reject(now, cmd.key);
    return CommandStatus::kBadChecksum;
  }
  if (cmd.key == kEpochKey) {
    // Epoch adoption: the payload is the decimal epoch. Stale proposals are
    // refused so a lagging coordinator cannot roll the fence backwards.
    std::uint64_t proposed = 0;
    if (cmd.op != Command::Op::kSet || !parse_decimal(cmd.payload, proposed)) {
      return CommandStatus::kBadEpoch;
    }
    return engine_.adopt_epoch(proposed) ? CommandStatus::kOk
                                         : CommandStatus::kStaleEpoch;
  }
  if (ShardedCacheServer::is_reserved_key(cmd.key)) {
    return CommandStatus::kReserved;  // the digest keys are read-only
  }
  if (!engine_.admit_epoch(cmd.epoch)) return CommandStatus::kStaleEpoch;
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(cmd.key, guard, tid);
  if (cache == nullptr) return CommandStatus::kBusy;
  if (cmd.op != Command::Op::kSet) {
    // add and replace are conditional on residency.
    const bool resident = cache->contains(cmd.key, now);
    if (cmd.op == Command::Op::kReplace && !resident) {
      return CommandStatus::kNotFound;
    }
    if (cmd.op == Command::Op::kAdd && resident) return CommandStatus::kExists;
  }
  // A store that can never fit has still unlinked the key's resident copy,
  // as memcached does: no older value outlives the refused write.
  return cache->set(cmd.key, std::move(cmd.payload), now, cmd.charge,
                    cmd.flags, cmd.checksum)
             ? CommandStatus::kOk
             : CommandStatus::kTooLarge;
}

CommandResult CommandExecutor::update(const Command& cmd, SimTime now,
                                      std::uint64_t tid) {
  const bool counter =
      cmd.op == Command::Op::kIncr || cmd.op == Command::Op::kDecr;
  if (ShardedCacheServer::is_reserved_key(cmd.key)) {
    // Admin keys are never stored: no counter, nothing to delete or touch.
    return counter ? CommandStatus::kNonNumeric : CommandStatus::kNotFound;
  }
  if (cmd.op == Command::Op::kDelete && !engine_.admit_epoch(cmd.epoch)) {
    return CommandStatus::kStaleEpoch;
  }
  // The guard spans incr/decr's get+set pair: a counter is atomic per shard.
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(cmd.key, guard, tid);
  if (cache == nullptr) return CommandStatus::kBusy;
  if (cmd.op == Command::Op::kDelete) {
    return cache->erase(cmd.key) ? CommandStatus::kOk
                                 : CommandStatus::kNotFound;
  }
  // The TTL is access-based, so a touch is a read.
  const auto value = cache->get(cmd.key, now);
  if (!value.has_value()) return CommandStatus::kNotFound;
  if (!counter) return CommandStatus::kOk;
  std::uint64_t current = 0;
  if (!parse_decimal(*value, current)) return CommandStatus::kNonNumeric;
  CommandResult r;
  r.counter = cmd.op == Command::Op::kIncr
                  ? current + cmd.delta  // memcached wraps on 64-bit overflow
                  : (current > cmd.delta ? current - cmd.delta : 0);  // clamps
  cache->set(cmd.key, std::to_string(r.counter), now);
  return r;
}

CacheServer* CommandExecutor::acquire(std::string_view key,
                                      ShardedCacheServer::Guard& guard,
                                      std::uint64_t tid) {
  const std::size_t idx = engine_.shard_index(key);
  const SimTime wait_start = tid != 0 ? obs::span_clock_now() : 0;
  guard = engine_.lock_shard_for(idx, pipeline_.lock_deadline_us);
  const bool timed_out = !guard.owns_lock();
  if (tid != 0) {
    // Lock-wait spans carry the key so proteus-spans can attribute
    // contention to the shard that owns it.
    record_span(tid, obs::SpanKind::kServerLockWait, wait_start,
                timed_out ? obs::SpanCause::kShed : obs::SpanCause::kNone,
                key);
  }
  if (timed_out) {
    if (pipeline_.deadline_sheds != nullptr) {
      pipeline_.deadline_sheds->fetch_add(1, std::memory_order_relaxed);
    }
    return nullptr;
  }
  return &engine_.shard(idx);
}

void CommandExecutor::record_span(std::uint64_t tid, obs::SpanKind kind,
                                  SimTime start, obs::SpanCause cause,
                                  std::string_view key) {
  obs::SpanRecord s;
  s.trace_id = tid;
  s.span_id = spans_->next_id();
  s.parent_id = 0;  // wire parent unknown; analyzer correlates by trace id
  s.kind = kind;
  s.cause = cause;
  s.start_us = start;
  s.duration_us = obs::span_clock_now() - start;
  s.server = server_id_;
  s.key = std::string(key.substr(0, 64));
  spans_->record(std::move(s));
}

std::array<CommandExecutor::Stat, 18> CommandExecutor::stats() const {
  // Merged across shards; each accessor visits shards one at a time.
  const CacheStats s = engine_.stats();
  return {{
      {"cmd_get", s.gets},
      {"get_hits", s.hits},
      {"get_misses", s.misses},
      {"cmd_set", s.sets},
      {"delete_hits", s.deletes},
      {"evictions", s.evictions},
      {"expired_unfetched", s.expirations},
      {"curr_items", engine_.item_count()},
      {"bytes", engine_.bytes_used()},
      {"limit_maxbytes", engine_.memory_budget()},
      {"digest_counters", engine_.digest_num_counters()},
      {"digest_bytes", engine_.digest_memory_bytes()},
      {"cluster_epoch", engine_.cluster_epoch()},
      {"incarnation", engine_.incarnation()},
      {"stale_epoch_rejects", engine_.stale_epoch_rejects()},
      {"corrupt_drops", s.corrupt_drops},
      {"corrupt_set_rejects", s.corrupt_set_rejects},
      // Reserved-key admin traffic (digest pulls, epoch hellos), excluded
      // from cmd_get/get_hits/get_misses so hit ratios stay data-plane only.
      {"admin_gets", s.admin_gets},
  }};
}

}  // namespace proteus::cache
