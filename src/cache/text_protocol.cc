#include "cache/text_protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <utility>

#include "common/hash.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace proteus::cache {

namespace {

// Splits on single spaces, memcached style (no tabs, no repeated spaces):
// the token at `pos`, advancing `pos` past it and the space after it. A
// line is split by calling this while `pos < line.size()`, so one trailing
// space ends the line and two leave an empty token.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  const std::size_t space = std::min(line.find(' ', pos), line.size());
  const std::string_view token = line.substr(pos, space - pos);
  pos = space + 1;
  return token;
}

// Every non-get verb takes at most six tokens (a store's five and
// `noreply`); a longer line is malformed for all of them.
using Tokens = std::array<std::string_view, 6>;

// Splits `line` into `tokens` without allocating: the token count, or 0
// when the line is empty or has more tokens than fit.
std::size_t split(std::string_view line, Tokens& tokens) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < line.size();) {
    if (n == tokens.size()) return 0;
    tokens[n++] = next_token(line, pos);
  }
  return n;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

bool valid_key(std::string_view key) {
  // Memcached: keys are <= 250 bytes, no whitespace or control characters.
  if (key.empty() || key.size() > 250) return false;
  return std::none_of(key.begin(), key.end(), [](unsigned char c) {
    return c <= ' ' || c == 127;
  });
}

// The tokens (verb included) a command takes before its optional trailing
// `noreply`; 0 for verbs that never take one.
std::size_t noreply_arity(std::string_view verb) {
  if (verb == "set" || verb == "add" || verb == "replace") return 5;
  if (verb == "incr" || verb == "decr" || verb == "touch") return 3;
  if (verb == "delete") return 2;
  if (verb == "flush_all") return 1;
  return 0;
}

// Drops a trailing `noreply` from `tokens[0, n)` where the verb takes one.
bool consume_noreply(const Tokens& tokens, std::size_t& n) {
  const std::size_t arity = noreply_arity(tokens[0]);
  if (arity > 0 && n == arity + 1 && tokens[arity] == "noreply") {
    n = arity;
    return true;
  }
  return false;
}

// Strips the trailing meta tokens — `bg` (priority), O<hex64> (trace),
// E<hex64> (epoch fence), C<hex8> (payload checksum) — in ANY order,
// consuming recognized tokens from the tail until none match, and returns
// the rest of the line. Decodes are strict (exact length, lowercase hex),
// so ordinary keys that merely start with 'O'/'E'/'C' never parse as
// tokens. The verb itself is never a token, and the `bg` marker only counts
// when at least one real argument precedes it, so a key literally named
// "bg" stays addressable via `get bg`. Allocation-free: admission runs it
// on every batch (is_background_line).
std::string_view strip_meta_tokens(std::string_view line, TextCommand& cmd) {
  for (;;) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) return line;  // the verb alone
    const std::string_view rest = line.substr(0, space);
    const std::string_view tail = line.substr(space + 1);
    std::uint64_t u64 = 0;
    std::uint32_t u32 = 0;
    if (tail == "bg" && rest.find(' ') != std::string_view::npos) {
      cmd.background = true;
    } else if (obs::decode_trace_token(tail, u64)) {
      cmd.trace_id = u64;
    } else if (obs::decode_epoch_token(tail, u64)) {
      cmd.epoch = u64;
    } else if (obs::decode_checksum_token(tail, u32)) {
      cmd.checksum = u32;
    } else {
      return line;
    }
    line = rest;
  }
}

bool is_storage(TextCommand::Op op) {
  return op == TextCommand::Op::kSet || op == TextCommand::Op::kAdd ||
         op == TextCommand::Op::kReplace;
}

// The verbs whose lines may carry meta tokens.
bool takes_meta_tokens(std::string_view verb) {
  return verb == "get" || verb == "gets" || verb == "set" || verb == "add" ||
         verb == "replace" || verb == "delete";
}

}  // namespace

TextCommand parse_command_line(std::string_view line) {
  TextCommand cmd;
  if (takes_meta_tokens(line.substr(0, line.find(' ')))) {
    line = strip_meta_tokens(line, cmd);
  }
  if (line.empty()) return cmd;
  std::size_t pos = 0;
  const std::string_view verb = next_token(line, pos);

  if (verb == "get" || verb == "gets") {
    if (pos >= line.size()) return cmd;  // no key
    while (pos < line.size()) {
      const std::string_view key = next_token(line, pos);
      if (!valid_key(key)) return cmd;
      cmd.keys.push_back(key);
    }
    cmd.op = TextCommand::Op::kGet;
    return cmd;
  }

  Tokens tokens;
  std::size_t n = split(line, tokens);
  if (n == 0) return cmd;

  if (verb == "set" || verb == "add" || verb == "replace") {
    cmd.noreply = consume_noreply(tokens, n);
    if (n != 5 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.flags) ||
        !parse_number(tokens[3], cmd.exptime) ||
        !parse_number(tokens[4], cmd.bytes) ||
        cmd.bytes > SIZE_MAX - 2) {  // <bytes> + CRLF must not wrap
      return cmd;
    }
    cmd.keys.push_back(tokens[1]);
    cmd.op = verb == "set"   ? TextCommand::Op::kSet
             : verb == "add" ? TextCommand::Op::kAdd
                             : TextCommand::Op::kReplace;
    return cmd;
  }

  if (verb == "delete") {
    cmd.noreply = consume_noreply(tokens, n);
    if (n != 2 || !valid_key(tokens[1])) return cmd;
    cmd.keys.push_back(tokens[1]);
    cmd.op = TextCommand::Op::kDelete;
    return cmd;
  }

  if (verb == "incr" || verb == "decr") {
    cmd.noreply = consume_noreply(tokens, n);
    if (n != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.delta)) return cmd;
    cmd.keys.push_back(tokens[1]);
    cmd.op = verb == "incr" ? TextCommand::Op::kIncr : TextCommand::Op::kDecr;
    return cmd;
  }

  if (verb == "touch") {
    cmd.noreply = consume_noreply(tokens, n);
    if (n != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.exptime)) return cmd;
    cmd.keys.push_back(tokens[1]);
    cmd.op = TextCommand::Op::kTouch;
    return cmd;
  }

  if (verb == "flush_all") {
    cmd.noreply = consume_noreply(tokens, n);
    if (n != 1) return cmd;
    cmd.op = TextCommand::Op::kFlushAll;
    return cmd;
  }

  if (verb == "stats" && n <= 2) {
    if (n == 2) cmd.stats_arg = tokens[1];
    cmd.op = TextCommand::Op::kStats;
    return cmd;
  }
  if (verb == "version" && n == 1) {
    cmd.op = TextCommand::Op::kVersion;
    return cmd;
  }
  if (verb == "quit" && n == 1) {
    cmd.op = TextCommand::Op::kQuit;
    return cmd;
  }
  return cmd;
}

bool is_background_line(std::string_view line) {
  const std::string_view verb = line.substr(0, line.find(' '));
  if (!takes_meta_tokens(verb)) return false;
  TextCommand meta;  // only its token fields are written: no allocation
  const std::string_view rest = strip_meta_tokens(line, meta);
  if (meta.background) return true;
  if (verb != "get" && verb != "gets") return false;
  const std::string_view args =
      rest.substr(std::min(rest.size(), verb.size() + 1));
  const std::string_view first_key = args.substr(0, args.find(' '));
  return first_key == kSetBloomFilterKey || first_key == kGetBloomFilterKey;
}

namespace {

// The bytes the command at the head of `batch` spans, its data block
// included, when it is a noreply command; 0 when it expects a reply. It
// reads `noreply` where parse_command_line does, without allocating.
std::size_t noreply_command_span(std::string_view batch) {
  const std::size_t eol = batch.find("\r\n");
  std::string_view line = batch.substr(0, eol);
  const std::string_view verb = line.substr(0, line.find(' '));
  const std::size_t arity = noreply_arity(verb);
  if (arity == 0) return 0;
  if (takes_meta_tokens(verb)) {
    TextCommand meta;  // only its token fields are written: no allocation
    line = strip_meta_tokens(line, meta);
  }
  Tokens tokens;
  const std::size_t n = split(line, tokens);
  if (n != arity + 1 || tokens[arity] != "noreply") return 0;
  if (eol == std::string_view::npos) return batch.size();
  // A noreply store's data block is not a command line: step over it.
  // The parser caps <bytes> at SIZE_MAX - 2, so the sum cannot wrap.
  std::size_t block = 0;
  if (arity == 5 && parse_number(tokens[4], block) && block <= SIZE_MAX - 2) {
    block += 2;
  } else {
    block = 0;
  }
  return eol + 2 + std::min(block, batch.size() - eol - 2);
}

}  // namespace

std::optional<std::string_view> first_reply_line(std::string_view batch) {
  while (!batch.empty()) {
    const std::size_t span = noreply_command_span(batch);
    if (span == 0) return batch.substr(0, batch.find("\r\n"));
    batch.remove_prefix(span);
  }
  return std::nullopt;
}

bool wants_shed_reply(std::string_view batch) {
  return batch.empty() || first_reply_line(batch).has_value();
}

namespace {

constexpr std::string_view kStored = "STORED\r\n";
constexpr std::string_view kNotStored = "NOT_STORED\r\n";
constexpr std::string_view kNotFound = "NOT_FOUND\r\n";
constexpr std::string_view kNonNumeric =
    "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n";
constexpr std::string_view kStaleEpoch = "SERVER_ERROR stale-epoch\r\n";
constexpr std::string_view kBadChecksum = "SERVER_ERROR bad-checksum\r\n";
constexpr std::string_view kOverloaded = "SERVER_ERROR overloaded\r\n";

// Appends one VALUE entry. It is measured before it is written, so a
// one-key reply, END included, is one allocation of exactly its size (slack
// there measurably fragments the heap the items share).
void append_value(std::string& out, std::string_view key,
                  std::string_view value, std::uint32_t flags,
                  std::optional<std::uint32_t> crc) {
  char flags_text[10];
  char size_text[20];
  const auto flags_len = static_cast<std::size_t>(
      std::to_chars(flags_text, std::end(flags_text), flags).ptr - flags_text);
  const auto size_len = static_cast<std::size_t>(
      std::to_chars(size_text, std::end(size_text), value.size()).ptr -
      size_text);
  out.reserve(out.size() + 6 + key.size() + 1 + flags_len + 1 + size_len +
              (crc.has_value() ? 10 : 0) + 2 + value.size() + 2 + 5);
  out += "VALUE ";
  out += key;
  out += ' ';
  out.append(flags_text, flags_len);
  out += ' ';
  out.append(size_text, size_len);
  if (crc.has_value()) {
    out += ' ';
    obs::append_checksum_token(out, *crc);
  }
  out += "\r\n";
  out += value;
  out += "\r\n";
}

}  // namespace

std::string TextProtocolSession::feed(std::string_view bytes, SimTime now) {
  if (!started_ && !bytes.empty()) {
    started_ = true;
    closed_ = static_cast<unsigned char>(bytes[0]) == 0x80;  // binary magic
  }
  if (closed_) return {};
  std::string out;
  // A feed is one batch: every shard's pipeline budget refills.
  std::fill(served_.begin(), served_.end(), 0);
  if (buffer_.empty()) {
    // Parse where the bytes lie; keep only what they leave unfinished.
    buffer_.assign(bytes.substr(consume(bytes, now, out)));
  } else {
    // Complete an earlier feed's unfinished tail with the new bytes.
    buffer_.append(bytes);
    buffer_.erase(0, consume(buffer_, now, out));
  }
  return out;
}

std::size_t TextProtocolSession::consume(std::string_view in, SimTime now,
                                         std::string& out) {
  for (std::size_t pos = 0;;) {
    const std::string_view rest = in.substr(pos);
    if (discard_ > 0) {
      const std::size_t n = std::min(discard_, rest.size());
      pos += n;
      discard_ -= n;
      if (discard_ > 0) return pos;
      continue;
    }

    if (resync_) {
      // A bad data chunk desynchronized the stream; drop bytes until the
      // next CRLF and resume command parsing there (memcached behaviour).
      const std::size_t eol = rest.find("\r\n");
      if (eol == std::string_view::npos) return in.size();
      pos += eol + 2;
      resync_ = false;
      continue;
    }

    if (pending_.has_value()) {
      // The data block streams into payload_, the one copy it gets before
      // it moves into the item; its CRLF is checked where it lies.
      const std::size_t take =
          std::min(pending_->bytes - payload_.size(), rest.size());
      payload_.append(rest.data(), take);
      pos += take;
      if (payload_.size() < pending_->bytes || in.size() - pos < 2) {
        return pos;
      }
      const bool terminated = in[pos] == '\r' && in[pos + 1] == '\n';
      const TextCommand cmd = std::move(*pending_);
      pending_.reset();
      if (!terminated) {
        // The CRLF's two bytes are where resynchronization starts.
        payload_.clear();
        resync_ = true;
        if (!cmd.noreply) out += "CLIENT_ERROR bad data chunk\r\n";
        continue;
      }
      pos += 2;
      handle_keyed(cmd, std::move(payload_), now, out);
      payload_.clear();
      continue;
    }

    const std::size_t eol = rest.find("\r\n");
    // The bound applies however the line was segmented: without a CRLF yet,
    // the last byte may still be the terminator's CR.
    if ((eol == std::string_view::npos ? rest.size() : eol + 1) >
        kMaxLineBytes + 1) {
      closed_ = true;
      out += "CLIENT_ERROR line too long\r\n";
      return pos;
    }
    if (eol == std::string_view::npos) return pos;
    pos += eol + 2;
    handle_line(rest.substr(0, eol), now, out);
    if (closed_) return pos;
  }
}

void TextProtocolSession::handle_line(std::string_view line, SimTime now,
                                      std::string& out) {
  // The parse span clock is read only when a collector is attached and the
  // line can carry a trace token (it holds " O").
  const SimTime parse_start =
      spans_ != nullptr && line.find(" O") != std::string_view::npos
          ? obs::span_clock_now()
          : 0;
  TextCommand cmd = parse_command_line(line);
  if (cmd.trace_id != 0) {
    last_trace_id_ = cmd.trace_id;
    if (spans_ != nullptr) {
      record_span(cmd.trace_id, obs::SpanKind::kServerParse, parse_start,
                  obs::SpanCause::kNone);
    }
  }
  // Pipeline cap: cache-touching commands beyond their shard's per-batch
  // budget are refused with a well-formed shed reply; a command accounts
  // against its first key's shard. Exempt: quit/version (free, and quit
  // must always work) and invalid lines (answered ERROR regardless).
  const bool cache_touching = cmd.op != TextCommand::Op::kQuit &&
                              cmd.op != TextCommand::Op::kVersion &&
                              cmd.op != TextCommand::Op::kInvalid;
  if (cache_touching &&
      !admit(cmd.keys.empty() ? std::string_view{} : cmd.keys[0])) {
    // A shed store's data block is still in flight: drop it unread.
    if (is_storage(cmd.op)) discard_ = cmd.bytes + 2;
    if (!cmd.noreply) out += kOverloaded;
    return;
  }
  switch (cmd.op) {
    case TextCommand::Op::kInvalid:
      out += "ERROR\r\n";
      return;
    case TextCommand::Op::kGet:
      handle_get(cmd, now, out);
      return;
    case TextCommand::Op::kSet:
    case TextCommand::Op::kAdd:
    case TextCommand::Op::kReplace:
      // A shard's budget is fixed at construction: no lock needed to read.
      if (cmd.bytes >
          engine_.shard(engine_.shard_index(cmd.keys[0])).memory_budget()) {
        // Refused now, with the data block dropped unread as it arrives;
        // there is nothing to verify a checksum against.
        discard_ = cmd.bytes + 2;
        cmd.checksum.reset();
        handle_keyed(cmd, {}, now, out, cmd.bytes);
        return;
      }
      // Runs once the data block arrives, maybe in a later feed: the key
      // moves out of the line into storage the session owns.
      pending_key_.assign(cmd.keys[0]);
      cmd.keys = KeyList();
      cmd.keys.push_back(pending_key_);
      pending_ = std::move(cmd);
      return;
    case TextCommand::Op::kDelete:
    case TextCommand::Op::kIncr:
    case TextCommand::Op::kDecr:
    case TextCommand::Op::kTouch:
      handle_keyed(cmd, {}, now, out);
      return;
    case TextCommand::Op::kFlushAll:
      engine_.flush();
      if (!cmd.noreply) out += "OK\r\n";
      return;
    case TextCommand::Op::kStats:
      handle_stats(cmd, out);
      return;
    case TextCommand::Op::kVersion:
      out += "VERSION proteus-1.0\r\n";
      return;
    case TextCommand::Op::kQuit:
      closed_ = true;
      return;
  }
}

bool TextProtocolSession::admit(std::string_view key) {
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

void TextProtocolSession::handle_keyed(const TextCommand& cmd,
                                       std::string payload, SimTime now,
                                       std::string& out, std::size_t charge) {
  const std::uint64_t tid = spans_ != nullptr ? cmd.trace_id : 0;
  const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
  const std::string_view reply =
      is_storage(cmd.op) ? store(cmd, std::move(payload), now, charge, tid)
                         : update(cmd, now, tid);
  if (tid != 0) {
    const obs::SpanCause cause =
        reply == kStaleEpoch    ? obs::SpanCause::kStaleEpoch
        : reply == kBadChecksum ? obs::SpanCause::kCorrupt
                                : obs::SpanCause::kNone;
    record_span(tid, obs::SpanKind::kServerOp, op_start, cause, cmd.keys[0]);
  }
  if (cmd.noreply) {
    stale_noreply_ |= reply == kStaleEpoch;
    return;
  }
  out += reply;
}

std::string_view TextProtocolSession::store(const TextCommand& cmd,
                                            std::string payload, SimTime now,
                                            std::size_t charge,
                                            std::uint64_t tid) {
  const std::string_view key = cmd.keys[0];
  if (cmd.checksum.has_value() && crc32c(payload) != *cmd.checksum) {
    // The payload rotted between the client's stamp and here (wire
    // corruption or a buggy middlebox). Refuse it before it means anything
    // — an epoch proposal included — rather than store bad bytes; the
    // client re-sends. The reject count is shard state, hence the lock.
    ShardedCacheServer::Guard guard;
    CacheServer* cache = acquire(key, guard, tid);
    if (cache == nullptr) return kOverloaded;
    cache->note_corrupt_set_reject(now, key);
    return kBadChecksum;
  }
  if (key == kEpochKey) {
    // Epoch adoption: the payload is the decimal epoch. Stale proposals are
    // refused so a lagging coordinator cannot roll the fence backwards.
    std::uint64_t proposed = 0;
    if (cmd.op != TextCommand::Op::kSet || !parse_number(payload, proposed)) {
      return "CLIENT_ERROR bad epoch payload\r\n";
    }
    return engine_.adopt_epoch(proposed) ? kStored : kStaleEpoch;
  }
  if (ShardedCacheServer::is_reserved_key(key)) {
    return "CLIENT_ERROR reserved key\r\n";  // the digest keys are read-only
  }
  if (!engine_.admit_epoch(cmd.epoch)) return kStaleEpoch;
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, guard, tid);
  if (cache == nullptr) return kOverloaded;
  if (cmd.op != TextCommand::Op::kSet) {
    // add and replace are conditional on residency; add-exists and
    // replace-missing both read NOT_STORED, as in memcached.
    const bool resident = cache->contains(key, now);
    if (cmd.op == TextCommand::Op::kAdd ? resident : !resident) {
      return kNotStored;
    }
  }
  // A store that can never fit has still unlinked the key's resident copy,
  // as memcached does: no older value outlives the refused write.
  return cache->set(key, std::move(payload), now, charge, cmd.flags,
                    cmd.checksum)
             ? kStored
             : "SERVER_ERROR object too large for cache\r\n";
}

std::string_view TextProtocolSession::update(const TextCommand& cmd,
                                             SimTime now, std::uint64_t tid) {
  const std::string_view key = cmd.keys[0];
  const bool counter =
      cmd.op == TextCommand::Op::kIncr || cmd.op == TextCommand::Op::kDecr;
  if (ShardedCacheServer::is_reserved_key(key)) {
    // Admin keys are never stored: no counter, nothing to delete or touch.
    return counter ? kNonNumeric : kNotFound;
  }
  if (cmd.op == TextCommand::Op::kDelete && !engine_.admit_epoch(cmd.epoch)) {
    return kStaleEpoch;
  }
  // The guard spans incr/decr's get+set pair: a counter is atomic per shard.
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, guard, tid);
  if (cache == nullptr) return kOverloaded;
  if (cmd.op == TextCommand::Op::kDelete) {
    return cache->erase(key) ? "DELETED\r\n" : kNotFound;
  }
  // The TTL is access-based, so a touch refreshes the item as a read does;
  // like memcached, none of the three counts as a get or a set.
  CacheServer::ItemMeta meta;
  const std::optional<std::string_view> value = cache->touch(key, now, &meta);
  if (!value.has_value()) return kNotFound;
  if (!counter) return "TOUCHED\r\n";
  std::uint64_t current = 0;
  if (!parse_number(*value, current)) return kNonNumeric;
  std::string next = std::to_string(
      cmd.op == TextCommand::Op::kIncr
          ? current + cmd.delta  // memcached wraps on 64-bit overflow
          : (current > cmd.delta ? current - cmd.delta : 0));  // clamps
  counter_reply_.assign(next).append("\r\n");
  // The flags stay, as in memcached; a stamp checked the old digits.
  cache->rewrite(key, std::move(next), now, 0, meta.flags);
  return counter_reply_;
}

void TextProtocolSession::handle_get(const TextCommand& cmd, SimTime now,
                                     std::string& out) {
  if (stale_noreply_ && !ShardedCacheServer::is_reserved_key(cmd.keys[0])) {
    // A fenced noreply mutation had no reply to carry its refusal: the
    // connection's next data-plane get carries it instead, once.
    stale_noreply_ = false;
    out += kStaleEpoch;
    return;
  }
  engine_.observe_epoch(cmd.epoch);  // reads teach the fence, never trip it
  const std::uint64_t tid = spans_ != nullptr ? cmd.trace_id : 0;
  const std::size_t start = out.size();
  for (std::size_t i = 0; i < cmd.keys.size(); ++i) {
    const SimTime op_start = tid != 0 ? obs::span_clock_now() : 0;
    const bool served =
        append_hit(cmd.keys[i], cmd.checksum.has_value(), now, tid, out);
    if (tid != 0) {
      record_span(tid, obs::SpanKind::kServerOp, op_start,
                  obs::SpanCause::kNone, cmd.keys[i]);
    }
    if (!served) {
      // Shard-lock deadline hit mid-multi-get: shed the whole command with
      // an honest refusal rather than emit a truncated VALUE stream.
      out.resize(start);
      out += kOverloaded;
      return;
    }
  }
  out += "END\r\n";
}

bool TextProtocolSession::append_hit(std::string_view key, bool echo_crc,
                                     SimTime now, std::uint64_t tid,
                                     std::string& out) {
  if (ShardedCacheServer::is_reserved_key(key)) {
    // Admin reads (digest blob, epoch hello) take the engine's merged and
    // broadcast paths without a shard lock: the blob is the OR of every
    // shard's digest segment, byte-identical on the wire at any shard
    // count (§V-3). Counted as admin traffic, never as data-plane gets.
    append_value(out, key, *engine_.get(key, now), 0, std::nullopt);
    return true;
  }
  ShardedCacheServer::Guard guard;
  CacheServer* cache = acquire(key, guard, tid);
  if (cache == nullptr) return false;
  CacheServer::ItemMeta meta;
  // Copied while the guard still holds the shard: the view dies with the
  // next mutation of this shard. Only a get that opted in echoes, and only
  // a stamped item has a stamp.
  if (const auto value = cache->get_view(key, now, &meta)) {
    append_value(out, key, *value, meta.flags,
                 echo_crc ? meta.crc : std::nullopt);
  }
  return true;
}

CacheServer* TextProtocolSession::acquire(std::string_view key,
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

void TextProtocolSession::record_span(std::uint64_t tid, obs::SpanKind kind,
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

void TextProtocolSession::handle_stats(const TextCommand& cmd,
                                       std::string& out) {
  if (cmd.stats_arg == "reset") {
    engine_.reset_stats();
    if (stats_reset_hook_) stats_reset_hook_();
    out += "RESET\r\n";
    return;
  }
  if (cmd.stats_arg == "proteus") {
    // The unified registry (daemon-wide metrics + latency quantiles); a
    // session without a registry reports nothing. The session holds NO
    // shard lock here — registry callbacks lock shards internally, one at
    // a time.
    out += metrics_ != nullptr ? obs::render_stats_text(metrics_->snapshot())
                               : "END\r\n";
    return;
  }
  if (!cmd.stats_arg.empty()) {
    out += "ERROR\r\n";
    return;
  }
  // Merged across shards; each accessor visits shards one at a time.
  const CacheStats s = engine_.stats();
  const std::pair<std::string_view, std::uint64_t> stats[] = {
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
  };
  for (const auto& [name, value] : stats) {
    out += "STAT ";
    out += name;
    out += ' ';
    out += std::to_string(value);
    out += "\r\n";
  }
  out += "END\r\n";
}

}  // namespace proteus::cache
