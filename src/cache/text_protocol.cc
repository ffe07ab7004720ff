#include "cache/text_protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/span.h"

namespace proteus::cache {

namespace {

// Splits on single spaces, memcached style (no tabs, no repeated spaces).
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t space = line.find(' ', pos);
    if (space == std::string_view::npos) {
      tokens.push_back(line.substr(pos));
      break;
    }
    tokens.push_back(line.substr(pos, space - pos));
    pos = space + 1;
  }
  return tokens;
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

bool consume_noreply(std::vector<std::string_view>& tokens) {
  const std::size_t arity = noreply_arity(tokens[0]);
  if (arity > 0 && tokens.size() == arity + 1 && tokens.back() == "noreply") {
    tokens.pop_back();
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
  auto tokens = tokenize(line);
  if (tokens.empty()) return cmd;
  const std::string_view verb = tokens[0];

  if (verb == "get" || verb == "gets") {
    if (tokens.size() < 2) return cmd;
    for (std::size_t i = 1; i < tokens.size(); ++i) {
      if (!valid_key(tokens[i])) return cmd;
      cmd.keys.emplace_back(tokens[i]);
    }
    cmd.op = TextCommand::Op::kGet;
    return cmd;
  }

  if (verb == "set" || verb == "add" || verb == "replace") {
    cmd.noreply = consume_noreply(tokens);
    if (tokens.size() != 5 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.flags) ||
        !parse_number(tokens[3], cmd.exptime) ||
        !parse_number(tokens[4], cmd.bytes) ||
        cmd.bytes > SIZE_MAX - 2) {  // <bytes> + CRLF must not wrap
      return cmd;
    }
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = verb == "set"   ? TextCommand::Op::kSet
             : verb == "add" ? TextCommand::Op::kAdd
                             : TextCommand::Op::kReplace;
    return cmd;
  }

  if (verb == "delete") {
    cmd.noreply = consume_noreply(tokens);
    if (tokens.size() != 2 || !valid_key(tokens[1])) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = TextCommand::Op::kDelete;
    return cmd;
  }

  if (verb == "incr" || verb == "decr") {
    cmd.noreply = consume_noreply(tokens);
    if (tokens.size() != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.delta)) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = verb == "incr" ? TextCommand::Op::kIncr : TextCommand::Op::kDecr;
    return cmd;
  }

  if (verb == "touch") {
    cmd.noreply = consume_noreply(tokens);
    if (tokens.size() != 3 || !valid_key(tokens[1])) return cmd;
    if (!parse_number(tokens[2], cmd.exptime)) return cmd;
    cmd.keys.emplace_back(tokens[1]);
    cmd.op = TextCommand::Op::kTouch;
    return cmd;
  }

  if (verb == "flush_all") {
    cmd.noreply = consume_noreply(tokens);
    if (tokens.size() != 1) return cmd;
    cmd.op = TextCommand::Op::kFlushAll;
    return cmd;
  }

  if (verb == "stats" && tokens.size() <= 2) {
    if (tokens.size() == 2) cmd.stats_arg = tokens[1];
    cmd.op = TextCommand::Op::kStats;
    return cmd;
  }
  if (verb == "version" && tokens.size() == 1) {
    cmd.op = TextCommand::Op::kVersion;
    return cmd;
  }
  if (verb == "quit" && tokens.size() == 1) {
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
  // tokenize()'s split, into a fixed array one longer than `noreply` needs.
  std::array<std::string_view, 6> tokens;
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < line.size();) {
    if (n == tokens.size()) return 0;
    const std::size_t space = std::min(line.find(' ', pos), line.size());
    tokens[n++] = line.substr(pos, space - pos);
    pos = space + 1;
  }
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

static_assert(static_cast<int>(TextCommand::Op::kGet) ==
                  static_cast<int>(Command::Op::kGet) &&
              static_cast<int>(TextCommand::Op::kTouch) ==
                  static_cast<int>(Command::Op::kTouch),
              "TextCommand::Op must open with Command::Op's values");

// The reply line for a keyed command's outcome. Add-exists and
// replace-missing both read NOT_STORED, as in memcached.
std::string_view reply_line(TextCommand::Op op, CommandStatus status) {
  switch (status) {
    case CommandStatus::kOk:
      return op == TextCommand::Op::kDelete  ? "DELETED\r\n"
             : op == TextCommand::Op::kTouch ? "TOUCHED\r\n"
                                             : "STORED\r\n";
    case CommandStatus::kNotFound:
      return is_storage(op) ? "NOT_STORED\r\n" : "NOT_FOUND\r\n";
    case CommandStatus::kExists:
      return "NOT_STORED\r\n";
    case CommandStatus::kNonNumeric:
      return "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n";
    case CommandStatus::kReserved:
      return "CLIENT_ERROR reserved key\r\n";
    case CommandStatus::kBadEpoch:
      return "CLIENT_ERROR bad epoch payload\r\n";
    case CommandStatus::kStaleEpoch:
      return "SERVER_ERROR stale-epoch\r\n";
    case CommandStatus::kBadChecksum:
      return "SERVER_ERROR bad-checksum\r\n";
    case CommandStatus::kTooLarge:
      return "SERVER_ERROR object too large for cache\r\n";
    case CommandStatus::kBusy:
      break;
  }
  return "SERVER_ERROR overloaded\r\n";
}

Command command_for(const TextCommand& cmd) {
  Command c;
  c.op = static_cast<Command::Op>(cmd.op);
  c.key = cmd.keys[0];
  c.flags = cmd.flags;
  c.epoch = cmd.epoch;
  c.checksum = cmd.checksum;
  c.delta = cmd.delta;
  c.trace_id = cmd.trace_id;
  return c;
}

}  // namespace

std::string TextProtocolSession::feed(std::string_view bytes, SimTime now) {
  if (!started_ && !bytes.empty()) {
    started_ = true;
    closed_ = static_cast<unsigned char>(bytes[0]) == 0x80;  // binary magic
  }
  if (closed_) return {};
  buffer_.append(bytes);
  std::string out;
  exec_.begin_batch();

  for (;;) {
    if (discard_ > 0) {
      const std::size_t n = std::min(discard_, buffer_.size());
      buffer_.erase(0, n);
      discard_ -= n;
      if (discard_ > 0) break;
      continue;
    }

    if (resync_) {
      // A bad data chunk desynchronized the stream; drop bytes until the
      // next CRLF and resume command parsing there (memcached behaviour).
      const std::size_t eol = buffer_.find("\r\n");
      if (eol == std::string::npos) {
        buffer_.clear();
        break;
      }
      buffer_.erase(0, eol + 2);
      resync_ = false;
      continue;
    }

    if (pending_.has_value()) {
      // Waiting for <bytes> of payload plus the trailing CRLF.
      const std::size_t want = pending_->bytes + 2;
      if (buffer_.size() < want) break;
      std::string payload = buffer_.substr(0, pending_->bytes);
      const bool terminated =
          buffer_[pending_->bytes] == '\r' && buffer_[pending_->bytes + 1] == '\n';
      TextCommand cmd = std::move(*pending_);
      pending_.reset();
      if (!terminated) {
        buffer_.erase(0, cmd.bytes);
        resync_ = true;
        if (!cmd.noreply) out += "CLIENT_ERROR bad data chunk\r\n";
        continue;
      }
      buffer_.erase(0, want);
      out += handle_keyed(cmd, std::move(payload), now);
      continue;
    }

    const std::size_t eol = buffer_.find("\r\n");
    // The bound applies however the line was segmented: without a CRLF yet,
    // the last buffered byte may still be the terminator's CR.
    if ((eol == std::string::npos ? buffer_.size() : eol + 1) >
        kMaxLineBytes + 1) {
      closed_ = true;
      out += "CLIENT_ERROR line too long\r\n";
      break;
    }
    if (eol == std::string::npos) break;
    const std::string line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 2);
    out += handle_line(line, now);
    if (closed_) break;
  }
  return out;
}

std::string TextProtocolSession::handle_line(std::string_view line,
                                             SimTime now) {
  const SimTime parse_start = exec_.parse_clock();
  TextCommand cmd = parse_command_line(line);
  exec_.parsed(cmd.trace_id, parse_start);
  // Pipeline cap: cache-touching commands beyond their shard's per-batch
  // budget are refused with a well-formed shed reply; a command accounts
  // against its first key's shard. Exempt: quit/version (free, and quit
  // must always work) and invalid lines (answered ERROR regardless).
  const bool cache_touching = cmd.op != TextCommand::Op::kQuit &&
                              cmd.op != TextCommand::Op::kVersion &&
                              cmd.op != TextCommand::Op::kInvalid;
  if (cache_touching &&
      !exec_.admit(cmd.keys.empty() ? std::string_view{} : cmd.keys[0])) {
    // A shed store's data block is still in flight: drop it unread.
    if (is_storage(cmd.op)) discard_ = cmd.bytes + 2;
    return cmd.noreply ? std::string{} : "SERVER_ERROR overloaded\r\n";
  }
  switch (cmd.op) {
    case TextCommand::Op::kInvalid:
      return "ERROR\r\n";
    case TextCommand::Op::kGet:
      return handle_get(cmd, now);
    case TextCommand::Op::kSet:
    case TextCommand::Op::kAdd:
    case TextCommand::Op::kReplace:
      if (!exec_.fits(cmd.keys[0], cmd.bytes)) {
        // Refused now, with the data block dropped unread as it arrives;
        // there is nothing to verify a checksum against.
        discard_ = cmd.bytes + 2;
        cmd.checksum.reset();
        return handle_keyed(cmd, {}, now, cmd.bytes);
      }
      pending_ = std::move(cmd);  // runs once the data block arrives
      return {};
    case TextCommand::Op::kDelete:
    case TextCommand::Op::kIncr:
    case TextCommand::Op::kDecr:
    case TextCommand::Op::kTouch:
      return handle_keyed(cmd, {}, now);
    case TextCommand::Op::kFlushAll:
      exec_.flush();
      return cmd.noreply ? std::string{} : "OK\r\n";
    case TextCommand::Op::kStats:
      return handle_stats(cmd);
    case TextCommand::Op::kVersion:
      return "VERSION proteus-1.0\r\n";
    case TextCommand::Op::kQuit:
      closed_ = true;
      break;
  }
  return {};
}

std::string TextProtocolSession::handle_keyed(const TextCommand& cmd,
                                              std::string payload,
                                              SimTime now,
                                              std::size_t charge) {
  Command c = command_for(cmd);
  c.payload = std::move(payload);
  c.charge = charge;
  const CommandResult r = exec_.execute(c, now);
  if (cmd.noreply) {
    stale_noreply_ |= r.status == CommandStatus::kStaleEpoch;
    return {};
  }
  if (r.status == CommandStatus::kOk && (cmd.op == TextCommand::Op::kIncr ||
                                         cmd.op == TextCommand::Op::kDecr)) {
    return std::to_string(r.counter) + "\r\n";
  }
  return std::string(reply_line(cmd.op, r.status));
}

std::string TextProtocolSession::handle_get(const TextCommand& cmd,
                                            SimTime now) {
  if (stale_noreply_ && !ShardedCacheServer::is_reserved_key(cmd.keys[0])) {
    // A fenced noreply mutation had no reply to carry its refusal: the
    // connection's next data-plane get carries it instead, once.
    stale_noreply_ = false;
    return std::string(reply_line(cmd.op, CommandStatus::kStaleEpoch));
  }
  Command c = command_for(cmd);
  std::string out;
  for (const std::string& key : cmd.keys) {
    c.key = key;
    const CommandResult r = exec_.execute(c, now);
    if (r.status == CommandStatus::kBusy) {
      // Shard-lock deadline hit mid-multi-get: shed the whole command with
      // an honest refusal rather than emit a truncated VALUE stream.
      return "SERVER_ERROR overloaded\r\n";
    }
    if (r.status != CommandStatus::kOk) continue;  // misses are skipped
    out += "VALUE ";
    out += key;
    out += ' ';
    out += std::to_string(r.flags);
    out += ' ';
    out += std::to_string(r.value.size());
    if (r.crc.has_value()) {
      out += ' ';
      out += obs::encode_checksum_token(*r.crc);
    }
    out += "\r\n";
    out += r.value;
    out += "\r\n";
  }
  out += "END\r\n";
  return out;
}

std::string TextProtocolSession::handle_stats(const TextCommand& cmd) {
  if (cmd.stats_arg == "reset") {
    exec_.reset_stats();
    if (stats_reset_hook_) stats_reset_hook_();
    return "RESET\r\n";
  }
  if (cmd.stats_arg == "proteus") {
    // The unified registry (daemon-wide metrics + latency quantiles); a
    // session without a registry reports nothing. The session holds NO
    // shard lock here — registry callbacks lock shards internally, one at
    // a time.
    return metrics_ != nullptr ? obs::render_stats_text(metrics_->snapshot())
                               : "END\r\n";
  }
  if (!cmd.stats_arg.empty()) return "ERROR\r\n";
  std::string out;
  for (const CommandExecutor::Stat& stat : exec_.stats()) {
    out += "STAT ";
    out += stat.name;
    out += ' ';
    out += std::to_string(stat.value);
    out += "\r\n";
  }
  out += "END\r\n";
  return out;
}

}  // namespace proteus::cache
