#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace proteus::obs {

namespace {

constexpr std::size_t kMaxKeyBytes = 64;

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Appends the low `digits` hex digits of `v`, lowercase and zero-padded.
void append_hex(std::string& out, std::uint64_t v, int digits) {
  static constexpr char kHex[] = "0123456789abcdef";
  char buf[16];
  for (int i = digits - 1; i >= 0; --i) {
    buf[i] = kHex[v & 0xf];
    v >>= 4;
  }
  out.append(buf, static_cast<std::size_t>(digits));
}

void append_hex16(std::string& out, std::uint64_t v) { append_hex(out, v, 16); }

}  // namespace

SimTime span_clock_now() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string_view span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kRoute: return "route";
    case SpanKind::kDigestConsult: return "digest_consult";
    case SpanKind::kCacheGet: return "cache_get";
    case SpanKind::kMigrationFetch: return "migration_fetch";
    case SpanKind::kMigrationStore: return "migration_store";
    case SpanKind::kFailover: return "failover";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kBackendFetch: return "backend_fetch";
    case SpanKind::kFill: return "fill";
    case SpanKind::kRespond: return "respond";
    case SpanKind::kHop: return "hop";
    case SpanKind::kWebService: return "web_service";
    case SpanKind::kServerParse: return "server_parse";
    case SpanKind::kServerLockWait: return "server_lock_wait";
    case SpanKind::kServerOp: return "server_op";
  }
  return "unknown";
}

std::string_view span_cause_name(SpanCause cause) noexcept {
  switch (cause) {
    case SpanCause::kNone: return "none";
    case SpanCause::kHit: return "hit";
    case SpanCause::kMiss: return "miss";
    case SpanCause::kDown: return "down";
    case SpanCause::kTimeout: return "timeout";
    case SpanCause::kReset: return "reset";
    case SpanCause::kProtocolError: return "protocol_error";
    case SpanCause::kBreakerOpen: return "breaker_open";
    case SpanCause::kDigestHot: return "digest_hot";
    case SpanCause::kDigestCold: return "digest_cold";
    case SpanCause::kOldHit: return "old_hit";
    case SpanCause::kFailoverHit: return "failover_hit";
    case SpanCause::kBackendFill: return "backend_fill";
    case SpanCause::kStored: return "stored";
    case SpanCause::kShed: return "shed";
    case SpanCause::kCoalesced: return "coalesced";
    case SpanCause::kThrottled: return "throttled";
    case SpanCause::kStaleEpoch: return "stale_epoch";
    case SpanCause::kCorrupt: return "corrupt";
    case SpanCause::kHedged: return "hedged";
    case SpanCause::kQuarantined: return "quarantined";
  }
  return "unknown";
}

std::string to_json(const SpanRecord& span) {
  std::string out;
  out.reserve(160 + span.key.size());
  out += "{\"trace\":\"";
  append_hex16(out, span.trace_id);
  out += "\",\"span\":\"";
  append_hex16(out, span.span_id);
  out += '"';
  if (span.parent_id != 0) {
    out += ",\"parent\":\"";
    append_hex16(out, span.parent_id);
    out += '"';
  }
  out += ",\"kind\":\"";
  out += span_kind_name(span.kind);
  out += "\",\"start_us\":" + std::to_string(span.start_us);
  out += ",\"dur_us\":" + std::to_string(span.duration_us);
  if (span.server >= 0) out += ",\"server\":" + std::to_string(span.server);
  if (span.cause != SpanCause::kNone) {
    out += ",\"cause\":\"";
    out += span_cause_name(span.cause);
    out += '"';
  }
  if (span.in_transition) out += ",\"transition\":1";
  if (!span.key.empty()) {
    out += ",\"key\":\"";
    append_json_escaped(out, span.key);
    out += '"';
  }
  out += '}';
  return out;
}

std::string encode_trace_token(std::uint64_t trace_id) {
  std::string out;
  append_trace_token(out, trace_id);
  return out;
}

void append_trace_token(std::string& out, std::uint64_t trace_id) {
  out += 'O';
  append_hex16(out, trace_id);
}

namespace {

// Shared strict hex16 body for the O/E wire tokens.
bool decode_hex16_token(std::string_view token, char prefix,
                        std::uint64_t& out) {
  if (token.size() != 17 || token.front() != prefix) return false;
  std::uint64_t v = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    const char c = token[i];
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;  // uppercase and everything else: a key, not a token
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

}  // namespace

bool decode_trace_token(std::string_view token, std::uint64_t& out) {
  return decode_hex16_token(token, 'O', out);
}

std::string encode_epoch_token(std::uint64_t epoch) {
  std::string out;
  append_epoch_token(out, epoch);
  return out;
}

void append_epoch_token(std::string& out, std::uint64_t epoch) {
  out += 'E';
  append_hex16(out, epoch);
}

bool decode_epoch_token(std::string_view token, std::uint64_t& out) {
  return decode_hex16_token(token, 'E', out);
}

std::string encode_checksum_token(std::uint32_t crc) {
  std::string out;
  append_checksum_token(out, crc);
  return out;
}

void append_checksum_token(std::string& out, std::uint32_t crc) {
  out += 'C';
  append_hex(out, crc, 8);
}

bool decode_checksum_token(std::string_view token, std::uint32_t& out) {
  if (token.size() != 9 || token.front() != 'C') return false;
  std::uint32_t v = 0;
  for (std::size_t i = 1; i < token.size(); ++i) {
    const char c = token[i];
    std::uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;  // uppercase and everything else: a key, not a token
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

SpanCollector::SpanCollector(std::size_t capacity, std::uint32_t sample_every)
    : sample_every_(sample_every),
      capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.resize(capacity_);
}

void SpanCollector::record(SpanRecord span) {
  span.key.resize(std::min(span.key.size(), std::size_t{64}));
  const std::lock_guard<std::mutex> lock(mu_);
  ring_[head_] = std::move(span);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
  ++recorded_;
}

std::vector<SpanRecord> SpanCollector::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(size_);
  const std::size_t start = (head_ + capacity_ - size_) % capacity_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

std::string SpanCollector::jsonl() const {
  std::string out;
  for (const SpanRecord& s : snapshot()) {
    out += to_json(s);
    out += '\n';
  }
  return out;
}

std::uint64_t SpanCollector::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

std::uint64_t SpanCollector::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t gross = recorded_ - size_;
  return gross > dropped_base_ ? gross - dropped_base_ : 0;
}

void SpanCollector::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  head_ = 0;
  size_ = 0;
}

void SpanCollector::reset_dropped() {
  const std::lock_guard<std::mutex> lock(mu_);
  dropped_base_ = recorded_ - size_;
}

TraceContext TraceContext::begin(SpanCollector* collector, SimTime now) {
  TraceContext ctx;
  if (collector == nullptr || !collector->should_sample()) return ctx;
  ctx.collector = collector;
  ctx.trace_id = collector->next_id();
  ctx.root_span_id = collector->next_id();
  ctx.cursor = now;
  return ctx;
}

void TraceContext::child(SimTime now, SpanKind kind, int server,
                         SpanCause cause, std::string_view key) {
  if (!active()) return;
  SpanRecord s;
  s.trace_id = trace_id;
  s.span_id = collector->next_id();
  s.parent_id = root_span_id;
  s.kind = kind;
  s.start_us = cursor;
  s.duration_us = now - cursor;
  s.server = server;
  s.cause = cause;
  s.in_transition = in_transition;
  s.key.assign(key.substr(0, 64));
  collector->record(std::move(s));
  cursor = now;
  emitted_child = true;
}

void TraceContext::finish(SimTime now, SimTime start, std::string_view key) {
  if (!active()) return;
  // Close the tiling: whatever ran after the last child (stats bookkeeping,
  // the return path) is attributed explicitly, never silently lost.
  if (emitted_child && now > cursor) child(now, SpanKind::kRespond);
  SpanRecord root;
  root.trace_id = trace_id;
  root.span_id = root_span_id;
  root.parent_id = 0;
  root.kind = SpanKind::kRequest;
  root.start_us = start;
  root.duration_us = now - start;
  root.cause = root_cause;
  root.in_transition = in_transition;
  root.key.assign(key.substr(0, 64));
  collector->record(std::move(root));
}

}  // namespace proteus::obs
