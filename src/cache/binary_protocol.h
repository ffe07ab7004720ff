// Memcached binary protocol codec over the sharded cache engine.
//
// The paper validated wire compatibility against spymemcached (§V-3),
// which speaks the memcached binary protocol. This module implements the
// request/response framing and the operation subset such clients use:
//
//   GET / GETK / GETQ / GETKQ        (quiet variants suppress misses)
//   SET / ADD / REPLACE              (with CAS-conditional stores)
//   DELETE, INCREMENT, DECREMENT, NOOP, VERSION, FLUSH, QUIT, STAT
//
// Framing (24-byte header, big-endian fields):
//   magic(1) opcode(1) key_len(2) extras_len(1) data_type(1)
//   vbucket-or-status(2) total_body(4) opaque(4) cas(8)
// followed by extras | key | value. Requests use magic 0x80, responses
// 0x81. The session is push-parsed like the text variant: feed() accepts
// arbitrary chunks and emits complete response frames. Like the text
// codec it only frames: each request runs through the shared
// CommandExecutor (cache/command_executor.h), so STAT answers exactly the
// name/value list text `stats` does.
//
// The reserved digest keys (SET_BLOOM_FILTER / BLOOM_FILTER) work through
// binary GET exactly as through text GET, so a binary client can drive the
// §IV digest broadcast unmodified.
//
// Trace-context extension (src/obs/span.h): the 4-byte `opaque` header
// field — which this session already echoes verbatim — doubles as the wire
// trace id (truncated to 32 bits). A session given a SpanCollector records
// server-side parse/op spans for frames with a nonzero opaque; stock
// clients that use opaque for their own correlation are unaffected (the
// echo contract is unchanged), they merely produce spans they never read.
//
// Epoch fencing extension (docs/PROTOCOL.md): the 2-byte vbucket field —
// unused by this server on requests, like real memcached outside of
// couchbase — carries the cluster epoch saturated to 0xffff. A mutation
// stamped below the server's epoch gets Status::kStaleEpoch; stamp 0 means
// "unstamped" (stock client) and always passes, and so does the 0xffff
// saturation point, which can never be proven stale. The reserved key
// PROTEUS_EPOCH serves the full 64-bit epoch + incarnation via GET and
// adopts a decimal epoch via SET, exactly as in the text protocol.
//
// Payload integrity extension (docs/PROTOCOL.md): SET/ADD/REPLACE may send
// 12-byte extras — flags(4) expiry(4) crc32c(4) — instead of the stock 8.
// The trailing word is the value's CRC32C, verified at arrival
// (Status::kBadChecksum on mismatch) and stored with the item. A GET sent
// with 4-byte extras (stock GETs send none; the word is reserved, send 0)
// opts into checksum echo: hits on stamped items answer 8-byte extras —
// flags(4) crc32c(4) — while unstamped items answer the stock 4.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "cache/command_executor.h"
#include "common/time.h"

namespace proteus::obs {
class SpanCollector;
}  // namespace proteus::obs

namespace proteus::cache {

namespace binary {

inline constexpr std::uint8_t kRequestMagic = 0x80;
inline constexpr std::uint8_t kResponseMagic = 0x81;
inline constexpr std::size_t kHeaderSize = 24;

enum class Opcode : std::uint8_t {
  kGet = 0x00,
  kSet = 0x01,
  kAdd = 0x02,
  kReplace = 0x03,
  kDelete = 0x04,
  kIncrement = 0x05,
  kDecrement = 0x06,
  kQuit = 0x07,
  kFlush = 0x08,
  kGetQ = 0x09,
  kNoop = 0x0a,
  kVersion = 0x0b,
  kGetK = 0x0c,
  kGetKQ = 0x0d,
  kStat = 0x10,
};

enum class Status : std::uint16_t {
  kOk = 0x0000,
  kKeyNotFound = 0x0001,
  kKeyExists = 0x0002,
  kValueTooLarge = 0x0003,
  kInvalidArguments = 0x0004,
  kNotStored = 0x0005,
  kDeltaBadValue = 0x0006,
  kUnknownCommand = 0x0081,
  kBusy = 0x0085,        // EBUSY: request shed by admission control, retry later
  kStaleEpoch = 0x0086,  // mutation fenced: request epoch < server epoch;
                         // refresh the routing view, do not retry
  kBadChecksum = 0x0087,  // store refused: value failed its CRC32C extras
                          // stamp (wire corruption); safe to re-send
};

struct Frame {
  std::uint8_t magic = kRequestMagic;
  Opcode opcode = Opcode::kNoop;
  std::uint16_t status_or_vbucket = 0;
  std::uint32_t opaque = 0;
  std::uint64_t cas = 0;
  std::string extras;
  std::string key;
  std::string value;
};

// Serializes a frame with the given magic byte.
std::string encode_frame(const Frame& frame, std::uint8_t magic);

// Parses one complete frame from the front of `bytes`; returns nullopt if
// more bytes are needed. On success, `consumed` is the frame length.
std::optional<Frame> decode_frame(std::string_view bytes,
                                  std::size_t& consumed);

// Big-endian field helpers shared with tests.
void put_u16(std::string& out, std::uint16_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
std::uint16_t get_u16(std::string_view bytes, std::size_t offset);
std::uint32_t get_u32(std::string_view bytes, std::size_t offset);
std::uint64_t get_u64(std::string_view bytes, std::size_t offset);

}  // namespace binary

// One client connection over a ShardedCacheServer. Each frame routes to
// its key's shard and takes ONLY that shard's mutex, bounded by
// `pipeline.lock_deadline_us` (0 = wait forever); a timed-out frame is
// answered EBUSY and counted in `pipeline.deadline_sheds`. Reserved
// digest/epoch keys are served by the engine's merged/broadcast paths, so
// the wire bytes do not depend on the shard count (§V-3).
class BinaryProtocolSession {
 public:
  // `spans` (optional) records server-side parse/op spans for frames whose
  // opaque field carries a trace id; `server_id` tags them with this
  // daemon's fleet index (-1 = unknown). Both must outlive the session.
  // `pipeline` caps cache-touching frames per shard per feed() batch (see
  // cache/pipeline_policy.h); excess frames are answered with EBUSY.
  explicit BinaryProtocolSession(ShardedCacheServer& engine,
                                 obs::SpanCollector* spans = nullptr,
                                 int server_id = -1,
                                 PipelinePolicy pipeline = {})
      : exec_(engine, spans, server_id, pipeline) {}

  // Feeds raw bytes; returns any complete response frames.
  std::string feed(std::string_view bytes, SimTime now);

  bool closed() const noexcept { return closed_; }

  // Trace id (32-bit, from the opaque field) of the most recent frame that
  // carried one; 0 = none yet. The daemon reads this after feed() to
  // correlate its lock-wait span.
  std::uint64_t last_trace_id() const noexcept {
    return exec_.last_trace_id();
  }

 private:
  std::string handle(binary::Frame& request, SimTime now);
  std::string respond(const binary::Frame& request, binary::Status status,
                      std::string extras = {}, std::string key = {},
                      std::string value = {}, std::uint64_t cas = 0) const;

  CommandExecutor exec_;
  std::string buffer_;
  bool closed_ = false;
};

}  // namespace proteus::cache
