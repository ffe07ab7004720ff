#include "cache/binary_protocol.h"

#include "common/check.h"

namespace proteus::cache {

namespace binary {

void put_u16(std::string& out, std::uint16_t v) {
  out += static_cast<char>(v >> 8);
  out += static_cast<char>(v & 0xff);
}

void put_u32(std::string& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffff));
}

std::uint16_t get_u16(std::string_view bytes, std::size_t offset) {
  PROTEUS_CHECK(offset + 2 <= bytes.size());
  return static_cast<std::uint16_t>(
      (static_cast<std::uint8_t>(bytes[offset]) << 8) |
      static_cast<std::uint8_t>(bytes[offset + 1]));
}

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) {
  return (static_cast<std::uint32_t>(get_u16(bytes, offset)) << 16) |
         get_u16(bytes, offset + 2);
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) {
  return (static_cast<std::uint64_t>(get_u32(bytes, offset)) << 32) |
         get_u32(bytes, offset + 4);
}

std::string encode_frame(const Frame& frame, std::uint8_t magic) {
  std::string out;
  const std::size_t body =
      frame.extras.size() + frame.key.size() + frame.value.size();
  out.reserve(kHeaderSize + body);
  out += static_cast<char>(magic);
  out += static_cast<char>(frame.opcode);
  put_u16(out, static_cast<std::uint16_t>(frame.key.size()));
  out += static_cast<char>(frame.extras.size());
  out += '\0';  // data type: raw bytes
  put_u16(out, frame.status_or_vbucket);
  put_u32(out, static_cast<std::uint32_t>(body));
  put_u32(out, frame.opaque);
  put_u64(out, frame.cas);
  out += frame.extras;
  out += frame.key;
  out += frame.value;
  return out;
}

std::optional<Frame> decode_frame(std::string_view bytes,
                                  std::size_t& consumed) {
  if (bytes.size() < kHeaderSize) return std::nullopt;
  const std::uint16_t key_len = get_u16(bytes, 2);
  const auto extras_len = static_cast<std::uint8_t>(bytes[4]);
  const std::uint32_t total_body = get_u32(bytes, 8);
  if (total_body < static_cast<std::uint32_t>(key_len) + extras_len) {
    // Malformed lengths: signal by consuming the header and returning a
    // frame the session will reject (body sizes inconsistent).
    consumed = kHeaderSize;
    Frame bad;
    bad.magic = static_cast<std::uint8_t>(bytes[0]);
    bad.opcode = static_cast<Opcode>(0xff);
    return bad;
  }
  if (bytes.size() < kHeaderSize + total_body) return std::nullopt;

  Frame frame;
  frame.magic = static_cast<std::uint8_t>(bytes[0]);
  frame.opcode = static_cast<Opcode>(bytes[1]);
  frame.status_or_vbucket = get_u16(bytes, 6);
  frame.opaque = get_u32(bytes, 12);
  frame.cas = get_u64(bytes, 16);
  std::size_t off = kHeaderSize;
  frame.extras.assign(bytes.substr(off, extras_len));
  off += extras_len;
  frame.key.assign(bytes.substr(off, key_len));
  off += key_len;
  frame.value.assign(bytes.substr(off, total_body - key_len - extras_len));
  consumed = kHeaderSize + total_body;
  return frame;
}

}  // namespace binary

using binary::Frame;
using binary::Opcode;
using binary::Status;

namespace {

Status wire_status(CommandStatus status) {
  switch (status) {
    case CommandStatus::kOk: return Status::kOk;
    case CommandStatus::kNotFound: return Status::kKeyNotFound;
    case CommandStatus::kExists: return Status::kKeyExists;
    case CommandStatus::kNonNumeric: return Status::kDeltaBadValue;
    case CommandStatus::kReserved: return Status::kNotStored;
    case CommandStatus::kBadEpoch: return Status::kInvalidArguments;
    case CommandStatus::kStaleEpoch: return Status::kStaleEpoch;
    case CommandStatus::kBadChecksum: return Status::kBadChecksum;
    case CommandStatus::kBusy: break;
  }
  return Status::kBusy;
}

}  // namespace

std::string BinaryProtocolSession::respond(const Frame& request,
                                           Status status, std::string extras,
                                           std::string key, std::string value,
                                           std::uint64_t cas) const {
  Frame reply;
  reply.opcode = request.opcode;
  reply.status_or_vbucket = static_cast<std::uint16_t>(status);
  reply.opaque = request.opaque;  // echoed for client correlation
  reply.cas = cas;
  reply.extras = std::move(extras);
  reply.key = std::move(key);
  reply.value = std::move(value);
  return encode_frame(reply, binary::kResponseMagic);
}

std::string BinaryProtocolSession::feed(std::string_view bytes, SimTime now) {
  if (closed_) return {};
  buffer_.append(bytes);
  std::string out;
  exec_.begin_batch();
  for (;;) {
    const SimTime parse_start = exec_.parse_clock();
    std::size_t consumed = 0;
    auto frame = binary::decode_frame(buffer_, consumed);
    if (!frame.has_value()) break;
    buffer_.erase(0, consumed);
    // The opaque field doubles as the (32-bit) wire trace id.
    exec_.parsed(frame->opaque, parse_start);
    // Pipeline cap: cache-touching frames beyond their shard's per-batch
    // budget get EBUSY (the frame is already consumed, so the stream stays
    // in sync). Quit/noop/version are exempt — free, and quit must always
    // work. Keyless frames (stat, flush) account against shard 0.
    const bool cache_touching = frame->magic == binary::kRequestMagic &&
                                frame->opcode != Opcode::kQuit &&
                                frame->opcode != Opcode::kNoop &&
                                frame->opcode != Opcode::kVersion;
    if (cache_touching && !exec_.admit(frame->key)) {
      out += respond(*frame, Status::kBusy);
      continue;
    }
    out += handle(*frame, now);
    if (closed_) break;
  }
  return out;
}

std::string BinaryProtocolSession::handle(Frame& request, SimTime now) {
  if (request.magic != binary::kRequestMagic) {
    return respond(request, Status::kInvalidArguments);
  }
  Command cmd;
  cmd.key = request.key;
  cmd.trace_id = request.opaque;
  // The request vbucket field carries the cluster epoch saturated to 16
  // bits. A saturated stamp (0xffff) can never be proven stale, so it
  // counts as unstamped: it passes the fence without teaching the server.
  cmd.epoch = request.status_or_vbucket == 0xffff ? 0 : request.status_or_vbucket;

  switch (request.opcode) {
    case Opcode::kGet:
    case Opcode::kGetK:
    case Opcode::kGetQ:
    case Opcode::kGetKQ: {
      const bool quiet = request.opcode == Opcode::kGetQ ||
                         request.opcode == Opcode::kGetKQ;
      const bool with_key = request.opcode == Opcode::kGetK ||
                            request.opcode == Opcode::kGetKQ;
      // Stock GETs carry no extras; 4-byte extras (reserved word, send 0)
      // opt into checksum echo.
      const bool want_checksum = request.extras.size() == 4;
      if (request.key.empty() || (!request.extras.empty() && !want_checksum)) {
        return respond(request, Status::kInvalidArguments);
      }
      cmd.op = Command::Op::kGet;
      if (want_checksum) cmd.checksum = 0;
      CommandResult r = exec_.execute(cmd, now);
      if (r.status == CommandStatus::kNotFound && quiet) {
        return {};  // quiet gets suppress misses
      }
      if (r.status != CommandStatus::kOk) {
        return respond(request, wire_status(r.status));
      }
      std::string extras;
      binary::put_u32(extras, r.flags);
      if (r.crc.has_value()) {
        binary::put_u32(extras, *r.crc);  // extras widen to flags + crc
      }
      return respond(request, Status::kOk, std::move(extras),
                     with_key ? request.key : std::string{},
                     std::move(r.value), r.cas);
    }

    case Opcode::kSet:
    case Opcode::kAdd:
    case Opcode::kReplace: {
      // Extras: flags(4) expiry(4), or flags(4) expiry(4) crc32c(4) when
      // the client stamps an end-to-end checksum.
      const bool stamped = request.extras.size() == 12;
      if ((request.extras.size() != 8 && !stamped) || request.key.empty()) {
        return respond(request, Status::kInvalidArguments);
      }
      cmd.op = request.opcode == Opcode::kSet   ? Command::Op::kSet
               : request.opcode == Opcode::kAdd ? Command::Op::kAdd
                                                : Command::Op::kReplace;
      cmd.flags = binary::get_u32(request.extras, 0);
      if (stamped) cmd.checksum = binary::get_u32(request.extras, 8);
      cmd.cas = request.cas;
      cmd.payload = std::move(request.value);
      const CommandResult r = exec_.execute(cmd, now);
      return respond(request, wire_status(r.status), {}, {}, {}, r.cas);
    }

    case Opcode::kDelete: {
      if (request.key.empty()) {
        return respond(request, Status::kInvalidArguments);
      }
      cmd.op = Command::Op::kDelete;
      return respond(request, wire_status(exec_.execute(cmd, now).status));
    }

    case Opcode::kIncrement:
    case Opcode::kDecrement: {
      // Extras: delta(8) initial(8) expiry(4).
      if (request.extras.size() != 20 || request.key.empty()) {
        return respond(request, Status::kInvalidArguments);
      }
      cmd.op = request.opcode == Opcode::kIncrement ? Command::Op::kIncr
                                                    : Command::Op::kDecr;
      cmd.delta = binary::get_u64(request.extras, 0);
      cmd.initial = binary::get_u64(request.extras, 8);
      // 0xffffffff expiry means "do not create" per the protocol.
      cmd.no_create = binary::get_u32(request.extras, 16) == 0xffffffffu;
      const CommandResult r = exec_.execute(cmd, now);
      if (r.status != CommandStatus::kOk) {
        return respond(request, wire_status(r.status));
      }
      std::string payload;
      binary::put_u64(payload, r.counter);
      return respond(request, Status::kOk, {}, {}, std::move(payload), r.cas);
    }

    case Opcode::kFlush:
      exec_.flush();
      return respond(request, Status::kOk);

    case Opcode::kNoop:
      return respond(request, Status::kOk);

    case Opcode::kVersion:
      return respond(request, Status::kOk, {}, {}, "proteus-1.0");

    case Opcode::kQuit:
      closed_ = true;
      return respond(request, Status::kOk);

    case Opcode::kStat: {
      // One (name, value) response per statistic — the same list text
      // `stats` answers — terminated by an empty-key frame, per the
      // protocol.
      std::string out;
      for (const CommandExecutor::Stat& stat : exec_.stats()) {
        out += respond(request, Status::kOk, {}, std::string(stat.name),
                       std::to_string(stat.value));
      }
      out += respond(request, Status::kOk);  // terminator
      return out;
    }

    default:
      return respond(request, Status::kUnknownCommand);
  }
}

}  // namespace proteus::cache
