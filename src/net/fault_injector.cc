#include "net/fault_injector.h"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

namespace proteus::net {

namespace {

// Bytes that the memcached text client never accepts as a reply: not a
// line it expects.
constexpr char kGarbage[] = "\x07garbage\xff\xfe not a protocol reply\r\n";

// Flip one bit in the middle of the first VALUE data block of a text reply
// (in place). Framing — header line, byte count, trailing CRLF, END — is
// untouched, so the client's parser accepts the reply and only a payload
// checksum can notice. No-op when the reply carries no data block.
void flip_payload_bit(std::string& reply) {
  const std::size_t header = reply.find("VALUE ");
  if (header == std::string::npos) return;
  const std::size_t eol = reply.find("\r\n", header);
  if (eol == std::string::npos) return;
  // Header: VALUE <key> <flags> <bytes>[ tokens...] — bytes is token 3.
  std::size_t pos = header;
  int spaces = 0;
  std::size_t len_at = std::string::npos;
  for (; pos < eol; ++pos) {
    if (reply[pos] == ' ' && ++spaces == 3) {
      len_at = pos + 1;
      break;
    }
  }
  if (len_at == std::string::npos) return;
  std::size_t bytes_len = 0;
  for (pos = len_at; pos < eol && reply[pos] >= '0' && reply[pos] <= '9';
       ++pos) {
    bytes_len = bytes_len * 10 + static_cast<std::size_t>(reply[pos] - '0');
  }
  if (bytes_len == 0) return;
  const std::size_t data = eol + 2;
  if (data + bytes_len > reply.size()) return;
  reply[data + bytes_len / 2] =
      static_cast<char>(reply[data + bytes_len / 2] ^ 0x10);
}

}  // namespace

class FaultInjectingHandler final : public ConnectionHandler {
 public:
  FaultInjectingHandler(std::unique_ptr<ConnectionHandler> inner,
                        FaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  std::string on_data(std::string_view bytes, bool& close) override {
    if (stalled_) return {};  // black hole: once stalled, stay stalled
    if (loris_) return trickle(bytes, close);
    SimTime ramp_delay = 0;
    switch (injector_->take(&ramp_delay)) {
      case FaultKind::kNone:
        return inner_->on_data(bytes, close);
      case FaultKind::kDropConnection:
        close = true;
        return {};
      case FaultKind::kStall:
        stalled_ = true;
        return {};
      case FaultKind::kGarbageReply:
        // Do not feed the inner session: the garbage stands in for its
        // reply, exactly as a corrupted stream would.
        return std::string(kGarbage, sizeof(kGarbage) - 1);
      case FaultKind::kTruncateReply: {
        std::string reply = inner_->on_data(bytes, close);
        close = true;  // die mid-write
        return reply.substr(0, reply.size() / 2);
      }
      case FaultKind::kSlowLoris:
        loris_ = true;
        return trickle(bytes, close);
      case FaultKind::kLatencyRamp:
        // Blocking sleep on the serving thread: the whole poll loop slows
        // down, exactly as a daemon sliding into saturation would.
        std::this_thread::sleep_for(std::chrono::microseconds(ramp_delay));
        return inner_->on_data(bytes, close);
      case FaultKind::kBitFlip: {
        std::string reply = inner_->on_data(bytes, close);
        flip_payload_bit(reply);
        return reply;
      }
      case FaultKind::kCrash:
        // The process dies mid-request: no reply, connection cut, and the
        // crash hook performs the actual kill/restart choreography.
        close = true;
        injector_->fire_crash();
        return {};
    }
    return {};
  }

 private:
  // Slow-loris delivery: buffer whatever arrived and advance the inner
  // session by a single byte per event. Commands creep toward completion
  // while the connection stays pinned.
  std::string trickle(std::string_view bytes, bool& close) {
    loris_buf_.append(bytes.data(), bytes.size());
    if (loris_buf_.empty()) return {};
    const char byte = loris_buf_.front();
    loris_buf_.erase(0, 1);
    return inner_->on_data(std::string_view(&byte, 1), close);
  }

  std::unique_ptr<ConnectionHandler> inner_;
  FaultInjector* injector_;
  bool stalled_ = false;
  bool loris_ = false;
  std::string loris_buf_;
};

std::unique_ptr<ConnectionHandler> FaultInjector::wrap(
    std::unique_ptr<ConnectionHandler> inner) {
  return std::make_unique<FaultInjectingHandler>(std::move(inner), this);
}

TcpServer::HandlerFactory FaultInjector::wrap_factory(
    TcpServer::HandlerFactory inner) {
  return [this, inner = std::move(inner)] { return wrap(inner()); };
}

}  // namespace proteus::net
