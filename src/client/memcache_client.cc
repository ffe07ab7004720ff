#include "client/memcache_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include "cache/cache_server.h"
#include "common/check.h"
#include "common/hash.h"

namespace proteus::client {

namespace {

// Wall-clock deadlines live on the process monotonic clock, independent of
// the SimTime `now` the caller feeds ProteusClient (which may be simulated).
SimTime mono_usec() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// A reply line longer than this is not a memcached reply; treat as desync.
constexpr std::size_t kMaxLineBytes = 64 * 1024;
// The most one recv takes: a 4 KiB value's whole reply, or several.
constexpr std::size_t kRecvChunk = 16 * 1024;
// Upper bound on a single value a daemon may announce; anything larger is
// a desynced length field, not data.
constexpr std::size_t kMaxValueBytes = 256u << 20;

obs::SpanCause cause_of(net::NetError error) noexcept {
  switch (error) {
    case net::NetError::kTimeout: return obs::SpanCause::kTimeout;
    case net::NetError::kReset: return obs::SpanCause::kReset;
    case net::NetError::kProtocol: return obs::SpanCause::kProtocolError;
    case net::NetError::kOverloaded: return obs::SpanCause::kShed;
    case net::NetError::kStaleEpoch: return obs::SpanCause::kStaleEpoch;
    default: return obs::SpanCause::kDown;
  }
}

// The daemon's admission-control refusal (src/net/memcache_daemon.cc). It
// arrives either as the whole reply to a shed batch or as a per-command
// line under the pipeline cap; both spell exactly this.
constexpr std::string_view kOverloadedReply = "SERVER_ERROR overloaded";
// The daemon's fencing refusal: this mutation carried an epoch older than
// the daemon's view. Like a shed, a healthy well-formed reply — the stream
// stays in sync and the socket is kept.
constexpr std::string_view kStaleEpochReply = "SERVER_ERROR stale-epoch";

// The byte count of a "VALUE <key> <flags> <bytes>[ C<hex8>]" reply line,
// or nullopt for any other line. An echoed checksum token lands in `crc`.
std::optional<std::size_t> parse_value_header(
    std::string_view header, std::optional<std::uint32_t>& crc) {
  if (!header.starts_with("VALUE ")) return std::nullopt;
  // The byte count is the 4th token; a trailing C token (the echoed stored
  // checksum we asked for) may follow it.
  const std::size_t sp2 = header.find(' ', 6);
  const std::size_t sp3 =
      sp2 == std::string_view::npos ? sp2 : header.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) return std::nullopt;
  const std::size_t bytes_begin = sp3 + 1;
  std::size_t bytes_end = header.size();
  const std::size_t sp4 = header.find(' ', bytes_begin);
  if (sp4 != std::string_view::npos) {
    bytes_end = sp4;
    std::uint32_t stamp = 0;
    if (!obs::decode_checksum_token(header.substr(sp4 + 1), stamp)) {
      return std::nullopt;  // unknown extra token
    }
    crc = stamp;
  }
  if (bytes_begin >= bytes_end) return std::nullopt;
  std::size_t bytes = 0;
  for (std::size_t i = bytes_begin; i < bytes_end; ++i) {
    const char c = header[i];
    if (!std::isdigit(static_cast<unsigned char>(c)) ||
        (bytes = bytes * 10 + static_cast<std::size_t>(c - '0')) >
            kMaxValueBytes) {
      return std::nullopt;
    }
  }
  return bytes;
}

// Appends the checksum/fencing/trace/priority meta-tokens; the daemon
// parses them back off the end of the line in any order. `checksum` is the
// value's CRC32C on storage lines and the echo-request flag (value ignored)
// on get lines.
void append_meta_tokens(std::string& cmd, std::uint64_t epoch,
                        std::uint64_t trace_id, bool background,
                        std::optional<std::uint32_t> checksum = std::nullopt) {
  if (checksum.has_value()) {
    cmd += ' ';
    obs::append_checksum_token(cmd, *checksum);
  }
  if (epoch != 0) {
    cmd += ' ';
    obs::append_epoch_token(cmd, epoch);
  }
  if (trace_id != 0) {
    cmd += ' ';
    obs::append_trace_token(cmd, trace_id);
  }
  if (background) cmd += " bg";  // priority token goes last on the line
}

int initial_active(const ProteusClient::Options& options) {
  return options.initial_active > 0
             ? options.initial_active
             : static_cast<int>(options.endpoints.size());
}

}  // namespace

MemcacheConnection::MemcacheConnection(std::uint16_t port, Options options)
    : options_(std::move(options)) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* host =
      options_.host == "localhost" ? "127.0.0.1" : options_.host.c_str();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1) {
    last_error_ = net::NetError::kRefused;
    return;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    last_error_ = net::NetError::kRefused;
    return;
  }
  if (!set_nonblocking(fd_)) {
    fail(net::NetError::kRefused);
    return;
  }
  // Non-blocking connect bounded by connect_timeout: EINPROGRESS, then
  // poll(POLLOUT) and read the final verdict from SO_ERROR.
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      fail(net::NetError::kRefused);
      return;
    }
    const SimTime deadline = mono_usec() + options_.connect_timeout;
    if (!await_io(POLLOUT, deadline)) {
      fail(net::NetError::kTimeout);
      return;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      fail(net::NetError::kRefused);
      return;
    }
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

MemcacheConnection::MemcacheConnection(MemcacheConnection&& other) noexcept
    : fd_(other.fd_),
      options_(std::move(other.options_)),
      last_error_(other.last_error_),
      request_(std::move(other.request_)),
      buffer_(std::move(other.buffer_)),
      read_pos_(other.read_pos_),
      read_end_(other.read_end_),
      get_stage_(other.get_stage_),
      pending_bytes_(other.pending_bytes_),
      pending_value_(std::move(other.pending_value_)),
      value_checksum_(other.value_checksum_) {
  other.fd_ = -1;
  other.read_pos_ = other.read_end_ = 0;
  other.get_stage_ = GetStage::kIdle;
}

MemcacheConnection::~MemcacheConnection() { close_now(); }

void MemcacheConnection::close_now() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void MemcacheConnection::fail(net::NetError error) {
  last_error_ = error;
  close_now();
}

SimTime MemcacheConnection::op_deadline() const noexcept {
  return mono_usec() + options_.op_timeout;
}

bool MemcacheConnection::await_io(short events, SimTime deadline) {
  for (;;) {
    const SimTime remaining = deadline - mono_usec();
    if (remaining <= 0) return false;
    pollfd p{fd_, events, 0};
    const int timeout_ms = static_cast<int>(
        std::min<SimTime>((remaining + kMillisecond - 1) / kMillisecond,
                          60 * 1000));
    const int r = ::poll(&p, 1, std::max(timeout_ms, 1));
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    // POLLERR/POLLHUP also count as ready: the next send/recv surfaces the
    // actual error.
    if (r > 0) return true;
  }
}

bool MemcacheConnection::send_all(std::string_view bytes, SimTime deadline,
                                  int flags) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a daemon that died mid-conversation must produce EPIPE,
    // not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL | flags);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (deadline == 0) deadline = op_deadline();
      if (!await_io(POLLOUT, deadline)) {
        fail(net::NetError::kTimeout);
        return false;
      }
      continue;
    }
    fail(net::NetError::kReset);
    return false;
  }
  return true;
}

bool MemcacheConnection::send_parts(
    const std::array<std::string_view, 3>& parts, SimTime deadline,
    int flags) {
  std::array<iovec, 3> iov;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    iov[i] = {const_cast<char*>(parts[i].data()), parts[i].size()};
  }
  msghdr msg{};
  msg.msg_iov = iov.data();
  msg.msg_iovlen = iov.size();
  ssize_t n;
  do {
    n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL | flags);
  } while (n < 0 && errno == EINTR);
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
    fail(net::NetError::kReset);
    return false;
  }
  std::size_t sent = n > 0 ? static_cast<std::size_t>(n) : 0;
  for (const std::string_view part : parts) {
    if (sent >= part.size()) {
      sent -= part.size();
      continue;
    }
    if (!send_all(part.substr(sent), deadline, flags)) return false;
    sent = 0;
  }
  return true;
}

std::optional<std::string_view> MemcacheConnection::front_line() {
  const std::string_view bytes = unread();
  const std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos ? bytes.size() > kMaxLineBytes
                                    : eol > kMaxLineBytes) {
    fail(net::NetError::kProtocol);
    return std::nullopt;
  }
  if (eol == std::string_view::npos) return std::nullopt;
  return bytes.substr(0, eol);
}

bool MemcacheConnection::refused(std::string_view reply) {
  if (reply.starts_with(kOverloadedReply)) {
    last_error_ = net::NetError::kOverloaded;
  } else if (reply.starts_with(kStaleEpochReply)) {
    last_error_ = net::NetError::kStaleEpoch;
  } else {
    return false;
  }
  return true;
}

std::optional<std::string_view> MemcacheConnection::read_line(
    SimTime deadline) {
  for (;;) {
    if (const auto line = front_line()) {
      read_pos_ += line->size() + 2;
      return line;
    }
    if (!ok()) return std::nullopt;
    const int n = fill_nonblocking();
    if (n < 0) return std::nullopt;
    if (n == 0 && !await_io(POLLIN, deadline)) {
      fail(net::NetError::kTimeout);
      return std::nullopt;
    }
  }
}

bool MemcacheConnection::begin_get(std::string_view key,
                                   std::uint64_t trace_id, bool background,
                                   std::uint64_t epoch, bool want_checksum) {
  if (!ok()) return false;
  last_error_ = net::NetError::kNone;
  get_stage_ = GetStage::kIdle;
  pending_bytes_ = 0;
  pending_value_.clear();
  value_checksum_.reset();
  request_.assign("get ");
  request_.append(key);
  append_meta_tokens(request_, epoch, trace_id, background,
                     want_checksum ? std::optional<std::uint32_t>(0)
                                   : std::nullopt);
  request_ += "\r\n";
  if (!send_all(request_, /*deadline=*/0)) return false;
  get_stage_ = GetStage::kHeader;
  return true;
}

int MemcacheConnection::fill_nonblocking() {
  if (read_pos_ == read_end_) {
    read_pos_ = read_end_ = 0;
  } else if (buffer_.size() - read_end_ < kRecvChunk && read_pos_ > 0) {
    // Room for a whole chunk: move the unparsed start of a reply up front.
    std::memmove(buffer_.data(), buffer_.data() + read_pos_,
                 read_end_ - read_pos_);
    read_end_ -= read_pos_;
    read_pos_ = 0;
  }
  if (buffer_.size() - read_end_ < kRecvChunk) {
    buffer_.resize(read_end_ + kRecvChunk);
  }
  const ssize_t n = ::recv(fd_, buffer_.data() + read_end_,
                           buffer_.size() - read_end_, 0);
  if (n > 0) {
    read_end_ += static_cast<std::size_t>(n);
    return static_cast<int>(n);
  }
  if (n == 0) {
    fail(net::NetError::kReset);
    return -1;
  }
  if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  fail(net::NetError::kReset);
  return -1;
}

MemcacheConnection::GetProgress MemcacheConnection::step_get(
    std::optional<std::string>& value) {
  for (;;) {
    switch (get_stage_) {
      case GetStage::kIdle:
        return GetProgress::kDone;
      case GetStage::kHeader: {
        const auto line = front_line();
        if (!line.has_value()) {
          if (ok()) return GetProgress::kPending;
          get_stage_ = GetStage::kIdle;
          return GetProgress::kDone;
        }
        // Parse the line where it lies; it is erased once the outcome is
        // known. END is a miss (last_error_ == kNone); a shed or fence is a
        // healthy, well-formed refusal (the daemon consumed the batch, the
        // stream stays in sync, so keep the socket); anything else is a
        // desynced stream this connection can never trust again.
        std::optional<std::size_t> bytes;
        if (*line != "END" && !refused(*line) &&
            !(bytes = parse_value_header(*line, value_checksum_))) {
          fail(net::NetError::kProtocol);
        }
        read_pos_ += line->size() + 2;
        if (!bytes) {
          get_stage_ = GetStage::kIdle;
          return GetProgress::kDone;
        }
        pending_bytes_ = *bytes;
        get_stage_ = GetStage::kBody;
        break;
      }
      case GetStage::kBody: {
        // The value's one copy: out of the receive buffer into the string
        // the caller gets, as its bytes arrive.
        const std::string_view bytes = unread();
        const std::size_t take =
            std::min(pending_bytes_ - pending_value_.size(), bytes.size());
        pending_value_.append(bytes.data(), take);
        read_pos_ += take;
        if (pending_value_.size() < pending_bytes_ || bytes.size() < take + 2) {
          return GetProgress::kPending;
        }
        if (bytes.substr(take, 2) != "\r\n") {
          fail(net::NetError::kProtocol);
          get_stage_ = GetStage::kIdle;
          return GetProgress::kDone;
        }
        read_pos_ += 2;
        get_stage_ = GetStage::kEnd;
        break;
      }
      case GetStage::kEnd: {
        const auto line = front_line();
        if (!line.has_value()) {
          if (ok()) return GetProgress::kPending;
          get_stage_ = GetStage::kIdle;
          return GetProgress::kDone;
        }
        const bool is_end = *line == "END";
        read_pos_ += line->size() + 2;
        get_stage_ = GetStage::kIdle;
        if (!is_end) fail(net::NetError::kProtocol);
        if (is_end) value = std::move(pending_value_);
        pending_value_.clear();
        return GetProgress::kDone;
      }
    }
  }
}

MemcacheConnection::GetProgress MemcacheConnection::poll_get(
    std::optional<std::string>& value) {
  value.reset();
  if (get_stage_ == GetStage::kIdle) return GetProgress::kDone;
  for (;;) {
    if (step_get(value) == GetProgress::kDone) return GetProgress::kDone;
    const int r = fill_nonblocking();
    if (r < 0) {
      get_stage_ = GetStage::kIdle;
      return GetProgress::kDone;
    }
    if (r == 0) return GetProgress::kPending;
  }
}

std::optional<std::string> MemcacheConnection::get(std::string_view key,
                                                   std::uint64_t trace_id,
                                                   bool background,
                                                   std::uint64_t epoch,
                                                   bool want_checksum) {
  if (!begin_get(key, trace_id, background, epoch, want_checksum)) {
    return std::nullopt;
  }
  SimTime deadline = 0;  // read from the clock at the first wait
  std::optional<std::string> value;
  for (;;) {
    if (poll_get(value) == GetProgress::kDone) return value;
    if (deadline == 0) deadline = op_deadline();
    if (!await_io(POLLIN, deadline)) {
      get_stage_ = GetStage::kIdle;
      fail(net::NetError::kTimeout);
      return std::nullopt;
    }
  }
}

bool MemcacheConnection::set(std::string_view key, std::string_view value,
                             std::uint32_t flags, std::uint64_t trace_id,
                             bool background, std::uint64_t epoch,
                             bool with_checksum, bool noreply) {
  if (!ok()) return false;
  last_error_ = net::NetError::kNone;
  // A noreply store waits for nothing: its deadline is read only if the
  // send has to wait.
  const SimTime deadline = noreply ? 0 : op_deadline();
  request_.assign("set ");
  request_.append(key);
  request_ += ' ';
  request_ += std::to_string(flags);
  request_ += " 0 ";
  request_ += std::to_string(value.size());
  if (noreply) request_ += " noreply";
  append_meta_tokens(request_, epoch, trace_id, background,
                     with_checksum ? std::optional<std::uint32_t>(crc32c(value))
                                   : std::nullopt);
  request_ += "\r\n";
  // Header, value and CRLF in one sendmsg, the value sent from where it
  // lies. Corked: the connection's next request carries a noreply store
  // out.
  if (!send_parts({request_, value, "\r\n"}, deadline,
                  noreply ? MSG_MORE : 0)) {
    return false;
  }
  // The daemon answers a noreply store nothing, not even a refusal. One
  // non-blocking read still catches a daemon that has closed or reset the
  // connection, so a store into a dead daemon fails here, not at the next
  // request; any bytes it finds are left for the next reply parser.
  if (noreply) return fill_nonblocking() >= 0;
  const auto reply = read_line(deadline);
  if (!reply.has_value()) return false;
  if (*reply == "STORED") return true;
  // Well-formed negative replies keep the connection; garbage kills it.
  if (refused(*reply)) return false;
  if (*reply == "NOT_STORED" || *reply == "EXISTS" || *reply == "NOT_FOUND" ||
      *reply == "ERROR" || reply->rfind("SERVER_ERROR", 0) == 0 ||
      reply->rfind("CLIENT_ERROR", 0) == 0) {
    return false;
  }
  fail(net::NetError::kProtocol);
  return false;
}

bool MemcacheConnection::erase(std::string_view key, std::uint64_t epoch) {
  if (!ok()) return false;
  last_error_ = net::NetError::kNone;
  const SimTime deadline = op_deadline();
  request_.assign("delete ");
  request_.append(key);
  append_meta_tokens(request_, epoch, 0, false);
  request_ += "\r\n";
  if (!send_all(request_, deadline)) return false;
  const auto reply = read_line(deadline);
  if (!reply.has_value()) return false;
  if (*reply == "DELETED") return true;
  if (refused(*reply)) return false;
  if (*reply == "NOT_FOUND" || *reply == "ERROR") return false;
  fail(net::NetError::kProtocol);
  return false;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
MemcacheConnection::hello() {
  const auto reply = get(cache::kEpochKey);
  if (!reply.has_value()) return std::nullopt;
  // "<epoch> <incarnation>", both decimal.
  std::uint64_t epoch = 0;
  std::uint64_t incarnation = 0;
  const char* begin = reply->data();
  const char* end = begin + reply->size();
  auto r = std::from_chars(begin, end, epoch);
  if (r.ec != std::errc() || r.ptr >= end || *r.ptr != ' ') {
    fail(net::NetError::kProtocol);
    return std::nullopt;
  }
  r = std::from_chars(r.ptr + 1, end, incarnation);
  if (r.ec != std::errc() || r.ptr != end) {
    fail(net::NetError::kProtocol);
    return std::nullopt;
  }
  return std::make_pair(epoch, incarnation);
}

bool MemcacheConnection::push_epoch(std::uint64_t epoch) {
  return set(cache::kEpochKey, std::to_string(epoch));
}

std::optional<std::vector<std::pair<std::string, std::string>>>
MemcacheConnection::stats(std::string_view arg) {
  if (!ok()) return std::nullopt;
  last_error_ = net::NetError::kNone;
  const SimTime deadline = op_deadline();
  request_.assign("stats");
  if (!arg.empty()) {
    request_ += ' ';
    request_.append(arg);
  }
  request_ += "\r\n";
  if (!send_all(request_, deadline)) return std::nullopt;
  std::vector<std::pair<std::string, std::string>> out;
  for (;;) {
    const auto line = read_line(deadline);
    if (!line.has_value()) return std::nullopt;
    if (*line == "END") return out;
    if (*line == "RESET") return out;  // `stats reset` acknowledgment
    if (*line == "ERROR" || line->rfind("SERVER_ERROR", 0) == 0 ||
        line->rfind("CLIENT_ERROR", 0) == 0) {
      return std::nullopt;  // well-formed rejection keeps the connection
    }
    // "STAT <name> <value...>" — anything else is a desynced stream.
    if (line->rfind("STAT ", 0) != 0) {
      fail(net::NetError::kProtocol);
      return std::nullopt;
    }
    const std::size_t name_end = line->find(' ', 5);
    if (name_end == std::string::npos) {
      fail(net::NetError::kProtocol);
      return std::nullopt;
    }
    out.emplace_back(line->substr(5, name_end - 5),
                     line->substr(name_end + 1));
    if (out.size() > 10'000) {  // runaway reply: not a stats dump
      fail(net::NetError::kProtocol);
      return std::nullopt;
    }
  }
}

std::string MemcacheConnection::version() {
  if (!ok()) return {};
  last_error_ = net::NetError::kNone;
  const SimTime deadline = op_deadline();
  if (!send_all("version\r\n", deadline)) return {};
  const auto reply = read_line(deadline);
  if (!reply.has_value()) return {};
  if (reply->rfind("VERSION", 0) != 0) {
    fail(net::NetError::kProtocol);
    return {};
  }
  return std::string(*reply);
}

std::optional<bloom::BloomFilter> MemcacheConnection::fetch_digest() {
  // Stage a fresh snapshot, then pull the blob; both via plain gets (§V-3),
  // tagged background — a digest pull must never displace foreground gets.
  if (!get(cache::kSetBloomFilterKey, 0, /*background=*/true).has_value()) {
    return std::nullopt;
  }
  auto blob = get(cache::kGetBloomFilterKey, 0, /*background=*/true);
  if (!blob.has_value() || blob->size() < 24) return std::nullopt;
  return cache::decode_digest(*blob);
}

// --- ProteusClient -----------------------------------------------------------

ProteusClient::ProteusClient(Options options, Backend backend)
    : options_(std::move(options)),
      backend_(std::move(backend)),
      router_(std::make_shared<ring::ProteusPlacement>(
                  static_cast<int>(options_.endpoints.size())),
              initial_active(options_), options_.replicas),
      rng_(options_.jitter_seed),
      retry_jitter_(/*base=*/kMillisecond, /*cap=*/20 * kMillisecond) {
  PROTEUS_CHECK(backend_ != nullptr);
  PROTEUS_CHECK(!options_.endpoints.empty());
  PROTEUS_CHECK(options_.max_attempts >= 1);
  PROTEUS_CHECK(options_.replicas >= 1);
  retrieval_options_.counters = {
      .primary_hits = &stats_.new_server_hits,
      .replica_hits = &stats_.failover_hits,
      .old_server_hits = &stats_.old_server_hits,
      .skips = &stats_.degraded_misses,
      .false_positives = &stats_.digest_false_positives,
      .backend_fetches = &stats_.backend_fetches,
      .coalesced_fetches = &stats_.coalesced_fetches,
      .load_sheds = &stats_.load_sheds,
      .migrations_deferred = &stats_.migrations_deferred,
      .read_repairs = &stats_.read_repairs};
  retrieval_options_.trace = options_.trace;
  retrieval_options_.throttle = options_.migration_throttle;
  retrieval_options_.throttle_signal = options_.limiter;
  retrieval_options_.span_gets = false;
  put_locations_.reserve(static_cast<std::size_t>(options_.replicas));
  put_old_locations_.reserve(static_cast<std::size_t>(options_.replicas));
  endpoints_.reserve(options_.endpoints.size());
  for (std::size_t i = 0; i < options_.endpoints.size(); ++i) {
    Endpoint ep;
    ep.host = i < options_.hosts.size() && !options_.hosts[i].empty()
                  ? options_.hosts[i]
                  : "127.0.0.1";
    ep.port = options_.endpoints[i];
    ep.health = core::EndpointHealth(options_.health);
    endpoints_.push_back(std::move(ep));
  }
}

MemcacheConnection* ProteusClient::acquire(int server, SimTime now) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(server)];
  if (!ep.health.allow(now)) {
    ++stats_.breaker_open_skips;
    return nullptr;
  }
  note_health_events(server, now);  // allow() may open probation (exit)
  if (ep.conn == nullptr || !ep.conn->ok()) {
    ++stats_.reconnects;
    MemcacheConnection::Options copt;
    copt.host = ep.host;
    copt.connect_timeout = options_.connect_timeout;
    copt.op_timeout = options_.op_timeout;
    ep.conn = std::make_unique<MemcacheConnection>(ep.port, std::move(copt));
    if (!ep.conn->ok()) {
      record_failure(server, ep.conn->last_error(), now);
      return nullptr;
    }
    // A fresh connection may face a daemon reborn since we last spoke.
    refresh_view(server, now);
    if (!ep.conn->ok()) {
      record_failure(server, ep.conn->last_error(), now);
      return nullptr;
    }
  }
  return ep.conn.get();
}

void ProteusClient::record_failure(int server, net::NetError error,
                                   SimTime now) {
  if (error == net::NetError::kOverloaded) {
    // A shed is a healthy server protecting itself — no health penalty
    // (quarantining it would shift load onto its equally loaded peers).
    ++stats_.server_sheds;
    return;
  }
  if (error == net::NetError::kStaleEpoch) {
    // A fencing refusal is correctness, not ill health: the daemon is alive
    // and protecting the cluster from our outdated view. No health
    // penalty, no retry — the caller refreshes the view instead.
    ++stats_.stale_epoch_rejects;
    return;
  }
  switch (error) {
    case net::NetError::kTimeout:  ++stats_.timeouts; break;
    case net::NetError::kReset:    ++stats_.resets; break;
    case net::NetError::kProtocol: ++stats_.protocol_errors; break;
    default: break;  // kRefused shows up through reconnects + quarantines
  }
  endpoints_[static_cast<std::size_t>(server)].health.record_failure(now, rng_);
  note_health_events(server, now);
}

void ProteusClient::record_success(int server, SimTime now,
                                   SimTime latency_us) {
  endpoints_[static_cast<std::size_t>(server)].health.record_success(
      now, latency_us, rng_);
  note_health_events(server, now);
}

void ProteusClient::note_health_events(int server, SimTime now) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(server)];
  while (ep.seen_quarantine_enters < ep.health.quarantine_enters()) {
    ++ep.seen_quarantine_enters;
    ++stats_.quarantine_enters;
    obs::emit(options_.trace, now, obs::TraceEventKind::kQuarantineEnter,
              server, -1,
              static_cast<std::uint64_t>(ep.health.suspicion() * 1000.0));
  }
  while (ep.seen_quarantine_exits < ep.health.quarantine_exits()) {
    ++ep.seen_quarantine_exits;
    ++stats_.quarantine_exits;
    obs::emit(options_.trace, now, obs::TraceEventKind::kQuarantineExit,
              server);
  }
}

bool ProteusClient::value_corrupt(int server, MemcacheConnection& c,
                                  std::string_view key, std::string_view value,
                                  SimTime now) {
  const auto crc = c.last_value_checksum();
  if (!crc.has_value() || crc32c(value) == *crc) return false;
  ++stats_.corrupt_values;
  obs::emit(options_.trace, now, obs::TraceEventKind::kCorruption, server, -1,
            /*n=client verify*/ 0, key);
  return true;
}

ProteusClient::FetchResult ProteusClient::read_reply(
    int server, MemcacheConnection& c, std::optional<std::string>& value,
    SimTime latency, std::string_view key, SimTime now, obs::TraceContext& ctx,
    obs::SpanKind kind) {
  const net::NetError err = c.last_error();
  FetchResult r{FetchStatus::kDown, {}};
  obs::SpanCause cause = cause_of(err);
  if (err == net::NetError::kNone) {
    // A corrupt payload still came over a clean wire: it feeds the health
    // baseline, and is served as a miss so the repair replaces it.
    record_success(server, now, latency);
    if (!value.has_value()) {
      r.status = FetchStatus::kMiss;
      cause = obs::SpanCause::kMiss;
    } else if (value_corrupt(server, c, key, *value, now)) {
      r.status = FetchStatus::kCorrupt;
      cause = obs::SpanCause::kCorrupt;
    } else {
      ++endpoints_[static_cast<std::size_t>(server)].hits;
      r = {FetchStatus::kHit, std::move(*value)};
      cause = obs::SpanCause::kHit;
    }
  } else {
    record_failure(server, err, now);
    // Never retry into an overload: that feeds the very queue being shed.
    if (err == net::NetError::kOverloaded) r.status = FetchStatus::kShed;
    if (err == net::NetError::kStaleEpoch) {
      // Reads are not fenced by our daemons, but a fencing reply is still
      // well-formed: refresh the view and read a miss — never retry.
      refresh_view(server, now);
      r.status = FetchStatus::kMiss;
    }
  }
  if (ctx.active()) ctx.child(obs::span_clock_now(), kind, server, cause, key);
  return r;
}

bool ProteusClient::quarantined(int server) const {
  return endpoints_[static_cast<std::size_t>(server)].health.state() ==
         core::EndpointHealth::State::kQuarantined;
}

ProteusClient::FetchResult ProteusClient::skipped(int server,
                                                  std::string_view key,
                                                  obs::TraceContext& ctx,
                                                  obs::SpanKind kind) {
  const bool gated = quarantined(server);
  if (ctx.active()) {
    ctx.child(obs::span_clock_now(), kind, server,
              gated ? obs::SpanCause::kQuarantined : obs::SpanCause::kDown,
              key);
  }
  return {gated ? FetchStatus::kQuarantined : FetchStatus::kDown, {}};
}

int ProteusClient::pick_backup(std::string_view key, int primary) const {
  for (int r = 1; r < router_.replicas(); ++r) {
    const int server = router_.decide(key, r).primary;
    if (server != primary && !quarantined(server)) return server;
  }
  return -1;
}

ProteusClient::FetchResult ProteusClient::fetch(int server, std::string_view key,
                                                SimTime now,
                                                obs::TraceContext& ctx,
                                                obs::SpanKind kind) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(server)];
  // Per-endpoint load accounting for the audit feed (one get per call,
  // however many attempts it takes).
  ++ep.gets;
  // Only a ring-0 current-location get hedges, and only it pays into the
  // hedge budget. A failover get already is the backup; a migration fetch
  // is maintenance traffic, tagged `bg` so the daemon's two-priority
  // admission sheds it before foreground gets.
  const bool hedged = kind == obs::SpanKind::kCacheGet;
  const bool background = kind == obs::SpanKind::kMigrationFetch;
  const int backup = hedged ? pick_backup(key, server) : -1;
  if (hedged) hedge_budget_.on_request();

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      // Decorrelated-jitter spacing between attempts: a fleet of clients
      // that lost the same server in the same instant wanders its retry
      // times across [base, 3*prev] instead of resending in lockstep.
      const SimTime pause = retry_jitter_.next(rng_);
      ::poll(nullptr, 0,
             static_cast<int>((pause + kMillisecond - 1) / kMillisecond));
    }
    const obs::SpanKind span_kind =
        attempt == 0 ? kind : obs::SpanKind::kRetry;
    MemcacheConnection* pc = acquire(server, now);
    if (pc == nullptr) return skipped(server, key, ctx, span_kind);
    // Stamping the read teaches the daemon our epoch (reads observe, they
    // are never fenced — a draining server must answer old-view reads).
    // The C token asks for the stored checksum back for end-to-end verify.
    // A failed send leaves the parser idle, so the first poll books it.
    const SimTime t0 = mono_usec();
    pc->begin_get(key, ctx.trace_id, background, epoch_,
                  /*want_checksum=*/true);
    const SimTime deadline = t0 + options_.op_timeout;
    const SimTime hedge_at = t0 + ep.health.hedge_delay();
    bool hedge_decided = !hedged;  // the delay elapsed and we chose fire/skip
    bool primary_alive = true;
    MemcacheConnection* bc = nullptr;
    SimTime hedge_t0 = 0;
    std::optional<std::string> pvalue;
    std::optional<std::string> bvalue;
    SimTime mono = t0;  // the first pass has not waited: t0 still stands

    // One pass per poll wakeup: drive both parsers, fire the hedge when the
    // adaptive delay elapses, first well-formed answer wins, the loser's
    // stream (now carrying an answer nobody will read) is abandoned. A
    // `break` ends a failed attempt: the primary died or timed out and no
    // backup is left to ride.
    for (;;) {
      if (primary_alive && pc->poll_get(pvalue) ==
                               MemcacheConnection::GetProgress::kDone) {
        const bool clean = pc->last_error() == net::NetError::kNone;
        FetchResult r = read_reply(server, *pc, pvalue, mono_usec() - t0,
                                   key, now, ctx, span_kind);
        if (r.status != FetchStatus::kDown) {
          if (bc != nullptr) {
            bc->abandon();
            if (clean && r.status != FetchStatus::kCorrupt) {
              ++stats_.hedge_losses;
              obs::emit(options_.trace, now, obs::TraceEventKind::kHedge,
                        server, backup, /*primary won*/ 0, key);
            }
          }
          return r;
        }
        // Transport death: ride a racing backup, else retry.
        primary_alive = false;
        if (bc == nullptr) break;
      }

      if (bc != nullptr &&
          bc->poll_get(bvalue) == MemcacheConnection::GetProgress::kDone) {
        const SimTime blat = mono_usec() - hedge_t0;
        const net::NetError err = bc->last_error();
        if (err == net::NetError::kNone &&
            !(bvalue.has_value() &&
              value_corrupt(backup, *bc, key, *bvalue, now))) {
          record_success(backup, now, blat);
          ++stats_.hedge_wins;
          if (primary_alive) pc->abandon();
          obs::emit(options_.trace, now, obs::TraceEventKind::kHedge, server,
                    backup, /*hedge won*/ 1, key);
          if (bvalue.has_value()) {
            ++endpoints_[static_cast<std::size_t>(backup)].hits;
          }
          if (ctx.active()) {
            ctx.child(obs::span_clock_now(), span_kind, backup,
                      bvalue.has_value() ? obs::SpanCause::kHedged
                                         : obs::SpanCause::kMiss,
                      key);
          }
          if (!bvalue.has_value()) return {FetchStatus::kMiss, {}};
          return {FetchStatus::kHit, std::move(*bvalue)};
        }
        // The backup refused, died, or answered corrupt bytes: drop out of
        // the race and keep riding the primary.
        if (err == net::NetError::kNone) {
          record_success(backup, now, blat);  // corrupt payload, clean wire
        } else {
          record_failure(backup, err, now);
        }
        bc = nullptr;
        if (!primary_alive) break;
      }

      if (mono >= deadline) {
        if (primary_alive) {
          pc->abandon();
          record_failure(server, net::NetError::kTimeout, now);
          if (ctx.active()) {
            ctx.child(obs::span_clock_now(), span_kind, server,
                      obs::SpanCause::kTimeout, key);
          }
        }
        if (bc != nullptr) {
          bc->abandon();
          record_failure(backup, net::NetError::kTimeout, now);
        }
        break;
      }

      if (!hedge_decided && primary_alive && mono >= hedge_at) {
        hedge_decided = true;
        if (backup < 0 &&
            ep.health.state() == core::EndpointHealth::State::kHealthy) {
          // With no distinct replica the only hedge target is the database.
          // A lone outlier from an on-baseline endpoint is noise (scheduler
          // jitter, a compaction pause on this side) — diverting it to the
          // backend trades a warm hit for DB load. Divert only once the
          // endpoint has accrued suspicion; otherwise ride the primary out.
        } else if (!hedge_budget_.try_acquire()) {
          ++stats_.hedges_suppressed;  // over the extra-load budget
        } else if (backup < 0) {
          // No distinct replica holds this key: the only useful hedge is to
          // stop waiting on the outlier and read-repair from the database.
          ++stats_.hedges_fired;
          ++stats_.hedges_to_backend;
          pc->abandon();
          obs::emit(options_.trace, now, obs::TraceEventKind::kHedge, server,
                    -1, 1, key);
          if (ctx.active()) {
            ctx.child(obs::span_clock_now(), span_kind, server,
                      obs::SpanCause::kHedged, key);
          }
          return {FetchStatus::kMiss, {}};
        } else {
          MemcacheConnection* cand = acquire(backup, now);
          if (cand != nullptr &&
              cand->begin_get(key, ctx.trace_id, false, epoch_, true)) {
            bc = cand;
            hedge_t0 = mono_usec();
            ++stats_.hedges_fired;
            ++endpoints_[static_cast<std::size_t>(backup)].gets;
          } else if (cand != nullptr) {
            record_failure(backup, cand->last_error(), now);
          }
        }
      }

      pollfd fds[2];
      nfds_t nfds = 0;
      if (primary_alive) fds[nfds++] = {pc->fd(), POLLIN, 0};
      if (bc != nullptr) fds[nfds++] = {bc->fd(), POLLIN, 0};
      const SimTime wait_until =
          hedge_decided ? deadline : std::min(deadline, hedge_at);
      const SimTime remaining = wait_until - mono;
      const int timeout_ms =
          remaining <= 0 ? 0
                         : static_cast<int>(std::min<SimTime>(
                               (remaining + kMillisecond - 1) / kMillisecond,
                               60 * 1000));
      ::poll(fds, nfds, timeout_ms);  // EINTR/timeout: the loop re-examines
      mono = mono_usec();
    }
  }
  return {FetchStatus::kDown, {}};
}

bool ProteusClient::cache_set(int server, std::string_view key,
                              std::string_view value, SimTime now,
                              bool noreply, bool background) {
  MemcacheConnection* c = acquire(server, now);
  if (c == nullptr) return false;
  const SimTime t0 = mono_usec();
  // Every store stamps its payload's CRC32C: the daemon refuses values
  // corrupted on the way in (bad-checksum) and keeps the stamp for at-rest
  // and read-side verification.
  const bool stored = c->set(key, value, 0, /*trace_id=*/0, background,
                             epoch_, /*with_checksum=*/true, noreply);
  // A noreply store's send time is not a round trip: only a failed send
  // reaches the health detector.
  if (!noreply || !stored) settle(server, *c, t0, now);
  return stored;
}

void ProteusClient::cache_erase(int server, std::string_view key,
                                SimTime now) {
  if (MemcacheConnection* c = acquire(server, now)) {
    const SimTime t0 = mono_usec();
    c->erase(key, epoch_);
    settle(server, *c, t0, now);
  }
}

void ProteusClient::settle(int server, const MemcacheConnection& c,
                           SimTime t0, SimTime now) {
  if (c.last_error() == net::NetError::kNone) {
    record_success(server, now, mono_usec() - t0);
    return;
  }
  record_failure(server, c.last_error(), now);
  if (c.last_error() == net::NetError::kStaleEpoch) refresh_view(server, now);
}

void ProteusClient::refresh_view(int server, SimTime now) {
  Endpoint& ep = endpoints_[static_cast<std::size_t>(server)];
  if (ep.conn == nullptr || !ep.conn->ok()) return;
  const auto h = ep.conn->hello();
  if (!h.has_value()) return;
  // Restart detection: the daemon's memory died with its old incarnation,
  // so any transition digest describing it now advertises ghosts — drop it
  // and let the affected keys take the migration/backfill path instead of
  // probing the cold server for phantom hits.
  if (ep.incarnation != 0 && h->second != ep.incarnation) {
    ++stats_.incarnation_changes;
    router_.drop_old_digest(server);
    obs::emit(options_.trace, now, obs::TraceEventKind::kIncarnationChange,
              server, -1, h->second);
  }
  ep.incarnation = h->second;
  // Epochs reconcile in both directions: adopt a newer one, teach ours if
  // ahead.
  if (h->first > epoch_) {
    epoch_ = h->first;
  } else if (epoch_ > h->first && ep.conn->push_epoch(epoch_)) {
    ++stats_.epoch_pushes;
  }
}

std::optional<bloom::BloomFilter> ProteusClient::fetch_digest(int server,
                                                              SimTime now) {
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    MemcacheConnection* c = acquire(server, now);
    if (c == nullptr) break;
    const SimTime t0 = mono_usec();
    auto digest = c->fetch_digest();
    if (digest.has_value()) {
      record_success(server, now, mono_usec() - t0);
      return digest;
    }
    if (c->last_error() == net::NetError::kNone) {
      // The daemon answered but served no digest — nothing to retry.
      record_success(server, now, mono_usec() - t0);
      return std::nullopt;
    }
    record_failure(server, c->last_error(), now);
    if (c->last_error() == net::NetError::kOverloaded) {
      // Shed digest pull: retrying would displace the foreground traffic
      // the daemon is protecting. resize() records the digest as absent.
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void ProteusClient::tick(SimTime now) {
  // Background probe traffic: quarantined endpoints whose dwell elapsed are
  // pinged with a cheap `version` even if routing sends them nothing, so
  // re-admission never depends on a key happening to hash their way.
  // Rate-gated; the probe itself opens probation via acquire()/allow().
  if (now - last_probe_sweep_ >= 250 * kMillisecond) {
    last_probe_sweep_ = now;
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      Endpoint& ep = endpoints_[i];
      if (ep.health.state() != core::EndpointHealth::State::kQuarantined ||
          now < ep.health.probe_at()) {
        continue;
      }
      const int server = static_cast<int>(i);
      MemcacheConnection* c = acquire(server, now);
      if (c == nullptr) continue;  // reconnect failed: already recorded
      const SimTime t0 = mono_usec();
      if (!c->version().empty()) {
        record_success(server, now, mono_usec() - t0);
      } else {
        record_failure(server,
                       c->last_error() == net::NetError::kNone
                           ? net::NetError::kReset
                           : c->last_error(),
                       now);
      }
    }
  }
  if (in_transition() && now >= router_.transition_end()) {
    finalize_transition(now);
  }
  // Audit feed: the client's own per-endpoint counters, with power states
  // derived from routing (this client decided which daemons are active /
  // draining, so its view IS the provisioning intent). Gated to ~1/s of
  // `now`; disabled-path cost is one pointer test.
  if (options_.auditor != nullptr && now - last_audit_feed_ >= kSecond) {
    last_audit_feed_ = now;
    const int active = active_servers();
    const int old_active = router_.old_active();
    const bool transition = in_transition();
    std::vector<obs::ServerAuditSample> fleet(endpoints_.size());
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      const int idx = static_cast<int>(i);
      fleet[i].power_state =
          idx < active ? 0 : (transition && idx < old_active ? 1 : 2);
      fleet[i].gets_total = static_cast<double>(endpoints_[i].gets);
      fleet[i].hits_total = static_cast<double>(endpoints_[i].hits);
    }
    options_.auditor->observe(now, fleet, 0,
                              static_cast<double>(stats_.backend_fetches));
  }
}

std::string ProteusClient::get(std::string_view key, SimTime now) {
  const SimTime start_us = mono_usec();
  // span_clock_now() and mono_usec() read the same steady clock, so child
  // spans tile the exact interval the latency histogram records.
  obs::TraceContext ctx = obs::TraceContext::begin(options_.spans, start_us);
  std::string value = get_inner(key, now, ctx);
  const SimTime end_us = mono_usec();
  ctx.finish(end_us, start_us, key);
  // A sampled request leaves its trace id as the latency bucket's exemplar
  // (rendered on /metrics as an OpenMetrics exemplar).
  get_latency_us_.record(static_cast<double>(end_us - start_us),
                         ctx.trace_id);
  return value;
}

std::string ProteusClient::get_inner(std::string_view key, SimTime now,
                                     obs::TraceContext& ctx) {
  using Step = core::Retrieval::Step;
  tick(now);
  ++stats_.gets;
  if (ctx.active()) ctx.in_transition = in_transition();
  // core::Retrieval runs Algorithm 2; this is its wire transport. The
  // machine is per call, so a backend that reads through this client works.
  core::Retrieval retrieval(retrieval_options_);
  for (auto a = retrieval.start(key, options_.replicas, now, &ctx);;) {
    switch (a.step) {
      case Step::kRoute:
        a = retrieval.routed(router_.decide(key, a.ring));
        break;
      case Step::kGet: {
        FetchResult r = fetch(a.server, key, now, ctx, a.kind);
        a = retrieval.got(r.status, std::move(r.value));
        break;
      }
      case Step::kProbe:  // never asked: no false_negatives counter, as a
                          // probe would cost a round trip
        a = retrieval.probed(false);
        break;
      case Step::kBackend:
        a = fetch_backend(key, retrieval);
        break;
      case Step::kStore:  // line 12 never holds up the response; migration
                          // write-backs are `bg` maintenance
        a = retrieval.stored(cache_set(
            a.server, key, retrieval.value(), now, /*noreply=*/true,
            /*background=*/a.kind == obs::SpanKind::kMigrationStore));
        break;
      case Step::kDone:
        return retrieval.degraded() ? options_.degraded_response
                                    : std::move(retrieval.value());
    }
  }
}

core::Retrieval::Action ProteusClient::fetch_backend(
    std::string_view key, core::Retrieval& retrieval) {
  const auto guarded_fetch = [this, key]() -> std::optional<std::string> {
    if (options_.limiter != nullptr && !options_.limiter->try_begin()) {
      return std::nullopt;  // over the adaptive limit: shed
    }
    const SimTime t0 = mono_usec();
    std::string value = backend_(key);
    if (options_.limiter != nullptr) {
      options_.limiter->end(mono_usec() - t0);
    }
    return value;
  };
  core::SingleflightGroup::Result r =
      options_.singleflight == nullptr
          ? core::SingleflightGroup::Result{guarded_fetch(), true}
          : options_.singleflight->run(std::string(key), guarded_fetch);
  using Fetch = core::Retrieval::Fetch;
  if (!r.value.has_value()) return retrieval.fetched(Fetch::kShed);
  return retrieval.fetched(r.leader ? Fetch::kValue : Fetch::kCoalesced,
                            std::move(*r.value));
}

void ProteusClient::put(std::string_view key, std::string_view value,
                        SimTime now) {
  tick(now);
  std::vector<int>& locations = put_locations_;
  std::vector<int>& old_locations = put_old_locations_;
  locations.clear();
  old_locations.clear();
  for (int r = 0; r < router_.replicas(); ++r) {
    const cluster::Router::Decision d = router_.decide(key, r);
    if (std::find(locations.begin(), locations.end(), d.primary) ==
        locations.end()) {
      locations.push_back(d.primary);
    }
    if (d.old >= 0) old_locations.push_back(d.old);
  }
  for (int server : locations) cache_set(server, key, value, now);
  // Invalidate the transition's old location(s) so the fallback path cannot
  // resurrect the stale value. (Unlike the in-process facade, a network
  // round trip per server makes global invalidation unreasonable here;
  // bound staleness instead with the daemon's --ttl-s item expiry.)
  for (int old_server : old_locations) {
    if (std::find(locations.begin(), locations.end(), old_server) ==
        locations.end()) {
      cache_erase(old_server, key, now);
    }
  }
}

void ProteusClient::finalize_transition(SimTime now) {
  // Real deployments would power the drained daemons off here; that is an
  // operator action outside this client's authority.
  router_.finalize_transition();
  obs::emit(options_.trace, now, obs::TraceEventKind::kResizeEnd,
            active_servers());
}

bool ProteusClient::resize(int n_active, SimTime now) {
  tick(now);
  PROTEUS_CHECK(n_active >= 1 &&
                n_active <= static_cast<int>(options_.endpoints.size()));
  const int n_old = active_servers();
  if (n_active == n_old) return true;
  if (in_transition()) finalize_transition(now);

  // Fencing: advance the cluster epoch and teach it to every daemon the
  // transition touches BEFORE any routing changes. From this point a
  // mutation stamped with the previous epoch — e.g. from a web tier that
  // crashed mid-transition and restarted with an old view — is refused
  // with `stale-epoch` rather than applied to the wrong topology.
  ++epoch_;
  for (int i = 0; i < std::max(n_old, n_active); ++i) {
    MemcacheConnection* c = acquire(i, now);
    if (c == nullptr) continue;
    if (c->push_epoch(epoch_)) {
      ++stats_.epoch_pushes;
    } else if (c->last_error() == net::NetError::kStaleEpoch) {
      // Another coordinator moved the cluster past us: adopt its view (the
      // transition still runs; its mutations simply stamp the newer epoch).
      ++stats_.stale_epoch_rejects;
      refresh_view(i, now);
    }
  }

  // Transactional against partial failure: a server whose digest cannot be
  // fetched is recorded digest-absent — the router then never reports it as
  // "hot", so its keys refill from the backend — and the transition itself
  // ALWAYS completes. A single dead daemon must not wedge provisioning.
  obs::emit(options_.trace, now, obs::TraceEventKind::kResizeBegin, n_old,
            n_active);
  obs::emit(options_.trace, now, obs::TraceEventKind::kEpochBump, -1, -1,
            epoch_);
  std::vector<std::optional<bloom::BloomFilter>> digests(
      options_.endpoints.size());
  bool all_ok = true;
  for (int i = 0; i < n_old; ++i) {
    digests[static_cast<std::size_t>(i)] = fetch_digest(i, now);
    if (digests[static_cast<std::size_t>(i)].has_value()) {
      obs::emit(options_.trace, now, obs::TraceEventKind::kDigestFetch, i, -1,
                digests[static_cast<std::size_t>(i)]->words().size() *
                    sizeof(std::uint64_t));
    } else {
      ++stats_.digest_skips;
      all_ok = false;
      obs::emit(options_.trace, now, obs::TraceEventKind::kDigestSkip, i);
    }
  }
  // One snapshot per server serves every ring: it covers the server's
  // whole content, whichever ring put each key there.
  router_.begin_transition(n_active, now + options_.ttl, std::move(digests));
  return all_ok;
}

void ProteusClient::register_metrics(obs::MetricsRegistry& registry) const {
  const auto stat = [this, &registry](std::string name, std::string help,
                                      std::uint64_t Stats::*field) {
    registry.counter_fn(std::move(name), std::move(help), [this, field] {
      return static_cast<double>(stats_.*field);
    });
  };
  stat("proteus_client_gets_total", "Algorithm 2 retrievals over the wire",
       &Stats::gets);
  stat("proteus_client_new_server_hits_total", "hits on the current mapping",
       &Stats::new_server_hits);
  stat("proteus_client_old_server_hits_total", "on-demand migrations over TCP",
       &Stats::old_server_hits);
  stat("proteus_client_backend_fetches_total", "database fetches",
       &Stats::backend_fetches);
  stat("proteus_client_digest_false_positives_total",
       "fallback consulted, clean miss (SS IV-B p_p)",
       &Stats::digest_false_positives);
  stat("proteus_client_timeouts_total", "wire ops past their deadline",
       &Stats::timeouts);
  stat("proteus_client_resets_total", "connection reset / EOF mid-op",
       &Stats::resets);
  stat("proteus_client_protocol_errors_total", "desynced replies",
       &Stats::protocol_errors);
  stat("proteus_client_retries_total", "extra attempts after a failure",
       &Stats::retries);
  stat("proteus_client_reconnects_total", "fresh connection attempts",
       &Stats::reconnects);
  stat("proteus_client_breaker_open_skips_total",
       "ops skipped: endpoint quarantined",
       &Stats::breaker_open_skips);
  stat("proteus_client_failover_hits_total", "served by a SS III-E replica",
       &Stats::failover_hits);
  stat("proteus_client_degraded_misses_total", "down server treated as miss",
       &Stats::degraded_misses);
  stat("proteus_client_digest_skips_total", "resize() digests not fetched",
       &Stats::digest_skips);
  stat("proteus_client_server_sheds_total",
       "requests the daemon refused with overloaded/EBUSY",
       &Stats::server_sheds);
  stat("proteus_client_load_sheds_total",
       "backend fetches shed by the adaptive limiter",
       &Stats::load_sheds);
  stat("proteus_client_coalesced_fetches_total",
       "misses that piggybacked on a singleflight leader",
       &Stats::coalesced_fetches);
  stat("proteus_client_migrations_deferred_total",
       "Algorithm 2 write-backs paced off under overload",
       &Stats::migrations_deferred);
  stat("proteus_client_stale_epoch_rejects_total",
       "mutations a daemon fenced off with stale-epoch",
       &Stats::stale_epoch_rejects);
  stat("proteus_client_incarnation_changes_total",
       "cold daemon restarts detected on reconnect (digest dropped)",
       &Stats::incarnation_changes);
  stat("proteus_client_epoch_pushes_total", "cluster epochs taught to daemons",
       &Stats::epoch_pushes);
  stat("proteus_client_hedges_fired_total", "backup GETs actually sent",
       &Stats::hedges_fired);
  stat("proteus_client_hedge_wins_total",
       "hedged backups that answered before the primary",
       &Stats::hedge_wins);
  stat("proteus_client_hedge_losses_total",
       "hedges outrun by the primary after all",
       &Stats::hedge_losses);
  stat("proteus_client_hedges_suppressed_total",
       "hedge delay hit but the extra-load budget refused",
       &Stats::hedges_suppressed);
  stat("proteus_client_hedges_to_backend_total",
       "slow primaries abandoned for the database (no replica)",
       &Stats::hedges_to_backend);
  stat("proteus_client_quarantine_enters_total",
       "endpoints taken out of rotation by the health detector",
       &Stats::quarantine_enters);
  stat("proteus_client_quarantine_exits_total",
       "quarantined endpoints re-admitted to probation",
       &Stats::quarantine_exits);
  stat("proteus_client_corrupt_values_total",
       "payload CRC32C mismatches caught at the client",
       &Stats::corrupt_values);
  stat("proteus_client_read_repairs_total",
       "corrupt hits refilled from the database",
       &Stats::read_repairs);
  registry.gauge_fn("proteus_client_active_servers",
                    "endpoints in the current mapping",
                    [this] { return static_cast<double>(active_servers()); });
  registry.gauge_fn("proteus_client_in_transition",
                    "1 while a smooth transition is in flight",
                    [this] { return in_transition() ? 1.0 : 0.0; });
  registry.gauge_fn("proteus_client_epoch",
                    "the client's fencing epoch (docs/PROTOCOL.md)",
                    [this] { return static_cast<double>(epoch_); });
  registry.gauge_fn("proteus_client_hedge_tokens",
                    "hedge budget tokens currently available",
                    [this] { return hedge_budget_.tokens(); });
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    registry.gauge_fn(
        "proteus_client_endpoint_" + std::to_string(i) + "_health_state",
        "0=healthy 1=suspect 2=quarantined 3=probation",
        [this, i] {
          return static_cast<double>(endpoints_[i].health.state());
        });
    registry.gauge_fn(
        "proteus_client_endpoint_" + std::to_string(i) + "_suspicion",
        "phi-accrual suspicion (EWMA of per-sample phi)",
        [this, i] { return endpoints_[i].health.suspicion(); });
    registry.gauge_fn(
        "proteus_client_endpoint_" + std::to_string(i) + "_hedge_delay_us",
        "adaptive hedge trigger: baseline mean + k deviations",
        [this, i] {
          return static_cast<double>(endpoints_[i].health.hedge_delay());
        });
  }
  if (options_.limiter != nullptr) {
    registry.gauge_fn("proteus_client_backend_limit",
                      "AIMD concurrency cap on backend fetches",
                      [this] { return options_.limiter->limit(); });
    registry.gauge_fn("proteus_client_overloaded",
                      "1 while the limiter's overload signal is up",
                      [this] { return options_.limiter->overloaded() ? 1.0 : 0.0; });
  }
  if (options_.migration_throttle != nullptr) {
    registry.counter_fn(
        "proteus_client_throttle_deferred_total",
        "write-backs deferred by the migration throttle (shared object)",
        [this] {
          return static_cast<double>(options_.migration_throttle->deferred());
        });
  }
  registry.histogram_fn(
      "proteus_client_get_latency_us",
      "end-to-end get() wall latency incl. retries and backend",
      [this] { return get_latency_us_.snapshot(); });
}

}  // namespace proteus::client
