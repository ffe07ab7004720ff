#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace proteus::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

SimTime mono_usec() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TcpServer::TcpServer(std::uint16_t port, HandlerFactory factory,
                     bool reuse_port, Limits limits)
    : factory_(std::move(factory)), limits_(limits) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return;

  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port) {
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0 || !set_nonblocking(listen_fd_) ||
      ::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  set_nonblocking(wake_pipe_[0]);
  emergency_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

TcpServer::~TcpServer() {
  for (auto& [fd, conn] : connections_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (emergency_fd_ >= 0) ::close(emergency_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

void TcpServer::stop() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void TcpServer::begin_drain(SimTime deadline) {
  // Async-signal-safe: two lock-free atomic stores and one pipe write.
  drain_deadline_.store(deadline, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  if (wake_pipe_[1] >= 0) {
    const char byte = 'd';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

namespace {
constexpr char kOverloadLine[] = "SERVER_ERROR overloaded\r\n";
}  // namespace

void TcpServer::accept_new(SimTime now) {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EMFILE || errno == ENFILE) {
        // The process (or host) is out of descriptors. Left alone, the
        // pending connection sits in the backlog and accept() fails on
        // every poll wakeup — a busy loop that serves nobody. Burn the
        // reserved descriptor to accept it, say "overloaded" so the client
        // degrades instead of retrying into the same wall, close it, and
        // take the reservation back. Then back off the accept loop: under
        // sustained exhaustion the established connections (which free fds
        // as they finish) get the cycles, not the accept storm.
        if (emergency_fd_ >= 0) {
          ::close(emergency_fd_);
          emergency_fd_ = -1;
          const int victim = ::accept(listen_fd_, nullptr, nullptr);
          if (victim >= 0) {
            // Count before closing: a monitor that saw our close (EOF)
            // must also see the reject it is about to ask about.
            ++fd_exhausted_rejects_;
            [[maybe_unused]] const ssize_t sent =
                ::send(victim, kOverloadLine, sizeof(kOverloadLine) - 1,
                       MSG_NOSIGNAL | MSG_DONTWAIT);
            ::close(victim);
          }
          emergency_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        }
        accept_backoff_until_ = mono_usec() + 20 * kMillisecond;
      }
      return;  // EAGAIN or error: nothing more to accept
    }
    if (connections_.size() >= limits_.max_connections) {
      // Over the cap: shed the connection rather than let one client
      // exhaust our descriptors — but say so first. A silent close looks
      // like a network fault and triggers client retries/breakers; a
      // best-effort overload line tells the client to degrade instead.
      // MSG_DONTWAIT: never block the accept loop for a full send buffer.
      [[maybe_unused]] const ssize_t sent =
          ::send(fd, kOverloadLine, sizeof(kOverloadLine) - 1,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      ::close(fd);
      ++rejected_;
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_.emplace(fd, Connection{factory_(), {}, false, now});
    ++accepted_;
  }
}

bool TcpServer::service_read(int fd, SimTime now) {
  Connection& conn = connections_.at(fd);
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      conn.last_activity = now;
      bool close = false;
      std::string reply = conn.handler->on_data(
          std::string_view(buf, static_cast<std::size_t>(n)), close);
      // Nothing pending (the usual case): the reply becomes the outbox.
      if (conn.outbox.empty()) {
        conn.outbox = std::move(reply);
      } else {
        conn.outbox += reply;
      }
      if (close) conn.close_after_write = true;
      if (conn.outbox.size() > limits_.max_outbox_bytes) {
        ++slow_drops_;
        return false;  // slow reader: replies piling up without bound
      }
      // A short read drained the socket: stop here rather than pay one
      // more read for its EAGAIN. poll is level-triggered, so bytes that
      // arrive meanwhile are reported on the next pass.
      if (static_cast<std::size_t>(n) < sizeof(buf)) return true;
      continue;
    }
    if (n == 0) return false;  // peer closed
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool TcpServer::service_write(int fd, SimTime now) {
  Connection& conn = connections_.at(fd);
  while (!conn.outbox.empty()) {
    // MSG_NOSIGNAL: a peer that disconnected mid-reply must surface EPIPE,
    // not kill the daemon with SIGPIPE.
    const ssize_t n = ::send(fd, conn.outbox.data(), conn.outbox.size(),
                             MSG_NOSIGNAL);
    if (n > 0) {
      conn.last_activity = now;
      conn.outbox.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
  return !conn.close_after_write;
}

void TcpServer::drop(int fd) {
  ::close(fd);
  connections_.erase(fd);
}

void TcpServer::reap_idle(SimTime now) {
  if (limits_.idle_timeout <= 0) return;
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (now - it->second.last_activity >= limits_.idle_timeout) {
      ::close(it->first);
      it = connections_.erase(it);
      ++idle_reaped_;
    } else {
      ++it;
    }
  }
}

void TcpServer::run() {
  if (!ok()) return;
  std::vector<pollfd> fds;
  for (;;) {
    if (draining_.load(std::memory_order_acquire)) {
      // Graceful drain: no new connections (close the listen socket so the
      // kernel refuses them), serve the established ones to completion or
      // until the deadline.
      if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
      if (connections_.empty()) return;
      const SimTime deadline = drain_deadline_.load(std::memory_order_acquire);
      if (deadline > 0 && mono_usec() >= deadline) return;
    }

    // During an fd-exhaustion backoff the listen socket is left out of the
    // poll set (its POLLIN would stay hot and spin the loop).
    const bool accept_paused =
        accept_backoff_until_ > 0 && mono_usec() < accept_backoff_until_;
    fds.clear();
    fds.push_back(pollfd{accept_paused ? -1 : listen_fd_, POLLIN,
                         0});  // fd -1 while draining: ignored
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, conn] : connections_) {
      short events = POLLIN;
      if (!conn.outbox.empty() || conn.close_after_write) events |= POLLOUT;
      fds.push_back(pollfd{fd, events, 0});
    }

    // With idle reaping enabled the loop must wake periodically even when
    // no socket is ready; poll at most a quarter of the timeout.
    int poll_timeout_ms = -1;
    if (limits_.idle_timeout > 0 && !connections_.empty()) {
      poll_timeout_ms = static_cast<int>(std::clamp<SimTime>(
          limits_.idle_timeout / kMillisecond / 4, 1, 1000));
    }
    if (draining_.load(std::memory_order_acquire)) {
      // Wake often enough to notice the drain deadline.
      poll_timeout_ms = poll_timeout_ms < 0
                            ? 50
                            : std::min(poll_timeout_ms, 50);
    }
    if (accept_paused) {
      // Wake in time to resume accepting when the backoff elapses.
      poll_timeout_ms = poll_timeout_ms < 0
                            ? 20
                            : std::min(poll_timeout_ms, 20);
    }
    if (::poll(fds.data(), fds.size(), poll_timeout_ms) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    // Only the idle reaper reads last_activity: without it, no clock.
    const SimTime now = limits_.idle_timeout > 0 ? mono_usec() : 0;
    if (fds[1].revents & POLLIN) {
      // Drain the pipe and act on what arrived: 'q' = stop now, 'd' = the
      // drain flag is already set and the next loop iteration handles it.
      char bytes[64];
      const ssize_t n = ::read(wake_pipe_[0], bytes, sizeof(bytes));
      for (ssize_t i = 0; i < n; ++i) {
        if (bytes[i] == 'q') return;  // stop() requested
      }
    }
    if (fds[0].revents & POLLIN) accept_new(now);

    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      if (connections_.find(fd) == connections_.end()) continue;
      bool alive = true;
      if (fds[i].revents & (POLLERR | POLLHUP)) {
        // Flush what we can, then drop.
        service_write(fd, now);
        alive = false;
      } else {
        if (fds[i].revents & POLLIN) alive = service_read(fd, now);
        if (alive) alive = service_write(fd, now);
      }
      if (!alive) drop(fd);
    }
    reap_idle(now);
  }
}

}  // namespace proteus::net
