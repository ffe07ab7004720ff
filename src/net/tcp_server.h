// Minimal poll(2)-based TCP byte server.
//
// The evaluation itself runs on the deterministic discrete-event simulator
// (src/sim), but the cache server is also deployable for real: this server
// accepts connections and shuttles bytes between sockets and a per-
// connection protocol handler (the memcached text session, see
// memcache_daemon.h). Single-threaded poll loop — the same architecture as
// memcached's worker threads, collapsed to one for clarity.
//
// Hardening against misbehaving peers (Limits):
//   * max_connections — beyond the cap, accepts are immediately closed so
//     one greedy client cannot exhaust the daemon's descriptors;
//   * max_outbox_bytes — a slow reader whose replies pile up past this is
//     dropped instead of growing the outbox without bound;
//   * idle_timeout — connections silent for this long are reaped.
// Writes use MSG_NOSIGNAL throughout: a client disconnecting mid-reply
// yields EPIPE, never a process-killing SIGPIPE.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/time.h"

namespace proteus::net {

// Per-connection byte-stream handler. on_data consumes a chunk and returns
// bytes to write back; set `close` to end the connection after the write.
class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;
  virtual std::string on_data(std::string_view bytes, bool& close) = 0;
};

class TcpServer {
 public:
  using HandlerFactory = std::function<std::unique_ptr<ConnectionHandler>()>;

  struct Limits {
    std::size_t max_connections = 4096;
    std::size_t max_outbox_bytes = 64u << 20;
    SimTime idle_timeout = 0;  // 0 = never reap idle connections
  };

  // Binds 127.0.0.1:`port` (0 = ephemeral). With `reuse_port`, multiple
  // TcpServer instances may bind the same port (SO_REUSEPORT) and the
  // kernel load-balances accepted connections across them — the basis of
  // the daemon's worker-thread mode. Throws nothing: check ok().
  TcpServer(std::uint16_t port, HandlerFactory factory, bool reuse_port,
            Limits limits);
  TcpServer(std::uint16_t port, HandlerFactory factory,
            bool reuse_port = false)
      : TcpServer(port, std::move(factory), reuse_port, Limits{}) {}
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  bool ok() const noexcept { return listen_fd_ >= 0; }
  std::uint16_t port() const noexcept { return port_; }

  // Runs the poll loop until stop() is called (from another thread) or the
  // listening socket fails.
  void run();

  // Thread-safe shutdown request; wakes the poll loop via a pipe.
  void stop();

  // Graceful drain: stop accepting (the listen socket is closed inside the
  // poll loop), keep serving established connections, and return from
  // run() once they all close — or at `deadline` (monotonic usec; 0 = wait
  // forever). Async-signal-safe (atomics + a pipe write), so a SIGTERM
  // handler may call it directly.
  void begin_drain(SimTime deadline);
  bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  // Counters are atomics written by the poll-loop thread with relaxed
  // ordering, so concurrent readers (metrics scrapes, proteus-top) see
  // coherent values without taking any lock.
  std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t connections_rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::uint64_t idle_reaped() const noexcept {
    return idle_reaped_.load(std::memory_order_relaxed);
  }
  std::uint64_t slow_reader_drops() const noexcept {
    return slow_drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t fd_exhausted_rejects() const noexcept {
    return fd_exhausted_rejects_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    std::unique_ptr<ConnectionHandler> handler;
    std::string outbox;   // bytes pending write; a reply moves into it
    bool close_after_write = false;
    // Monotonic usec of the last read/write progress; kept only while
    // idle reaping is on (it alone reads it).
    SimTime last_activity = 0;
  };

  // `now` is the poll wakeup's one clock read, taken only when idle reaping
  // is on (0 otherwise): progress stamps last_activity with it.
  void accept_new(SimTime now);
  bool service_read(int fd, SimTime now);   // false -> drop connection
  bool service_write(int fd, SimTime now);  // false -> drop connection
  void drop(int fd);
  void reap_idle(SimTime now);

  HandlerFactory factory_;
  Limits limits_;
  int listen_fd_ = -1;
  // Reserved descriptor released under EMFILE/ENFILE so the pending
  // connection can still be accepted, told "overloaded", and closed —
  // without it the connection would sit in the backlog being retried
  // forever while the process has no fd to even refuse it with.
  int emergency_fd_ = -1;
  SimTime accept_backoff_until_ = 0;  // stop polling accept until then
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::unordered_map<int, Connection> connections_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> slow_drops_{0};
  std::atomic<std::uint64_t> fd_exhausted_rejects_{0};
  std::atomic<bool> draining_{false};
  std::atomic<SimTime> drain_deadline_{0};
};

}  // namespace proteus::net
