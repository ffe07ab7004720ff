// Deterministic fault injection for the live wire path.
//
// A FaultInjector sits between the TcpServer byte loop and the real
// protocol handler (memcached text) as a ConnectionHandler proxy —
// the network position a flaky switch, dying daemon, or half-broken NAT
// would occupy. Tests script exactly which of the next requests are
// sabotaged and how, so every client failure path (timeout, reset,
// protocol desync, truncated reply) is reproducible without sleeping on
// real packet loss.
//
// Install by giving MemcacheDaemon::set_handler_wrapper a lambda that
// delegates to wrap(), or wrap_factory() a bare TcpServer's
// HandlerFactory. All connections of a
// daemon share one injector; faults are consumed from a single scripted
// budget in arrival order.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "net/tcp_server.h"

namespace proteus::net {

enum class FaultKind {
  kNone = 0,
  // Close the connection without replying — the client sees a reset/EOF.
  kDropConnection,
  // Swallow the request and everything after it on this connection — the
  // client blocks until its deadline (kTimeout). The connection stays open.
  kStall,
  // Reply with bytes that are not valid protocol — the client must detect
  // the desync and abandon the connection.
  kGarbageReply,
  // Send only a prefix of the real reply, then close — a daemon dying
  // mid-write (partial write / truncation).
  kTruncateReply,
  // Slow-loris: once triggered on a connection, arriving bytes are trickled
  // into the protocol session ONE per event instead of as whole chunks.
  // Commands crawl toward completion while the connection (and any partial
  // parse state) stays pinned — the resource-exhaustion attack the
  // connection cap and idle reaper must survive. Sticky per connection,
  // like kStall.
  kSlowLoris,
  // Latency ramp: the n-th faulted chunk is served only after sleeping
  // n * ramp_step — a daemon sliding into saturation. The sleep happens on
  // the serving thread, so the whole poll loop slows down exactly as a
  // saturating daemon's would; clients see steadily growing reply latency
  // (what deadlines and AIMD limiters key off). Schedule via
  // inject_latency_ramp().
  kLatencyRamp,
  // Payload corruption: the reply is produced normally, then one bit in the
  // middle of the first VALUE data block is flipped before it leaves the
  // daemon — a NIC/switch/DMA corrupting bytes after the protocol layer
  // framed them. Framing stays intact, so only end-to-end checksums
  // (PROTOCOL.md `C<hex8>`) can catch it. Replies without a flippable
  // payload pass through unchanged.
  kBitFlip,
  // Process crash: the connection is cut with no reply AND the registered
  // crash hook (set_crash_hook) runs on the serving thread. Crash-recovery
  // tests use the hook to stop the daemon and cold-restart it on the same
  // port — new incarnation, memory and digest gone — modeling kill -9.
  kCrash,
};

class FaultInjector {
 public:
  // Sabotage the next `count` data chunks that reach wrapped handlers.
  // Replaces any previously scheduled faults.
  void inject(FaultKind kind, int count = 1) {
    const std::lock_guard<std::mutex> lock(mutex_);
    kind_ = kind;
    remaining_ = count;
  }
  void inject_forever(FaultKind kind) {
    inject(kind, std::numeric_limits<int>::max());
  }
  // Sabotage the next `count` chunks with a growing delay: the first
  // faulted chunk sleeps ramp_step, the second 2 * ramp_step, ...
  void inject_latency_ramp(SimTime ramp_step, int count) {
    const std::lock_guard<std::mutex> lock(mutex_);
    kind_ = FaultKind::kLatencyRamp;
    remaining_ = count;
    ramp_step_ = ramp_step;
    ramp_taken_ = 0;
  }
  void reset() { inject(FaultKind::kNone, 0); }

  // Runs when a kCrash fault fires, on the serving thread, after the
  // connection is marked for closing. Typical test hook: stop the daemon so
  // the run() thread exits, then construct a fresh one on the same port.
  void set_crash_hook(std::function<void()> hook) {
    const std::lock_guard<std::mutex> lock(mutex_);
    crash_hook_ = std::move(hook);
  }

  std::uint64_t requests_seen() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seen_;
  }
  std::uint64_t faults_injected() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return injected_;
  }

  // Wrap a single handler / a whole factory.
  std::unique_ptr<ConnectionHandler> wrap(
      std::unique_ptr<ConnectionHandler> inner);
  TcpServer::HandlerFactory wrap_factory(TcpServer::HandlerFactory inner);

 private:
  friend class FaultInjectingHandler;

  // Consume one scheduled fault (called per data chunk). For kLatencyRamp,
  // `ramp_delay` receives this fault's sleep duration.
  FaultKind take(SimTime* ramp_delay) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++seen_;
    if (remaining_ <= 0 || kind_ == FaultKind::kNone) return FaultKind::kNone;
    --remaining_;
    ++injected_;
    if (kind_ == FaultKind::kLatencyRamp && ramp_delay != nullptr) {
      *ramp_delay = ++ramp_taken_ * ramp_step_;
    }
    return kind_;
  }

  // Invokes the crash hook (if any) outside the injector mutex — the hook
  // is free to touch the daemon, the injector, or both.
  void fire_crash() {
    std::function<void()> hook;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      hook = crash_hook_;
    }
    if (hook) hook();
  }

  mutable std::mutex mutex_;
  FaultKind kind_ = FaultKind::kNone;
  int remaining_ = 0;
  SimTime ramp_step_ = 0;
  int ramp_taken_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t injected_ = 0;
  std::function<void()> crash_hook_;
};

}  // namespace proteus::net
