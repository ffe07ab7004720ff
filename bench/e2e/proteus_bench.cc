// proteus_bench — the end-to-end benchmark: the live wire path (four
// loopback daemons driven by one ProteusClient) and the paper's simulator.
//
//   proteus_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
//
// Workloads, metrics and the layer -> metric map are in bench/e2e/README.md;
// bench/e2e/run.sh builds this program (Release) and runs it. The last line
// of stdout is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// End-to-end timings are scaled to a nominal host speed (SpeedProbe below);
// per-layer timings are as measured. Exit status is 0 only when every
// output checked out.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bloom/bloom_filter.h"
#include "cache/cache_server.h"
#include "cache/sharded_cache.h"
#include "cache/text_protocol.h"
#include "client/memcache_client.h"
#include "cluster/router.h"
#include "cluster/scenario.h"
#include "common/hash.h"
#include "common/rng.h"
#include "hashring/proteus_placement.h"
#include "hashring/replicated_ring.h"
#include "hashring/routing_table.h"
#include "net/memcache_daemon.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulation.h"
#include "workload/trace.h"

namespace {

using namespace proteus;

constexpr int kServers = 4;
// Logical client clock: every op advances it by this much, so transition
// drains and hit ratios repeat exactly for a seed, whatever the host does.
constexpr SimTime kLogicalStep = 100 * kMicrosecond;
constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kDefaultSeed = 1;  // the sim goldens' seed
constexpr std::size_t kReplayOps = 20000;  // per-layer replays, per repetition
constexpr std::size_t kReplayLatencies = 100000;  // obs::Histogram replays
// Cache replays run on an engine this large, so every replayed key stays
// resident and gets measure the hit path.
constexpr std::size_t kReplayBudget = 128u << 20;
constexpr std::size_t kCaptureCap = 4096;  // request chunks kept per verb
constexpr std::size_t kSpanFileRoots = 20000;  // requests in spans.jsonl
// Ops per traced/untraced block. A traced block must fit the daemons' span
// rings (16,384 spans each) before it is drained.
constexpr std::size_t kTraceBlock = 1000;
// The trace self-check tolerates this share of roots breaking a rule
// (a hedge can abandon a request the daemon is still serving).
constexpr double kTraceViolationLimit = 0.001;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Nearest-rank percentile; q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::string fmt17(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

// The ring position ProteusClient routes `key` by (replica ring 0).
std::uint64_t key_hash(std::string_view key) {
  return ring::replica_ring_hash(hash_bytes(key), 0);
}

std::string_view first_line(std::string_view chunk) {
  return chunk.substr(0, chunk.find("\r\n"));
}

// Keeps replay results observable so the timed loops cannot be elided.
std::atomic<std::uint64_t> g_sink{0};

// ---------------------------------------------------------------------------
// Arguments and provenance

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string artifacts;  // output directory, set by main()
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    } else if (flag == "--trace") {
      value = "1";
    }
    const char* end = value.data() + value.size();
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (std::from_chars(value.data(), end, args.seed).ptr != end ||
          value.empty()) {
        return false;
      }
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
      if (!(args.seconds > 0 && args.seconds <= 600)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

struct Pinning {
  bool pinned = false;
  int cpu = -1;        // every measured thread: generator, daemons, probe
  int other_cpu = -1;  // the second thread of the contended replay
  int cpus = 1;
};

// Every measured thread shares the last CPU of the allowed set. On a VM a
// wakeup across vCPUs goes through the hypervisor, and a loopback get
// between a generator and a daemon on two vCPUs spent about half its time
// there, at a cost that swung with other tenants' load; on one CPU a get is
// the client, kernel and daemon work it takes. Unpinned (pinned:false) when
// the affinity set cannot be read.
Pinning choose_pinning() {
  Pinning p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return p;
  std::vector<int> allowed;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) allowed.push_back(c);
  }
  p.cpus = static_cast<int>(allowed.size());
  if (allowed.empty()) return p;
  p.pinned = true;
  p.cpu = allowed.back();
  if (allowed.size() >= 2) p.other_cpu = allowed[allowed.size() - 2];
  return p;
}

void pin_current_thread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

std::string kernel_release() {
  utsname u{};
  return uname(&u) == 0 ? u.release : "unknown";
}

// ---------------------------------------------------------------------------
// Metrics report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> counts;  // artifact extras
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value) {
    counts.emplace_back(std::move(name), value);
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    correct = false;
  }

  std::string metrics_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i) out += ", ";
      out += "\"" + metrics[i].name + "\": {\"value\": " +
             fmt17(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
             "\"}";
    }
    return out + "}";
  }
};

// ---------------------------------------------------------------------------
// Workloads

enum class Warm { kGetEach, kPutEach, kStream };

struct WireSpec {
  std::size_t keys = 0;
  std::size_t value_bytes = 0;
  double zipf_alpha = 0;  // 0 = uniform key choice
  int put_pct = 0;
  std::size_t daemon_budget = 0;
  Warm warm = Warm::kGetEach;
  std::size_t warm_ops = 0;  // kStream only
  std::size_t phase_ops = 0;
  // Active count each phase of a round starts with (one resize per phase);
  // empty = a single phase, no resizes.
  std::vector<int> resizes;
  SimTime drain = 60 * kSecond;  // transition TTL on the logical clock

  std::size_t round_ops() const {
    return phase_ops * std::max<std::size_t>(1, resizes.size());
  }
};

struct Workload {
  const char* name;
  WireSpec wire;  // sim-diurnal: the request stream its layer replays use
  bool sim = false;
};

std::vector<Workload> workloads() {
  // The paper's traffic, as the simulator models it: page popularity Zipf
  // 0.9 over 200k pages (cluster::default_experiment_config), 4 KiB objects
  // (db::DbConfig::object_size), read only (web servers never write the
  // cache except to fill it), 4 MB per cache server.
  WireSpec paper;
  paper.keys = 200000;
  paper.value_bytes = 4096;
  paper.zipf_alpha = 0.9;
  paper.daemon_budget = 4u << 20;
  paper.warm = Warm::kStream;
  paper.warm_ops = 20000;
  paper.phase_ops = 50000;
  // hot-get and write-4k are synthetic: they isolate the wire path, not
  // model traffic. hot-get: small values so per-op fixed costs dominate,
  // every key fits, nothing is evicted.
  WireSpec hot;
  hot.keys = 20000;
  hot.value_bytes = 100;
  hot.daemon_budget = 16u << 20;
  hot.warm = Warm::kGetEach;
  hot.phase_ops = 50000;
  // write-4k: the same layers under stores of the paper's object size; half
  // the ops are puts so stores and gets weigh the same.
  WireSpec w4k = hot;
  w4k.value_bytes = 4096;
  w4k.put_pct = 50;
  w4k.daemon_budget = 64u << 20;
  w4k.warm = Warm::kPutEach;
  // resize-churn: Algorithm 2 on the live path over the paper's stream;
  // ~800 MB of pages against 192 MB of cache, so hit ratio depends on what
  // survives each resize. About two thirds of gets hit, which keeps the
  // median latency inside the hit mode: near one half, it flipped between
  // the hit and the miss latency from run to run.
  WireSpec churn = paper;
  churn.daemon_budget = 48u << 20;
  churn.warm_ops = 100000;
  churn.phase_ops = 40000;
  churn.resizes = {2, 4, 3, 1, 4};
  churn.drain = 2 * kSecond;
  return {{"hot-get", hot},
          {"write-4k", w4k},
          {"resize-churn", churn},
          {"sim-diurnal", paper, true}};
}

struct Op {
  std::uint32_t key;
  bool put;
};

std::vector<Op> make_ops(const WireSpec& spec, std::uint64_t seed,
                         std::uint64_t stream, std::size_t n) {
  Rng rng(hash_combine(seed, stream));
  std::optional<ZipfSampler> zipf;
  if (spec.zipf_alpha > 0) zipf.emplace(spec.keys, spec.zipf_alpha);
  std::vector<Op> ops(n);
  for (Op& op : ops) {
    op.key = static_cast<std::uint32_t>(zipf ? (*zipf)(rng)
                                             : rng.next_below(spec.keys));
    op.put = rng.next_below(100) < static_cast<std::uint64_t>(spec.put_pct);
  }
  return ops;
}

std::vector<Op> warm_ops(const WireSpec& spec, std::uint64_t seed) {
  if (spec.warm == Warm::kStream) {
    return make_ops(spec, seed, /*stream=*/0x3a77, spec.warm_ops);
  }
  std::vector<Op> ops(spec.keys);
  for (std::size_t i = 0; i < spec.keys; ++i) {
    ops[i] = {static_cast<std::uint32_t>(i), spec.warm == Warm::kPutEach};
  }
  return ops;
}

// Round r of the measured phase; rounds are generated between timed loops.
std::vector<Op> round_ops(const WireSpec& spec, std::uint64_t seed,
                          std::size_t round) {
  return make_ops(spec, seed, 0x1000 + round, spec.round_ops());
}

// ---------------------------------------------------------------------------
// The authoritative store and correctness oracle. A value encodes its key
// id and put version ("<id>:<version>:" + filler), so every get is
// classified fresh, stale (an older version) or wrong.

enum class Verdict { kFresh, kStale, kDegraded, kWrong };

class Database {
 public:
  explicit Database(const WireSpec& spec)
      : value_bytes_(spec.value_bytes), version_(spec.keys, 0) {
    keys_.reserve(spec.keys);
    for (std::size_t i = 0; i < spec.keys; ++i) {
      keys_.push_back(workload::page_key(i));
    }
    for (std::size_t i = 0; i < value_bytes_; ++i) {
      filler_.push_back(static_cast<char>('a' + i % 26));
    }
  }

  const std::string& key(std::size_t id) const { return keys_[id]; }

  std::string value(std::size_t id, std::uint32_t version) const {
    std::string v = std::to_string(id) + ":" + std::to_string(version) + ":";
    v.append(filler_, v.size(), value_bytes_ - v.size());
    return v;
  }
  std::string current(std::size_t id) const { return value(id, version_[id]); }
  std::string next_put(std::size_t id) { return value(id, ++version_[id]); }

  std::size_t id_of(std::string_view key) const {
    std::size_t id = 0;
    key.remove_prefix(std::min<std::size_t>(5, key.size()));  // "page:"
    std::from_chars(key.data(), key.data() + key.size(), id);
    return std::min(id, keys_.size() - 1);
  }

  Verdict classify(std::size_t id, std::string_view got) const {
    if (got.empty()) return Verdict::kDegraded;
    std::size_t got_id = 0;
    std::uint32_t got_version = 0;
    const char* p = got.data();
    const char* end = got.data() + got.size();
    auto r = std::from_chars(p, end, got_id);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != ':') {
      return Verdict::kWrong;
    }
    r = std::from_chars(r.ptr + 1, end, got_version);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != ':') {
      return Verdict::kWrong;
    }
    const std::size_t header = static_cast<std::size_t>(r.ptr + 1 - p);
    if (got_id != id || got.size() != value_bytes_ ||
        got.compare(header, std::string_view::npos, filler_, header,
                    std::string::npos) != 0 ||
        got_version > version_[id]) {
      return Verdict::kWrong;
    }
    return got_version == version_[id] ? Verdict::kFresh : Verdict::kStale;
  }

 private:
  std::size_t value_bytes_;
  std::vector<std::string> keys_;
  std::vector<std::uint32_t> version_;
  std::string filler_;
};

// ---------------------------------------------------------------------------
// Tracing uses the repo's own spans. The client records a root span per get
// with tiled children (obs::TraceContext) into the collector in its
// Options, the trace id rides the wire as the O token, and each daemon's
// session records parse, lock-wait and op spans under that id
// (MemcacheDaemon::spans()). The one boundary the repo does not record is
// each daemon's ConnectionHandler::on_data; the benchmark wraps it through
// MemcacheDaemon::set_handler_wrapper and files the call under the trace id
// its request carried. Every span therefore joins its root by trace id.

struct OnDataSpan {
  std::uint64_t trace_id = 0;  // the request's O token; 0 = none
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Shared by every daemon's handler wrapper.
class OnDataLog {
 public:
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_relaxed); }
  bool tracing() const { return tracing_.load(std::memory_order_relaxed); }
  void set_capture(bool on) { capturing_.store(on); }

  void add(const OnDataSpan& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<OnDataSpan> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(spans_, {});
  }

  // Keeps the first request chunks per verb for the protocol replays.
  void capture(std::string_view bytes) {
    if (!capturing_.load(std::memory_order_relaxed)) return;
    const bool get = bytes.substr(0, 4) == "get ";
    const bool set = bytes.substr(0, 4) == "set ";
    if (!get && !set) return;
    const std::lock_guard<std::mutex> lock(mu_);
    auto& chunks = get ? get_chunks_ : set_chunks_;
    if (chunks.size() < kCaptureCap) chunks.emplace_back(bytes);
    if (get_chunks_.size() >= kCaptureCap &&
        set_chunks_.size() >= kCaptureCap) {
      capturing_.store(false, std::memory_order_relaxed);
    }
  }

  std::vector<std::string> get_chunks() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return get_chunks_;
  }
  std::vector<std::string> set_chunks() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return set_chunks_;
  }

 private:
  std::atomic<bool> tracing_{false};
  std::atomic<bool> capturing_{false};
  mutable std::mutex mu_;
  std::vector<OnDataSpan> spans_;
  std::vector<std::string> get_chunks_;
  std::vector<std::string> set_chunks_;
};

class TracedHandler final : public net::ConnectionHandler {
 public:
  TracedHandler(std::unique_ptr<net::ConnectionHandler> inner, OnDataLog& log)
      : inner_(std::move(inner)), log_(log) {}

  std::string on_data(std::string_view bytes, bool& close) override {
    log_.capture(bytes);
    if (!log_.tracing()) return inner_->on_data(bytes, close);
    const std::int64_t start = now_ns();
    std::string reply = inner_->on_data(bytes, close);
    const std::int64_t end = now_ns();
    log_.add({cache::parse_command_line(first_line(bytes)).trace_id, start,
              end});
    return reply;
  }

 private:
  std::unique_ptr<net::ConnectionHandler> inner_;
  OnDataLog& log_;
};

// ---------------------------------------------------------------------------
// Fleet: four in-process daemons on loopback, one worker thread each.

class Fleet {
 public:
  Fleet(const WireSpec& spec, int cpu, bool obs_on, OnDataLog* log) {
    for (int i = 0; i < kServers; ++i) {
      cache::CacheConfig config;
      config.memory_budget_bytes = spec.daemon_budget;
      net::AuditOptions audit;
      net::TsdbOptions tsdb;
      audit.enabled = obs_on;
      tsdb.enabled = obs_on;
      auto d = std::make_unique<net::MemcacheDaemon>(
          std::move(config), /*port=*/0, net::monotonic_now, /*threads=*/1,
          net::TcpServer::Limits{}, net::AdmissionOptions{}, audit, tsdb);
      if (!d->ok()) throw std::runtime_error("daemon failed to bind");
      d->set_server_id(i);
      if (log != nullptr) {
        d->set_handler_wrapper(
            [log](std::unique_ptr<net::ConnectionHandler> inner)
                -> std::unique_ptr<net::ConnectionHandler> {
              return std::make_unique<TracedHandler>(std::move(inner), *log);
            });
      }
      daemons_.push_back(std::move(d));
    }
    for (auto& d : daemons_) {
      threads_.emplace_back([daemon = d.get(), cpu] {
        pin_current_thread(cpu);
        daemon->run();
      });
    }
  }
  ~Fleet() {
    for (auto& d : daemons_) d->stop();
    for (auto& t : threads_) t.join();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<std::uint16_t> ports() const {
    std::vector<std::uint16_t> out;
    for (const auto& d : daemons_) out.push_back(d->port());
    return out;
  }
  net::MemcacheDaemon& daemon(int i) {
    return *daemons_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons_;
  std::vector<std::thread> threads_;  // after daemons_: joined first
};

// ---------------------------------------------------------------------------
// Host speed. On a shared VM the host's effective speed can change by up to
// 2x within minutes: other tenants contend for caches, memory bandwidth and
// cores, and the CPU time the same binary spends per op moves with them. So
// a probe thread on the measured CPU times a fixed reference block every
// SpeedProbe::kPeriod, in its own thread CPU time, and every end-to-end
// timing is reported at the speed at which the reference takes its nominal
// time:
//
//   reported time = measured time × nominal ÷ median(reference, same interval)
//
// The reference is bench-owned code that no change under src/ can speed up
// or slow down, so a change to the code under test moves the reported
// numbers one for one, while a change of host speed moves the reference too.

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Both ends of one TCP loopback connection, driven by one thread: each
// round trip sends a request one way and a reply back, like a wire get, but
// without waking another thread.
class LoopbackPair {
 public:
  LoopbackPair() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    const bool ok =
        listener >= 0 &&
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) ==
            0 &&
        (a_ = ::socket(AF_INET, SOCK_STREAM, 0)) >= 0 &&
        ::connect(a_, reinterpret_cast<sockaddr*>(&addr), len) == 0 &&
        (b_ = ::accept(listener, nullptr, nullptr)) >= 0;
    if (listener >= 0) ::close(listener);
    if (!ok) throw std::runtime_error("speed probe: loopback setup failed");
    const int one = 1;
    ::setsockopt(a_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::setsockopt(b_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  ~LoopbackPair() {
    ::close(a_);
    ::close(b_);
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;

  void round_trips(int n) {
    char request[48];
    char reply[160];
    std::memset(request, 'q', sizeof request);
    std::memset(reply, 'r', sizeof reply);
    for (int i = 0; i < n; ++i) {
      if (!transfer(a_, b_, request, sizeof request) ||
          !transfer(b_, a_, reply, sizeof reply)) {
        throw std::runtime_error("speed probe: loopback round trip failed");
      }
    }
  }

 private:
  static bool transfer(int from, int to, char* buf, std::size_t n) {
    if (::send(from, buf, n, MSG_NOSIGNAL) != static_cast<ssize_t>(n)) {
      return false;
    }
    for (std::size_t got = 0; got < n;) {
      const ssize_t r = ::recv(to, buf + got, n - got, 0);
      if (r <= 0) return false;
      got += static_cast<std::size_t>(r);
    }
    return true;
  }

  int a_ = -1;
  int b_ = -1;
};

// Hash-map and heap churn: memory-bound user code of the kind the cache
// engine and the simulator's event queue run. Returns a value to keep.
std::uint64_t churn_block() {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(4096);
  std::priority_queue<std::uint64_t> heap;
  std::uint64_t x = 0x5eed;
  std::uint64_t acc = 0;
  for (int i = 0; i < 8000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    map[(x >> 20) % 4000] += x;
    heap.push(x >> 16);
    if (heap.size() > 512) {
      acc += heap.top();
      heap.pop();
    }
    const auto it = map.find((x >> 40) % 6000);
    if (it != map.end()) acc += it->second;
  }
  return acc;
}

// Dependent loads around one random cycle through a table larger than a
// core's L2 cache: the cost of the cache misses the simulator's and the
// engine's lookups take, which other tenants' memory traffic moves.
class ChaseTable {
 public:
  ChaseTable() : next_(kEntries) {
    std::vector<std::uint32_t> order(kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i) order[i] = i;
    std::uint64_t x = 0xc4a5e;
    for (std::uint32_t i = kEntries - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(order[i], order[(x >> 33) % (i + 1)]);
    }
    for (std::uint32_t i = 0; i < kEntries; ++i) {
      next_[order[i]] = order[(i + 1) % kEntries];
    }
  }
  std::uint32_t walk(int steps) {
    for (int i = 0; i < steps; ++i) at_ = next_[at_];
    return at_;
  }

 private:
  static constexpr std::uint32_t kEntries = 2u << 20;  // 8 MB
  std::vector<std::uint32_t> next_;
  std::uint32_t at_ = 0;
};

class SpeedProbe {
 public:
  // Thread CPU seconds of each reference part on an unloaded host (Intel
  // Xeon 4-vCPU VM, Linux 6.18). Scaled timings read as if measured there.
  static constexpr double kNominalChurnS = 0.0006;
  static constexpr double kNominalChaseS = 0.00052;
  static constexpr double kNominalLoopbackS = 0.0003;
  static constexpr auto kPeriod = std::chrono::milliseconds(20);

  explicit SpeedProbe(int cpu) {
    thread_ = std::thread([this, cpu] {
      pin_current_thread(cpu);
      // One untimed block first: the first run of each part pays for page
      // faults and cold caches.
      g_sink.fetch_add(churn_block(), std::memory_order_relaxed);
      g_sink.fetch_add(chase_.walk(kChaseSteps), std::memory_order_relaxed);
      loopback_.round_trips(kRoundTrips);
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        lock.unlock();
        Sample s;
        s.at_ns = now_ns();
        double c0 = thread_cpu_s();
        g_sink.fetch_add(churn_block(), std::memory_order_relaxed);
        s.churn_s = thread_cpu_s() - c0;
        c0 = thread_cpu_s();
        g_sink.fetch_add(chase_.walk(kChaseSteps), std::memory_order_relaxed);
        s.chase_s = thread_cpu_s() - c0;
        c0 = thread_cpu_s();
        loopback_.round_trips(kRoundTrips);
        s.loopback_s = thread_cpu_s() - c0;
        lock.lock();
        samples_.push_back(s);
        cv_.notify_all();
        cv_.wait_for(lock, kPeriod, [this] { return stop_; });
      }
    });
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !samples_.empty(); });
  }
  ~SpeedProbe() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // How much slower than nominal the host ran over [t0_ns, t1_ns), from
  // the samples taken in the interval, or from the kMinSamples nearest to
  // it if it held fewer (a short interval, such as one set-up, is timed
  // against the probe's samples around it once they exist). A sample's
  // slowdown is the mean of its parts' ratios to their nominal times, the
  // loopback part counted twice: of the blends tried, that one tracked all
  // four workloads best while other vCPUs ran CPU- and memory-bound loads
  // (the per-phase spread left was 4-6% against 14-20% unscaled).
  double slowdown(std::int64_t t0_ns, std::int64_t t1_ns) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::int64_t, double>> near;  // distance, slowdown
    std::size_t inside = 0;
    for (const Sample& s : samples_) {
      const std::int64_t d = s.at_ns < t0_ns    ? t0_ns - s.at_ns
                             : s.at_ns >= t1_ns ? s.at_ns - t1_ns + 1
                                                : 0;
      inside += d == 0 ? 1 : 0;
      near.emplace_back(d, (s.churn_s / kNominalChurnS +
                            s.chase_s / kNominalChaseS +
                            2 * s.loopback_s / kNominalLoopbackS) /
                               4);
    }
    const std::size_t k = std::min(near.size(), std::max(inside, kMinSamples));
    std::nth_element(near.begin(),
                     near.begin() + static_cast<std::ptrdiff_t>(k - 1),
                     near.end());
    std::vector<double> slowdowns;
    for (std::size_t i = 0; i < k; ++i) slowdowns.push_back(near[i].second);
    return median(std::move(slowdowns));
  }

  // Median thread CPU seconds of each reference part over the whole run.
  void note_medians(Report& r) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> churn;
    std::vector<double> chase;
    std::vector<double> loopback;
    for (const Sample& s : samples_) {
      churn.push_back(s.churn_s * 1e3);
      chase.push_back(s.chase_s * 1e3);
      loopback.push_back(s.loopback_s * 1e3);
    }
    r.note("probe.churn_ms", median(std::move(churn)));
    r.note("probe.chase_ms", median(std::move(chase)));
    r.note("probe.loopback_ms", median(std::move(loopback)));
  }

 private:
  static constexpr int kRoundTrips = 60;
  static constexpr int kChaseSteps = 4000;
  static constexpr std::size_t kMinSamples = 9;
  struct Sample {
    std::int64_t at_ns = 0;
    double churn_s = 0;
    double chase_s = 0;
    double loopback_s = 0;
  };

  LoopbackPair loopback_;  // used by the probe thread only
  ChaseTable chase_;       // likewise
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

using Interval = std::pair<std::int64_t, std::int64_t>;  // [start, end) ns

// Reports setup_s, the median set-up time at nominal host speed.
void add_setup(SpeedProbe& probe, const std::vector<Interval>& setups,
               Report& r) {
  std::vector<double> measured;
  std::vector<double> scaled;
  for (const auto& [t0, t1] : setups) {
    measured.push_back(static_cast<double>(t1 - t0) * 1e-9);
    scaled.push_back(measured.back() / probe.slowdown(t0, t1));
  }
  r.add("setup_s", median(std::move(scaled)), "s");
  r.note("measured.setup_s", median(std::move(measured)));
}


// ---------------------------------------------------------------------------
// The traced run's span state. Tracing is switched on for whole blocks of
// ops; after each traced block the spans of the client, the four daemons
// and the on_data wrapper are drained and folded into per-request numbers,
// so the fixed-size rings never wrap and memory stays flat.

// Takes a collector's spans and empties it; returns how many it dropped.
std::uint64_t take_spans(obs::SpanCollector& c,
                         std::vector<obs::SpanRecord>& out) {
  std::vector<obs::SpanRecord> spans = c.snapshot();
  const std::uint64_t dropped = c.dropped();
  c.clear();
  c.reset_dropped();
  std::move(spans.begin(), spans.end(), std::back_inserter(out));
  return dropped;
}

std::string on_data_json(const OnDataSpan& s) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"trace\":\"%016llx\",\"kind\":\"on_data\",\"start_ns\":%lld,"
                "\"dur_ns\":%lld}",
                static_cast<unsigned long long>(s.trace_id),
                static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns - s.start_ns));
  return buf;
}

class Tracing {
 public:
  explicit Tracing(const std::string& spans_path) : spans_file_(spans_path) {}

  obs::SpanCollector& client_spans() { return client_spans_; }
  OnDataLog& on_data() { return on_data_; }

  // Sampling is decided at the client's root; daemons follow the O token.
  void set(bool on) {
    client_spans_.set_sample_every(on ? 1 : 0);
    on_data_.set_tracing(on);
  }

  // Folds every span recorded since the last drain. Per root: the self-check
  // (every daemon span inside the root; children never sum past it), self
  // time, and the first kSpanFileRoots roots' spans to the spans file.
  void drain(Fleet& fleet) {
    std::vector<obs::SpanRecord> client;
    std::vector<obs::SpanRecord> daemon;
    dropped += take_spans(client_spans_, client);
    for (int i = 0; i < kServers; ++i) {
      dropped += take_spans(fleet.daemon(i).spans(), daemon);
    }
    const std::vector<OnDataSpan> calls = on_data_.take();

    std::map<std::uint64_t, Request> requests;  // by trace id
    for (const obs::SpanRecord& s : client) {
      Request& q = requests[s.trace_id];
      if (s.kind == obs::SpanKind::kRequest) {
        q.root = &s;
      } else {
        q.children.push_back(&s);
      }
    }
    for (const obs::SpanRecord& s : daemon) {
      requests[s.trace_id].daemon.push_back(&s);
    }
    for (const OnDataSpan& c : calls) {
      on_data_us.push_back(us(c.end_ns - c.start_ns));
      if (c.trace_id != 0) requests[c.trace_id].on_data.push_back(&c);
    }
    for (const auto& [id, q] : requests) {
      if (q.root == nullptr) {
        // Daemon work whose root was folded by an earlier drain: a hedge
        // abandoned the request and the daemon finished it afterwards.
        ++violations;
        continue;
      }
      ++roots;
      fold(q);
      if (roots > kSpanFileRoots) continue;
      spans_file_ << obs::to_json(*q.root) << '\n';
      for (const auto* s : q.children) spans_file_ << obs::to_json(*s) << '\n';
      for (const auto* s : q.daemon) spans_file_ << obs::to_json(*s) << '\n';
      for (const auto* c : q.on_data) spans_file_ << on_data_json(*c) << '\n';
    }
  }

  std::vector<double> self_us;     // per root: get minus on_data and backend
  std::vector<double> on_data_us;  // every on_data call while tracing
  std::size_t roots = 0;
  std::size_t violations = 0;
  std::uint64_t dropped = 0;  // spans lost to a full ring

 private:
  // One request's spans, joined by trace id.
  struct Request {
    const obs::SpanRecord* root = nullptr;
    std::vector<const obs::SpanRecord*> children;  // the client's, tiled
    std::vector<const obs::SpanRecord*> daemon;
    std::vector<const OnDataSpan*> on_data;
  };

  void fold(const Request& q) {
    const obs::SpanRecord& root = *q.root;
    // Span clocks are whole µs of the steady clock that now_ns() reads in
    // ns, so ns / 1000 compares exactly with them.
    const SimTime lo = root.start_us;
    const SimTime hi = root.start_us + root.duration_us;
    bool bad = false;
    SimTime tiled = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;  // ns
    for (const auto* s : q.children) {
      tiled += s->duration_us;
      if (s->kind == obs::SpanKind::kBackendFetch) {
        cover.emplace_back(s->start_us * 1000,
                           (s->start_us + s->duration_us) * 1000);
      }
    }
    for (const auto* s : q.daemon) {
      bad |= s->start_us < lo || s->start_us + s->duration_us > hi;
    }
    std::int64_t on_data_ns = 0;
    for (const auto* c : q.on_data) {
      bad |= c->start_ns / 1000 < lo || c->end_ns / 1000 > hi;
      on_data_ns += c->end_ns - c->start_ns;
      cover.emplace_back(c->start_ns, c->end_ns);
    }
    // The root's whole-µs endpoints make it up to 1 µs shorter than it was.
    bad |= tiled > root.duration_us ||
           on_data_ns > (root.duration_us + 1) * 1000;
    violations += bad ? 1 : 0;
    // A hedge can overlap two on_data calls, so self time subtracts their
    // union.
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t frontier = lo * 1000;
    for (const auto& [start, end] : cover) {
      const std::int64_t from = std::max(start, frontier);
      const std::int64_t to = std::min(end, hi * 1000);
      if (to > from) covered += to - from;
      frontier = std::max(frontier, to);
    }
    self_us.push_back(static_cast<double>(root.duration_us) -
                      static_cast<double>(covered) * 1e-3);
  }

  obs::SpanCollector client_spans_{1u << 15, /*sample_every=*/0};
  OnDataLog on_data_;
  std::ofstream spans_file_;
};

// ---------------------------------------------------------------------------
// Generator: one closed-loop ProteusClient over a fleet, checked by the
// oracle.

// The client side of "all observability on": per-request spans on every
// get, and the live power auditor.
struct ClientObservability {
  obs::SpanCollector spans{1u << 14, /*sample_every=*/1};
  obs::PowerAuditor auditor{obs::AuditConfig{}};
};

struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t stale = 0;
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;
};

class Generator {
 public:
  Generator(const WireSpec& spec, Fleet& fleet, Database& db,
            obs::SpanCollector* spans, ClientObservability* obs)
      : db_(db),
        client_(options(spec, fleet, spans, obs),
                [this](std::string_view key) {
                  return db_.current(db_.id_of(key));
                }) {}

  client::ProteusClient& client() { return client_; }

  // Runs `ops` back to back; per-op latency (µs) goes to `lat_us`, and that
  // of gets also to `get_us`.
  void run(const std::vector<Op>& ops, std::size_t begin, std::size_t end,
           Tally& tally, std::vector<double>* lat_us,
           std::vector<double>* get_us = nullptr) {
    std::string value;
    for (std::size_t i = begin; i < end; ++i) {
      const Op& op = ops[i];
      const std::string& key = db_.key(op.key);
      if (op.put) value = db_.next_put(op.key);
      const std::int64_t t0 = now_ns();
      if (op.put) {
        client_.put(key, value, clock_);
      } else {
        value = client_.get(key, clock_);
      }
      const double lat = us(now_ns() - t0);
      clock_ += kLogicalStep;
      if (lat_us != nullptr) lat_us->push_back(lat);
      ++tally.ops;
      if (op.put) continue;
      if (get_us != nullptr) get_us->push_back(lat);
      ++tally.gets;
      switch (db_.classify(op.key, value)) {
        case Verdict::kFresh: break;
        case Verdict::kStale: ++tally.stale; break;
        case Verdict::kDegraded: ++tally.degraded; break;
        case Verdict::kWrong: ++tally.wrong; break;
      }
    }
  }

  // Returns the resize call's wall time in seconds.
  double resize(int n_active) {
    const std::int64_t t0 = now_ns();
    client_.resize(n_active, clock_);
    return seconds_since(t0);
  }

 private:
  static client::ProteusClient::Options options(const WireSpec& spec,
                                                Fleet& fleet,
                                                obs::SpanCollector* spans,
                                                ClientObservability* obs) {
    client::ProteusClient::Options o;  // production defaults: hedging, CRC32C
    o.endpoints = fleet.ports();
    o.ttl = spec.drain;
    o.spans = spans;
    if (obs != nullptr) {
      o.spans = &obs->spans;
      o.auditor = &obs->auditor;
    }
    return o;
  }

  Database& db_;
  SimTime clock_ = kSecond;
  client::ProteusClient client_;
};

// One wire setup: fleet start + client + warm pass.
struct Wire {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<Generator> gen;  // after fleet: destroyed first

  void stop() {
    gen.reset();
    fleet.reset();
  }
};

// `obs` non-null turns every observability feature on, daemons included.
Wire start_wire(const WireSpec& spec, std::uint64_t seed, const Pinning& pin,
                Database& db, Tracing* tracing, ClientObservability* obs,
                std::size_t warm_limit = SIZE_MAX) {
  Wire w;
  w.fleet = std::make_unique<Fleet>(
      spec, pin.cpu, /*obs_on=*/obs != nullptr,
      tracing != nullptr ? &tracing->on_data() : nullptr);
  w.gen = std::make_unique<Generator>(
      spec, *w.fleet, db,
      tracing != nullptr ? &tracing->client_spans() : nullptr, obs);
  const std::vector<Op> warm = warm_ops(spec, seed);
  Tally ignored;
  w.gen->run(warm, 0, std::min(warm.size(), warm_limit), ignored, nullptr);
  return w;
}

// Latency percentiles from log-spaced buckets 0.01% wide, in fixed memory,
// so the process's footprint (rss_mb) does not grow with the number of ops
// a run gets through.
class LatencyHistogram {
 public:
  void add(double us) {
    const double x = std::max(us, kMinUs);
    const auto i = static_cast<std::size_t>(std::log(x / kMinUs) / kLogGrowth);
    ++counts_[std::min(i, counts_.size() - 1)];
    ++total_;
  }
  std::uint64_t count() const { return total_; }

  // Nearest rank, at the bucket's geometric middle; q in (0, 1].
  double percentile(double q) const {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(total_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return kMinUs * std::exp((static_cast<double>(i) + 0.5) * kLogGrowth);
      }
    }
    return 0;
  }

 private:
  static constexpr double kMinUs = 0.1;
  static constexpr double kLogGrowth = 1e-4;  // ln of the bucket width ratio
  // 0.1 µs to about 1 s.
  std::vector<std::uint32_t> counts_ = std::vector<std::uint32_t>(161200);
  std::uint64_t total_ = 0;
};

struct Pass {
  Tally tally;
  LatencyHistogram lat;               // every op, at nominal host speed
  std::vector<double> replay_lat_us;  // the first ops, for obs replays
  std::vector<double> traced_get_us;  // gets in traced blocks, as measured
  // One entry per phase, its resize included: ops per wall second as
  // measured, and the host's slowdown over the phase.
  std::vector<double> phase_ops_s;
  std::vector<double> phase_slowdown;
  std::uint64_t rounds = 0;
  // Traced runs split the ops into untraced [0] and traced [1] blocks.
  double side_wall_s[2] = {0, 0};
  std::uint64_t side_ops[2] = {0, 0};
  client::ProteusClient::Stats before;
  client::ProteusClient::Stats after;
};

// Whole rounds until `seconds` of measured time have passed. Each round
// runs its phases back to back, resizing at the start of each phase. With
// `tracing`, tracing is on for every other kTraceBlock ops, so traced and
// untraced blocks see the same phases and the same host drift.
Pass run_pass(Wire& wire, const WireSpec& spec, std::uint64_t seed,
              double seconds, SpeedProbe& probe, Tracing* tracing) {
  Generator& gen = *wire.gen;
  Pass p;
  p.before = gen.client().stats();
  std::vector<double> phase_lat;
  const std::size_t block = tracing != nullptr ? kTraceBlock : spec.phase_ops;
  double wall_s = 0;
  while (wall_s < seconds) {
    const std::vector<Op> ops = round_ops(spec, seed, p.rounds);
    for (std::size_t ph = 0; ph * spec.phase_ops < ops.size(); ++ph) {
      phase_lat.clear();
      const std::int64_t t0 = now_ns();
      if (ph < spec.resizes.size()) gen.resize(spec.resizes[ph]);
      for (std::size_t j = 0; j * block < spec.phase_ops; ++j) {
        // Each phase starts on the other side from the one before it, so
        // the costly ops right after a resize fall on both sides alike.
        const std::size_t side =
            tracing != nullptr ? (j + ph + p.rounds) % 2 : 0;
        const std::size_t b = ph * spec.phase_ops + j * block;
        if (side == 1) tracing->set(true);
        const std::int64_t b0 = now_ns();
        gen.run(ops, b, b + block, p.tally, &phase_lat,
                side == 1 ? &p.traced_get_us : nullptr);
        p.side_wall_s[side] += seconds_since(b0);
        p.side_ops[side] += block;
        if (side == 1) {
          tracing->set(false);
          tracing->drain(*wire.fleet);
        }
      }
      const std::int64_t t1 = now_ns();
      const double wall = static_cast<double>(t1 - t0) * 1e-9;
      const double slowdown = probe.slowdown(t0, t1);
      p.phase_ops_s.push_back(static_cast<double>(phase_lat.size()) / wall);
      p.phase_slowdown.push_back(slowdown);
      for (const double us : phase_lat) {
        p.lat.add(us / slowdown);
        if (p.replay_lat_us.size() < kReplayLatencies) {
          p.replay_lat_us.push_back(us);
        }
      }
      wall_s += wall;
    }
    ++p.rounds;
  }
  p.after = gen.client().stats();
  return p;
}

void check_tally(const Tally& t, Report& r) {
  r.attempted += t.ops;
  r.failed += t.degraded + t.wrong;
  if (t.wrong > 0) {
    r.fail(std::to_string(t.wrong) + " gets returned a wrong value");
  }
}

// ---------------------------------------------------------------------------
// End-to-end run of a wire workload.

void wire_end_to_end(const Workload& w, const Args& args, const Pinning& pin,
                     Report& r) {
  const WireSpec& spec = w.wire;
  SpeedProbe probe(pin.cpu);
  std::vector<Interval> setups;
  std::unique_ptr<Database> db;
  Wire wire;  // after db: the generator refers to it
  for (int i = 0; i < kSetupRepeats; ++i) {
    wire.stop();  // the previous setup's fleet is torn down, untimed
    db = std::make_unique<Database>(spec);
    const std::int64_t t0 = now_ns();
    wire = start_wire(spec, args.seed, pin, *db, nullptr, nullptr);
    setups.emplace_back(t0, now_ns());
  }
  const Pass p = run_pass(wire, spec, args.seed, args.seconds, probe, nullptr);
  check_tally(p.tally, r);
  const auto backend = p.after.backend_fetches - p.before.backend_fetches;
  const Tally& t = p.tally;
  // Throughput is the median over the run's phases, so a host burst that
  // slows a few phases does not move it. Latency percentiles pool every op:
  // in a resize-churn phase where about half the gets hit, the phase's own
  // median flips between the hit and the miss latency.
  std::vector<double> ops_s;
  for (std::size_t i = 0; i < p.phase_ops_s.size(); ++i) {
    ops_s.push_back(p.phase_ops_s[i] * p.phase_slowdown[i]);
  }
  r.add("throughput_ops_s", median(ops_s), "ops/s");
  r.add("p50_us", p.lat.percentile(0.50), "us");
  r.add("p90_us", p.lat.percentile(0.90), "us");
  r.add("hit_ratio",
        1.0 - static_cast<double>(backend) / static_cast<double>(t.gets),
        "ratio");
  r.add("fresh_ratio",
        1.0 - static_cast<double>(t.stale + t.degraded + t.wrong) /
                  static_cast<double>(t.ops),
        "ratio");
  add_setup(probe, setups, r);
  r.add("rss_mb", peak_rss_mb(), "MB");
  r.note("measured.throughput_ops_s", median(p.phase_ops_s));
  r.note("host_slowdown", median(p.phase_slowdown));
  probe.note_medians(r);
  r.note("ops", static_cast<double>(t.ops));
  r.note("gets", static_cast<double>(t.gets));
  r.note("rounds", static_cast<double>(p.rounds));
  r.note("phases", static_cast<double>(p.phase_ops_s.size()));
  r.note("stale", static_cast<double>(t.stale));
  r.note("degraded", static_cast<double>(t.degraded));
  r.note("wrong", static_cast<double>(t.wrong));
  r.note("backend_fetches", static_cast<double>(backend));
  r.note("latency_samples", static_cast<double>(p.lat.count()));
}

// ---------------------------------------------------------------------------
// The simulator: the four Table II scenarios of default_experiment_config.

struct Golden {
  const char* scenario;
  const char* hit_ratio;
  const char* p999_ms;
  const char* max_slot_p999_ms;
  const char* db_queries;
  const char* energy_kwh;
};

// Outputs at kDefaultSeed, printed with %.17g. Regenerate only for a
// change that is meant to alter simulation results.
constexpr Golden kSimGolden[] = {
    {"Static", "0.95756985007965201", "82.432000000000002",
     "284.67200000000003", "46664", "1.6552769113909722"},
    {"Naive", "0.8996796701205948", "228.352", "610.30399999999997", "109676",
     "1.5177713210990451"},
    {"Consistent", "0.92823323515290546", "94.719999999999999",
     "284.67200000000003", "78774", "1.5035789439436646"},
    {"Proteus", "0.94744547196443796", "84.480000000000004",
     "284.67200000000003", "51678", "1.496130019828211"},
};

constexpr cluster::ScenarioKind kKinds[] = {
    cluster::ScenarioKind::kStatic, cluster::ScenarioKind::kNaive,
    cluster::ScenarioKind::kConsistent, cluster::ScenarioKind::kProteus};

std::vector<cluster::ScenarioConfig> sim_configs(std::uint64_t seed) {
  std::vector<cluster::ScenarioConfig> out;
  for (const auto kind : kKinds) {
    cluster::ScenarioConfig c = cluster::default_experiment_config(kind);
    // Seed 1 is the repo's default experiment; others shift both streams.
    c.rbe.seed += seed - kDefaultSeed;
    c.diurnal.seed += seed - kDefaultSeed;
    out.push_back(std::move(c));
  }
  return out;
}

struct SimOutcome {
  std::string name;
  double hit_ratio = 0;
  double p999_ms = 0;
  double max_slot_p999_ms = 0;
  double db_queries = 0;
  double energy_kwh = 0;
  std::uint64_t requests = 0;
  double cpu_s = 0;     // this thread's CPU time inside run_scenario
  double slowdown = 1;  // the host's, over the same interval
};

SimOutcome run_sim_scenario(const cluster::ScenarioConfig& config,
                            SpeedProbe& probe) {
  SimOutcome o;
  const std::int64_t t0 = now_ns();
  const double cpu0 = thread_cpu_s();
  const cluster::ScenarioResult res = cluster::run_scenario(config);
  o.cpu_s = thread_cpu_s() - cpu0;
  o.slowdown = probe.slowdown(t0, now_ns());
  o.name = res.name;
  o.hit_ratio = res.overall_hit_ratio;
  o.p999_ms = res.overall_p999_ms;
  for (const auto& s : res.slots) {
    o.max_slot_p999_ms = std::max(o.max_slot_p999_ms, s.p999_ms);
  }
  o.db_queries = static_cast<double>(res.db_queries);
  o.energy_kwh = res.total_energy_kwh;
  o.requests = res.total_requests;
  return o;
}

// Golden values at the default seed; the paper's shape at any other.
void check_sim(const std::vector<SimOutcome>& pass, std::uint64_t seed,
               Report& r) {
  for (const SimOutcome& o : pass) {
    if (o.requests == 0) r.fail(o.name + " served no requests");
  }
  if (seed == kDefaultSeed) {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      const SimOutcome& o = pass[i];
      const Golden& g = kSimGolden[i];
      const std::pair<const char*, double> fields[] = {
          {g.hit_ratio, o.hit_ratio},   {g.p999_ms, o.p999_ms},
          {g.max_slot_p999_ms, o.max_slot_p999_ms},
          {g.db_queries, o.db_queries}, {g.energy_kwh, o.energy_kwh}};
      bool match = o.name == g.scenario;
      for (const auto& [want, got] : fields) match &= fmt17(got) == want;
      if (!match) {
        r.fail("sim golden mismatch: got {\"" + o.name + "\", \"" +
               fmt17(o.hit_ratio) + "\", \"" + fmt17(o.p999_ms) + "\", \"" +
               fmt17(o.max_slot_p999_ms) + "\", \"" + fmt17(o.db_queries) +
               "\", \"" + fmt17(o.energy_kwh) + "\"}");
      }
    }
    return;
  }
  const SimOutcome& naive = pass[1];
  const SimOutcome& proteus = pass[3];
  if (!(naive.max_slot_p999_ms > proteus.max_slot_p999_ms)) {
    r.fail("sim shape: naive max-slot p99.9 " + fmt17(naive.max_slot_p999_ms) +
           " ms does not exceed proteus " + fmt17(proteus.max_slot_p999_ms));
  }
  if (!(proteus.hit_ratio >= naive.hit_ratio)) {
    r.fail("sim shape: proteus hit ratio " + fmt17(proteus.hit_ratio) +
           " below naive " + fmt17(naive.hit_ratio));
  }
}

// Runs whole passes over the four scenarios until `seconds` of scenario CPU
// time have passed (at least one). Returns every scenario run in order.
std::vector<SimOutcome> run_sim(
    const std::vector<cluster::ScenarioConfig>& configs, double seconds,
    SpeedProbe& probe) {
  std::vector<SimOutcome> runs;
  double spent = 0;
  do {
    for (const auto& c : configs) {
      runs.push_back(run_sim_scenario(c, probe));
      spent += runs.back().cpu_s;
    }
  } while (spent < seconds);
  return runs;
}

void sim_end_to_end(const Args& args, const Pinning& pin, Report& r) {
  SpeedProbe probe(pin.cpu);
  std::vector<Interval> setups;
  std::vector<cluster::ScenarioConfig> configs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    configs = sim_configs(args.seed);
    for (cluster::ScenarioConfig warm : configs) {
      warm.schedule.resize(1);  // a warm-up run of the first slot only
      g_sink.fetch_add(cluster::run_scenario(warm).total_requests,
                       std::memory_order_relaxed);
    }
    setups.emplace_back(t0, now_ns());
  }
  const std::vector<SimOutcome> runs = run_sim(configs, args.seconds, probe);
  check_sim({runs.begin(), runs.begin() + 4}, args.seed, r);
  // Each scenario's time is its best pass: its CPU time at nominal host
  // speed, the least over the run's passes. The simulator is deterministic,
  // single-threaded and makes next to no syscalls, so its CPU time is its
  // run time less the probe's share and any time the vCPU was stolen, and
  // contention the probe does not fully track can only add to it.
  std::uint64_t requests = 0;
  double total_s = 0;
  std::vector<double> scenario_us;
  for (std::size_t i = 0; i < 4; ++i) {
    double best = runs[i].cpu_s / runs[i].slowdown;
    for (std::size_t j = i + 4; j < runs.size(); j += 4) {
      best = std::min(best, runs[j].cpu_s / runs[j].slowdown);
    }
    requests += runs[i].requests;
    total_s += best;
    scenario_us.push_back(best * 1e6);
    r.note(runs[i].name + ".scaled_s", best);
  }
  std::vector<double> slowdowns;
  for (const SimOutcome& o : runs) {
    r.attempted += o.requests;
    slowdowns.push_back(o.slowdown);
  }
  r.add("throughput_ops_s", static_cast<double>(requests) / total_s, "ops/s");
  r.add("p50_us", percentile(scenario_us, 0.50), "us");
  r.add("p90_us", percentile(scenario_us, 0.90), "us");
  r.add("hit_ratio", runs[3].hit_ratio, "ratio");
  r.add("fresh_ratio", 1.0, "ratio");
  add_setup(probe, setups, r);
  r.add("rss_mb", peak_rss_mb(), "MB");
  r.note("host_slowdown", median(slowdowns));
  probe.note_medians(r);
  for (std::size_t i = 0; i < 4; ++i) {
    const SimOutcome& o = runs[i];
    r.note(o.name + ".hit_ratio", o.hit_ratio);
    r.note(o.name + ".p999_ms", o.p999_ms);
    r.note(o.name + ".max_slot_p999_ms", o.max_slot_p999_ms);
    r.note(o.name + ".db_queries", o.db_queries);
    r.note(o.name + ".energy_kwh", o.energy_kwh);
    r.note(o.name + ".requests", static_cast<double>(o.requests));
  }
  r.note("scenario_runs", static_cast<double>(runs.size()));
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

// Median over five repetitions of `n` calls of body(i), in ns per call.
template <class F>
double ns_per_call(std::size_t n, F&& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t acc = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) acc += body(i);
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(n));
    g_sink.fetch_add(acc, std::memory_order_relaxed);
  }
  return median(reps);
}

// Throughput with every observability feature on (daemon audit + tsdb
// sampler, client spans + auditor) against all off, in 10 alternating
// blocks over two fleets so host drift cancels. Percent of throughput lost.
void obs_cost(const WireSpec& spec, std::uint64_t seed, const Pinning& pin,
              Report& r) {
  Database db_off(spec);
  Database db_on(spec);
  ClientObservability obs;
  const std::size_t warm = 20000;
  Wire off = start_wire(spec, seed, pin, db_off, nullptr, nullptr, warm);
  Wire on = start_wire(spec, seed, pin, db_on, nullptr, &obs, warm);
  const std::vector<Op> ops = make_ops(spec, seed, 0x0b5, 50000);
  const std::size_t block = ops.size() / 10;
  double t_off = 0;
  double t_on = 0;
  Tally tally;
  for (std::size_t b = 0; b < 10; ++b) {
    for (int side = 0; side < 2; ++side) {
      const bool use_on = (side == 0) == (b % 2 == 0);
      const std::int64_t t0 = now_ns();
      (use_on ? on : off)
          .gen->run(ops, b * block, (b + 1) * block, tally, nullptr);
      (use_on ? t_on : t_off) += seconds_since(t0);
    }
  }
  if (tally.wrong > 0) r.fail("observability A/B returned wrong values");
  r.add("obs.cost_pct", 100.0 * (1.0 - t_off / t_on), "%");
}

// Daemon counters the traced pass reports as deltas.
struct FleetCounts {
  std::uint64_t sheds = 0;
  std::uint64_t accepted = 0;
  std::uint64_t evictions = 0;
  std::uint64_t admin_gets = 0;
};

FleetCounts fleet_counts(Fleet& fleet) {
  FleetCounts c;
  for (int i = 0; i < kServers; ++i) {
    net::MemcacheDaemon& d = fleet.daemon(i);
    c.sheds += d.sheds_total();
    c.accepted += d.connections_accepted();
    const cache::CacheStats st = d.stats_snapshot();
    c.evictions += st.evictions;
    c.admin_gets += st.admin_gets;
  }
  return c;
}

// Span timings, the trace self-check, and counts read from the client and
// the fleet over the traced pass.
void trace_metrics(const Tracing& t, const Pass& pass, const FleetCounts& f0,
                   const FleetCounts& f1, Report& r) {
  r.note("trace.roots", static_cast<double>(t.roots));
  r.note("trace.violations", static_cast<double>(t.violations));
  r.note("trace.dropped", static_cast<double>(t.dropped));
  if (t.roots == 0) r.fail("trace self-check: no request was traced");
  if (t.dropped > 0) {
    r.fail("trace self-check: " + std::to_string(t.dropped) +
           " spans overwritten in a full ring");
  }
  if (static_cast<double>(t.violations) >
      kTraceViolationLimit * static_cast<double>(t.roots)) {
    r.fail("trace self-check: " + std::to_string(t.violations) + " of " +
           std::to_string(t.roots) + " roots break span nesting");
  }

  const auto& a = pass.after;
  const auto& b = pass.before;
  const auto count = [&r](const char* name, std::uint64_t v) {
    r.add(name, static_cast<double>(v), "count");
  };
  r.add("client.get_p50_us", percentile(pass.traced_get_us, 0.50), "us");
  r.add("client.get_p999_us", percentile(pass.traced_get_us, 0.999), "us");
  r.add("client.self_p50_us", percentile(t.self_us, 0.50), "us");
  count("client.backend_fetches", a.backend_fetches - b.backend_fetches);
  count("client.old_server_hits", a.old_server_hits - b.old_server_hits);
  count("client.digest_false_positives",
        a.digest_false_positives - b.digest_false_positives);
  count("client.hedges_fired", a.hedges_fired - b.hedges_fired);
  count("client.retries", a.retries - b.retries);
  count("client.timeouts", a.timeouts - b.timeouts);
  count("client.server_sheds", a.server_sheds - b.server_sheds);
  count("client.digest_skips", a.digest_skips - b.digest_skips);
  count("client.stale_reads", pass.tally.stale);

  double on_data_sum = 0;
  for (double v : t.on_data_us) on_data_sum += v;
  const auto per = [](double x, std::size_t n) {
    return x / static_cast<double>(std::max<std::size_t>(1, n));
  };
  r.add("net.on_data_p50_us", percentile(t.on_data_us, 0.50), "us");
  r.add("net.on_data_mean_us", per(on_data_sum, t.on_data_us.size()), "us");
  r.add("net.batches_per_op",
        per(static_cast<double>(t.on_data_us.size()), pass.side_ops[1]),
        "count");
  count("net.sheds", f1.sheds - f0.sheds);
  count("net.connections_accepted", f1.accepted - f0.accepted);
  count("cache.evictions", f1.evictions - f0.evictions);
  count("cache.admin_gets", f1.admin_gets - f0.admin_gets);
  const auto side_throughput = [&pass](int side) {
    return static_cast<double>(pass.side_ops[side]) / pass.side_wall_s[side];
  };
  r.add("bench.trace_overhead_pct",
        100.0 * (1.0 - side_throughput(1) / side_throughput(0)), "%");
}

// Replays that need the warmed fleet. Returns every daemon's digest.
std::vector<std::optional<bloom::BloomFilter>> fleet_replays(
    Wire& wire, const std::vector<std::string>& keys,
    const ring::ProteusPlacement& placement, Report& r) {
  {
    // Plain gets over one connection, for the keys daemon 0 owns.
    client::MemcacheConnection conn(wire.fleet->daemon(0).port());
    std::vector<double> lat;
    for (const std::string& key : keys) {
      if (placement.server_for(key_hash(key), kServers) != 0) continue;
      const std::int64_t t0 = now_ns();
      const auto v = conn.get(key, 0, false, 0, /*want_checksum=*/true);
      lat.push_back(us(now_ns() - t0));
      g_sink.fetch_add(v ? v->size() : 0, std::memory_order_relaxed);
    }
    r.add("net.raw_get_p50_us", percentile(lat, 0.50), "us");
  }
  std::vector<std::optional<bloom::BloomFilter>> digests(kServers);
  std::vector<double> fetch_ms;
  for (int i = 0; i < kServers; ++i) {
    client::MemcacheConnection conn(wire.fleet->daemon(i).port());
    auto& digest = digests[static_cast<std::size_t>(i)];
    for (int rep = 0; rep < 3; ++rep) {
      const std::int64_t t0 = now_ns();
      digest = conn.fetch_digest();
      fetch_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    if (!digest) {
      r.fail("digest fetch from daemon " + std::to_string(i) + " failed");
      digest.emplace(/*num_bits=*/64, /*num_hashes=*/1);  // replays go on
    }
  }
  r.add("bloom.digest_fetch_ms", median(fetch_ms), "ms");
  r.add("bloom.digest_bytes",
        static_cast<double>(digests[0]->words().size() * sizeof(std::uint64_t)),
        "bytes");
  std::vector<double> resize_ms;
  for (int i = 0; i < 10; ++i) {
    const int n_active = i % 2 == 0 ? kServers - 1 : kServers;
    resize_ms.push_back(wire.gen->resize(n_active) * 1e3);
  }
  r.add("client.resize_ms", median(resize_ms), "ms");
  return digests;
}

void routing_replays(
    const std::vector<std::string>& keys,
    const std::shared_ptr<ring::ProteusPlacement>& placement,
    const std::vector<std::optional<bloom::BloomFilter>>& digests, Report& r) {
  const std::size_t n = keys.size();
  const bloom::BloomFilter& digest = *digests[0];
  r.add("bloom.maybe_contains_ns", ns_per_call(n, [&](std::size_t i) {
          return digest.maybe_contains(keys[i]) ? 1u : 0u;
        }), "ns");
  const cluster::Router router(placement, kServers);
  r.add("cluster.decide_ns", ns_per_call(n, [&](std::size_t i) {
          return static_cast<std::uint64_t>(router.decide(keys[i]).primary);
        }), "ns");
  cluster::Router moving(placement, kServers);
  moving.begin_transition(kServers - 1, INT64_MAX, digests);
  r.add("cluster.decide_transition_ns", ns_per_call(n, [&](std::size_t i) {
          const auto d = moving.decide(keys[i]);
          return static_cast<std::uint64_t>(d.primary + d.fallback);
        }), "ns");
  std::vector<std::uint64_t> hashes;
  for (const auto& k : keys) hashes.push_back(key_hash(k));
  r.add("hashring.server_for_ns", ns_per_call(n, [&](std::size_t i) {
          return static_cast<std::uint64_t>(
              placement->server_for(hashes[i], kServers));
        }), "ns");
  const ring::RoutingTable table(*placement, kServers);
  r.add("hashring.routing_table_ns", ns_per_call(n, [&](std::size_t i) {
          return static_cast<std::uint64_t>(table.server_for(hashes[i]));
        }), "ns");
}

// The protocol and engine layers, over the data-plane request bytes the
// daemons received (digest and epoch traffic on the reserved keys left
// out) and over the workload's keys.
void cache_replays(const Database& db, const std::vector<Op>& stream,
                   const OnDataLog& captured, Report& r) {
  const auto data_plane = [](std::vector<std::string> chunks) {
    std::erase_if(chunks, [](const std::string& c) {
      const cache::TextCommand cmd = cache::parse_command_line(first_line(c));
      return cmd.keys.empty() ||
             cache::ShardedCacheServer::is_reserved_key(cmd.keys[0]);
    });
    return chunks;
  };
  const std::vector<std::string> gets = data_plane(captured.get_chunks());
  const std::vector<std::string> sets = data_plane(captured.set_chunks());
  std::vector<std::string_view> lines;
  for (const auto* group : {&gets, &sets}) {
    for (const std::string& c : *group) lines.push_back(first_line(c));
  }
  r.add("cache.parse_ns", ns_per_call(lines.size(), [&](std::size_t i) {
          return static_cast<std::uint64_t>(
              cache::parse_command_line(lines[i]).op);
        }), "ns");
  r.note("replay.get_chunks", static_cast<double>(gets.size()));
  r.note("replay.set_chunks", static_cast<double>(sets.size()));

  // Every replayed get hits: its key is stored first, CRC-stamped like the
  // client's fills, in an engine large enough to keep every replayed key.
  cache::CacheConfig config;
  config.memory_budget_bytes = kReplayBudget;
  {
    cache::ShardedCacheServer engine(config, 1);
    for (const std::string& c : gets) {
      const cache::TextCommand cmd = cache::parse_command_line(first_line(c));
      const std::string v = db.current(db.id_of(cmd.keys[0]));
      engine.set(cmd.keys[0], v, 1, 0, 0, crc32c(v));
    }
    cache::TextProtocolSession session(engine);
    const auto feed_ns = [&](const std::vector<std::string>& chunks) {
      return ns_per_call(chunks.size(), [&](std::size_t i) {
        return static_cast<std::uint64_t>(session.feed(chunks[i], 1).size());
      });
    };
    r.add("cache.feed_set_ns", feed_ns(sets), "ns");
    r.add("cache.feed_get_ns", feed_ns(gets), "ns");
  }
  cache::ShardedCacheServer engine(config, 1);
  std::vector<std::string> values;
  for (const Op& op : stream) values.push_back(db.current(op.key));
  r.add("cache.engine_set_ns", ns_per_call(stream.size(), [&](std::size_t i) {
          engine.set(db.key(stream[i].key), values[i], 1, 0, 0,
                     crc32c(values[i]));
          return 1u;
        }), "ns");
  r.add("cache.engine_get_ns", ns_per_call(stream.size(), [&](std::size_t i) {
          const auto v = engine.get(db.key(stream[i].key), 1);
          return v ? v->size() : 0u;
        }), "ns");
}

// The simulator's layers, fed this workload's keys.
void sim_replays(const WireSpec& spec, const std::vector<std::string>& keys,
                 std::uint64_t seed, Report& r) {
  const std::size_t n = keys.size();
  cache::CacheServer server(
      cluster::default_experiment_config(cluster::ScenarioKind::kProteus)
          .cache.per_server);
  for (const std::string& k : keys) server.set(k, "", 1, spec.value_bytes);
  r.add("cache.server_get_ns", ns_per_call(n, [&](std::size_t i) {
          return server.get(keys[i], 1) ? 1u : 0u;
        }), "ns");
  std::vector<double> snap_ms;
  std::vector<double> event_ns;
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t t0 = now_ns();
    const bloom::BloomFilter f = server.snapshot_digest();
    snap_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    g_sink.fetch_add(f.words().size(), std::memory_order_relaxed);
    // One event per key, each scheduling the next.
    sim::Simulation sim;
    std::size_t left = n;
    std::function<void()> step = [&] {
      if (--left > 0) sim.schedule_after(kLogicalStep, step);
    };
    t0 = now_ns();
    sim.schedule_after(kLogicalStep, step);
    sim.run();
    event_ns.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(n));
  }
  r.add("bloom.snapshot_ms", median(snap_ms), "ms");
  r.add("sim.event_ns", median(event_ns), "ns");
  const ZipfSampler zipf(200000, 0.9);
  Rng rng(seed);
  r.add("workload.zipf_ns", ns_per_call(n, [&](std::size_t) {
          return static_cast<std::uint64_t>(zipf(rng));
        }), "ns");
}

// The client's latency histogram fed this run's own latencies, from one
// thread and from two threads sharing it (the contended case).
void histogram_replays(const std::vector<double>& lat_us, const Pinning& pin,
                       Report& r) {
  const std::size_t m = lat_us.size();
  obs::Histogram h1;
  r.add("obs.histogram_record_ns", ns_per_call(m, [&](std::size_t i) {
          h1.record(lat_us[i]);
          return 1u;
        }), "ns");
  obs::Histogram h2;
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::atomic<int> ready{0};
    const auto work = [&] {
      ready.fetch_add(1);
      while (ready.load() < 2) {
      }
      for (std::size_t i = 0; i < m; ++i) h2.record(lat_us[i]);
    };
    const std::int64_t t0 = now_ns();
    std::thread other([&] {
      pin_current_thread(pin.other_cpu);
      work();
    });
    work();
    other.join();
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(m));
  }
  r.add("obs.histogram_record_2t_ns", median(reps), "ns");
}

void layers(const Workload& w, const Args& args, const Pinning& pin,
            Report& r) {
  const WireSpec& spec = w.wire;
  SpeedProbe probe(pin.cpu);
  if (w.sim) {
    // The simulator has no spans to record; run one pass so the traced run
    // checks the same outputs as the end-to-end run.
    const auto runs = run_sim(sim_configs(args.seed), 0, probe);
    check_sim(runs, args.seed, r);
    for (const SimOutcome& o : runs) r.attempted += o.requests;
  }

  Tracing tracing(args.artifacts + "/" + w.name + "-s" +
                  std::to_string(args.seed) + "-spans.jsonl");
  tracing.on_data().set_capture(true);
  Database db(spec);
  Wire wire = start_wire(spec, args.seed, pin, db, &tracing, nullptr);
  const FleetCounts before = fleet_counts(*wire.fleet);
  const Pass pass =
      run_pass(wire, spec, args.seed, args.seconds, probe, &tracing);
  tracing.on_data().set_capture(false);
  if (!w.sim) {
    check_tally(pass.tally, r);
  } else if (pass.tally.wrong > 0) {
    r.fail("wire replay of the sim stream returned wrong values");
  }
  trace_metrics(tracing, pass, before, fleet_counts(*wire.fleet), r);
  // Per-layer timings are as measured; this converts them to the scale of
  // the end-to-end ones.
  r.add("bench.host_slowdown", median(pass.phase_slowdown), "x");

  std::vector<Op> stream = round_ops(spec, args.seed, 0);
  stream.resize(std::min(kReplayOps, stream.size()));
  std::vector<std::string> keys;
  for (const Op& op : stream) keys.push_back(db.key(op.key));
  const auto placement = std::make_shared<ring::ProteusPlacement>(kServers);
  const auto digests = fleet_replays(wire, keys, *placement, r);
  wire.stop();  // fleet down before the in-process replays
  routing_replays(keys, placement, digests, r);
  cache_replays(db, stream, tracing.on_data(), r);
  sim_replays(spec, keys, args.seed, r);
  histogram_replays(pass.replay_lat_us, pin, r);
  obs_cost(spec, args.seed, pin, r);
}

void write_artifact(const std::string& path, const Args& args,
                    const Pinning& pin, const Report& r) {
  const char* commit = std::getenv("PROTEUS_BENCH_COMMIT");
  std::ofstream out(path);
  out << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << fmt17(args.seconds)
      << ", \"trace\": " << (args.trace ? "true" : "false")
      << ", \"provenance\": {\"commit\": \"" << (commit ? commit : "unknown")
      << "\", \"build_type\": \"" << PROTEUS_BENCH_BUILD_TYPE
      << "\", \"nproc\": " << pin.cpus
      << ", \"pinned\": " << (pin.pinned ? "true" : "false")
      << ", \"cpu\": " << pin.cpu << ", \"other_cpu\": " << pin.other_cpu
      << ", \"kernel\": \""
      << kernel_release() << "\"}, \"correct\": "
      << (r.correct ? "true" : "false")
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"metrics\": " << r.metrics_json() << ", \"counts\": {";
  for (std::size_t i = 0; i < r.counts.size(); ++i) {
    out << (i ? ", " : "") << "\"" << r.counts[i].first
        << "\": " << fmt17(r.counts[i].second);
  }
  out << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: proteus_bench --workload W [--seed N] [--seconds S] "
                 "[--trace 0|1]\n"
                 "  W: hot-get, write-4k, resize-churn or sim-diurnal\n");
    return 2;
  }
  if (std::string_view(PROTEUS_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to measure a %s build; build Release\n",
                 PROTEUS_BENCH_BUILD_TYPE);
    return 2;
  }
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Pinning pin = choose_pinning();
  pin_current_thread(pin.cpu);
  // Artifacts go beside the binary, inside the build directory.
  args.artifacts =
      (std::filesystem::absolute(argv[0]).parent_path() / "artifacts").string();
  std::filesystem::create_directories(args.artifacts);

  Report report;
  try {
    if (args.trace) {
      layers(*it, args, pin, report);
    } else if (it->sim) {
      sim_end_to_end(args, pin, report);
    } else {
      wire_end_to_end(*it, args, pin, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  write_artifact(args.artifacts + "/" + args.workload + "-s" +
                     std::to_string(args.seed) +
                     (args.trace ? "-trace" : "") + ".json",
                 args, pin, report);
  for (const Metric& m : report.metrics) {
    std::printf("%s %s %s %s\n", args.workload.c_str(), m.name.c_str(),
                fmt17(m.value).c_str(), m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.metrics_json().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
