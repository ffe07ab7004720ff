// crash-drill — the client half of the crash-recovery smoke test
// (scripts/crash_smoke.sh choreographs the daemon side).
//
//   crash-drill --servers=p1,p2,p3 [--victim=2] [--keys=90] [--host=H]
//
// Drives a ProteusClient against EXTERNAL proteus-cached daemons through a
// full crash episode and verifies all three recovery layers
// (docs/OPERATIONS.md §11) end to end:
//
//   1. fill, then resize 3 -> 2 (epoch 1 taught fleet-wide; transition
//      left draining) and print `MID-RESIZE port=<victim>` — the cue for
//      the harness to `kill -9` that daemon;
//   2. wait for the victim to die and be cold-restarted on the same port;
//   3. keep serving every key (values must stay correct), asserting the
//      client saw the incarnation change and dropped the dead digest;
//   4. resize back to 3 (epoch 2) and issue a raw mutation stamped with
//      the now-stale epoch 1: it must be refused, unacknowledged, and
//      counted by the daemon (`stale_epoch_rejects`).
//
// Prints `RECOVERY COMPLETE` and exits 0 only if every check passed; any
// failure exits 1 with a CHECK-FAILED line naming the broken invariant.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/time.h"
#include "net/memcache_daemon.h"

namespace {

using namespace proteus;
using client::MemcacheConnection;
using client::ProteusClient;

bool parse_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

std::vector<std::uint16_t> parse_ports(const std::string& csv) {
  std::vector<std::uint16_t> ports;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const std::string tok = csv.substr(pos, comma - pos);
    if (!tok.empty()) {
      ports.push_back(static_cast<std::uint16_t>(std::atoi(tok.c_str())));
    }
    pos = comma + 1;
  }
  return ports;
}

bool check(bool ok, const char* what) {
  if (!ok) std::printf("CHECK-FAILED %s\n", what);
  return ok;
}

// One hello round-trip on a fresh connection; nullopt = unreachable.
std::optional<std::pair<std::uint64_t, std::uint64_t>> hello(
    const std::string& host, std::uint16_t port) {
  MemcacheConnection::Options opt;
  opt.host = host;
  opt.connect_timeout = 300 * kMillisecond;
  opt.op_timeout = 300 * kMillisecond;
  MemcacheConnection conn(port, opt);
  return conn.ok() ? conn.hello() : std::nullopt;
}

// Polls the victim until it answers the hello with an incarnation other
// than `before` — i.e. until the kill -9 + cold restart actually happened
// (robust even when the restart is faster than one poll interval). Up to
// ~30 s of wall clock.
bool await_reincarnation(const std::string& host, std::uint16_t port,
                         std::uint64_t before) {
  for (int i = 0; i < 300; ++i) {
    const auto h = hello(host, port);
    if (h.has_value() && h->second != before) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

SimTime wall_now() { return net::monotonic_now(); }

}  // namespace

int main(int argc, char** argv) {
  std::string servers_csv;
  std::string host = "127.0.0.1";
  int victim = 2;
  int num_keys = 90;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_value(argv[i], "--servers", value)) {
      servers_csv = value;
    } else if (parse_value(argv[i], "--host", value)) {
      host = value;
    } else if (parse_value(argv[i], "--victim", value)) {
      victim = std::atoi(value.c_str());
    } else if (parse_value(argv[i], "--keys", value)) {
      num_keys = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr,
                   "usage: crash-drill --servers=p1,p2,p3 [--victim=I] "
                   "[--keys=N] [--host=H]\n");
      return 2;
    }
  }
  const std::vector<std::uint16_t> ports = parse_ports(servers_csv);
  if (ports.size() < 3 || victim < 0 ||
      victim >= static_cast<int>(ports.size())) {
    std::fprintf(stderr, "crash-drill: need >= 3 --servers and a valid "
                         "--victim index\n");
    return 2;
  }
  const std::uint16_t victim_port = ports[static_cast<std::size_t>(victim)];

  std::uint64_t backend = 0;
  ProteusClient::Options opt;
  opt.endpoints = ports;
  opt.hosts.assign(ports.size(), host);
  opt.ttl = 10 * kMinute;  // keep the transition draining across the crash
  opt.connect_timeout = 300 * kMillisecond;
  opt.op_timeout = 300 * kMillisecond;
  opt.max_attempts = 2;
  opt.health.error_threshold = 3;
  ProteusClient web(opt, [&backend](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });

  const auto key_of = [](int i) { return "page:" + std::to_string(i); };
  const auto value_of = [&](int i) { return "db:" + key_of(i); };
  bool ok = true;

  // 1. Warm fill, then shrink with the victim's digest live.
  for (int i = 0; i < num_keys; ++i) web.get(key_of(i), wall_now());
  ok &= check(backend == static_cast<std::uint64_t>(num_keys), "warm fill");
  ok &= check(web.resize(static_cast<int>(ports.size()) - 1, wall_now()),
              "resize must fetch every digest");
  ok &= check(web.cluster_epoch() == 1, "resize must bump the epoch");
  const auto pre_crash = hello(host, victim_port);
  if (!check(pre_crash.has_value(), "victim unreachable before the crash")) {
    return 1;
  }
  std::printf("MID-RESIZE port=%u\n", victim_port);
  std::fflush(stdout);

  // 2. The harness kill -9s the victim and cold-restarts it on the same
  // port; the new process betrays itself by its incarnation.
  if (!check(await_reincarnation(host, victim_port, pre_crash->second),
             "victim was never killed and cold-restarted")) {
    return 1;
  }
  std::printf("VICTIM-RESTARTED port=%u\n", victim_port);
  std::fflush(stdout);

  // 3. Serve through the episode: every value correct, the cold restart
  // detected, the dead digest dropped.
  for (int i = 0; i < num_keys; ++i) {
    ok &= check(web.get(key_of(i), wall_now()) == value_of(i),
                "wrong value after crash");
  }
  ok &= check(web.stats().incarnation_changes >= 1,
              "cold restart must be seen as an incarnation change");

  // 4. Grow back (epoch 2 fleet-wide, re-teaching the restarted daemon),
  // then write with the stale epoch 1: the fence must hold with zero acks.
  web.resize(static_cast<int>(ports.size()), wall_now());
  ok &= check(web.cluster_epoch() == 2, "second resize must reach epoch 2");
  {
    MemcacheConnection::Options copt;
    copt.host = host;
    MemcacheConnection stale(ports[0], copt);
    ok &= check(!stale.set("fence:victim", "stale-write", 0, 0, false,
                           /*epoch=*/1),
                "stale-epoch mutation must be refused");
    ok &= check(stale.last_error() == net::NetError::kStaleEpoch,
                "refusal must surface as kStaleEpoch");
    MemcacheConnection verify(ports[0], copt);
    const auto stored = verify.get("fence:victim");
    ok &= check(!stored.has_value(), "stale mutation must never be stored");
  }

  if (!ok) return 1;
  std::printf("RECOVERY COMPLETE keys=%d backend_fetches=%llu "
              "incarnation_changes=%llu\n",
              num_keys, static_cast<unsigned long long>(backend),
              static_cast<unsigned long long>(
                  web.stats().incarnation_changes));
  return 0;
}
