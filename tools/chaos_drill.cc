// chaos-drill — the gray-failure smoke test (scripts/chaos_smoke.sh runs
// it in CI and asserts on the metrics artifact it writes).
//
//   chaos-drill [--out=chaos-metrics.prom] [--keys=40]
//
// Boots an in-process two-daemon fleet with fault injectors on the wire
// (net/fault_injector.h) and drives a hedging, replica-2 ProteusClient
// through the two canonical gray failures (docs/OPERATIONS.md §14):
//
//   1. latency ramp on server 0 — each faulted reply slower than the
//      last, the daemon alive the whole time. Hedged reads must rescue
//      requests (hedge_wins > 0) and the phi-accrual health machine must
//      quarantine the endpoint (quarantine_enters > 0);
//   2. single-bit payload corruption on server 1 — every flipped VALUE
//      must be caught by the end-to-end CRC32C, never served to the
//      caller (corrupt_values_served == 0), and read-repaired from the
//      backend.
//
// Every GET's return value is verified against ground truth. On success
// prints `CHAOS DRILL COMPLETE` and writes the client's full Prometheus
// exposition plus drill counters to --out; any violated invariant prints
// a CHECK-FAILED line and exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/memcache_client.h"
#include "common/hash.h"
#include "common/time.h"
#include "hashring/replicated_ring.h"
#include "net/fault_injector.h"
#include "net/memcache_daemon.h"
#include "obs/metrics.h"

namespace {

using namespace proteus;
using client::ProteusClient;

constexpr int kServers = 2;

bool parse_value(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

bool check(bool ok, const char* what) {
  if (!ok) std::printf("CHECK-FAILED %s\n", what);
  return ok;
}

// Keys whose ring-0 primary is the given server (that's the daemon whose
// fault the phase exercises; with replicas=2 the other daemon holds the
// backup copy).
std::vector<std::string> keys_on(int server, int want) {
  const ring::ProteusPlacement placement(kServers);
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < static_cast<std::size_t>(want); ++i) {
    std::string key = "chaos:" + std::to_string(i);
    if (placement.server_for(hash_bytes(key), kServers) == server) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "chaos-metrics.prom";
  int num_keys = 40;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (parse_value(argv[i], "--out", value)) {
      out_path = value;
    } else if (parse_value(argv[i], "--keys", value)) {
      num_keys = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "usage: chaos-drill [--out=F] [--keys=N]\n");
      return 2;
    }
  }

  // In-process fleet: two real daemons over loopback TCP, each with a
  // fault injector wrapped around its connection handlers.
  std::vector<std::unique_ptr<net::MemcacheDaemon>> daemons(kServers);
  std::vector<net::FaultInjector> injectors(kServers);
  std::vector<std::thread> threads(kServers);
  std::vector<std::uint16_t> ports(kServers);
  for (int i = 0; i < kServers; ++i) {
    cache::CacheConfig cfg;
    cfg.memory_budget_bytes = 8 << 20;
    auto& d = daemons[static_cast<std::size_t>(i)];
    d = std::make_unique<net::MemcacheDaemon>(cfg, 0);
    if (!d->ok()) {
      std::fprintf(stderr, "chaos-drill: daemon %d failed to boot\n", i);
      return 1;
    }
    d->set_handler_wrapper(
        [&injectors, i](std::unique_ptr<net::ConnectionHandler> inner) {
          return injectors[static_cast<std::size_t>(i)].wrap(std::move(inner));
        });
    ports[static_cast<std::size_t>(i)] = d->port();
    threads[static_cast<std::size_t>(i)] =
        std::thread([daemon = d.get()] { daemon->run(); });
  }

  std::uint64_t backend = 0;
  ProteusClient::Options opt;
  opt.endpoints = ports;
  opt.replicas = 2;  // every key also lives on the other daemon
  opt.ttl = 600 * kSecond;
  opt.connect_timeout = 500 * kMillisecond;
  opt.op_timeout = 2 * kSecond;
  opt.max_attempts = 2;
  // Under a sustained ramp one hard timeout is conviction enough, and a
  // huge dwell keeps probation probes out of the drill.
  opt.health.error_threshold = 1;
  opt.health.quarantine_base = 300 * kSecond;
  opt.health.quarantine_cap = 600 * kSecond;
  ProteusClient web(opt, [&backend](std::string_view key) {
    ++backend;
    return "db:" + std::string(key);
  });
  obs::MetricsRegistry registry;
  web.register_metrics(registry);

  const auto value_of = [](const std::string& key) { return "db:" + key; };
  bool ok = true;
  std::uint64_t corrupt_served = 0;
  std::uint64_t value_mismatches = 0;
  const auto verified_get = [&](const std::string& key) {
    if (web.get(key, kSecond) != value_of(key)) ++value_mismatches;
  };

  // Warm fill + steady rounds: connections, phi baselines, and the
  // adaptive hedge-delay estimate all settle on a healthy fleet.
  const std::vector<std::string> ramp_keys = keys_on(0, num_keys);
  for (const std::string& key : ramp_keys) web.put(key, value_of(key), 0);
  for (int round = 0; round < 6; ++round) {
    for (const std::string& key : ramp_keys) verified_get(key);
  }
  ok &= check(value_mismatches == 0, "steady phase served wrong values");

  // Gray failure 1: server 0 slides into saturation — every faulted reply
  // sleeps 60 ms longer than the last, forever. Hedges absorb the first
  // outliers; the first un-hedged ride times out and quarantines.
  injectors[0].inject_latency_ramp(60 * kMillisecond, 1 << 20);
  for (int i = 0; i < 600; ++i) {
    verified_get(ramp_keys[static_cast<std::size_t>(i) % ramp_keys.size()]);
  }
  ok &= check(value_mismatches == 0, "ramp phase served wrong values");
  ok &= check(web.stats().hedges_fired > 0, "no hedges fired under the ramp");
  ok &= check(web.stats().hedge_wins > 0, "no hedged backup ever won");
  ok &= check(web.stats().quarantine_enters >= 1,
              "sustained slowness never quarantined the endpoint");
  const std::uint64_t budget_cap =
      static_cast<std::uint64_t>(0.05 *
                                 static_cast<double>(web.stats().gets)) +
      static_cast<std::uint64_t>(core::HedgeBudget::kDefaultBurst) + 1;
  ok &= check(web.stats().hedges_fired <= budget_cap,
              "hedge extra load exceeded the 5% budget");

  // Gray failure 2: server 1's path starts flipping one bit per reply
  // (server 0 is quarantined, so server 1 is now the serving copy for
  // everything). Not one corrupt byte may reach the caller.
  const std::vector<std::string> flip_keys = keys_on(1, num_keys);
  for (const std::string& key : flip_keys) web.put(key, value_of(key), 0);
  for (const std::string& key : flip_keys) verified_get(key);
  ok &= check(value_mismatches == 0, "warm flip keys served wrong values");
  const std::uint64_t corrupt_before = web.stats().corrupt_values;

  injectors[1].inject(net::FaultKind::kBitFlip, 10);
  for (const std::string& key : flip_keys) {
    if (web.get(key, kSecond) != value_of(key)) ++corrupt_served;
  }
  const std::uint64_t corrupt_caught =
      web.stats().corrupt_values - corrupt_before;
  ok &= check(corrupt_served == 0, "a corrupt value reached the caller");
  ok &= check(corrupt_caught > 0, "bit flips were never caught by the CRC");
  ok &= check(web.stats().read_repairs >= corrupt_caught,
              "corrupt hits were not read-repaired");

  // Clean pass once the injector drains: the repaired fleet serves every
  // key correctly with no new corruption.
  const std::uint64_t corrupt_total = web.stats().corrupt_values;
  for (const std::string& key : flip_keys) verified_get(key);
  ok &= check(value_mismatches == 0, "post-drain pass served wrong values");
  ok &= check(web.stats().corrupt_values == corrupt_total,
              "corruption persisted after the injector drained");

  // The artifact CI asserts on: the client's full exposition plus the
  // drill's own ground-truth counters.
  {
    std::ofstream out(out_path);
    if (!out) {
      std::printf("CHECK-FAILED cannot write %s\n", out_path.c_str());
      ok = false;
    } else {
      out << obs::render_prometheus(registry.snapshot());
      out << "# HELP proteus_drill_corrupt_values_served corrupt payloads "
             "that reached a caller (ground truth)\n"
          << "# TYPE proteus_drill_corrupt_values_served counter\n"
          << "proteus_drill_corrupt_values_served " << corrupt_served << "\n"
          << "# HELP proteus_drill_value_mismatches verified GETs returning "
             "a wrong value\n"
          << "# TYPE proteus_drill_value_mismatches counter\n"
          << "proteus_drill_value_mismatches " << value_mismatches << "\n";
    }
  }

  for (int i = 0; i < kServers; ++i) {
    daemons[static_cast<std::size_t>(i)]->stop();
    threads[static_cast<std::size_t>(i)].join();
  }

  if (!ok) return 1;
  std::printf("CHAOS DRILL COMPLETE gets=%llu hedges=%llu hedge_wins=%llu "
              "quarantines=%llu corrupt_caught=%llu corrupt_served=%llu\n",
              static_cast<unsigned long long>(web.stats().gets),
              static_cast<unsigned long long>(web.stats().hedges_fired),
              static_cast<unsigned long long>(web.stats().hedge_wins),
              static_cast<unsigned long long>(web.stats().quarantine_enters),
              static_cast<unsigned long long>(corrupt_caught),
              static_cast<unsigned long long>(corrupt_served));
  return 0;
}
