// Extension experiment — server crash with and without §III-E replication.
//
// The paper treats fault tolerance analytically (Eq. 3) and notes a crash
// loses the in-memory cache regardless of placement scheme. This extension
// quantifies the recovery: replay a steady workload, crash one warm cache
// server mid-run, and track the backend (database) fetch rate per time
// window. Without replication the crashed server's working set must be
// re-fetched (a storm proportional to 1/n of the hot set); with r=2 the
// surviving replicas absorb the crash almost entirely.
//
// `--json` swaps the human-readable table for one machine-readable JSON
// object (scripts/bench_json.sh merges it into the benchmark artifact).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/proteus.h"
#include "workload/trace.h"

namespace {

using namespace proteus;

std::vector<double> backend_rate_per_window(
    const std::vector<workload::TraceEvent>& trace, SimTime window,
    SimTime crash_at, int replicas) {
  std::uint64_t backend = 0;
  const auto miss_path = [&backend](std::string_view key) {
    ++backend;
    return "v:" + std::string(key);
  };

  std::vector<double> rates;
  std::uint64_t window_start_count = 0;
  std::size_t current_window = 0;
  bool crashed = false;

  const auto flush_windows = [&](std::size_t upto) {
    while (current_window < upto) {
      rates.push_back(static_cast<double>(backend - window_start_count) /
                      to_seconds(window));
      window_start_count = backend;
      ++current_window;
    }
  };

  ProteusOptions opt;
  opt.max_servers = 10;
  opt.replicas = replicas;
  opt.per_server.memory_budget_bytes = 64 << 20;
  Proteus cluster(opt, miss_path);
  for (const auto& ev : trace) {
    flush_windows(static_cast<std::size_t>(ev.time / window));
    if (!crashed && ev.time >= crash_at) {
      // The crash loses server 4's memory (§III-A). With one ring there is
      // no replica to fail over to, so it is a cold restart: the server
      // rejoins empty and refills from the backend. With r >= 2 it stays
      // down and the surviving replicas serve its keys.
      cluster.fail_server(4);
      if (replicas == 1) cluster.recover_server(4);
      crashed = true;
    }
    cluster.get(ev.key, ev.time);
  }
  flush_windows(static_cast<std::size_t>(trace.back().time / window) + 1);
  return rates;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      std::fprintf(stderr, "usage: ext_failure_recovery [--json]\n");
      return 2;
    }
  }

  workload::TraceConfig tc;
  tc.duration = 8 * kMinute;
  tc.num_pages = 20'000;
  tc.diurnal.mean_rate = 600;
  tc.diurnal.amplitude = 0;
  tc.diurnal.jitter = 0;
  const auto trace = workload::generate_trace(tc);
  const SimTime window = 30 * kSecond;
  const SimTime crash_at = 4 * kMinute;

  const auto r1 = backend_rate_per_window(trace, window, crash_at, 1);
  const auto r2 = backend_rate_per_window(trace, window, crash_at, 2);

  // Summarize the storm as EXCESS over the still-decaying cold-fill
  // baseline: peak post-crash rate minus the rate in the window just
  // before the crash.
  const auto crash_window = static_cast<std::size_t>(crash_at / window);
  const auto excess = [&](const std::vector<double>& rates) {
    double peak = 0;
    for (std::size_t w = crash_window; w < rates.size(); ++w) {
      peak = std::max(peak, rates[w]);
    }
    return std::max(0.0, peak - rates[crash_window - 1]);
  };

  if (json) {
    const auto print_rates = [](const char* name,
                                const std::vector<double>& rates) {
      std::printf("  \"%s\": [", name);
      for (std::size_t w = 0; w < rates.size(); ++w) {
        std::printf("%s%.3f", w ? ", " : "", rates[w]);
      }
      std::printf("],\n");
    };
    std::printf("{\n");
    std::printf("  \"window_s\": %.0f,\n", to_seconds(window));
    std::printf("  \"crash_at_s\": %.0f,\n", to_seconds(crash_at));
    print_rates("r1_fetch_per_s", r1);
    print_rates("r2_fetch_per_s", r2);
    std::printf("  \"excess_fetch_per_s\": {\"r1\": %.3f, \"r2\": %.3f}\n",
                excess(r1), excess(r2));
    std::printf("}\n");
    return 0;
  }

  std::printf("# Extension — backend fetch rate around a cache-server crash\n");
  std::printf("# (crash of server 4 at t=240 s, 10 servers, ~600 req/s)\n");
  std::printf("%-10s %-16s %-16s\n", "window_s", "r=1 [fetch/s]",
              "r=2 [fetch/s]");
  for (std::size_t w = 0; w < r1.size() && w < r2.size(); ++w) {
    std::printf("%-10.0f %-16.1f %-16.1f%s\n", to_seconds(window) * w, r1[w],
                r2[w],
                static_cast<SimTime>(w) * window == crash_at ? "  <- crash"
                                                             : "");
  }

  std::printf("# crash-induced excess fetch rate: r=1 +%.1f/s vs r=2 +%.1f/s\n",
              excess(r1), excess(r2));
  std::printf("# expected: r=1 re-fetches the crashed server's working set;\n");
  std::printf("# r=2 absorbs the crash (only the ~1%% Eq.(3) conflict residue\n");
  std::printf("# where both replicas shared the crashed server)\n");
  return 0;
}
