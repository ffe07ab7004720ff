// Microbenchmarks — discrete-event simulator throughput. A full Fig. 9 run
// is ~10M events; the event loop must stay in the tens of nanoseconds per
// event for the whole 4-scenario suite to regenerate in seconds.
// BM_ClusterRequest times the cluster model above the event core: one
// simulated user request through every tier.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "cluster/scenario.h"
#include "sim/queueing_server.h"
#include "sim/simulation.h"

namespace {

using namespace proteus;
using namespace proteus::sim;

void BM_ScheduleAndRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_ScheduleAndRun);

void BM_SelfReschedulingChain(benchmark::State& state) {
  // The common pattern: every callback schedules its successor (user think
  // loops, samplers).
  for (auto _ : state) {
    Simulation sim;
    int remaining = 1000;
    std::function<void()> step = [&] {
      if (--remaining > 0) sim.schedule_after(10, step);
    };
    sim.schedule_at(0, step);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SelfReschedulingChain);

// A chain whose closures carry what the cluster model's closures carry: a
// key string too long for the small-string buffer, a nested completion
// callback and a shared_ptr. Such a closure does not fit std::function's
// inline buffer, so any copy the event core makes costs allocations.
struct HeavyStep {
  Simulation* sim;
  int* remaining;
  std::string key;
  std::function<void()> done;
  std::shared_ptr<int> owner;
  void operator()() const {
    if (--*remaining > 0) {
      sim->schedule_after(10, HeavyStep{sim, remaining, key, done, owner});
    } else {
      done();
    }
  }
};

void BM_HeavyCaptureChain(benchmark::State& state) {
  const std::string key = "page:" + std::to_string(state.range(0)) +
                          ":user-session-fragment";
  auto owner = std::make_shared<int>(0);
  int finished = 0;
  for (auto _ : state) {
    Simulation sim;
    int remaining = 1000;
    sim.schedule_at(0, HeavyStep{&sim, &remaining, key, [&finished] { ++finished; },
                                 owner});
    sim.run();
  }
  benchmark::DoNotOptimize(finished);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_HeavyCaptureChain)->Arg(42);

// A saturated station: arrivals every 1 us, 50 us service, 8 slots, so all
// but the first 8 jobs wait in the station's cells (a database shard under
// overload).
void BM_QueueingServerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    QueueingServer server(sim, "s", 8);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [&] { server.submit(50, [] {}); });
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_QueueingServerThroughput);

// An idle station: arrivals every 10 us, 50 us service, 8 slots, so at most
// 5 jobs are in service and every job starts at once, its callable riding
// in its completion event (the cluster model's web and cache stations).
void BM_QueueingServerIdle(benchmark::State& state) {
  for (auto _ : state) {
    Simulation sim;
    QueueingServer server(sim, "s", 8);
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(10 * i, [&] { server.submit(50, [] {}); });
    }
    sim.run();
    benchmark::DoNotOptimize(server.max_queue_depth());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_QueueingServerIdle);

void BM_DeepEventHeap(benchmark::State& state) {
  // Heap behaviour with many co-pending events (peak RBE population).
  const auto pending = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulation sim;
    for (int i = 0; i < pending; ++i) {
      sim.schedule_at((i * 2654435761u) % 1000000, [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * pending);
}
BENCHMARK(BM_DeepEventHeap)->Arg(1000)->Arg(100000);

// The cluster model's event mix: 166 users' think timers pending 0.5 s
// ahead, while each request runs a short chain of near events (request hop,
// service completion on an 8-slot station, reply hop) before its user
// thinks again. Four events per request.
struct FarTimerMix {
  static constexpr int kUsers = 166;
  Simulation sim;
  QueueingServer server{sim, "cache", 8};
  int remaining;

  explicit FarTimerMix(int requests) : remaining(requests) {
    for (int u = 0; u < kUsers; ++u) {
      sim.schedule_at(u * 3 * kMillisecond, [this, u] { request(u); });
    }
  }
  void request(int user) {
    if (remaining-- <= 0) return;
    sim.schedule_after(250 * kMicrosecond, [this, user] {
      server.submit(150 * kMicrosecond, [this, user] {
        sim.schedule_after(250 * kMicrosecond, [this, user] {
          sim.schedule_after(500 * kMillisecond,
                             [this, user] { request(user); });
        });
      });
    });
  }
};

void BM_FarTimerMix(benchmark::State& state) {
  constexpr int kRequests = 10'000;
  for (auto _ : state) {
    FarTimerMix mix(kRequests);
    mix.sim.run();
    benchmark::DoNotOptimize(mix.remaining);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4 *
                          kRequests);
}
BENCHMARK(BM_FarTimerMix);

// The cluster model's request path: RBE think loop, web tier, Algorithm 2,
// pooled cache-tier gets and sets, database fetches, reply. Runs the
// default experiment's Proteus scenario for its first `range(0)`
// provisioning slots (two simulated minutes each, about 25 k requests per
// slot) and reports wall nanoseconds per completed request as
// ns_per_request. The scenario's setup (placement, router, empty caches)
// is inside the timing; it is a small share of a three-slot run.
void BM_ClusterRequest(benchmark::State& state) {
  cluster::ScenarioConfig cfg =
      cluster::default_experiment_config(cluster::ScenarioKind::kProteus);
  cfg.schedule.resize(static_cast<std::size_t>(state.range(0)));
  std::uint64_t requests = 0;
  std::chrono::nanoseconds elapsed{0};
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::ScenarioResult r = cluster::run_scenario(cfg);
    elapsed += std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(r.total_energy_kwh);
    requests += r.total_requests;
  }
  state.SetItemsProcessed(static_cast<int64_t>(requests));
  state.counters["ns_per_request"] =
      requests ? static_cast<double>(elapsed.count()) /
                     static_cast<double>(requests)
               : 0.0;
}
BENCHMARK(BM_ClusterRequest)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace
