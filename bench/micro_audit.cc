// Microbenchmarks — live audit layer overhead (obs/audit.h, obs/slo.h).
//
// The auditor is fed from tick()/sampler-tick points, never per request;
// the only thing the request hot path ever pays is the disabled gate (a
// null pointer test plus a clock compare). scripts/bench_json.sh asserts
// that gate stays under 2 ns/op. The per-tick entry points (observe, SLO
// tick and status over the store, health render) run about once a second,
// so their absolute cost only has to vanish next to a 1 s budget —
// measured here for the record. Exemplar
// capture piggybacks on the existing histogram mutex; the delta against a
// plain record is the marginal cost of trace linking.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/time.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/tsdb/tsdb.h"

namespace {

using namespace proteus;
using namespace proteus::obs;

// The get-path cost of auditing when it is OFF: exactly the branch the
// facade/client/daemon tick paths execute per operation.
void BM_AuditDisabledGate(benchmark::State& state) {
  PowerAuditor* auditor = nullptr;
  benchmark::DoNotOptimize(auditor);
  SimTime last_feed = 0;
  SimTime now = 0;
  for (auto _ : state) {
    now += 100;
    if (auditor != nullptr && now - last_feed >= kSecond) {
      last_feed = now;
    }
    benchmark::DoNotOptimize(last_feed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditDisabledGate);

// One roll-up observation over a 10-server fleet (the ~1/s cost).
void BM_AuditObserve(benchmark::State& state) {
  AuditConfig cfg;
  cfg.window = kHour;  // windows roll rarely; measure the integration path
  PowerAuditor auditor(cfg);
  std::vector<ServerAuditSample> fleet(10);
  SimTime now = 0;
  for (auto _ : state) {
    now += kSecond;
    for (auto& s : fleet) {
      s.gets_total += 1000;
      s.hits_total += 900;
    }
    auditor.observe(now, fleet);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditObserve);

void BM_AuditSnapshot(benchmark::State& state) {
  AuditConfig cfg;
  PowerAuditor auditor(cfg);
  std::vector<ServerAuditSample> fleet(10);
  auditor.observe(0, fleet);
  for (auto& s : fleet) s.gets_total = 1000;
  auditor.observe(kSecond, fleet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auditor.snapshot());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditSnapshot);

// The engine's store-side inputs for one sampler tick at `now`.
void append_tick(TimeSeriesStore& store, SimTime now) {
  store.append(now, "gets_rate", 1000);
  store.append(now, "hits_rate", 990);
  store.append(now, "p999_us", 1200);
  store.append(now, "watts", 300);
}

SloSeries bench_series() {
  return {"gets_rate", "hits_rate", "p999_us",
          "watts",     "p999_bad",  "power_bad"};
}

// One sampler tick's SLO work plus a full status read: the tick's store
// appends, the breach judgement, and every burn over a store holding a
// fast window's worth of history (the ~1/s cost).
void BM_SloTickAndStatus(benchmark::State& state) {
  SloConfig cfg;
  cfg.hit_ratio_target = 0.95;
  cfg.p999_target_us = 5000;
  cfg.power_budget_watts = 500;
  TimeSeriesStore store;
  SloEngine engine(cfg, &store, bench_series());
  SimTime now = 0;
  for (auto _ : state) {
    now += kSecond;
    append_tick(store, now);
    engine.tick(now);
    benchmark::DoNotOptimize(engine.overall(now));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SloTickAndStatus);

void BM_HealthRender(benchmark::State& state) {
  SloConfig cfg;
  cfg.hit_ratio_target = 0.95;
  cfg.p999_target_us = 5000;
  TimeSeriesStore store;
  SloEngine engine(cfg, &store, bench_series());
  append_tick(store, kSecond);
  engine.tick(kSecond);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        render_health(engine.status(kSecond), "\"epoch\":1"));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HealthRender);

// Exemplar capture vs a plain histogram record: the marginal cost of
// retaining a trace id per bucket under the same mutex.
void BM_HistogramRecordPlain(benchmark::State& state) {
  Histogram h;
  double v = 1.0;
  for (auto _ : state) {
    h.record(v += 1.0);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecordPlain);

void BM_HistogramRecordWithExemplar(benchmark::State& state) {
  Histogram h;
  double v = 1.0;
  std::uint64_t tid = 1;
  for (auto _ : state) {
    h.record(v += 1.0, tid++);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecordWithExemplar);

}  // namespace
