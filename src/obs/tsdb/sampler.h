// Background metrics sampler — the bridge from the instantaneous
// MetricsRegistry to the retained TimeSeriesStore.
//
// Once per interval the sampler visits the registry (the light visit()
// path: no histogram bucket copies) and derives per-series values:
//
//   counter `foo_total`  -> series `foo_rate`   (delta / dt, per second;
//                           a value decrease means the process restarted,
//                           so the baseline resets instead of emitting a
//                           negative rate)
//   gauge   `bar`        -> series `bar`        (verbatim)
//   histogram `baz`      -> series `baz_p50` / `baz_p99` / `baz_p999`
//                           (microseconds, of the values recorded since
//                           the previous pass) and `baz_rate`
//
// Every derived value is appended to the store and offered to the anomaly
// detector; then the configured per-tick consumer runs. `sample_once(now)`
// is the testable core (fake clocks welcome) and the ONLY tick path:
// start()/stop() wrap it in a named thread for the daemon, so hand-driven
// and threaded ticks run the same code. A stopped or
// never-started sampler costs one relaxed atomic load on the hot path
// (`enabled()`, benched at ≤ 5 ns in bench/micro_tsdb).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"

namespace proteus::obs {

class AnomalyDetector;
class MetricsRegistry;
class TimeSeriesStore;

struct SamplerConfig {
  SimTime interval = kSecond;  // wall cadence of the background thread
  // Runs at the end of every sample_once pass, after its values are in the
  // store (optional). It runs under the pass lock so consumers see ticks
  // one at a time and in order. The daemon hangs its per-tick work here:
  // SLO breach series, the power auditor's feed and the flight recorder's
  // checkpoint cadence.
  std::function<void(SimTime)> on_tick;
};

class MetricsSampler {
 public:
  // `detector` may be null (no anomaly scoring). The registry and store
  // must outlive the sampler.
  MetricsSampler(SamplerConfig config, const MetricsRegistry* registry,
                 TimeSeriesStore* store, AnomalyDetector* detector = nullptr);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  // One sampling pass at time `now`, then config().on_tick(now).
  // Thread-safe; usable directly with a fake clock in tests without
  // start().
  void sample_once(SimTime now);

  // Spawns the background thread. `clock` supplies `now` for each tick.
  void start(std::function<SimTime()> clock);
  void stop();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  // Wall-clock cost of the most recent pass (excluding on_tick),
  // microseconds.
  double last_tick_us() const noexcept { return last_tick_us_.load(); }

  // proteus_tsdb_* self-observability (series count, memory, appends,
  // sampler ticks and tick cost).
  void register_metrics(MetricsRegistry& registry);

  const SamplerConfig& config() const noexcept { return config_; }

 private:
  void run_loop(std::function<SimTime()> clock);

  SamplerConfig config_;
  const MetricsRegistry* registry_;
  TimeSeriesStore* store_;
  AnomalyDetector* detector_;

  std::mutex sample_mu_;  // serializes sample_once passes
  // Baselines from the previous pass, keyed by source metric name: counter
  // values and a copy of each histogram. Transparent comparators: the
  // visitor probes with a string_view per metric per tick, which must not
  // allocate.
  std::map<std::string, double, std::less<>> prev_;
  std::map<std::string, LatencyHistogram, std::less<>> prev_hist_;
  SimTime prev_time_ = -1;
  // Derived (series name, value) pairs for the current pass. Entries (and
  // their string capacity) are reused across ticks — the registry's visit
  // order is stable, so each slot re-assigns the same name without
  // reallocating; scratch_used_ marks the live prefix.
  std::vector<std::pair<std::string, double>> scratch_;
  std::size_t scratch_used_ = 0;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<double> last_tick_us_{0};

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace proteus::obs
