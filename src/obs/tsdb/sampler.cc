#include "obs/tsdb/sampler.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/tsdb/anomaly.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::obs {

namespace {

// foo_total -> foo; anything else unchanged (the caller appends _rate).
std::string_view rate_stem(std::string_view name) {
  constexpr std::string_view kTotal = "_total";
  if (name.size() > kTotal.size() &&
      name.substr(name.size() - kTotal.size()) == kTotal) {
    name.remove_suffix(kTotal.size());
  }
  return name;
}

}  // namespace

MetricsSampler::MetricsSampler(SamplerConfig config,
                               const MetricsRegistry* registry,
                               TimeSeriesStore* store,
                               AnomalyDetector* detector)
    : config_(config), registry_(registry), store_(store),
      detector_(detector) {
  if (config_.interval < kMillisecond) config_.interval = kMillisecond;
}

MetricsSampler::~MetricsSampler() { stop(); }

void MetricsSampler::sample_once(SimTime now) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::lock_guard<std::mutex> lock(sample_mu_);
  const double dt =
      prev_time_ >= 0 && now > prev_time_ ? to_seconds(now - prev_time_) : 0;
  scratch_used_ = 0;
  // Reuses a scratch slot's string capacity: visit order is stable across
  // ticks, so the assign is usually a same-length overwrite, not a realloc.
  const auto emit = [this](std::string_view stem, std::string_view suffix,
                           double value) {
    if (scratch_used_ == scratch_.size()) scratch_.emplace_back();
    auto& [name, v] = scratch_[scratch_used_++];
    name.assign(stem);
    name.append(suffix);
    v = value;
  };
  // Baseline upsert without allocating on the (steady-state) hit path.
  const auto remember = [this](std::string_view name, double value) {
    const auto it = prev_.lower_bound(name);
    if (it != prev_.end() && it->first == name) {
      it->second = value;
    } else {
      prev_.emplace_hint(it, std::string(name), value);
    }
  };
  // The registry lock is held only for the visit; appends and anomaly
  // scoring run against the collected scratch afterwards.
  const auto visitor = [&](const MetricsRegistry::VisitedMetric& m) {
    switch (m.type) {
      case MetricType::kCounter: {
        const auto it = prev_.find(m.name);
        // A counter running backwards means the process (or the counter)
        // reset; re-baseline silently rather than emit a negative rate.
        if (it != prev_.end() && dt > 0 && m.value >= it->second) {
          emit(rate_stem(m.name), "_rate", (m.value - it->second) / dt);
        }
        remember(m.name, m.value);
        break;
      }
      case MetricType::kGauge:
        emit(m.name, {}, m.value);
        break;
      case MetricType::kHistogram: {
        const LatencyHistogram& h = *m.hist;
        auto it = prev_hist_.find(m.name);
        const bool baselined = it != prev_hist_.end();
        if (!baselined) {
          it = prev_hist_.emplace(std::string(m.name), LatencyHistogram{})
                   .first;
        }
        LatencyHistogram& base = it->second;
        // A histogram that shrank was reset: the interval starts empty.
        if (h.count() < base.count()) base.clear();
        const auto delta = static_cast<double>(h.count() - base.count());
        if (baselined && dt > 0) emit(m.name, "_rate", delta / dt);
        // Quantiles of this interval only (the first pass: since the
        // histogram began), so a recent tail shows however long the
        // process has been up.
        if (delta > 0) {
          emit(m.name, "_p50", h.quantile_since(base, 0.5));
          emit(m.name, "_p99", h.quantile_since(base, 0.99));
          emit(m.name, "_p999", h.quantile_since(base, 0.999));
        }
        base = h;  // same-size vector copy: reuses the baseline's buffer
        break;
      }
    }
  };
  registry_->visit(visitor);
  for (std::size_t i = 0; i < scratch_used_; ++i) {
    const auto& [name, value] = scratch_[i];
    store_->append(now, name, value);
    if (detector_ != nullptr) detector_->observe(now, name, value);
  }
  prev_time_ = now;
  ticks_.fetch_add(1, std::memory_order_relaxed);
  last_tick_us_.store(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - wall_start)
          .count(),
      std::memory_order_relaxed);
  if (config_.on_tick) config_.on_tick(now);
}

void MetricsSampler::start(std::function<SimTime()> clock) {
  const std::lock_guard<std::mutex> lock(thread_mu_);
  if (thread_.joinable()) return;
  stopping_ = false;
  enabled_.store(true, std::memory_order_relaxed);
  thread_ = std::thread(&MetricsSampler::run_loop, this, std::move(clock));
}

void MetricsSampler::stop() {
  {
    const std::lock_guard<std::mutex> lock(thread_mu_);
    if (!thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  {
    const std::lock_guard<std::mutex> lock(thread_mu_);
    thread_ = std::thread();
    enabled_.store(false, std::memory_order_relaxed);
  }
}

void MetricsSampler::run_loop(std::function<SimTime()> clock) {
  const auto interval =
      std::chrono::microseconds(static_cast<std::int64_t>(config_.interval));
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stopping_) {
    lock.unlock();
    sample_once(clock());
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stopping_; });
  }
}

void MetricsSampler::register_metrics(MetricsRegistry& registry) {
  registry.gauge_fn("proteus_tsdb_series",
                    "time series retained by the flight-recorder store",
                    [this] {
                      return static_cast<double>(store_->series_count());
                    });
  registry.gauge_fn("proteus_tsdb_memory_bytes",
                    "bytes of retained time-series points",
                    [this] {
                      return static_cast<double>(store_->memory_bytes());
                    });
  registry.counter_fn("proteus_tsdb_appends_total",
                      "samples appended to the time-series store",
                      [this] {
                        return static_cast<double>(store_->appends());
                      });
  registry.counter_fn(
      "proteus_tsdb_dropped_series_total",
      "appends refused because the series cap was reached",
      [this] {
        return static_cast<double>(store_->dropped_series_appends());
      });
  registry.counter_fn("proteus_tsdb_sampler_ticks_total",
                      "sampling passes completed",
                      [this] { return static_cast<double>(ticks()); });
  registry.gauge_fn("proteus_tsdb_sampler_tick_us",
                    "wall-clock cost of the most recent sampling pass",
                    [this] { return last_tick_us(); });
}

}  // namespace proteus::obs
