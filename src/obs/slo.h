// Multi-window SLO burn-rate engine — the operator-facing alarm layer over
// the metrics spine (obs/metrics.h).
//
// The paper's service-impact claims (§VI: bounded response time, smooth
// hit-ratio through transitions) and its power claims (Fig. 10/11) become
// operable only as SLOs: "the cache tier serves >= X of gets from cache",
// "p99.9 server latency stays under Y", "the fleet draws no more than Z
// watts". Each objective is tracked as an error-budget burn rate over TWO
// windows (the SRE multi-window multi-burn-rate alert pattern): a fast
// window that reacts within seconds and a slow window that suppresses
// flapping. The state machine per objective is
//
//     ok  ->  warn   (fast-window burn >= warn_burn)
//     ok/warn -> page (fast AND slow window burn >= page_burn)
//
// and the worst state across objectives drives the daemon's GET /health
// answer: 200 while nothing pages, 503 once any objective pages, back to
// 200 when the burn drains out of the fast window.
//
// The engine keeps no history of its own: every burn is computed at
// status(now) time from the TimeSeriesStore the metrics sampler fills
// (obs/tsdb), so /health, /timeseries and flight-recorder dumps read the
// same points. The store's downsampler conserves count and sum exactly, so
// each burn is built from point sums and stays exact on every tier:
//
//   hit ratio   1 - sum(hits) / sum(gets) over the per-tick rate series
//               (for evenly spaced ticks, the count-weighted ratio);
//   p99.9 and power
//               "fraction of bad ticks" objectives: tick(now) appends a
//               0/1 breach sample judged from that tick's p99.9 / watts
//               value, and the burn is sum / count of the breach series.
//
// The fast window reads the raw tier; the slow window asks the store for
// `now - slow_window`, which escalates to the mid tier once the raw tier no
// longer reaches back that far.
//
// Thread safety: the engine holds no mutable state; the store locks
// internally, so tick() (sampler thread) and status() (HTTP thread) may
// run concurrently.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"

namespace proteus::obs {

class MetricsRegistry;
class TimeSeriesStore;

enum class SloState { kOk = 0, kWarn = 1, kPage = 2 };
std::string_view slo_state_name(SloState state) noexcept;

struct SloWindows {
  SimTime fast_window = 60 * kSecond;    // reacts to an active incident
  SimTime slow_window = 10 * kMinute;    // suppresses one-scrape blips
  // Burn rate = error_rate / error_budget: 1.0 burns the budget exactly at
  // the sustainable rate. Warn above warn_burn on the fast window; page
  // when BOTH windows burn above page_burn.
  double warn_burn = 2.0;
  double page_burn = 10.0;
};

// Which SLOs to enforce; a zero target disables that objective.
struct SloConfig {
  // Cache-tier hit ratio objective in (0, 1): gets answered from cache.
  double hit_ratio_target = 0;
  // p99.9 latency bound in microseconds, evaluated per sampler tick: a
  // tick whose interval p99.9 exceeds the bound is one "bad" tick.
  double p999_target_us = 0;
  // Power budget in watts, evaluated per tick like the latency bound. This
  // is the live Fig. 10 guardrail: a power-proportional fleet under partial
  // load should sit well below it.
  double power_budget_watts = 0;
  SloWindows windows;
  // Fraction of ticks allowed over the latency / power bound (their
  // implicit availability target). 0.1 = one in ten ticks may breach.
  double window_budget = 0.1;
};

// The store series the engine reads (the sampler derives them) and the
// breach series it writes. Fixed by the embedder, not configuration.
struct SloSeries {
  std::string gets;       // per-tick get rate
  std::string hits;       // per-tick hit rate
  std::string p999_us;    // per-interval p99.9, microseconds
  std::string watts;      // fleet draw
  std::string p999_bad;   // written by tick(): 1 = p99.9 over the bound
  std::string power_bad;  // written by tick(): 1 = draw over the budget
};

// The engine: burn rates per enabled objective over `store`, plus render
// surfaces for /metrics and /health.
class SloEngine {
 public:
  // The store must outlive the engine.
  SloEngine(SloConfig config, TimeSeriesStore* store, SloSeries series);

  bool enabled() const noexcept {
    return config_.hit_ratio_target > 0 || config_.p999_target_us > 0 ||
           config_.power_budget_watts > 0;
  }
  const SloConfig& config() const noexcept { return config_; }
  const SloSeries& series() const noexcept { return series_; }

  // Per sampler tick, after the tick's values are in the store: appends the
  // latency / power breach samples judged from the p99.9 and watts values
  // appended at `now` (a series with no value at `now`, or a value <= 0,
  // is skipped this tick).
  void tick(SimTime now);

  struct Status {
    std::string name;       // "hit_ratio" | "p999_latency" | "power_budget"
    SloState state = SloState::kOk;
    double target = 0;      // objective (ratio, us, or watts)
    // The fast window's hit ratio; the newest p99.9 (us) or watts sample.
    double observed = 0;
    double burn_fast = 0;
    double burn_slow = 0;
  };
  // Enabled objectives only, stable order.
  std::vector<Status> status(SimTime now) const;
  // Worst state across enabled objectives.
  SloState overall(SimTime now) const;

  // Burn-rate/state gauges for every enabled objective plus the overall
  // state, polled against `clock` at snapshot time.
  void register_metrics(MetricsRegistry& registry,
                        std::function<SimTime()> clock);

 private:
  enum Objective { kHitRatio, kP999, kPower };

  double target(Objective objective) const noexcept;  // 0 = disabled
  // Share of the objective's events since `since` that were bad (missed
  // gets, or breaching ticks); nullopt when there were none.
  std::optional<double> bad_fraction(Objective objective,
                                     SimTime since) const;
  // Burn over [now - window, now].
  double burn(Objective objective, SimTime now, SimTime window) const;
  Status evaluate(Objective objective, SimTime now) const;

  SloConfig config_;
  TimeSeriesStore* store_;
  SloSeries series_;
};

// Renders the GET /health contract (docs/OPERATIONS.md §12): HTTP 200 with
// {"status":"ok"} while nothing pages, 503 with the breached objectives
// listed once any objective pages. `extra_json` (may be empty) is spliced
// into the top-level object verbatim — the daemon adds epoch, incarnation,
// PPI and drift gauges there.
std::pair<int, std::string> render_health(const std::vector<SloEngine::Status>& slos,
                                          std::string_view extra_json);

}  // namespace proteus::obs
