#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/tsdb/tsdb.h"

namespace proteus::obs {

std::string_view slo_state_name(SloState state) noexcept {
  switch (state) {
    case SloState::kOk:
      return "ok";
    case SloState::kWarn:
      return "warn";
    case SloState::kPage:
      return "page";
  }
  return "?";
}

SloEngine::SloEngine(SloConfig config, TimeSeriesStore* store,
                     SloSeries series)
    : config_(config), store_(store), series_(std::move(series)) {
  PROTEUS_CHECK(store_ != nullptr);
  PROTEUS_CHECK(config_.windows.fast_window > 0);
  PROTEUS_CHECK(config_.windows.slow_window >= config_.windows.fast_window);
}

namespace {

// Indexed by SloEngine::Objective.
constexpr const char* kObjectiveNames[] = {"hit_ratio", "p999_latency",
                                           "power_budget"};

// Points of `series` whose buckets end after `since` (empty if unknown).
std::vector<TsPoint> points_since(const TimeSeriesStore& store,
                                  std::string_view series, SimTime since) {
  std::optional<TimeSeriesStore::QueryResult> r =
      store.query(series, since, /*step=*/0);
  return r.has_value() ? std::move(r->points) : std::vector<TsPoint>{};
}

double sum_of(const std::vector<TsPoint>& points) {
  double sum = 0;
  for (const TsPoint& p : points) sum += p.sum;
  return sum;
}

// The value appended to `series` at `now`: the mean of the raw bucket
// holding `now` (one sample per bucket at the default 1 s tick).
std::optional<double> value_at(const TimeSeriesStore& store,
                               std::string_view series, SimTime now) {
  const std::vector<TsPoint> points = points_since(store, series, now);
  if (points.empty() || points.back().t > now) return std::nullopt;
  return points.back().mean();
}

}  // namespace

void SloEngine::tick(SimTime now) {
  const auto judge = [&](const std::string& source, double bound,
                         const std::string& bad) {
    if (bound <= 0) return;
    const std::optional<double> v = value_at(*store_, source, now);
    if (v.has_value() && *v > 0) store_->append(now, bad, *v > bound ? 1 : 0);
  };
  judge(series_.p999_us, config_.p999_target_us, series_.p999_bad);
  judge(series_.watts, config_.power_budget_watts, series_.power_bad);
}

double SloEngine::target(Objective objective) const noexcept {
  switch (objective) {
    case kHitRatio:
      return config_.hit_ratio_target;
    case kP999:
      return config_.p999_target_us;
    case kPower:
      return config_.power_budget_watts;
  }
  return 0;
}

std::optional<double> SloEngine::bad_fraction(Objective objective,
                                              SimTime since) const {
  if (objective == kHitRatio) {
    const double gets = sum_of(points_since(*store_, series_.gets, since));
    if (gets <= 0) return std::nullopt;
    const double hits = sum_of(points_since(*store_, series_.hits, since));
    return std::clamp(1.0 - hits / gets, 0.0, 1.0);
  }
  const std::vector<TsPoint> bad = points_since(
      *store_, objective == kP999 ? series_.p999_bad : series_.power_bad,
      since);
  double count = 0;
  for (const TsPoint& p : bad) count += p.count;
  if (count <= 0) return std::nullopt;
  return sum_of(bad) / count;
}

double SloEngine::burn(Objective objective, SimTime now,
                       SimTime window) const {
  const double bad = bad_fraction(objective, now - window).value_or(0);
  const double budget = objective == kHitRatio
                            ? 1.0 - config_.hit_ratio_target
                            : config_.window_budget;
  if (budget <= 0) return bad > 0 ? 1e9 : 0.0;
  return bad / budget;
}

SloEngine::Status SloEngine::evaluate(Objective objective, SimTime now) const {
  const SloWindows& w = config_.windows;
  Status s;
  s.name = kObjectiveNames[objective];
  s.target = target(objective);
  s.burn_fast = burn(objective, now, w.fast_window);
  s.burn_slow = burn(objective, now, w.slow_window);
  if (s.burn_fast >= w.page_burn && s.burn_slow >= w.page_burn) {
    s.state = SloState::kPage;
  } else if (s.burn_fast >= w.warn_burn) {
    s.state = SloState::kWarn;
  }
  const SimTime since = now - w.fast_window;
  if (objective == kHitRatio) {
    if (const auto bad = bad_fraction(kHitRatio, since)) s.observed = 1 - *bad;
  } else {
    const std::vector<TsPoint> points = points_since(
        *store_, objective == kP999 ? series_.p999_us : series_.watts, since);
    if (!points.empty()) s.observed = points.back().mean();
  }
  return s;
}

std::vector<SloEngine::Status> SloEngine::status(SimTime now) const {
  std::vector<Status> out;
  for (const Objective o : {kHitRatio, kP999, kPower}) {
    if (target(o) > 0) out.push_back(evaluate(o, now));
  }
  return out;
}

SloState SloEngine::overall(SimTime now) const {
  SloState worst = SloState::kOk;
  for (const Status& s : status(now)) {
    if (static_cast<int>(s.state) > static_cast<int>(worst)) worst = s.state;
  }
  return worst;
}

void SloEngine::register_metrics(MetricsRegistry& registry,
                                 std::function<SimTime()> clock) {
  // Each gauge re-evaluates its objective at snapshot time so /metrics
  // always reflects the current windows.
  for (const Objective o : {kHitRatio, kP999, kPower}) {
    if (target(o) <= 0) continue;
    const std::string prefix =
        std::string("proteus_slo_") + kObjectiveNames[o];
    registry.gauge_fn(prefix + "_state", "0=ok 1=warn 2=page",
                      [this, clock, o] {
                        return static_cast<double>(evaluate(o, clock()).state);
                      });
    registry.gauge_fn(prefix + "_burn_fast",
                      "fast-window error-budget burn rate",
                      [this, clock, o] {
                        return burn(o, clock(), config_.windows.fast_window);
                      });
    registry.gauge_fn(prefix + "_burn_slow",
                      "slow-window error-budget burn rate",
                      [this, clock, o] {
                        return burn(o, clock(), config_.windows.slow_window);
                      });
  }
  registry.gauge_fn("proteus_slo_state",
                    "worst SLO state: 0=ok 1=warn 2=page (503 on /health)",
                    [this, clock] {
                      return static_cast<double>(overall(clock()));
                    });
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::pair<int, std::string> render_health(
    const std::vector<SloEngine::Status>& slos, std::string_view extra_json) {
  SloState worst = SloState::kOk;
  for (const auto& s : slos) {
    if (static_cast<int>(s.state) > static_cast<int>(worst)) worst = s.state;
  }
  const bool healthy = worst != SloState::kPage;
  std::string body = "{\"status\":\"";
  body += healthy ? (worst == SloState::kOk ? "ok" : "warn") : "unhealthy";
  body += "\",\"slos\":[";
  bool first = true;
  for (const auto& s : slos) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":\"" + s.name + "\",\"state\":\"";
    body += slo_state_name(s.state);
    body += "\",\"target\":" + json_number(s.target);
    body += ",\"observed\":" + json_number(s.observed);
    body += ",\"burn_fast\":" + json_number(s.burn_fast);
    body += ",\"burn_slow\":" + json_number(s.burn_slow);
    body += '}';
  }
  body += ']';
  if (!extra_json.empty()) {
    body += ',';
    body += extra_json;
  }
  body += "}\n";
  return {healthy ? 200 : 503, std::move(body)};
}

}  // namespace proteus::obs
