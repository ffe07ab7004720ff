#include "obs/tsdb/tsdb.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace proteus::obs {

namespace {

std::string format_double(double v) {
  char buf[48];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

// --- TsPoint -----------------------------------------------------------------

std::size_t TsPoint::sketch_bucket(double v) noexcept {
  // Bucket 0 absorbs zero, negatives, and anything below 1e-8; quantile()
  // answers those from the min edge. 16 decades cover 1e-8 .. 1e8.
  if (!(v > 1e-8)) return 0;
  const int b = static_cast<int>(std::floor(std::log10(v))) + 8;
  return b <= 0 ? 0 : (b >= 15 ? 15 : static_cast<std::size_t>(b));
}

void TsPoint::add(double v) noexcept {
  const auto f = static_cast<float>(v);
  if (count == 0) {
    min = f;
    max = f;
  } else {
    min = std::min(min, f);
    max = std::max(max, f);
  }
  ++count;
  sum += v;
  std::uint8_t& slot = sketch[sketch_bucket(v)];
  if (slot != 0xff) ++slot;
}

void TsPoint::merge(const TsPoint& other) noexcept {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < sizeof(sketch); ++i) {
    const unsigned merged = static_cast<unsigned>(sketch[i]) + other.sketch[i];
    sketch[i] = merged > 0xff ? 0xff : static_cast<std::uint8_t>(merged);
  }
}

double TsPoint::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t total = 0;
  for (const std::uint8_t c : sketch) total += c;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < sizeof(sketch); ++i) {
    seen += sketch[i];
    if (sketch[i] > 0 && seen >= target) {
      if (i == 0) return min;
      // Geometric midpoint of the decade, clamped into the exact envelope.
      const double mid = std::pow(10.0, static_cast<double>(i) - 8.0 + 0.5);
      return std::clamp(mid, static_cast<double>(min),
                        static_cast<double>(max));
    }
  }
  return max;
}

// --- Tier --------------------------------------------------------------------

void TimeSeriesStore::Tier::add(SimTime t, double v) noexcept {
  // A stale timestamp (clock hiccup) folds into the still-open bucket
  // instead of rewriting a ring that is already time-ordered.
  const SimTime bucket = t - (t % step);
  if (has_pending && bucket > pending.t) {
    push(pending);
    has_pending = false;
  }
  if (!has_pending) {
    pending = TsPoint{};
    pending.t = bucket;
    has_pending = true;
  }
  pending.add(v);
}

void TimeSeriesStore::Tier::push(const TsPoint& p) noexcept {
  ring[head] = p;
  head = (head + 1) % ring.size();
  if (size < ring.size()) ++size;
}

void TimeSeriesStore::Tier::collect(SimTime since,
                                    std::vector<TsPoint>& out) const {
  const std::size_t start = (head + ring.size() - size) % ring.size();
  for (std::size_t i = 0; i < size; ++i) {
    const TsPoint& p = ring[(start + i) % ring.size()];
    if (p.t + step > since) out.push_back(p);
  }
  if (has_pending && pending.t + step > since) out.push_back(pending);
}

SimTime TimeSeriesStore::Tier::oldest() const noexcept {
  if (size == 0) return has_pending ? pending.t : -1;
  const std::size_t start = (head + ring.size() - size) % ring.size();
  return ring[start].t;
}

// --- TimeSeriesStore ---------------------------------------------------------

TimeSeriesStore::TimeSeriesStore(TsdbConfig config) : config_(config) {
  // Steps must ascend and be positive; fall back to sane defaults rather
  // than divide by zero on a hostile config.
  if (config_.raw_step <= 0) config_.raw_step = kSecond;
  if (config_.mid_step <= config_.raw_step) config_.mid_step = config_.raw_step * 10;
  if (config_.coarse_step <= config_.mid_step) {
    config_.coarse_step = config_.mid_step * 6;
  }
  if (config_.raw_points == 0) config_.raw_points = 1;
  if (config_.mid_points == 0) config_.mid_points = 1;
  if (config_.coarse_points == 0) config_.coarse_points = 1;
}

void TimeSeriesStore::append(SimTime t, std::string_view metric,
                             double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(metric);
  if (it == series_.end()) {
    if (series_.size() >= config_.max_series) {
      ++dropped_series_appends_;
      return;
    }
    Series s;
    s.tiers[0].step = config_.raw_step;
    s.tiers[0].ring.resize(config_.raw_points);
    s.tiers[1].step = config_.mid_step;
    s.tiers[1].ring.resize(config_.mid_points);
    s.tiers[2].step = config_.coarse_step;
    s.tiers[2].ring.resize(config_.coarse_points);
    it = series_.emplace(std::string(metric), std::move(s)).first;
  }
  for (Tier& tier : it->second.tiers) tier.add(t, value);
  ++appends_;
}

std::optional<TimeSeriesStore::QueryResult> TimeSeriesStore::query(
    std::string_view metric, SimTime since, SimTime step) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(metric);
  if (it == series_.end()) return std::nullopt;
  const Series& s = it->second;
  // Finest tier whose resolution is at least as coarse as the request.
  std::size_t tier = 2;
  for (std::size_t i = 0; i < 3; ++i) {
    if (step <= s.tiers[i].step) {
      tier = i;
      break;
    }
  }
  // Escalate when the window starts before this tier's retention, the
  // tier has wrapped (so it really lost that history — a young series'
  // finer tier still holds all of it), and a coarser tier remembers it.
  while (tier < 2 && s.tiers[tier].oldest() > since &&
         s.tiers[tier].size == s.tiers[tier].ring.size() &&
         s.tiers[tier + 1].oldest() >= 0 &&
         s.tiers[tier + 1].oldest() < s.tiers[tier].oldest()) {
    ++tier;
  }
  QueryResult out;
  out.step = s.tiers[tier].step;
  s.tiers[tier].collect(since, out.points);
  return out;
}

void TimeSeriesStore::point_json(std::string& out, const TsPoint& p) {
  out += "{\"t_us\":" + std::to_string(p.t);
  out += ",\"count\":" + std::to_string(p.count);
  out += ",\"sum\":" + format_double(p.sum);
  out += ",\"min\":" + format_double(p.min);
  out += ",\"max\":" + format_double(p.max);
  out += ",\"mean\":" + format_double(p.mean());
  out += ",\"p50\":" + format_double(p.quantile(0.5));
  out += ",\"p99\":" + format_double(p.quantile(0.99));
  out += '}';
}

std::string TimeSeriesStore::query_json(std::string_view metric, SimTime since,
                                        SimTime step) const {
  const std::optional<QueryResult> r = query(metric, since, step);
  if (!r.has_value()) return {};
  std::string out = "{\"metric\":\"";
  append_json_escaped(out, metric);
  out += "\",\"step_us\":" + std::to_string(r->step);
  out += ",\"points\":[";
  for (std::size_t i = 0; i < r->points.size(); ++i) {
    if (i != 0) out += ',';
    point_json(out, r->points[i]);
  }
  out += "]}\n";
  return out;
}

std::string TimeSeriesStore::index_json() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, series] : series_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += '"';
  }
  out += "]}\n";
  return out;
}

std::vector<std::string> TimeSeriesStore::metric_names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, series] : series_) out.push_back(name);
  return out;
}

void TimeSeriesStore::dump_jsonl(std::string& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, series] : series_) {
    for (const Tier& tier : series.tiers) {
      std::vector<TsPoint> points;
      tier.collect(0, points);
      for (const TsPoint& p : points) {
        out += "{\"type\":\"point\",\"metric\":\"";
        append_json_escaped(out, name);
        out += "\",\"step_us\":" + std::to_string(tier.step) + ',';
        // Splice the point body ({"t_us":...}) after the envelope fields.
        std::string body;
        point_json(body, p);
        out.append(body, 1, std::string::npos);
        out += '\n';
      }
    }
  }
}

std::size_t TimeSeriesStore::series_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

std::size_t TimeSeriesStore::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::size_t per_series =
      (config_.raw_points + config_.mid_points + config_.coarse_points + 3) *
      sizeof(TsPoint);
  return series_.size() * per_series;
}

std::uint64_t TimeSeriesStore::appends() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appends_;
}

std::uint64_t TimeSeriesStore::dropped_series_appends() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_series_appends_;
}

}  // namespace proteus::obs
