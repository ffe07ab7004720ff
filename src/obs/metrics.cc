#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace proteus::obs {

namespace {

// Prometheus wants 1.5 rendered "1.5" and 3 rendered "3"; %g does both and
// keeps enough digits for 64-bit counters in normal operation.
std::string format_value(double v) {
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// Global recency stamp shared by every ExemplarSet, so merging sets from
// different histograms still picks the most recently recorded exemplar.
std::atomic<std::uint64_t> g_exemplar_seq{0};

std::string format_trace_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

}  // namespace

std::size_t ExemplarSet::bucket_of(double value_us) noexcept {
  if (!(value_us > 1.0)) return 0;
  const auto b = static_cast<std::size_t>(std::log2(value_us));
  return b >= kBuckets ? kBuckets - 1 : b;
}

void ExemplarSet::offer(double value_us, std::uint64_t trace_id) noexcept {
  Exemplar& slot = slots_[bucket_of(value_us)];
  slot.trace_id = trace_id;
  slot.value_us = value_us;
  slot.seq = g_exemplar_seq.fetch_add(1, std::memory_order_relaxed) + 1;
}

void ExemplarSet::merge(const ExemplarSet& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (other.slots_[i].trace_id != 0 &&
        other.slots_[i].seq > slots_[i].seq) {
      slots_[i] = other.slots_[i];
    }
  }
}

const Exemplar* ExemplarSet::nearest(double value_us) const noexcept {
  const std::size_t want = bucket_of(value_us);
  const Exemplar* best = nullptr;
  std::size_t best_dist = kBuckets + 1;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (slots_[i].trace_id == 0) continue;
    const std::size_t dist = i > want ? i - want : want - i;
    if (dist < best_dist) {
      best_dist = dist;
      best = &slots_[i];
    }
  }
  return best;
}

bool ExemplarSet::empty() const noexcept {
  for (const Exemplar& e : slots_) {
    if (e.trace_id != 0) return false;
  }
  return true;
}

MetricsRegistry::Entry* MetricsRegistry::find_or_insert(std::string name,
                                                        std::string help,
                                                        MetricType type) {
  for (const auto& e : entries_) {
    if (e->name == name) return e.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  entry->help = std::move(help);
  entry->type = type;
  entries_.push_back(std::move(entry));
  return entries_.back().get();
}

Counter* MetricsRegistry::counter(std::string name, std::string help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_insert(std::move(name), std::move(help),
                            MetricType::kCounter);
  if (e->counter == nullptr) e->counter = std::make_unique<Counter>();
  return e->counter.get();
}

Gauge* MetricsRegistry::gauge(std::string name, std::string help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e =
      find_or_insert(std::move(name), std::move(help), MetricType::kGauge);
  if (e->gauge == nullptr) e->gauge = std::make_unique<Gauge>();
  return e->gauge.get();
}

Histogram* MetricsRegistry::histogram(std::string name, std::string help) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_insert(std::move(name), std::move(help),
                            MetricType::kHistogram);
  if (e->histogram == nullptr) e->histogram = std::make_unique<Histogram>();
  return e->histogram.get();
}

void MetricsRegistry::counter_fn(std::string name, std::string help,
                                 std::function<double()> fn) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_insert(std::move(name), std::move(help),
                            MetricType::kCounter);
  if (e->counter == nullptr && !e->value_fn) e->value_fn = std::move(fn);
}

void MetricsRegistry::gauge_fn(std::string name, std::string help,
                               std::function<double()> fn) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e =
      find_or_insert(std::move(name), std::move(help), MetricType::kGauge);
  if (e->gauge == nullptr && !e->value_fn) e->value_fn = std::move(fn);
}

void MetricsRegistry::histogram_fn(std::string name, std::string help,
                                   std::function<LatencyHistogram()> fn) {
  const std::lock_guard<std::mutex> lock(mu_);
  Entry* e = find_or_insert(std::move(name), std::move(help),
                            MetricType::kHistogram);
  if (e->histogram == nullptr && !e->histogram_fn) {
    e->histogram_fn = std::move(fn);
  }
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  return snapshot_prefix({});
}

std::vector<MetricSample> MetricsRegistry::snapshot_prefix(
    std::string_view prefix) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (!prefix.empty() &&
        std::string_view(e->name).substr(0, prefix.size()) != prefix) {
      continue;
    }
    MetricSample s;
    s.name = e->name;
    s.help = e->help;
    s.type = e->type;
    switch (e->type) {
      case MetricType::kCounter:
        s.value = e->counter ? static_cast<double>(e->counter->value())
                  : e->value_fn ? e->value_fn()
                                : 0.0;
        break;
      case MetricType::kGauge:
        s.value = e->gauge ? e->gauge->value()
                  : e->value_fn ? e->value_fn()
                                : 0.0;
        break;
      case MetricType::kHistogram:
        if (e->histogram != nullptr) {
          s.hist = e->histogram->snapshot();
          s.exemplars = e->histogram->exemplars();
        } else if (e->histogram_fn) {
          s.hist = e->histogram_fn();
        }
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::visit(
    const std::function<void(const VisitedMetric&)>& fn) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& e : entries_) {
    VisitedMetric v;
    v.name = e->name;
    v.type = e->type;
    switch (e->type) {
      case MetricType::kCounter:
        v.value = e->counter ? static_cast<double>(e->counter->value())
                  : e->value_fn ? e->value_fn()
                                : 0.0;
        break;
      case MetricType::kGauge:
        v.value = e->gauge ? e->gauge->value()
                  : e->value_fn ? e->value_fn()
                                : 0.0;
        break;
      case MetricType::kHistogram:
        if (e->histogram != nullptr) {
          e->histogram->read([&](const LatencyHistogram& h) {
            v.hist = &h;
            fn(v);
          });
        } else {
          const LatencyHistogram h =
              e->histogram_fn ? e->histogram_fn() : LatencyHistogram{};
          v.hist = &h;
          fn(v);
        }
        continue;  // fn ran while the histogram was in scope
    }
    fn(v);
  }
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string render_prometheus(const std::vector<MetricSample>& samples) {
  std::string out;
  for (const MetricSample& s : samples) {
    if (!s.help.empty()) out += "# HELP " + s.name + ' ' + s.help + '\n';
    switch (s.type) {
      case MetricType::kCounter:
        out += "# TYPE " + s.name + " counter\n";
        out += s.name + ' ' + format_value(s.value) + '\n';
        break;
      case MetricType::kGauge:
        out += "# TYPE " + s.name + " gauge\n";
        out += s.name + ' ' + format_value(s.value) + '\n';
        break;
      case MetricType::kHistogram: {
        out += "# TYPE " + s.name + " summary\n";
        for (const auto& [label, q] :
             {std::pair<const char*, double>{"0.5", 0.5},
              {"0.9", 0.9},
              {"0.99", 0.99},
              {"0.999", 0.999}}) {
          const double qv = s.hist.quantile(q);
          out += s.name + "{quantile=\"" + label + "\"} " + format_value(qv);
          // OpenMetrics exemplar: link this quantile's bucket to the last
          // sampled trace through it, so an operator can jump from a p99.9
          // line straight to `proteus-spans` output.
          if (const Exemplar* ex = s.exemplars.nearest(qv)) {
            out += " # {trace_id=\"" + format_trace_id(ex->trace_id) +
                   "\"} " + format_value(ex->value_us);
          }
          out += '\n';
        }
        out += s.name + "_sum " +
               format_value(s.hist.mean() *
                            static_cast<double>(s.hist.count())) +
               '\n';
        out += s.name + "_count " +
               format_value(static_cast<double>(s.hist.count())) + '\n';
        break;
      }
    }
  }
  return out;
}

std::string render_stats_text(const std::vector<MetricSample>& samples) {
  std::string out;
  const auto stat = [&out](const std::string& name, double v) {
    out += "STAT " + name + ' ' + format_value(v) + "\r\n";
  };
  for (const MetricSample& s : samples) {
    switch (s.type) {
      case MetricType::kCounter:
      case MetricType::kGauge:
        stat(s.name, s.value);
        break;
      case MetricType::kHistogram:
        stat(s.name + "_count", static_cast<double>(s.hist.count()));
        stat(s.name + "_mean", s.hist.mean());
        stat(s.name + "_p50", s.hist.quantile(0.5));
        stat(s.name + "_p90", s.hist.quantile(0.9));
        stat(s.name + "_p99", s.hist.quantile(0.99));
        stat(s.name + "_p999", s.hist.quantile(0.999));
        stat(s.name + "_max", s.hist.max_us());
        break;
    }
  }
  out += "END\r\n";
  return out;
}

}  // namespace proteus::obs
